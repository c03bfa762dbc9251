#!/usr/bin/env bash
# CI entry point: builds and runs the full test suite four ways —
# plain, under ThreadSanitizer (the parallel engine's data-race gate),
# under AddressSanitizer, and under UndefinedBehaviorSanitizer (the
# decode-path gate: shifts/overflows on untrusted bytes). The suite
# includes oracle_test, the seeded differential oracle (COLMR_FAULT_SEED,
# default 17). Usage:
#
#   tools/check.sh            # all four configurations
#   tools/check.sh plain      # just the normal build
#   tools/check.sh thread     # just the TSan build
#   tools/check.sh address    # just the ASan build
#   tools/check.sh undefined  # just the UBSan build
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
if [[ $# -gt 0 ]]; then MODES=("$@"); else MODES=(plain thread address undefined); fi

run_mode() {
  local mode="$1" dir sanitize
  case "$mode" in
    plain)     dir=build        sanitize="" ;;
    thread)    dir=build-tsan   sanitize=thread ;;
    address)   dir=build-asan   sanitize=address ;;
    undefined) dir=build-ubsan  sanitize=undefined ;;
    *) echo "unknown mode: $mode (want plain|thread|address|undefined)" >&2; exit 2 ;;
  esac
  echo "=== [$mode] configure + build ($dir) ==="
  cmake -B "$dir" -S . -DCOLMR_SANITIZE="$sanitize" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$mode] ctest ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

for mode in "${MODES[@]}"; do
  run_mode "$mode"
done
echo "=== all checks passed ==="
