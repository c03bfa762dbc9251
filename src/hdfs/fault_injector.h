#ifndef COLMR_HDFS_FAULT_INJECTOR_H_
#define COLMR_HDFS_FAULT_INJECTOR_H_

#include <cstdint>
#include <set>
#include <string>

#include "common/hash.h"
#include "hdfs/cluster.h"

namespace colmr {

/// Deterministic fault schedule for the simulated datanodes. Configured on
/// MiniHdfs (SetFaultConfig) and consulted by FileReader on every replica
/// read attempt, by FileWriter on every block seal, and by the
/// OutputCommitter on every commit. All probabilistic faults are driven by
/// a counter-mode hash of draw coordinates, never by a shared RNG: whether
/// a given attempt fails is a pure function of what the task is doing, so
/// fault schedules reproduce exactly across runs and are independent of
/// thread interleaving.
///
/// Draw-keying contract (the determinism guarantee depends on it):
///  - every draw hashes (seed, key, node, salt, draw) through splitmix64;
///  - READ draws key on the HDFS block id; the salt is the task attempt's
///    ReadContext::fault_salt (the engine uses split_index * 131 + attempt
///    for map attempts), and `draw` is the reader's private running
///    counter, incremented per consulted attempt — a reader's schedule is
///    a pure function of its own read history;
///  - WRITE draws key on hash(path) + block_index, offset into a disjoint
///    domain (kWriteDomain) so a write draw can never alias a read draw of
///    the same numeric block id; the salt is WriteContext::fault_salt (the
///    engine keys reduce-output attempts with the high bit set:
///    0x8000000000000000 | (partition * 131 + attempt)), and `draw` is the
///    writer's private counter;
///  - COMMIT draws key on hash(task id) (task commit) or a fixed job key
///    (job commit), in the kCommitDomain, salted per attempt.
/// Re-executed attempts therefore draw fresh outcomes (new salt), while
/// the same attempt replayed anywhere — any thread count, any
/// interleaving — draws the same outcomes in the same order.
///
/// Fault taxonomy (see DESIGN.md §7 and §11):
///  - transient replica read errors (`read_error_p`, per replica attempt):
///    the client fails over to the next replica within the same read;
///  - per-node flakiness (`flaky_nodes` + `flaky_read_error_p`): elevated
///    transient-error probability when a specific datanode serves;
///  - broken execution nodes (`broken_nodes`): every read issued by a task
///    running on such a node fails — the "bad local disk controller"
///    failure Hadoop's tracker blacklisting exists for;
///  - slow datanodes (`slow_nodes` + `slow_read_latency_ms`): reads
///    succeed but stall for real wall-clock time, charged to
///    IoStats::stall_seconds and visible in JobReport::wall_seconds;
///  - transient write errors (`write_error_p`, per sealed block): the
///    pipeline ack fails, the writer goes sticky-bad, and the task retries
///    the whole attempt (HDFS writers cannot resume a torn pipeline);
///  - slow write nodes (`slow_write_nodes` + `slow_write_latency_ms`):
///    seals succeed but stall, same accounting as slow reads;
///  - write-death nodes (`write_death_nodes`): the node dies (KillNode)
///    the moment a writer executing on it seals its first block — the
///    "datanode crashes mid-write" case the commit protocol exists for;
///  - commit faults (`task_commit_error_p`, `job_commit_error_p`): the
///    committer's rename step fails before mutating the namespace.
/// Permanent replica corruption (bit-flips caught by block CRCs) is not
/// probabilistic; it is registered per replica via MiniHdfs::CorruptReplica.
struct FaultConfig {
  uint64_t seed = 1;

  /// Probability that any single replica read attempt fails transiently.
  double read_error_p = 0;

  /// Datanodes whose serves fail with `flaky_read_error_p` instead of
  /// `read_error_p`.
  std::set<NodeId> flaky_nodes;
  double flaky_read_error_p = 0;

  /// Execution nodes whose tasks cannot read at all: every read issued
  /// from a ReadContext on one of these nodes fails with IoError, whatever
  /// replica would serve it.
  std::set<NodeId> broken_nodes;

  /// Datanodes that serve correctly but slowly; each read they serve
  /// stalls this long for real and charges IoStats::stall_seconds.
  std::set<NodeId> slow_nodes;
  double slow_read_latency_ms = 0;

  // ---- Write-path faults (DESIGN.md §11) ----
  /// Probability that sealing any single block fails transiently. The
  /// writer becomes permanently failed (append-only files cannot repair a
  /// torn pipeline); recovery is a fresh attempt under a fresh salt.
  double write_error_p = 0;

  /// Nodes whose block seals succeed but stall for this long (real sleep,
  /// charged to IoStats::stall_seconds like slow reads).
  std::set<NodeId> slow_write_nodes;
  double slow_write_latency_ms = 0;

  /// Nodes that die (MiniHdfs::KillNode) when a writer executing on them
  /// seals its first block. The write fails; retries must land elsewhere.
  std::set<NodeId> write_death_nodes;

  /// Probability that one task-commit rename attempt fails (before any
  /// namespace mutation), and that the job-commit promotion fails.
  double task_commit_error_p = 0;
  double job_commit_error_p = 0;

  bool active() const {
    return read_error_p > 0 || !flaky_nodes.empty() ||
           !broken_nodes.empty() || !slow_nodes.empty() || write_active();
  }

  bool write_active() const {
    return write_error_p > 0 || !slow_write_nodes.empty() ||
           !write_death_nodes.empty() || task_commit_error_p > 0 ||
           job_commit_error_p > 0;
  }
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultConfig config) : config_(std::move(config)) {}

  const FaultConfig& config() const { return config_; }
  bool active() const { return config_.active(); }

  /// True when the read attempt of `block` against replica `node` should
  /// fail transiently. `salt` identifies the task attempt issuing the read
  /// (so re-executed tasks draw a fresh schedule) and `draw` is the
  /// caller's running draw counter.
  bool ReadAttemptFails(uint64_t block, NodeId node, uint64_t salt,
                        uint64_t draw) const {
    double p = config_.read_error_p;
    if (config_.flaky_nodes.count(node) > 0) p = config_.flaky_read_error_p;
    if (p <= 0) return false;
    return UnitDraw(block, node, salt, draw) < p;
  }

  /// True when the execution node itself cannot read (broken-node fault).
  bool ExecutionNodeBroken(NodeId node) const {
    return node != kAnyNode && config_.broken_nodes.count(node) > 0;
  }

  /// Injected latency for one read served by `node`, in seconds.
  double ServeStallSeconds(NodeId node) const {
    if (config_.slow_read_latency_ms <= 0 ||
        config_.slow_nodes.count(node) == 0) {
      return 0;
    }
    return config_.slow_read_latency_ms / 1e3;
  }

  /// True when sealing write-keyed block `wkey` (hash(path) + block index)
  /// from a writer on `node` should fail transiently.
  bool WriteAttemptFails(uint64_t wkey, NodeId node, uint64_t salt,
                         uint64_t draw) const {
    if (config_.write_error_p <= 0) return false;
    return UnitDraw(wkey ^ kWriteDomain, node, salt, draw) <
           config_.write_error_p;
  }

  /// True when `node` is scheduled to die on its first block seal.
  bool WriterNodeDies(NodeId node) const {
    return node != kAnyNode && config_.write_death_nodes.count(node) > 0;
  }

  /// Injected latency for one block seal executed on `node`, in seconds.
  double WriteStallSeconds(NodeId node) const {
    if (config_.slow_write_latency_ms <= 0 ||
        config_.slow_write_nodes.count(node) == 0) {
      return 0;
    }
    return config_.slow_write_latency_ms / 1e3;
  }

  /// True when one task-commit rename attempt keyed by `task_key`
  /// (hash of the task id) should fail.
  bool TaskCommitFails(uint64_t task_key, uint64_t salt, uint64_t draw) const {
    if (config_.task_commit_error_p <= 0) return false;
    return UnitDraw(task_key ^ kCommitDomain, kAnyNode, salt, draw) <
           config_.task_commit_error_p;
  }

  /// True when the job-commit promotion should fail.
  bool JobCommitFails(uint64_t salt, uint64_t draw) const {
    if (config_.job_commit_error_p <= 0) return false;
    return UnitDraw(kJobCommitKey ^ kCommitDomain, kAnyNode, salt, draw) <
           config_.job_commit_error_p;
  }

  /// Stable 64-bit key for a file path, used to key write draws.
  static uint64_t PathKey(const std::string& path) {
    // FNV-1a, then the splitmix64 finalizer for diffusion.
    uint64_t h = kFnv64OffsetBasis;
    for (char c : path) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnv64Prime;
    }
    return SplitMix64(h);
  }

 private:
  /// Domain-separation constants: write and commit draws can never alias
  /// read draws, whatever numeric keys collide.
  static constexpr uint64_t kWriteDomain = 0x77f17ed0a1b2c3d4ull;
  static constexpr uint64_t kCommitDomain = 0xc011ec7ed0c05157ull;
  static constexpr uint64_t kJobCommitKey = 0x10bc0337ull;

  /// Mixes the draw coordinates through splitmix64 into [0, 1).
  double UnitDraw(uint64_t block, NodeId node, uint64_t salt,
                  uint64_t draw) const {
    uint64_t h = SplitMix64(config_.seed ^ SplitMix64(block));
    h = SplitMix64(h ^
                   SplitMix64(static_cast<uint64_t>(node) + 0x51ed2701ull));
    h = SplitMix64(h ^ SplitMix64(salt * kFnv64Prime + draw));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  FaultConfig config_;
};

}  // namespace colmr

#endif  // COLMR_HDFS_FAULT_INJECTOR_H_
