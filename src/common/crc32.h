#ifndef COLMR_COMMON_CRC32_H_
#define COLMR_COMMON_CRC32_H_

#include <cstdint>

#include "common/slice.h"

namespace colmr {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Checksums sealed HDFS
/// blocks, spill blocks, v2 CIF stats footers, sync markers and
/// compressed blocks.
uint32_t Crc32(Slice data);

/// Incremental form: extends the checksum `crc` with `data`.
/// Crc32(ab) == Crc32Extend(Crc32(a), b).
uint32_t Crc32Extend(uint32_t crc, Slice data);

namespace internal {

/// The portable slice-by-8 kernel. Crc32Extend runs it on CPUs without
/// carry-less multiply and for inputs and tails it does not fold; it is
/// declared here so tests can check the two kernels against each other.
uint32_t Crc32ExtendPortable(uint32_t crc, Slice data);

}  // namespace internal

}  // namespace colmr

#endif  // COLMR_COMMON_CRC32_H_
