#ifndef PBITREE_COMMON_CRC32C_H_
#define PBITREE_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace pbitree {

/// \brief CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78)
/// — the page checksum used by the storage layer for torn-write
/// detection. On x86-64 CPUs with SSE4.2 it runs the `crc32`
/// instruction, 8 bytes per step, which costs about as much as a cached
/// page read; elsewhere a portable slice-by-4 table loop, about 8x
/// slower. Both return identical values; the choice is made once per
/// process from the CPU's feature bits.
uint32_t Crc32c(const void* data, size_t n);

/// Incremental form: continue a running checksum (`crc` is the value
/// returned by a previous call, or 0 to start).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// CRC32C of `data[0, n)` as if the 4-byte field at `field_offset`
/// held zeroes — how a checksum stored inside the bytes it covers is
/// verified, without copying them. Requires `field_offset + 4 <= n`.
uint32_t Crc32cZeroedField(const void* data, size_t n, size_t field_offset);

namespace internal {

/// The portable table loop: the fallback path and the tests' oracle.
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n);

#if defined(__x86_64__)
/// The SSE4.2 path. Call only when the CPU supports SSE4.2.
uint32_t Crc32cSse42(uint32_t crc, const void* data, size_t n);
#endif

/// True when Crc32cExtend runs the hardware path in this process.
bool Crc32cUsesHardware();

}  // namespace internal

}  // namespace pbitree

#endif  // PBITREE_COMMON_CRC32C_H_
