// CRC32C (Castagnoli) used to protect every on-disk structure.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>

namespace raefs {

/// Compute CRC32C over a byte range, continuing from `seed` (pass 0 to
/// start a fresh checksum). On x86-64 hosts with SSE4.2 this runs the
/// `crc32` instruction eight bytes at a time; elsewhere it runs
/// crc32c_table(). The choice is made once per process, on first use, from
/// the CPU's feature bits. Both give the same value for every input.
uint32_t crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

/// Convenience overload for raw buffers.
uint32_t crc32c(const void* data, size_t len, uint32_t seed = 0);

/// The portable bytewise table loop crc32c() falls back to. Declared so
/// tests can check it on hosts whose crc32c() never takes it.
uint32_t crc32c_table(std::span<const uint8_t> data, uint32_t seed = 0);

}  // namespace raefs
