#include "core/durable/crc32c.hpp"

#include <array>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define TRUSTRATE_CRC32C_X86 1
#include <immintrin.h>
#endif

namespace trustrate::core::durable {
namespace {

/// Reflected CRC32C polynomial (0x1EDC6F41 bit-reversed).
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

std::uint32_t crc32c_impl_table(const void* data, std::size_t size,
                                std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

// The SSE4.2 `crc32` instruction computes exactly this reflected
// Castagnoli step (same polynomial, same bit order), so feeding it the
// bytes in order reproduces the table bit for bit. Per-function target
// attribute: the translation unit needs no -msse4.2, and the dispatcher
// selects this only after cpuid reports the instruction.
#if TRUSTRATE_CRC32C_X86
__attribute__((target("sse4.2"))) std::uint32_t crc32c_impl_sse42(
    const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~seed;
  // Byte steps up to an 8-byte boundary, then 8 bytes per instruction
  // (memcpy keeps the load legal at any alignment; it compiles to a mov).
  for (; size > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0; --size) {
    crc = _mm_crc32_u8(static_cast<std::uint32_t>(crc), *p++);
  }
  for (; size >= 8; size -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  for (; size > 0; --size) {
    crc = _mm_crc32_u8(static_cast<std::uint32_t>(crc), *p++);
  }
  return ~static_cast<std::uint32_t>(crc);
}
#endif

struct Backend {
  std::uint32_t (*crc)(const void*, std::size_t, std::uint32_t);
  const char* name;
};

Backend resolve_backend() {
#if TRUSTRATE_CRC32C_X86
  // Explicit: this runs from a static initializer, possibly before
  // libgcc's own cpu-detection constructor.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return {crc32c_impl_sse42, "sse4.2"};
#endif
  return {crc32c_impl_table, "table"};
}

// Resolved once at load time, as in common/simd: every call then reads a
// plain constant, with no init-guard check on the WAL append path.
const Backend g_backend = resolve_backend();

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  return g_backend.crc(data, size, seed);
}

std::uint32_t crc32c_table(const void* data, std::size_t size,
                           std::uint32_t seed) {
  return crc32c_impl_table(data, size, seed);
}

const char* crc32c_backend() { return g_backend.name; }

std::string crc32c_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

}  // namespace trustrate::core::durable
