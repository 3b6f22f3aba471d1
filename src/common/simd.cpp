#include "common/simd.hpp"

#if !defined(SDC_DISABLE_SIMD) && (defined(__x86_64__) || defined(_M_X64))
#define SDC_SCAN_SSE2 1
#include <emmintrin.h>
#else
#define SDC_SCAN_SSE2 0
#endif

namespace sdc::simd {

std::size_t find_byte_scalar(std::string_view text, char needle,
                             std::size_t from) {
  for (std::size_t i = from; i < text.size(); ++i) {
    if (text[i] == needle) return i;
  }
  return std::string_view::npos;
}

std::size_t count_byte_scalar(std::string_view text, char needle) {
  std::size_t n = 0;
  for (const char c : text) n += c == needle;
  return n;
}

#if SDC_SCAN_SSE2

std::size_t find_byte(std::string_view text, char needle, std::size_t from) {
  if (from >= text.size()) return std::string_view::npos;
  const char* data = text.data();
  const __m128i pattern = _mm_set1_epi8(needle);
  std::size_t i = from;
  while (i + 16 <= text.size()) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(block, pattern));
    if (mask != 0) {
      return i + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
    i += 16;
  }
  return find_byte_scalar(text, needle, i);
}

std::size_t count_byte(std::string_view text, char needle) {
  const char* data = text.data();
  const __m128i pattern = _mm_set1_epi8(needle);
  std::size_t n = 0;
  std::size_t i = 0;
  while (i + 16 <= text.size()) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    n += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(block, pattern)))));
    i += 16;
  }
  return n + count_byte_scalar(text.substr(i), needle);
}

#else  // !SDC_SCAN_SSE2

std::size_t find_byte(std::string_view text, char needle, std::size_t from) {
  return find_byte_scalar(text, needle, from);
}

std::size_t count_byte(std::string_view text, char needle) {
  return count_byte_scalar(text, needle);
}

#endif  // SDC_SCAN_SSE2

}  // namespace sdc::simd
