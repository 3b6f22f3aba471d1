// Vectorized byte scanning for the mining hot path.
//
// The miner's inner loops are byte hunts: newline splitting in
// `logging::split_lines`, the "': '" logger/message separator in
// `parse_line`, and the newline census that sizes the line-slice vector.
// This header provides `memchr`-style primitives whose kernel is chosen
// at compile time: 16-byte SSE2 compares on x86-64 (the ISA baseline, so
// no runtime CPU check), the byte-at-a-time loop everywhere else and
// under -DSDC_DISABLE_SIMD=ON — the scalar-fallback CI job proves that
// portable path carries the full suite.
//
// The scalar loop is also exported as `*_scalar`: the reference the
// compiled kernel must reproduce bit for bit (tests/scan_backend_test).
// The vector loop covers whole blocks and hands the tail to the scalar
// loop, so it reads only bytes inside [data, data+size) and is
// ASan-clean on buffers that end mid-page.
#pragma once

#include <cstddef>
#include <string_view>

namespace sdc::simd {

/// Index of the first `needle` at or after `from`, or std::string_view::npos.
std::size_t find_byte(std::string_view text, char needle,
                      std::size_t from = 0);

/// Number of occurrences of `needle` in `text`.
std::size_t count_byte(std::string_view text, char needle);

/// The scalar reference loops the compiled kernel is tested against.
std::size_t find_byte_scalar(std::string_view text, char needle,
                             std::size_t from = 0);
std::size_t count_byte_scalar(std::string_view text, char needle);

}  // namespace sdc::simd
