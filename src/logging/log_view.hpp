// The one read path from log-file bytes to lines.
//
// `BundleView::read_from_directory` reads every regular file of a corpus
// once (`open` + `fstat` + a `pread_full` loop) into a per-corpus store
// of large anonymous slabs.  A `LogView` holds one stream as
// `std::string_view` line slices into that store — no per-line or
// per-file allocation — and every view of the corpus shares the store,
// so dropping the corpus hands back a few slabs.  The bytes are the
// corpus's own copy: a file truncated or rewritten after the read (a
// copytruncate rotation of a live log) cannot fault the mine.  A
// `BundleView` names a set of streams, mirroring `LogBundle`, and can
// adapt an in-memory bundle without copying its lines (the bundle must
// outlive the view).
//
// One splitter cuts lines for every reader — these views, the follow
// tail and the fuzz streaming replay: `split_lines` splits on '\n' and
// strips one trailing '\r' (Windows-collected logs).  A final
// unterminated line is the caller's: a `LogView` counts it, a tail waits
// for its newline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "logging/diagnostics.hpp"
#include "logging/log_bundle.hpp"

namespace sdc::logging {

/// `line` without one trailing '\r'.
[[nodiscard]] inline std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Appends every '\n'-terminated line of `text` to `lines`, newline and
/// one trailing '\r' stripped.  Returns the bytes consumed: everything
/// up to and including the last '\n'.
std::size_t split_lines(std::string_view text,
                        std::vector<std::string_view>& lines);

/// `pread` until `size` bytes or end of file (retrying EINTR); returns
/// the bytes read.
std::size_t pread_full(int fd, char* out, std::size_t size,
                       std::uintmax_t offset);

/// One log stream: a shared backing buffer and line views into it.
/// Copyable; copies share the backing buffer.
class LogView {
 public:
  LogView() = default;

  /// Takes ownership of a buffer of raw log text and splits it.
  static LogView from_buffer(std::string text);

  /// Adapts already-split lines owned elsewhere (e.g. a LogBundle
  /// stream).  Zero-copy: the caller guarantees `lines` outlives the
  /// view.  Lines are assumed newline-free; trailing '\r' is stripped.
  static LogView from_lines(const std::vector<std::string>& lines);

  [[nodiscard]] const std::vector<std::string_view>& lines() const noexcept {
    return lines_;
  }
  [[nodiscard]] std::size_t line_count() const noexcept {
    return lines_.size();
  }
  /// Size of the backing text (bytes mined, incl. newlines for
  /// file-backed views).
  [[nodiscard]] std::size_t size_bytes() const noexcept { return bytes_; }

 private:
  friend class BundleView;
  /// Splits `text`, which `owner` keeps alive; the unterminated final
  /// line (if any) counts.
  LogView(std::shared_ptr<const void> owner, std::string_view text);

  std::shared_ptr<const void> owner_;
  std::vector<std::string_view> lines_;
  std::size_t bytes_ = 0;
};

/// Named collection of `LogView` streams — the zero-copy analogue of
/// `LogBundle` for the mining path.
class BundleView {
 public:
  BundleView() = default;

  /// Reads every regular file in `dir` (non-recursive), one stream per
  /// file.  Throws std::runtime_error if `dir` is not a directory.  A
  /// file that cannot be opened fails with "LogView: cannot read <path>":
  /// with `diagnostics` it is recorded as a kUnreadableFile diagnostic
  /// and skipped; without it, the first one throws.
  static BundleView read_from_directory(const std::filesystem::path& dir,
                                        std::vector<Diagnostic>* diagnostics =
                                            nullptr);

  /// Zero-copy adapter over an in-memory bundle; `bundle` must outlive
  /// the returned view.
  static BundleView from_bundle(const LogBundle& bundle);

  /// All stream names in lexicographic order.
  [[nodiscard]] std::vector<std::string> stream_names() const;

  /// Lines of one stream; empty view if the stream does not exist.
  [[nodiscard]] const LogView& stream(const std::string& name) const;

  [[nodiscard]] bool has_stream(const std::string& name) const {
    return streams_.contains(name);
  }
  [[nodiscard]] std::size_t stream_count() const noexcept {
    return streams_.size();
  }
  [[nodiscard]] std::size_t total_lines() const;
  [[nodiscard]] std::size_t total_bytes() const;

 private:
  std::map<std::string, LogView> streams_;
};

}  // namespace sdc::logging
