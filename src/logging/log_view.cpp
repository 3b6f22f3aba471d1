#include "logging/log_view.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <new>
#include <stdexcept>
#include <utility>

#include "common/simd.hpp"

namespace sdc::logging {

namespace {

/// Backing store of one directory read: the files' bytes packed into
/// large anonymous mappings, unmapped together when the last view of the
/// corpus lets go.  Mapped rather than heap-allocated so the memory goes
/// back to the system at once instead of staying in the allocator.
class SlabStore {
 public:
  SlabStore() = default;
  SlabStore(const SlabStore&) = delete;
  SlabStore& operator=(const SlabStore&) = delete;
  ~SlabStore() {
    for (const auto& [data, len] : slabs_) ::munmap(data, len);
  }

  /// `size` writable bytes; a request larger than a slab gets its own.
  char* allocate(std::size_t size) {
    if (size > kSlabBytes) return map(size);
    if (size > free_) {
      next_ = map(kSlabBytes);
      free_ = kSlabBytes;
    }
    char* out = next_;
    next_ += size;
    free_ -= size;
    return out;
  }

 private:
  static constexpr std::size_t kSlabBytes = std::size_t{4} << 20;

  char* map(std::size_t len) {
    void* data = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (data == MAP_FAILED) throw std::bad_alloc();
    slabs_.emplace_back(static_cast<char*>(data), len);
    return static_cast<char*>(data);
  }

  std::vector<std::pair<char*, std::size_t>> slabs_;
  char* next_ = nullptr;
  std::size_t free_ = 0;
};

struct ScopedFd {
  int fd;
  ~ScopedFd() { ::close(fd); }
};

/// Reads the whole file into `store`.  Bytes appended after the `fstat`
/// are left for the next read; a file that shrank mid-read yields what
/// was left.
std::string_view read_file(SlabStore& store,
                           const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("LogView: cannot read " + path.string());
  }
  const ScopedFd close_fd{fd};
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    throw std::runtime_error("LogView: cannot read " + path.string());
  }
  if (st.st_size <= 0) return {};
  const auto size = static_cast<std::size_t>(st.st_size);
  char* data = store.allocate(size);
  return {data, pread_full(fd, data, size, 0)};
}

}  // namespace

std::size_t split_lines(std::string_view text,
                        std::vector<std::string_view>& lines) {
  std::size_t start = 0;
  for (std::size_t nl = simd::find_byte(text, '\n');
       nl != std::string_view::npos; nl = simd::find_byte(text, '\n', start)) {
    lines.push_back(strip_cr(text.substr(start, nl - start)));
    start = nl + 1;
  }
  return start;
}

std::size_t pread_full(int fd, char* out, std::size_t size,
                       std::uintmax_t offset) {
  std::size_t got = 0;
  while (got < size) {
    const ::ssize_t n = ::pread(fd, out + got, size - got,
                                static_cast<::off_t>(offset + got));
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  return got;
}

LogView::LogView(std::shared_ptr<const void> owner, std::string_view text)
    : owner_(std::move(owner)), bytes_(text.size()) {
  if (text.empty()) return;
  lines_.reserve(simd::count_byte(text, '\n') + 1);
  const std::size_t consumed = split_lines(text, lines_);
  if (consumed < text.size()) {
    lines_.push_back(strip_cr(text.substr(consumed)));
  }
}

LogView LogView::from_buffer(std::string text) {
  auto owned = std::make_shared<const std::string>(std::move(text));
  const std::string_view bytes = *owned;
  return LogView(std::move(owned), bytes);
}

LogView LogView::from_lines(const std::vector<std::string>& lines) {
  LogView view;
  view.lines_.reserve(lines.size());
  for (const std::string& line : lines) {
    view.lines_.push_back(strip_cr(line));
    view.bytes_ += line.size() + 1;  // count the elided newline
  }
  return view;
}

BundleView BundleView::read_from_directory(const std::filesystem::path& dir,
                                           std::vector<Diagnostic>* diagnostics) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error("BundleView: not a directory: " + dir.string());
  }
  const auto store = std::make_shared<SlabStore>();
  BundleView bundle;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    try {
      bundle.streams_.emplace(entry.path().filename().string(),
                              LogView(store, read_file(*store, entry.path())));
    } catch (const std::exception& e) {
      if (diagnostics == nullptr) throw;
      diagnostics->push_back(Diagnostic{DiagnosticKind::kUnreadableFile,
                                        entry.path().filename().string(), 0, 1,
                                        e.what()});
    }
  }
  return bundle;
}

BundleView BundleView::from_bundle(const LogBundle& bundle) {
  BundleView view;
  for (const std::string& name : bundle.stream_names()) {
    view.streams_.emplace(name, LogView::from_lines(bundle.lines(name)));
  }
  return view;
}

std::vector<std::string> BundleView::stream_names() const {
  std::vector<std::string> out;
  out.reserve(streams_.size());
  for (const auto& [name, _] : streams_) out.push_back(name);
  return out;
}

const LogView& BundleView::stream(const std::string& name) const {
  static const LogView kEmpty;
  const auto it = streams_.find(name);
  return it == streams_.end() ? kEmpty : it->second;
}

std::size_t BundleView::total_lines() const {
  std::size_t n = 0;
  for (const auto& [_, view] : streams_) n += view.line_count();
  return n;
}

std::size_t BundleView::total_bytes() const {
  std::size_t n = 0;
  for (const auto& [_, view] : streams_) n += view.size_bytes();
  return n;
}

}  // namespace sdc::logging
