// Scanner equivalence: the compiled byte scanner (SSE2 on x86-64,
// scalar elsewhere) must be bit-for-bit interchangeable with the scalar
// reference loop — on raw buffers and through the whole mining
// pipeline.  The pipeline half is a fuzz-style sweep: the corpus
// mutator's damage classes (truncation, rotation, garbage bytes, clock
// skew, interleaving, ...) are pushed through `mine_directory` (the
// directory read and `split_lines`) and must mine to the same events
// *and* diagnostics as the same files read by the getline oracle.  Runs
// under ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/simd.hpp"
#include "logging/log_bundle.hpp"
#include "sdchecker/corpus_mutator.hpp"
#include "sdchecker/miner.hpp"
#include "serial_reference.hpp"

namespace sdc::checker {
namespace {

std::filesystem::path corpus_dir() {
  for (std::filesystem::path dir = std::filesystem::current_path();
       !dir.empty() && dir != dir.root_path(); dir = dir.parent_path()) {
    const auto candidate = dir / "testdata" / "golden_small";
    if (std::filesystem::is_directory(candidate)) return candidate;
  }
  return std::filesystem::path("testdata") / "golden_small";
}

const logging::LogBundle& golden() {
  static const logging::LogBundle bundle =
      read_directory_getline(corpus_dir());
  return bundle;
}

// --- primitive equivalence ---------------------------------------------------

TEST(Scanner, FindAndCountMatchScalarOnCraftedBuffers) {
  // Sizes straddle the 16-byte block and the match lands at the head,
  // inside a block, on a block seam, in the tail, or nowhere.
  std::vector<std::string> buffers;
  for (const std::size_t size : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 31u,
                                 32u, 33u, 63u, 64u, 65u, 200u}) {
    std::string base(size, 'a');
    buffers.push_back(base);                      // no match
    for (const std::size_t pos : {std::size_t{0}, size / 2, size - 1}) {
      if (pos >= size) continue;
      std::string hit = base;
      hit[pos] = '\n';
      buffers.push_back(hit);
    }
    std::string dense = base;
    for (std::size_t i = 0; i < size; i += 3) dense[i] = '\n';
    buffers.push_back(dense);
  }
  buffers.push_back("2017-07-03 16:40:00,123 INFO RMAppImpl: x\r\n\r\n\n");
  buffers.push_back(std::string("\0\0\n\0mixed\nnul\0bytes\n", 20));

  for (const std::string& buffer : buffers) {
    for (const char needle : {'\n', ':', '\0', 'a'}) {
      EXPECT_EQ(simd::count_byte(buffer, needle),
                simd::count_byte_scalar(buffer, needle))
          << "size " << buffer.size();
      for (std::size_t from = 0; from <= buffer.size() + 1; ++from) {
        EXPECT_EQ(simd::find_byte(buffer, needle, from),
                  simd::find_byte_scalar(buffer, needle, from))
            << "size " << buffer.size() << " from " << from;
      }
    }
  }
}

// --- pipeline equivalence under damage ---------------------------------------

struct MinedSnapshot {
  struct Event {
    EventKind kind;
    std::int64_t ts_ms;
    std::optional<ApplicationId> app;
    std::optional<ContainerId> container;
    std::string stream;
    std::size_t line_no;

    bool operator==(const Event&) const = default;
  };
  std::vector<Event> events;
  std::vector<std::tuple<logging::DiagnosticKind, std::string, std::size_t,
                         std::size_t, std::string>>
      diagnostics;
  std::size_t lines_total = 0;
  std::size_t lines_unparsed = 0;

  bool operator==(const MinedSnapshot&) const = default;
};

MinedSnapshot snapshot(const MineResult& result) {
  MinedSnapshot out;
  out.events.reserve(result.events.size());
  for (const auto event : result.events) {
    out.events.push_back(MinedSnapshot::Event{event.kind, event.ts_ms,
                                              event.app, event.container,
                                              std::string(event.stream),
                                              event.line_no});
  }
  for (const logging::Diagnostic& d : result.diagnostics) {
    out.diagnostics.emplace_back(d.kind, d.stream, d.line_no, d.count,
                                 d.detail);
  }
  out.lines_total = result.lines_total;
  out.lines_unparsed = result.lines_unparsed;
  return out;
}

TEST(Scanner, EveryDamageClassMinesIdenticallyToGetlineRead) {
  const LogMiner miner{{.threads = 1}};
  const auto dir =
      std::filesystem::temp_directory_path() / "sdc_scan_backend_fuzz";
  for (const std::uint64_t seed : {42ull, 20170703ull}) {
    for (const MutationClass cls : all_mutation_classes()) {
      const logging::LogBundle mutated = apply_mutation(golden(), cls, seed);
      // Through the directory so the compiled scanner splits the real
      // bytes (including NUL-bearing garbage lines that round-trip
      // through write_to_directory).
      std::filesystem::remove_all(dir);
      mutated.write_to_directory(dir);

      const MinedSnapshot reference =
          snapshot(miner.mine(read_directory_getline(dir)));
      EXPECT_GT(reference.lines_total, 0u) << mutation_class_name(cls);
      EXPECT_EQ(snapshot(miner.mine_directory(dir)), reference)
          << mutation_class_name(cls) << " seed " << seed;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Scanner, InMemoryAndDirectoryAgreeOnIdentity) {
  const LogMiner miner{{.threads = 1}};
  const auto dir =
      std::filesystem::temp_directory_path() / "sdc_scan_backend_identity";
  std::filesystem::remove_all(dir);
  golden().write_to_directory(dir);
  const MinedSnapshot in_memory = snapshot(miner.mine(golden()));
  const MinedSnapshot on_disk = snapshot(miner.mine_directory(dir));
  EXPECT_EQ(in_memory, on_disk);
  EXPECT_GT(in_memory.events.size(), 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sdc::checker
