// perfbench/tool/common.hpp
//
// Shared plumbing of the benchmark helper: flag parsing, whole-file I/O,
// the seeded input generator, protocol-line id substitution, and the span
// log the traced replay writes. Everything here lives outside the program
// under test; it only calls the program's public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
inline std::int64_t now_ns() { return to_ns(Clock::now()); }

/// `--key value` flags after the subcommand. A missing required flag (or a
/// misspelt one) throws std::runtime_error, so a typo in run.py fails loudly.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] std::int64_t num(const std::string& key) const;
  [[nodiscard]] double real(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view data);
std::vector<std::string> read_lines(const std::string& path);

/// Deterministic request inputs: `count` samples of `numel` floats in
/// [0, 1) (the MobileNet input quantizer's range), from `seed` alone.
std::vector<std::vector<float>> make_inputs(std::int64_t numel,
                                            std::int64_t count,
                                            std::uint64_t seed);

/// Every generated protocol line starts with this id prefix (the generator
/// writes id 0); load generators substitute the real id without
/// reformatting the payload.
inline constexpr std::string_view kIdPrefix = "{\"id\":0,";

/// Writes `line` (starting with kIdPrefix) re-addressed to `id` into `out`,
/// reusing its capacity.
void readdress(std::string_view line, std::int64_t id, std::string& out);

/// One timed call into a layer of the program: name, steady-clock
/// interval, the span that caused it (-1 = root), the request it served
/// (-1 = none), and a per-span quantity (bytes parsed, batch size, MACs).
struct Span {
  std::string name;
  std::int64_t t0{0};
  std::int64_t t1{0};
  std::int64_t parent{-1};
  std::int64_t req{-1};
  double value{0.0};
};

/// In-memory span store shared by the replay's threads; written out once
/// at the end, so recording costs a clock read and a vector append.
class SpanLog {
 public:
  std::int64_t add(Span s);
  /// Reserve a root span now and fill its interval later (a root is known
  /// to end only after its children are recorded).
  void close(std::int64_t index, std::int64_t t1);
  /// One JSON object per line: {"name":..,"t0":..,"t1":..,"parent":..,
  /// "req":..,"value":..}.
  void write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
