// mixq/bench/provenance.hpp
//
// Provenance members of every tracked bench JSON (results/BENCH_*.json):
// the `git describe --always --dirty` revision, whether the working tree
// was dirty, the CPU model and the hardware thread count -- so a committed
// baseline names the one clean commit and the one host it was measured
// on. tools/check_bench_regression.py hard-fails a committed baseline that
// was measured dirty.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>

#include "runtime/parallel.hpp"

namespace mixq::bench {

/// `git describe --always --dirty` of the working tree, "unknown" when git
/// or the repository is unavailable (e.g. running from an exported
/// tarball).
inline std::string git_describe() {
  FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {0};
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// The first "model name" of /proc/cpuinfo, "unknown" where there is none;
/// quotes and backslashes are dropped so the value embeds in JSON as is.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (const char c : line.substr(colon + 1)) {
      if (c != '"' && c != '\\' && !(model.empty() && c == ' ')) model += c;
    }
    return model.empty() ? "unknown" : model;
  }
  return "unknown";
}

/// The provenance members at two-space indent, each line ending in ",\n":
/// "git", "git_dirty", "cpu", "threads_available". Call it BEFORE opening
/// the output file: truncating a tracked results/ file dirties the tree.
inline std::string provenance_members() {
  const std::string git = git_describe();
  const bool dirty =
      git.size() >= 6 && git.compare(git.size() - 6, 6, "-dirty") == 0;
  return "  \"git\": \"" + git + "\",\n  \"git_dirty\": " +
         (dirty ? "true" : "false") + ",\n  \"cpu\": \"" + cpu_model() +
         "\",\n  \"threads_available\": " +
         std::to_string(runtime::ThreadPool::hardware_lanes()) + ",\n";
}

}  // namespace mixq::bench
