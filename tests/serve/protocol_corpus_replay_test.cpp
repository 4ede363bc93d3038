// Replays the committed request-line corpus (tests/corpus/protocol/, the
// seeds of fuzz/protocol_scan_fuzz.cpp) through the fuzzer's own harness,
// so a GCC build with no libFuzzer still runs every seed: each line must
// read exactly as the tree-based reference reads it. Each line is parsed
// from an exact-size heap copy, so under ASan (the fuzz-loader CI job) a
// read past its last byte -- the scanner reads digit runs in 8-byte words
// while 8 bytes remain -- is a finding. The seeds include long arrays, and
// lines whose last element (16 fraction digits) starts 27-33 bytes before
// the end, so its last word load falls on both sides of that bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "support/protocol_ref.hpp"

#ifndef MIXQ_PROTOCOL_CORPUS_DIR
#error "build must define MIXQ_PROTOCOL_CORPUS_DIR"
#endif

namespace mixq::serve {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(MIXQ_PROTOCOL_CORPUS_DIR)) {
    if (e.is_regular_file()) out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  EXPECT_TRUE(is.good()) << p;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

TEST(ProtocolCorpusReplay, EverySeedReadsLikeTheReference) {
  const std::vector<fs::path> files = corpus_files();
  // An empty directory would make this a silent no-op.
  ASSERT_GE(files.size(), 20u) << MIXQ_PROTOCOL_CORPUS_DIR;
  const ModelDirectory models{{{"default", 600}}};
  int long_requests = 0;
  for (const fs::path& p : files) {
    const std::string text = read_file(p);
    const std::unique_ptr<char[]> buf(new char[text.size()]);
    std::memcpy(buf.get(), text.data(), text.size());
    const std::string_view line(buf.get(), text.size());
    EXPECT_EQ(diff_against_reference(line), "") << p.filename();
    const ParsedLine parsed =
        parse_protocol_line(line, 600, std::size_t{1} << 20, 0, &models);
    long_requests += parsed.kind == ParsedLine::Kind::kRequest ? 1 : 0;
  }
  // The 600-element seeds are read as requests over their whole length.
  EXPECT_GE(long_requests, 2);
}

}  // namespace
}  // namespace mixq::serve
