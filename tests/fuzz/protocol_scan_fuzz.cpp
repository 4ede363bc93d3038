// libFuzzer target for the request-line scanner: any byte string in, and
// parse_protocol_line must read it exactly as the tree-based reference
// does (support/protocol_ref.hpp) -- same kind, error text and offset,
// echoed id and every input float bit -- with no crash, hang or sanitizer
// finding. libFuzzer hands each input over in an exact-size buffer, so a
// read past the line's last byte (the scanner reads digit runs in 8-byte
// words) is an ASan report. Seed with the committed corpus:
//
//   protocol_scan_fuzz tests/corpus/protocol -max_total_time=60
//
// Built only when MIXQ_BUILD_FUZZERS=ON and the compiler is Clang; the
// gcc-built serve_protocol_corpus_replay_test replays the same corpus
// through the same harness.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "support/protocol_ref.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  const std::string diff = mixq::serve::diff_against_reference(line);
  if (!diff.empty()) {
    std::fprintf(stderr, "scanner disagrees with the reference: %s\n",
                 diff.c_str());
    std::abort();
  }
  return 0;
}
