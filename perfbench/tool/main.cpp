// perfbench_tool: the C++ half of the end-to-end benchmark; run.py calls
// it. Subcommands:
//   gen-model   build one MobileNetV1 deployment and write its images
//   gen-inputs  write seeded request lines and their expected responses
//   engine      the engine workload: registry batch path, no protocol
//   trace       in-process traced replay of a workload's seeded requests
//   info        the kernel ISA this build compiled and the host runs
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "runtime/simd.hpp"
#include "runtime/simd_vnni.hpp"

namespace perfbench {
int cmd_gen_model(const Flags& f);
int cmd_gen_inputs(const Flags& f);
int cmd_engine(const Flags& f);
int cmd_trace(const Flags& f);
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs("usage: perfbench_tool gen-model|gen-inputs|engine|trace|info "
               "--key value ...\n",
               stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const perfbench::Flags flags(argc, argv, 2);
    if (cmd == "gen-model") return perfbench::cmd_gen_model(flags);
    if (cmd == "gen-inputs") return perfbench::cmd_gen_inputs(flags);
    if (cmd == "engine") return perfbench::cmd_engine(flags);
    if (cmd == "trace") return perfbench::cmd_trace(flags);
    if (cmd == "info") {
      namespace simd = mixq::runtime::simd;
      std::printf("{\"compiled_isa\":\"%s\",\"active_isa\":\"%s\","
                  "\"vnni_compiled\":%s,\"vnni_enabled\":%s}\n",
                  simd::compiled_isa(), simd::active_isa(),
                  simd::vnni_compiled() ? "true" : "false",
                  simd::vnni_enabled() ? "true" : "false");
      return 0;
    }
    std::fprintf(stderr, "perfbench_tool: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
