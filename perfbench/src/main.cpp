// perfbench: the benchmark's own tools. run.py calls these; see
// perfbench/README.md for the workloads they make up.
#include <cstdio>
#include <exception>
#include <string>

#include "platform/cpu_features.h"
#include "telemetry/pmu.h"
#include "tools.h"

namespace perfbench {

int cmd_host(const Args&) {
  const grazelle::MachineFingerprint& m = grazelle::machine_fingerprint();
  const grazelle::telemetry::Pmu pmu;
  std::printf("%s\n", JsonOut()
                          .str("cpu_model", m.cpu_model)
                          .u64("logical_cores", m.logical_cores)
                          .u64("llc_bytes", m.llc_bytes)
                          .boolean("avx2", m.avx2)
                          .boolean("avx512f", m.avx512f)
                          .boolean("pmu_available", pmu.available())
                          .done()
                          .c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench <gen-rmat|gen-ingest|pack|batch|gather|loadgen|"
                 "replay-ingest|host> [--key value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "gen-rmat") return cmd_gen_rmat(args);
    if (cmd == "gen-ingest") return cmd_gen_ingest(args);
    if (cmd == "pack") return cmd_pack(args);
    if (cmd == "batch") return cmd_batch(args);
    if (cmd == "gather") return cmd_gather(args);
    if (cmd == "loadgen") return cmd_loadgen(args);
    if (cmd == "replay-ingest") return cmd_replay_ingest(args);
    if (cmd == "host") return cmd_host(args);
    std::fprintf(stderr, "error: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
