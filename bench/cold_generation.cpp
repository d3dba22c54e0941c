// Cold-path trace generation: wall time of generate_h264_workload (the
// cache-miss path every bench binary hits on a fresh machine) for the three
// encoder configurations the PR optimises:
//
//   scalar/serial    — reference: scalar kernels, one thread
//   simd/serial      — SIMD kernels, one thread (pure kernel speedup)
//   simd/wavefront   — SIMD kernels + wavefront MB rows on the thread pool
//
// Every cell must produce the *same* trace (bit-exact SI event sequence);
// the report aborts if any configuration diverges from the reference.
#include <chrono>
#include <cstdio>
#include <vector>

#include "base/check.h"
#include "base/parallel.h"
#include "base/table.h"
#include "bench/common.h"
#include "h264/kernels.h"
#include "h264/workload.h"

int main() {
  using namespace rispp;
  using Clock = std::chrono::steady_clock;
  bench::BenchPerfLog perf("cold_generation");

  const int frames = bench::bench_frames();
  const SpecialInstructionSet set = h264sis::build_h264_si_set();

  struct Cell {
    const char* name;
    h264::KernelBackend backend;
    int encode_threads;  // WorkloadConfig::encode_threads (0 = global pool)
  };
  const std::vector<Cell> cells = {
      {"scalar/serial", h264::KernelBackend::kScalar, 1},
      {"simd/serial", h264::KernelBackend::kSimd, 1},
      {"simd/wavefront", h264::KernelBackend::kSimd, 0},
  };
  perf.set_cells(cells.size());

  std::printf("cold generation — encode %d CIF frames, trace discarded\n", frames);
  std::printf("(threads for the wavefront cell: %u, simd_available: %s)\n\n",
              parallel_thread_count(), h264::simd_available() ? "yes" : "no");

  const h264::KernelBackend entry_backend = h264::active_kernel_backend();
  std::vector<double> seconds(cells.size(), 0.0);
  WorkloadTrace reference;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    h264::set_kernel_backend(cells[i].backend);
    h264::WorkloadConfig config;
    config.frames = frames;
    config.encode_threads = cells[i].encode_threads;
    const auto start = Clock::now();
    WorkloadTrace trace = h264::generate_h264_workload(set, config).trace;
    seconds[i] = std::chrono::duration<double>(Clock::now() - start).count();

    if (i == 0) {
      reference = std::move(trace);
    } else {
      // The optimised paths must be invisible in the trace.
      RISPP_CHECK_MSG(trace.instances.size() == reference.instances.size(),
                      cells[i].name << ": instance count diverged");
      for (std::size_t k = 0; k < trace.instances.size(); ++k) {
        RISPP_CHECK_MSG(trace.instances[k].hot_spot == reference.instances[k].hot_spot &&
                            trace.instances[k].runs == reference.instances[k].runs,
                        cells[i].name << ": SI events diverged at instance " << k);
      }
    }
  }
  h264::set_kernel_backend(entry_backend);

  TextTable table({"configuration", "wall [s]", "speedup vs scalar"});
  for (std::size_t i = 0; i < cells.size(); ++i)
    table.add(cells[i].name, format_fixed(seconds[i], 3),
              format_fixed(seconds[0] / (seconds[i] > 0.0 ? seconds[i] : 1e-9), 2));
  std::printf("%s\n", table.render().c_str());
  std::printf("all configurations produced bit-identical SI event sequences\n");
  return 0;
}
