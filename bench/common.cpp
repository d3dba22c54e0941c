#include "bench/common.h"

#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <system_error>

#include "base/env.h"
#include "fleet/trace_repository.h"

namespace rispp::bench {

int bench_frames() {
  return static_cast<int>(parse_env_int("RISPP_FRAMES", 140,  // the paper's length
                                        1, 1'000'000));
}

std::uint64_t workload_fingerprint(const SpecialInstructionSet& set,
                                   const h264::WorkloadConfig& config) {
  return h264::workload_fingerprint(set, config);  // shared key (byte-identical)
}

std::filesystem::path trace_cache_path(const SpecialInstructionSet& set,
                                       const h264::WorkloadConfig& config) {
  return h264::trace_cache_path(set, config);
}

namespace {

WorkloadTrace load_or_generate(const SpecialInstructionSet& set, int frames) {
  h264::WorkloadConfig config;
  config.frames = frames;
  const auto path = h264::trace_cache_path(set, config);
  if (auto cached = try_load_trace_file(path, set.si_count())) return std::move(*cached);
  std::fprintf(stderr, "[bench] encoding %d synthetic CIF frames (cached at %s)...\n",
               frames, path.string().c_str());
  WorkloadTrace trace = h264::generate_h264_workload(set, config).trace;
  save_trace_file(trace, path);
  return trace;
}

}  // namespace

void warm_trace_cache() {
  const SpecialInstructionSet set = h264sis::build_h264_si_set();
  load_or_generate(set, bench_frames());
}

fleet::FleetSpec multitenant_fleet_spec(int frames) {
  fleet::FleetSpec spec;
  spec.sessions = 16;  // a full 16-tenant device forms at the sweep's top end
  spec.frames_min = 1;
  spec.frames_max = frames < 4 ? frames : 4;
  spec.schedulers = {"HEF", "SJF"};
  spec.acs_min = 8;
  spec.acs_max = 8;
  return spec;
}

fleet::FleetSpec throughput_fleet_spec(int frames) {
  fleet::FleetSpec spec;
  spec.sessions = 400;
  spec.frames_min = 1;
  spec.frames_max = frames < 8 ? frames : 8;
  spec.schedulers = scheduler_names();
  spec.acs_min = 5;
  spec.acs_max = 20;
  return spec;
}

void warm_fleet_trace_cache() {
  // TraceRepository::get persists every trace it generates, so touching
  // each distinct content here fills the on-disk cache the child report
  // binaries (and contended fleet runs) then load from.
  const int frames = bench_frames();
  for (const fleet::FleetSpec& spec :
       {multitenant_fleet_spec(frames), throughput_fleet_spec(frames)})
    for (const fleet::SessionSpec& session : fleet::expand_fleet_spec(spec))
      fleet::TraceRepository::global().get(session);
}

BenchContext::BenchContext()
    : set(h264sis::build_h264_si_set()),
      trace(load_or_generate(set, bench_frames())),
      frames(bench_frames()) {}

SimResult BenchContext::run_scheduler(const std::string& scheduler_name,
                                      unsigned container_count, SimStats* stats,
                                      ForecastMode mode) const {
  const auto scheduler = make_scheduler(scheduler_name);
  RtmConfig config;
  config.container_count = container_count;
  config.scheduler = scheduler.get();
  config.forecast_mode = mode;
  RunTimeManager rtm(&set, trace.hot_spots.size(), config);
  h264::seed_default_forecasts(set, rtm);
  return run_trace(trace, rtm, stats);
}

SimResult BenchContext::run_baseline(LoadPolicy policy, unsigned container_count,
                                     SimStats* stats) const {
  SingleImplConfig config;
  config.container_count = container_count;
  SingleImplBackend baseline(&set, trace.hot_spots.size(), config, policy);
  h264::seed_default_forecasts(set, baseline);
  return run_trace(trace, baseline, stats);
}

BenchPerfLog::BenchPerfLog(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

BenchPerfLog::~BenchPerfLog() {
  const char* dir = std::getenv("RISPP_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "[bench] cannot create RISPP_BENCH_JSON_DIR %s: %s\n", dir,
                 ec.message().c_str());
    return;
  }
  const std::filesystem::path path =
      std::filesystem::path(dir) / ("BENCH_" + name_ + ".json");
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"" << name_ << "\",\n"
      << "  \"wall_seconds\": " << seconds << ",\n"
      << "  \"cells\": " << cells_ << ",\n"
      << "  \"cells_per_sec\": " << (seconds > 0.0 ? cells_ / seconds : 0.0) << ",\n"
      << "  \"threads\": " << parallel_thread_count() << ",\n"
      << "  \"frames\": " << bench_frames() << "\n"
      << "}\n";
  out.flush();
  if (!out.good())
    std::fprintf(stderr, "[bench] failed to write perf record %s\n",
                 path.string().c_str());
}

}  // namespace rispp::bench
