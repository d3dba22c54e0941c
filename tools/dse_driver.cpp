// rispp_dse — automatic SI design-space exploration over the H.264 workload.
//
//   rispp_dse [--frames N] [--generations N] [--population N] [--mutations N]
//             [--budget N] [--seed N] [--scheduler NAME] [--acs A,B,...]
//             [--out PATH]
//
// Records (or loads from the shared trace cache) the H.264 workload trace,
// runs the DSE engine from the degraded hand-built platform
// (config::h264_platform_spec) and reports the discovered ISA's speedup
// against the hand-built one, the Pareto front, and the evaluator's cache
// effectiveness. The discovered platform is self-verified before the driver
// exits: the emitted `.rispp` text must round-trip through the platform
// parser to an identical spec, rebuild to the identical isa fingerprint, and
// replay the trace bit-exactly to the cycle counts the search scored it with
// (through the memo-less naive evaluator, so the memoized fast path is
// cross-checked end to end). --out additionally writes the platform file and
// re-verifies from disk.
//
// RISPP_DSE_SEED / RISPP_DSE_GENERATIONS override the defaults (flags beat
// the environment); garbage in either exits 2 naming the offender, as do
// malformed flag values (base/env.h strict parsing).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/env.h"
#include "base/table.h"
#include "config/h264_platform.h"
#include "dse/engine.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "sched/registry.h"
#include "sim/trace.h"

namespace {

using namespace rispp;

int usage() {
  std::fprintf(stderr,
               "usage: rispp_dse [--frames N] [--generations N] [--population N]\n"
               "                 [--mutations N] [--budget N] [--seed N]\n"
               "                 [--scheduler NAME] [--acs A,B,...] [--out PATH]\n");
  return 2;
}

long int_flag_or_die(const char* label, const char* text, long min_value, long max_value) {
  const auto value = parse_int_strict(text, min_value, max_value);
  if (!value) {
    std::fprintf(stderr, "%s=%s is not an integer in [%ld, %ld]\n", label, text, min_value,
                 max_value);
    std::exit(kEnvParseExitCode);
  }
  return *value;
}

std::vector<unsigned> parse_acs_or_die(const char* text) {
  std::vector<unsigned> budgets;
  std::stringstream ss(text);
  std::string piece;
  while (std::getline(ss, piece, ','))
    budgets.push_back(static_cast<unsigned>(int_flag_or_die("--acs", piece.c_str(), 1, 1'000)));
  if (budgets.empty()) {
    std::fprintf(stderr, "--acs needs at least one container budget\n");
    std::exit(kEnvParseExitCode);
  }
  return budgets;
}

WorkloadTrace load_or_generate(const SpecialInstructionSet& set, int frames) {
  h264::WorkloadConfig config;
  config.frames = frames;
  const auto path = h264::trace_cache_path(set, config);
  if (auto cached = try_load_trace_file(path, set.si_count())) return std::move(*cached);
  std::fprintf(stderr, "[dse] encoding %d synthetic CIF frames (cached at %s)...\n", frames,
               path.string().c_str());
  WorkloadTrace trace = h264::generate_h264_workload(set, config).trace;
  save_trace_file(trace, path);
  return trace;
}

/// Round-trip + bit-exact replay verification of the discovered platform.
bool verify_platform_text(const std::string& text, const dse::DseResult& result,
                          const WorkloadTrace& trace, const dse::DseOptions& options,
                          const char* source) {
  const config::PlatformSpec parsed = config::parse_platform_spec_string(text);
  if (!(parsed == result.best.point.spec)) {
    std::fprintf(stderr, "FAIL: %s did not round-trip to the discovered spec\n", source);
    return false;
  }
  const SpecialInstructionSet rebuilt = config::build_platform(parsed);
  if (fingerprint(rebuilt) != result.best.fingerprint) {
    std::fprintf(stderr, "FAIL: %s rebuilt to a different isa fingerprint\n", source);
    return false;
  }
  const dse::EvalResult replayed =
      dse::evaluate_candidate_naive(parsed, trace, result.reference_cycles, options);
  if (replayed.total_cycles != result.best.eval.total_cycles) {
    std::fprintf(stderr, "FAIL: %s replay diverged from the search's evaluation\n", source);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dse::DseOptions options;
  options.seed = static_cast<std::uint64_t>(
      parse_env_int("RISPP_DSE_SEED", 1, 0, 1'000'000'000'000L));
  options.generations = static_cast<unsigned>(
      parse_env_int("RISPP_DSE_GENERATIONS", static_cast<long>(options.generations), 1, 10'000));
  int frames = 8;
  std::string out_path;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const char* value = i + 1 < args.size() ? args[i + 1].c_str() : nullptr;
    if (value == nullptr) {
      return usage();
    } else if (arg == "--frames") {
      frames = static_cast<int>(int_flag_or_die("--frames", value, 1, 10'000));
      ++i;
    } else if (arg == "--generations") {
      options.generations =
          static_cast<unsigned>(int_flag_or_die("--generations", value, 1, 10'000));
      ++i;
    } else if (arg == "--population") {
      options.population =
          static_cast<unsigned>(int_flag_or_die("--population", value, 1, 1'000));
      ++i;
    } else if (arg == "--mutations") {
      options.mutations_per_survivor =
          static_cast<unsigned>(int_flag_or_die("--mutations", value, 1, 1'000));
      ++i;
    } else if (arg == "--budget") {
      options.budget =
          static_cast<unsigned>(int_flag_or_die("--budget", value, 1, 1'000'000));
      ++i;
    } else if (arg == "--seed") {
      options.seed =
          static_cast<std::uint64_t>(int_flag_or_die("--seed", value, 0, 1'000'000'000'000L));
      ++i;
    } else if (arg == "--scheduler") {
      if (!has_scheduler(value)) {
        std::fprintf(stderr, "--scheduler: unknown strategy '%s'\n", value);
        return 2;
      }
      options.scheduler = value;
      ++i;
    } else if (arg == "--acs") {
      options.ac_budgets = parse_acs_or_die(value);
      ++i;
    } else if (arg == "--out") {
      out_path = value;
      ++i;
    } else {
      return usage();
    }
  }

  const config::PlatformSpec handbuilt = config::h264_platform_spec();
  // The trace is recorded against the Table 1 set; h264_platform_spec builds
  // the identical ISA (equal fingerprint), so the same cache entry serves
  // the benches and this driver.
  const SpecialInstructionSet handbuilt_set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = load_or_generate(handbuilt_set, frames);

  std::printf("dse: %d frames, %u generations x %u survivors x %u mutations, seed %llu\n",
              frames, options.generations, options.population,
              options.mutations_per_survivor,
              static_cast<unsigned long long>(options.seed));
  const dse::DseResult result = run_dse(trace, handbuilt, options);

  const std::uint64_t scored = result.cache_hits + result.abandoned + result.replays;
  TextTable table({"metric", "value"});
  table.add("software reference (cycles)", result.reference_cycles);
  table.add("hand-built mean speedup", format_fixed(result.handbuilt_eval.mean_speedup, 3));
  table.add("discovered mean speedup", format_fixed(result.best.eval.mean_speedup, 3));
  table.add("discovered / hand-built", format_fixed(result.discovered_vs_handbuilt, 3));
  table.add("discovered slices", result.best.eval.slices);
  table.add("pareto front size", result.front.size());
  table.add("generations run", result.generations_run);
  table.add("proposals", result.proposals);
  table.add("invalid candidates", result.invalid);
  table.add("eval cache hits", result.cache_hits);
  table.add("abandoned (bound)", result.abandoned);
  table.add("full replays", result.replays);
  table.add("eval cache hit rate",
            format_fixed(scored != 0 ? static_cast<double>(result.cache_hits) /
                                           static_cast<double>(scored)
                                     : 0.0,
                         3));
  std::fputs(table.render().c_str(), stdout);

  if (!verify_platform_text(result.platform_text, result, trace, options, "emitted text"))
    return 1;
  std::printf("self-check: emitted platform round-trips and replays bit-exactly\n");

  if (!out_path.empty()) {
    {
      std::ofstream out(out_path);
      if (!out.good()) {
        std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
        return 1;
      }
      out << result.platform_text;
    }
    std::ifstream in(out_path);
    std::stringstream read_back;
    read_back << in.rdbuf();
    if (!verify_platform_text(read_back.str(), result, trace, options, out_path.c_str()))
      return 1;
    std::printf("wrote %s (verified from disk)\n", out_path.c_str());
  }
  return 0;
}
