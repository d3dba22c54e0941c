// Parallel automatic SI design-space exploration (DESIGN §10).
//
// Given a recorded workload trace and a hand-built platform spec, the engine
// searches atom-type partitionings and instance-cap assignments (ISEGEN-style
// iterative improvement over work-preserving mutations, dse/design_point.h)
// for ISAs that maximize replayed workload speedup per FPGA slice. The search
// runs in deterministic generations:
//
//   1. serial   — a seeded PRNG proposes children of the survivor population
//                 (deduplicated by emitted-spec digest within the generation;
//                 cross-generation revisits are *kept* so they become eval-
//                 cache hits instead of re-simulations);
//   2. parallel — candidates build their SpecialInstructionSet (molecule
//                 enumeration through the process-wide MakespanMemo: only
//                 graphs the mutation touched ever reschedule) and compute
//                 their speedup upper bound, into per-proposal slots;
//   3. serial   — eval-cache lookups, then early abandon: a candidate whose
//                 bound is already dominated by the Pareto front at its area
//                 can never enter the front and is dropped unevaluated;
//   4. parallel — surviving misses replay the trace through the Run-Time
//                 Manager (run-batched fast path) at each AC budget;
//   5. serial   — results enter the cache, the slices/speedup Pareto front,
//                 and the next survivor population.
//
// Every parallel stage writes slot arrays and the PRNG never leaves stage 1,
// so the discovered ISA and front are invariant under the worker thread
// count (tests/dse_test.cpp). Scores are mean speedups over the AC budgets
// relative to a software-only replay; work preservation makes that reference
// a single number valid for every candidate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "config/platform_parser.h"
#include "dse/design_point.h"
#include "dse/eval_cache.h"
#include "dse/pareto.h"
#include "sim/trace.h"

namespace rispp::dse {

struct DseOptions {
  /// Search shape: `generations` rounds of `mutations_per_survivor` children
  /// per member of a `population`-sized survivor set.
  unsigned generations = 16;
  unsigned population = 8;
  unsigned mutations_per_survivor = 10;
  /// Evaluation budget: at most this many full trace replays (cache hits and
  /// abandoned candidates are free); the search stops when it is exhausted.
  unsigned budget = 1200;
  std::uint64_t seed = 1;
  /// SI Scheduler strategy candidates are scored under (sched/registry.h).
  std::string scheduler = "HEF";
  /// Atom Container budgets scored per candidate; the mean speedup over them
  /// is the optimization objective.
  std::vector<unsigned> ac_budgets = {8, 16};
  /// Injection points (null = the process-wide instances).
  ThreadPool* pool = nullptr;
  EvalCache* eval_cache = nullptr;
  MakespanMemo* makespan_memo = nullptr;
};

/// One evaluated member of the search.
struct DseCandidate {
  DesignPoint point;
  std::uint64_t fingerprint = 0;  // isa fingerprint() of the built set
  EvalResult eval;
};

struct DseResult {
  /// Highest-mean-speedup candidate discovered (the emitted platform).
  DseCandidate best;
  /// emit_platform(best.point.spec) — what `rispp_dse --out` writes.
  std::string platform_text;
  std::vector<ParetoPoint> front;
  /// The spec behind each front member, in `front` order.
  std::vector<config::PlatformSpec> front_specs;
  /// The hand-built platform scored under the same context (never enters the
  /// population or the front; reported for the ratio).
  EvalResult handbuilt_eval;
  double discovered_vs_handbuilt = 0.0;
  /// Software-only replay of the trace — the speedup denominator.
  Cycles reference_cycles = 0;
  // Search accounting.
  std::uint64_t proposals = 0;      // deduplicated children proposed
  std::uint64_t invalid = 0;        // failed to build a valid SI set
  std::uint64_t cache_hits = 0;     // scored from the eval cache
  std::uint64_t abandoned = 0;      // pruned by the bound before replay
  std::uint64_t replays = 0;        // full evaluations actually run
  unsigned generations_run = 0;
};

/// Area proxy of a spec: sum over atom types of slices x the widest cap any
/// SI grants the type (the fabric capacity the ISA can exploit).
unsigned design_slices(const config::PlatformSpec& spec);

/// Software-only replay of `trace` against `set` — the speedup reference.
Cycles software_reference_cycles(const SpecialInstructionSet& set,
                                 const WorkloadTrace& trace);

/// Design-time forecast seeds derived from the trace itself: per (hot spot,
/// SI), the mean executions per instance of that hot spot. Keeps the engine
/// workload-agnostic — any trace carries its own seeds.
std::vector<std::vector<std::uint64_t>> trace_forecast_seeds(const WorkloadTrace& trace);

/// Digest of everything besides the candidate ISA that shapes an evaluation:
/// scheduler, AC budgets, trace shape and the software reference. Composes
/// the eval-cache key with the isa fingerprint.
std::uint64_t eval_context_digest(const WorkloadTrace& trace, Cycles reference_cycles,
                                  const DseOptions& options);

/// One engine fast-path evaluation of a candidate: builds the spec through
/// `options.makespan_memo` (null = the process-wide memo) and replays the
/// trace run-batched with the RTM decision cache on — exactly how run_dse
/// scores an eval-cache miss, minus the cache itself. Bit-exact with
/// evaluate_candidate_naive (fuzzed in tests/dse_test.cpp); benched against
/// it in bench/micro_ops.cpp (BM_DseEvaluateCandidate).
EvalResult evaluate_candidate(const config::PlatformSpec& spec, const WorkloadTrace& trace,
                              Cycles reference_cycles, const DseOptions& options);

/// One naive full re-simulation of a candidate: builds the spec without the
/// MakespanMemo and replays the trace at every AC budget through the scalar
/// reference executor with the RTM decision cache off, on a copy of the
/// trace whose selection memo starts empty — no result memoized by an
/// earlier evaluation is reused. Bit-exact with the engine's fast path
/// (asserted by the driver self-check and tests), so it serves both as the
/// throughput baseline the bench compares against and as the oracle the
/// equivalence tests fuzz with. Throws std::logic_error for invalid specs.
EvalResult evaluate_candidate_naive(const config::PlatformSpec& spec,
                                    const WorkloadTrace& trace, Cycles reference_cycles,
                                    const DseOptions& options);

/// Runs the search seeded from degraded_seed(handbuilt). `trace` must have
/// been recorded against an ISA with the same SI names/order as `handbuilt`
/// (mutations preserve both, so the trace stays valid for every candidate).
DseResult run_dse(const WorkloadTrace& trace, const config::PlatformSpec& handbuilt,
                  const DseOptions& options = {});

}  // namespace rispp::dse
