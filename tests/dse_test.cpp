// Design-space exploration (src/dse, DESIGN §10): mutation soundness, the
// memoized fast path against its naive oracle, thread-count determinism of
// the search, Pareto/bound invariants, and the cache-isolation guarantees
// generated ISAs rely on.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "base/env.h"
#include "base/parallel.h"
#include "base/prng.h"
#include "config/h264_platform.h"
#include "config/platform_parser.h"
#include "dpg/makespan_memo.h"
#include "dse/design_point.h"
#include "dse/engine.h"
#include "dse/eval_cache.h"
#include "dse/pareto.h"
#include "fleet/shared_decision_cache.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "isa/si.h"
#include "select/selection.h"
#include "sim/trace.h"

namespace rispp {
namespace {

SiId find_si(const SpecialInstructionSet& set, const std::string& name) {
  const auto id = set.find(name);
  EXPECT_TRUE(id.has_value()) << name;
  return id.value();
}

// A small deterministic trace over three hot spots of the H.264 platform —
// enough structure (mixed SIs, uneven instance lengths) to exercise
// selection and scheduling, small enough that a full DSE run stays fast.
WorkloadTrace small_trace(const SpecialInstructionSet& set) {
  const SiId sad = find_si(set, "SAD");
  const SiId satd = find_si(set, "SATD");
  const SiId dct = find_si(set, "(I)DCT");
  const SiId mc = find_si(set, "MC 4");
  const SiId lf = find_si(set, "LF_BS4");
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8},
                     HotSpotInfo{"EncLoop", {dct, mc}, 12},
                     HotSpotInfo{"LF", {lf}, 6}};
  Xoshiro256 rng(7);
  for (int i = 0; i < 30; ++i) {
    HotSpotInstance inst;
    inst.hot_spot = static_cast<HotSpotId>(i % 3);
    inst.entry_overhead = 500 + rng.bounded(500);
    const std::vector<SiId>& sis = trace.hot_spots[inst.hot_spot].sis;
    const int executions = 40 + static_cast<int>(rng.bounded(60));
    for (int e = 0; e < executions; ++e) inst.append(sis[rng.bounded(sis.size())]);
    trace.instances.push_back(std::move(inst));
  }
  trace.index_runs();
  return trace;
}

// Short search shape shared by the engine tests.
dse::DseOptions small_options() {
  dse::DseOptions options;
  options.generations = 3;
  options.population = 3;
  options.mutations_per_survivor = 4;
  options.budget = 60;
  options.seed = 11;
  options.ac_budgets = {6, 10};
  return options;
}

std::vector<config::PlatformSpec> mutated_specs(unsigned count, std::uint64_t seed) {
  std::vector<config::PlatformSpec> specs;
  dse::DesignPoint point = dse::degraded_seed(config::h264_platform_spec());
  Xoshiro256 rng(seed);
  for (unsigned i = 0; i < count; ++i) {
    dse::mutate(point, rng);
    specs.push_back(point.spec);
  }
  return specs;
}

// The platform-language description of the Table 1 library must build the
// exact observable ISA the hand-built C++ constructor does — the DSE's
// comparison target and the trace's recording ISA are then interchangeable.
TEST(Dse, PlatformSpecMatchesHandbuiltLibrary) {
  const SpecialInstructionSet from_spec = config::build_platform(config::h264_platform_spec());
  const SpecialInstructionSet handbuilt = h264sis::build_h264_si_set();
  EXPECT_EQ(fingerprint(from_spec), fingerprint(handbuilt));
}

// Every reachable candidate serializes through the platform language and
// back without loss: parse(emit(s)) == s and the rebuilt set's fingerprint
// is unchanged — what lets `rispp_dse --out` round-trip its discovery.
TEST(Dse, MutatedSpecsRoundTripThroughEmit) {
  MakespanMemo memo;
  for (const config::PlatformSpec& spec : mutated_specs(25, 3)) {
    const std::string text = config::emit_platform(spec);
    const config::PlatformSpec reparsed = config::parse_platform_spec_string(text);
    ASSERT_EQ(reparsed, spec) << text;
    EXPECT_EQ(fingerprint(config::build_platform(reparsed, &memo)),
              fingerprint(config::build_platform(spec, &memo)));
  }
}

// Work preservation: mutations repartition atoms and retune caps but never
// change the elementary work an SI performs, so the software-only replay —
// the speedup denominator shared by every candidate — is invariant.
TEST(Dse, MutationsPreserveSoftwareReference) {
  const config::PlatformSpec handbuilt = config::h264_platform_spec();
  MakespanMemo memo;
  const SpecialInstructionSet seed_set =
      config::build_platform(dse::degraded_seed(handbuilt).spec, &memo);
  const WorkloadTrace trace = small_trace(seed_set);
  const Cycles reference = dse::software_reference_cycles(seed_set, trace);
  for (const config::PlatformSpec& spec : mutated_specs(15, 5)) {
    const SpecialInstructionSet set = config::build_platform(spec, &memo);
    EXPECT_EQ(dse::software_reference_cycles(set, trace), reference);
  }
}

// The MakespanMemo is a pure-function cache: building a spec through a memo
// (fresh or warm) yields the same observable ISA as the memo-less full
// list-scheduling pass.
TEST(Dse, MemoizedBuildMatchesReference) {
  MakespanMemo memo;
  for (const config::PlatformSpec& spec : mutated_specs(20, 9)) {
    const std::uint64_t reference = fingerprint(config::build_platform(spec, nullptr));
    EXPECT_EQ(fingerprint(config::build_platform(spec, &memo)), reference);
    // Warm second build: every graph hits the memo now.
    EXPECT_EQ(fingerprint(config::build_platform(spec, &memo)), reference);
  }
}

// The engine's fast path (memoized build + run-batched replay + decision
// cache) must be bit-exact with the naive full re-simulation it claims to
// accelerate — same per-budget cycle counts, not just close speedups.
TEST(Dse, FastPathEvaluationBitExactWithNaive) {
  const config::PlatformSpec handbuilt = config::h264_platform_spec();
  MakespanMemo memo;
  const SpecialInstructionSet seed_set =
      config::build_platform(dse::degraded_seed(handbuilt).spec, &memo);
  const WorkloadTrace trace = small_trace(seed_set);
  const Cycles reference = dse::software_reference_cycles(seed_set, trace);
  dse::DseOptions options = small_options();
  options.makespan_memo = &memo;
  for (const config::PlatformSpec& spec : mutated_specs(8, 13)) {
    const dse::EvalResult fast = dse::evaluate_candidate(spec, trace, reference, options);
    const dse::EvalResult naive = dse::evaluate_candidate_naive(spec, trace, reference, options);
    EXPECT_EQ(fast.total_cycles, naive.total_cycles);
    EXPECT_EQ(fast.slices, naive.slices);
    EXPECT_DOUBLE_EQ(fast.mean_speedup, naive.mean_speedup);
  }
}

dse::DseResult run_small_search(unsigned threads) {
  const config::PlatformSpec handbuilt = config::h264_platform_spec();
  MakespanMemo memo;
  dse::EvalCache cache;
  ThreadPool pool(threads);
  dse::DseOptions options = small_options();
  options.pool = &pool;
  options.eval_cache = &cache;
  options.makespan_memo = &memo;
  const SpecialInstructionSet seed_set =
      config::build_platform(dse::degraded_seed(handbuilt).spec, &memo);
  return dse::run_dse(small_trace(seed_set), handbuilt, options);
}

// The search is a deterministic function of (trace, seed): the PRNG never
// leaves the serial proposal stage and parallel stages write index-addressed
// slots, so any worker count discovers the identical ISA and Pareto front.
TEST(Dse, DeterministicAcrossThreadCounts) {
  const dse::DseResult one = run_small_search(1);
  const dse::DseResult four = run_small_search(4);
  EXPECT_EQ(one.best.fingerprint, four.best.fingerprint);
  EXPECT_EQ(one.platform_text, four.platform_text);
  EXPECT_EQ(one.front, four.front);
  EXPECT_EQ(one.proposals, four.proposals);
  EXPECT_EQ(one.replays + one.cache_hits + one.abandoned,
            four.replays + four.cache_hits + four.abandoned);
  EXPECT_EQ(one.best.point.spec, four.best.point.spec);
  // And the search actually searches: the best candidate beats the degraded
  // seed it started from (the front's smallest point).
  EXPECT_GT(one.best.eval.mean_speedup, one.front.front().speedup);
}

// An eval-cache hit replays the cycles of an earlier candidate with the same
// ISA fingerprint, never its area: the best candidate and every front member
// must report exactly what a naive re-score of its own spec computes.
TEST(Dse, CacheHitsScoreTheCandidatesOwnSlices) {
  const config::PlatformSpec handbuilt = config::h264_platform_spec();
  ThreadPool pool(2);
  std::uint64_t cache_hits = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    MakespanMemo memo;
    dse::EvalCache cache;
    dse::DseOptions options;  // the default search shape revisits ISAs often
    options.seed = seed;
    options.generations = 6;
    options.pool = &pool;
    options.eval_cache = &cache;
    options.makespan_memo = &memo;
    const SpecialInstructionSet seed_set =
        config::build_platform(dse::degraded_seed(handbuilt).spec, &memo);
    const WorkloadTrace trace = small_trace(seed_set);
    const dse::DseResult result = dse::run_dse(trace, handbuilt, options);
    cache_hits += result.cache_hits;
    const auto naive = [&](const config::PlatformSpec& spec) {
      return dse::evaluate_candidate_naive(spec, trace, result.reference_cycles, options);
    };
    const dse::EvalResult best = naive(result.best.point.spec);
    EXPECT_EQ(best.slices, result.best.eval.slices);
    EXPECT_EQ(best, result.best.eval);
    ASSERT_EQ(result.front_specs.size(), result.front.size());
    for (std::size_t i = 0; i < result.front.size(); ++i) {
      const dse::EvalResult rescored = naive(result.front_specs[i]);
      EXPECT_EQ(rescored.slices, result.front[i].slices) << "front member " << i;
      EXPECT_EQ(rescored.mean_speedup, result.front[i].speedup) << "front member " << i;
    }
  }
  EXPECT_GT(cache_hits, 0u);  // the searches do revisit ISAs
}

// Pareto invariants under a random insert stream: members are sorted by
// slices with strictly increasing speedup (no member dominates another), and
// dominates() agrees with membership.
TEST(Dse, ParetoFrontInvariants) {
  Xoshiro256 rng(0xda7e);
  dse::ParetoFront front;
  for (int i = 0; i < 500; ++i) {
    dse::ParetoPoint p;
    p.slices = 50 + static_cast<unsigned>(rng.bounded(200));
    p.speedup = 1.0 + static_cast<double>(rng.bounded(1000)) / 50.0;
    p.fingerprint = rng.next();
    const bool entered = front.insert(p);
    // An inserted point is never dominated by the resulting front (beyond
    // itself); a rejected one is always weakly dominated.
    if (!entered) EXPECT_TRUE(front.dominates(p.slices, p.speedup));
  }
  const auto& points = front.points();
  ASSERT_FALSE(points.empty());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i - 1].slices, points[i].slices);
    EXPECT_LT(points[i - 1].speedup, points[i].speedup);
  }
  for (const dse::ParetoPoint& p : points) {
    EXPECT_TRUE(front.dominates(p.slices, p.speedup));
    EXPECT_FALSE(front.dominates(p.slices, p.speedup + 1e-9));
  }
}

// The early-abandon bound must be a sound upper bound on the achievable mean
// speedup — otherwise pruning could drop the true optimum. Mirrors the
// engine's bound computation and checks it against full evaluations.
TEST(Dse, AbandonBoundIsSoundUpperBound) {
  const config::PlatformSpec handbuilt = config::h264_platform_spec();
  MakespanMemo memo;
  const SpecialInstructionSet seed_set =
      config::build_platform(dse::degraded_seed(handbuilt).spec, &memo);
  const WorkloadTrace trace = small_trace(seed_set);
  const Cycles reference = dse::software_reference_cycles(seed_set, trace);
  dse::DseOptions options = small_options();
  options.makespan_memo = &memo;
  const unsigned max_budget = 10;
  for (const config::PlatformSpec& spec : mutated_specs(10, 21)) {
    const SpecialInstructionSet set = config::build_platform(spec, &memo);
    Cycles ideal = trace.overhead_cycles();
    for (SiId si = 0; si < set.si_count(); ++si)
      ideal += trace.executions_of(si) * best_case_latency(set, si, max_budget);
    const double bound =
        static_cast<double>(reference) / static_cast<double>(std::max<Cycles>(ideal, 1));
    const dse::EvalResult eval = dse::evaluate_candidate(spec, trace, reference, options);
    EXPECT_GE(bound, eval.mean_speedup) << config::emit_platform(spec);
  }
}

// Everything the caches may key on: atom types, SI names, trap latencies and
// the full molecule tables. Two sets with equal observable text replay any
// trace identically; the fingerprint must separate everything else.
std::string observable_text(const SpecialInstructionSet& set) {
  std::string out;
  for (AtomTypeId t = 0; t < set.atom_type_count(); ++t) {
    const AtomType& type = set.library().type(t);
    out += type.name + ":" + std::to_string(type.op_latency) + "," +
           std::to_string(type.sw_op_cycles) + "," + std::to_string(type.slices) + ";";
  }
  for (SiId si = 0; si < set.si_count(); ++si) {
    const SpecialInstruction& s = set.si(si);
    out += s.name + "=" + std::to_string(s.software_latency) + "[";
    for (const MoleculeImpl& m : s.molecules) {
      for (std::size_t d = 0; d < m.atoms.dimension(); ++d)
        out += std::to_string(m.atoms[d]) + ".";
      out += "@" + std::to_string(m.latency) + "|";
    }
    out += "]";
  }
  return out;
}

// Fingerprints are the isolation key every cache layer hangs off. Over a
// long mutation walk: a fingerprint maps to exactly one observable ISA (two
// specs may legitimately share one — e.g. caps past the DAG's width add no
// molecules — but never the reverse), distinct fingerprints give generated
// ISAs distinct trace-cache paths, and the fleet's shared decision cache
// interns them as distinct domains.
TEST(Dse, FingerprintIsolatesGeneratedIsas) {
  MakespanMemo memo;
  std::map<std::uint64_t, std::string> seen;  // fingerprint -> observable ISA
  std::set<std::string> distinct_isas;
  fleet::SharedDecisionCache shared(1 << 8, 2);
  std::set<fleet::SharedDecisionCache::DomainId> domains;
  std::set<std::string> trace_paths;
  std::set<std::uint64_t> fingerprints;
  for (const config::PlatformSpec& spec : mutated_specs(120, 31)) {
    const SpecialInstructionSet set = config::build_platform(spec, &memo);
    const std::uint64_t fp = fingerprint(set);
    const std::string isa = observable_text(set);
    const auto [it, inserted] = seen.emplace(fp, isa);
    if (!inserted) EXPECT_EQ(it->second, isa) << "fingerprint collision";
    distinct_isas.insert(isa);
    fingerprints.insert(fp);
    domains.insert(shared.register_domain(fp, "HEF", 100, 0));
    trace_paths.insert(h264::trace_cache_path(set, h264::WorkloadConfig{}).string());
  }
  // Distinct observable ISAs stay distinct through every keying layer.
  EXPECT_EQ(fingerprints.size(), distinct_isas.size());
  EXPECT_EQ(domains.size(), fingerprints.size());
  EXPECT_EQ(trace_paths.size(), fingerprints.size());
  EXPECT_GT(fingerprints.size(), 20u);  // the walk actually moved
  // Re-registration interns, never forks.
  for (const auto& [fp, isa] : seen)
    EXPECT_TRUE(domains.count(shared.register_domain(fp, "HEF", 100, 0)));
}

// The eval cache key pairs the ISA fingerprint with the evaluation context:
// the same ISA under a different scheduler/budget/trace must miss.
TEST(Dse, EvalCacheKeysOnContext) {
  dse::EvalCache cache;
  dse::EvalResult result;
  result.mean_speedup = 2.0;
  result.slices = 10;
  cache.insert(/*fingerprint=*/42, /*context=*/1, result);
  EXPECT_TRUE(cache.lookup(42, 1).has_value());
  EXPECT_FALSE(cache.lookup(42, 2).has_value());
  EXPECT_FALSE(cache.lookup(43, 1).has_value());
  // Contexts differ when any evaluation knob differs.
  const config::PlatformSpec handbuilt = config::h264_platform_spec();
  const SpecialInstructionSet set = config::build_platform(handbuilt);
  const WorkloadTrace trace = small_trace(set);
  dse::DseOptions a = small_options();
  dse::DseOptions b = a;
  b.scheduler = "SJF";
  dse::DseOptions c = a;
  c.ac_budgets = {6, 12};
  EXPECT_NE(dse::eval_context_digest(trace, 1000, a), dse::eval_context_digest(trace, 1000, b));
  EXPECT_NE(dse::eval_context_digest(trace, 1000, a), dse::eval_context_digest(trace, 1000, c));
  EXPECT_NE(dse::eval_context_digest(trace, 1000, a), dse::eval_context_digest(trace, 999, a));
}

// Garbage in the DSE env knobs must be a loud exit-2 naming the variable —
// never a silent fall-back onto a default search (rispp_dse reads these
// through the same parse_env_int the other drivers use).
TEST(Dse, EnvParseErrorsExitLoudly) {
  ::setenv("RISPP_DSE_SEED", "abc", 1);
  EXPECT_EXIT(parse_env_int("RISPP_DSE_SEED", 1, 0, 1'000'000'000'000L),
              ::testing::ExitedWithCode(kEnvParseExitCode), "RISPP_DSE_SEED");
  ::unsetenv("RISPP_DSE_SEED");
  ::setenv("RISPP_DSE_GENERATIONS", "-5", 1);
  EXPECT_EXIT(parse_env_int("RISPP_DSE_GENERATIONS", 16, 1, 100000),
              ::testing::ExitedWithCode(kEnvParseExitCode), "RISPP_DSE_GENERATIONS");
  ::unsetenv("RISPP_DSE_GENERATIONS");
  EXPECT_EQ(parse_env_int("RISPP_DSE_SEED", 1, 0, 1'000'000'000'000L), 1);
}

}  // namespace
}  // namespace rispp
