#include "sim/executor.h"

#include "base/check.h"
#include "base/clock.h"
#include "base/metrics.h"
#include "base/trace_event.h"

namespace rispp {

Cycles ExecutionBackend::si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                                  Cycles per_execution_overhead,
                                                  std::vector<LatencySegment>& segments) {
  Cycles total = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Cycles latency = si_execution_latency(si, now);
    append_latency_segment(segments, 1, latency);
    total += latency;
    now += latency + per_execution_overhead;
  }
  return total;
}

Cycles ExecutionBackend::si_execution_span(std::span<const SiRun> runs, Cycles now,
                                           Cycles per_execution_overhead) {
  std::vector<LatencySegment> segments;
  for (const SiRun& run : runs) {
    segments.clear();
    const Cycles total =
        si_execution_run_latency(run.si, run.count, now, per_execution_overhead, segments);
    now += total + run.count * per_execution_overhead;
  }
  return now;
}

void check_replay_fits(const WorkloadTrace& trace, const ExecutionBackend& backend) {
  Cycles total = 0;
  bool wraps = false;
  const auto add = [&](Cycles cycles, std::uint64_t times) {
    Cycles product = 0;
    wraps = wraps || __builtin_mul_overflow(cycles, times, &product) ||
            __builtin_add_overflow(total, product, &total);
  };
  for (const HotSpotInstance& inst : trace.instances) {
    const HotSpotInfo& info = trace.hot_spots[inst.hot_spot];
    add(inst.entry_overhead, 1);
    add(info.per_execution_overhead, inst.execution_count());
    const RunIndex& index = inst.run_index;
    if (index.slots > 0) {
      // The index's last row holds each listed SI's executions.
      const std::uint32_t* executions = index.checkpoint(index.blocks());
      for (std::size_t j = 0; j < index.slots; ++j)
        add(backend.worst_si_latency(info.sis[j]), executions[j]);
    } else {
      for (const SiRun& run : inst.runs) add(backend.worst_si_latency(run.si), run.count);
    }
  }
  RISPP_CHECK_MSG(!wraps && total <= kMaxReplayCycles,
                  "replaying this trace on " << backend.name()
                                             << " could wrap simulated time: its overheads "
                                                "plus executions times worst SI latencies "
                                                "exceed 2^62 cycles");
}

namespace {

/// One simulated-time trace row per replay run: a 'B'/'E' span per hot-spot
/// instance on a fresh lane, so overlapping sweep cells never share a row.
/// All names are interned because the trace flush runs at process exit.
struct InstanceTraceRow {
  bool enabled;
  TraceLane lane = 0;
  std::vector<const char*> names;

  InstanceTraceRow(const WorkloadTrace& trace, const ExecutionBackend& backend)
      : enabled(trace_enabled()) {
    if (!enabled) return;
    lane = trace_new_lane();
    std::string label = "instances: ";
    label += backend.name();
    trace_name_lane(TraceTrack::kExecutor, lane, trace_intern(label));
    names.reserve(trace.hot_spots.size());
    for (const HotSpotInfo& h : trace.hot_spots)
      names.push_back(trace_intern(h.name.empty() ? "hot spot" : h.name));
  }
  void begin(std::size_t hot_spot, Cycles at) const {
    if (enabled)
      trace_begin(TraceTrack::kExecutor, lane, names[hot_spot], us_from_cycles(at));
  }
  void end(std::size_t hot_spot, Cycles at) const {
    if (enabled)
      trace_end(TraceTrack::kExecutor, lane, names[hot_spot], us_from_cycles(at));
  }
};

MetricCounter& hot_spot_entries_counter() {
  static MetricCounter& entries = metric_counter("sim.hot_spot_entries");
  return entries;
}

/// The scalar reference body of one instance: one si_execution_latency call
/// per execution.
Cycles replay_instance_scalar(const WorkloadTrace& trace, std::size_t instance,
                              ExecutionBackend& backend, SimStats* stats, Cycles now,
                              std::uint64_t& si_executions) {
  const HotSpotInstance& inst = trace.instances[instance];
  const Cycles overhead = trace.hot_spots[inst.hot_spot].per_execution_overhead;
  now += inst.entry_overhead;
  backend.on_hot_spot_entry(trace, instance, now);
  for (const SiRun& run : inst.runs) {
    for (std::uint32_t k = 0; k < run.count; ++k) {
      const Cycles latency = backend.si_execution_latency(run.si, now);
      if (stats) stats->record_execution(run.si, now, latency);
      now += latency + overhead;
    }
    si_executions += run.count;
  }
  backend.on_hot_spot_exit(now);
  return now;
}

}  // namespace

Cycles replay_instance(const WorkloadTrace& trace, std::size_t instance,
                       ExecutionBackend& backend, SimStats* stats, Cycles now,
                       std::uint64_t& si_executions, std::vector<LatencySegment>& segments) {
  const HotSpotInstance& inst = trace.instances[instance];
  const HotSpotInfo& info = trace.hot_spots[inst.hot_spot];
  now += inst.entry_overhead;
  backend.on_hot_spot_entry(trace, instance, now);
  if (!stats) {
    // No per-execution observation needed: let the backend fast-forward
    // the whole instance (port-quiet windows advance in pure arithmetic).
    now = backend.si_execution_span(std::span<const SiRun>(inst.runs), now,
                                    info.per_execution_overhead);
    si_executions += inst.execution_count();
    backend.on_hot_spot_exit(now);
    return now;
  }
  for (const SiRun& run : inst.runs) {
    segments.clear();
    backend.si_execution_run_latency(run.si, run.count, now, info.per_execution_overhead,
                                     segments);
    std::uint64_t segmented = 0;
    for (const LatencySegment& seg : segments) {
      const Cycles step = seg.latency + info.per_execution_overhead;
      stats->record_run(run.si, now, seg.count, step, seg.latency);
      now += seg.count * step;
      segmented += seg.count;
    }
    RISPP_CHECK_MSG(segmented == run.count,
                    "backend latency segments do not cover the run");
    si_executions += run.count;
  }
  backend.on_hot_spot_exit(now);
  return now;
}

SimResult run_trace(const WorkloadTrace& trace, ExecutionBackend& backend, SimStats* stats,
                    ReplayMode mode) {
  check_replay_fits(trace, backend);
  SimResult result;
  result.hot_spot_cycles.assign(trace.hot_spots.size(), 0);
  const InstanceTraceRow row(trace, backend);
  MetricCounter& entries = hot_spot_entries_counter();
  Cycles now = 0;
  std::vector<LatencySegment> segments;
  for (std::size_t idx = 0; idx < trace.instances.size(); ++idx) {
    const HotSpotId hot_spot = trace.instances[idx].hot_spot;
    const Cycles entered = now;
    entries.add();
    row.begin(hot_spot, entered);
    now = mode == ReplayMode::kScalar
              ? replay_instance_scalar(trace, idx, backend, stats, now, result.si_executions)
              : replay_instance(trace, idx, backend, stats, now, result.si_executions,
                                segments);
    row.end(hot_spot, now);
    result.hot_spot_cycles[hot_spot] += now - entered;
  }
  result.total_cycles = now;
  result.atom_loads = backend.completed_loads();
  return result;
}

}  // namespace rispp
