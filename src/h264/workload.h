// Workload generation: runs the functional encoder over the synthetic CIF
// sequence and emits the WorkloadTrace the cycle-level simulator replays —
// the paper's 140-frame evaluation run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "h264/encoder.h"
#include "h264/synthetic_video.h"
#include "isa/si.h"
#include "sim/trace.h"

namespace rispp::h264 {

/// Hot-spot ids of the H.264 trace (Figure 1 order within each frame).
enum : HotSpotId { kHotSpotMe = 0, kHotSpotEe = 1, kHotSpotLf = 2 };

/// Bump when the encoder/workload changes in a way that alters recorded
/// traces or their file format — cache files (bench/common.cpp) are keyed on
/// it. v4: trace format v2 (serialized RLE runs). v5: trace format v3 (runs
/// only, checksummed).
inline constexpr int kWorkloadTraceVersion = 5;

struct WorkloadConfig {
  int frames = 140;  // the paper's sequence length
  VideoConfig video;
  EncoderConfig encoder;
  /// Base-processor glue cycles around each SI execution and per hot-spot
  /// entry (loop control, address generation, function calls).
  Cycles per_execution_overhead = 8;
  Cycles hot_spot_entry_overhead = 2'000;
  /// Wavefront thread count for the encoder: 0 (default) uses the global
  /// pool, >= 1 a dedicated pool of that size. The trace is identical for
  /// any value (determinism-tested), so this is NOT part of the cache key.
  int encode_threads = 0;
};

/// Resolves the Table 1 SI names against `set`.
H264SiIds resolve_si_ids(const SpecialInstructionSet& set);

struct WorkloadResult {
  WorkloadTrace trace;
  double mean_psnr = 0.0;
  /// Entropy-coded payload bitrate at 30 fps.
  double mean_bitrate_kbps = 0.0;
  int intra_mbs = 0;
  int inter_mbs = 0;
};

/// Encodes `config.frames` frames and returns the SI trace (3 hot-spot
/// instances per P frame: ME, EE, LF; I frames have no ME instance).
WorkloadResult generate_h264_workload(const SpecialInstructionSet& set,
                                      const WorkloadConfig& config);

/// Digest of everything that determines a recorded trace's contents: the SI
/// set (names, molecule tables — isa fingerprint()) plus every WorkloadConfig
/// field that shapes the trace. Editing the H.264 SI library or the workload
/// parameters changes the digest, so a stale cached trace can never be
/// replayed. (encode_threads is deliberately excluded — the trace is
/// thread-count-invariant, determinism-tested.)
std::uint64_t workload_fingerprint(const SpecialInstructionSet& set,
                                   const WorkloadConfig& config);

/// Cache file a recorded trace for `config` lives at: keyed by
/// kWorkloadTraceVersion, the frame count and workload_fingerprint(), under
/// trace_cache_dir() (honors RISPP_TRACE_DIR). Shared between the bench
/// harness and the fleet's TraceRepository.
std::filesystem::path trace_cache_path(const SpecialInstructionSet& set,
                                       const WorkloadConfig& config);

/// Design-time forecast seeds per (hot spot, SI) — rough per-frame counts a
/// designer would profile offline; the monitor refines them online.
std::vector<std::vector<std::uint64_t>> default_forecast_seeds(const SpecialInstructionSet& set);

/// Applies default_forecast_seeds to any backend exposing seed_forecast.
template <typename Backend>
void seed_default_forecasts(const SpecialInstructionSet& set, Backend& backend) {
  const auto seeds = default_forecast_seeds(set);
  for (HotSpotId hs = 0; hs < seeds.size(); ++hs)
    for (SiId si = 0; si < seeds[hs].size(); ++si)
      if (seeds[hs][si] != 0) backend.seed_forecast(hs, si, seeds[hs][si]);
}

}  // namespace rispp::h264
