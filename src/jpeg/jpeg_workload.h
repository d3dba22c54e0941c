// Workload generation for the JPEG-style platform: compresses a stream of
// synthetic RGB images and records the SI trace (three hot spots per image:
// CC, TQ, EC). The EC counts are data-dependent — busy images produce more
// coefficient activity and thus more RLE work — so the monitor has real
// variation to track, as in the H.264 workload.
#pragma once

#include "isa/si.h"
#include "sim/trace.h"

namespace rispp::jpeg {

enum : HotSpotId { kHotSpotCc = 0, kHotSpotTq = 1, kHotSpotEc = 2 };

/// Bump when the compressor/workload changes in a way that alters recorded
/// traces or their file format — disk cache files are keyed on it (see
/// trace_cache_path). v2: trace format v3 (runs only, checksummed).
inline constexpr int kJpegWorkloadTraceVersion = 2;

struct JpegWorkloadConfig {
  int images = 40;
  int width = 512;   // multiples of 16
  int height = 384;
  std::uint64_t seed = 0x1936;  // JPEG's JFIF heritage
};

struct JpegWorkloadResult {
  WorkloadTrace trace;
  std::uint64_t total_blocks = 0;
  double mean_activity = 0.0;  // nonzero coefficients per block
};

JpegWorkloadResult generate_jpeg_workload(const SpecialInstructionSet& set,
                                          const JpegWorkloadConfig& config);

/// Digest of everything that determines a recorded JPEG trace: the SI set
/// fingerprint plus every JpegWorkloadConfig field.
std::uint64_t workload_fingerprint(const SpecialInstructionSet& set,
                                   const JpegWorkloadConfig& config);

/// Cache file a recorded trace for `config` lives at, under
/// trace_cache_dir() (honors RISPP_TRACE_DIR); keyed by
/// kJpegWorkloadTraceVersion, the image count and workload_fingerprint().
std::filesystem::path trace_cache_path(const SpecialInstructionSet& set,
                                       const JpegWorkloadConfig& config);

/// Forecast seeds for the three hot spots.
std::vector<std::vector<std::uint64_t>> jpeg_forecast_seeds(const SpecialInstructionSet& set);

template <typename Backend>
void seed_jpeg_forecasts(const SpecialInstructionSet& set, Backend& backend) {
  const auto seeds = jpeg_forecast_seeds(set);
  for (HotSpotId hs = 0; hs < seeds.size(); ++hs)
    for (SiId si = 0; si < seeds[hs].size(); ++si)
      if (seeds[hs][si] != 0) backend.seed_forecast(hs, si, seeds[hs][si]);
}

}  // namespace rispp::jpeg
