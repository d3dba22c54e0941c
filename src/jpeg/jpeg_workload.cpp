#include "jpeg/jpeg_workload.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "base/check.h"
#include "base/prng.h"
#include "h264/transform.h"
#include "jpeg/jpeg_si_library.h"

namespace rispp::jpeg {
namespace {

/// Synthetic 8x8 block content model: per image, a "busyness" phase drives
/// how many AC coefficients survive quantization. We run a real 4x4 DCT per
/// quadrant on generated texture to get genuinely data-dependent counts.
int block_activity(Xoshiro256& rng, double busyness) {
  int pixels[16];
  int nonzero = 0;
  for (int quadrant = 0; quadrant < 4; ++quadrant) {
    for (int i = 0; i < 16; ++i) {
      const double texture = rng.gaussian(0.0, 12.0 * busyness);
      pixels[i] = static_cast<int>(128.0 + texture) - 128;
    }
    int coeff[16];
    h264::dct4x4(pixels, coeff);
    for (int i = 0; i < 16; ++i)
      if (std::abs(coeff[i]) > 160) ++nonzero;  // quantization threshold
  }
  return nonzero;
}

}  // namespace

JpegWorkloadResult generate_jpeg_workload(const SpecialInstructionSet& set,
                                          const JpegWorkloadConfig& config) {
  RISPP_CHECK(config.width % 16 == 0 && config.height % 16 == 0);
  const auto need = [&](const char* name) {
    const auto id = set.find(name);
    RISPP_CHECK_MSG(id.has_value(), "missing SI " << name);
    return *id;
  };
  const SiId csc = need(jpegsis::kCsc);
  const SiId down = need(jpegsis::kDownsample);
  const SiId fdct = need(jpegsis::kFdct);
  const SiId quant = need(jpegsis::kQuant);
  const SiId rle = need(jpegsis::kRle);

  JpegWorkloadResult result;
  WorkloadTrace& trace = result.trace;
  trace.hot_spots.resize(3);
  trace.hot_spots[kHotSpotCc] = {"CC", {csc, down}, 8};
  trace.hot_spots[kHotSpotTq] = {"TQ", {fdct, quant}, 8};
  trace.hot_spots[kHotSpotEc] = {"EC", {rle}, 8};

  Xoshiro256 rng(config.seed);
  const int mcus_x = config.width / 16;
  const int mcus_y = config.height / 16;
  std::uint64_t activity_sum = 0;

  for (int img = 0; img < config.images; ++img) {
    // Image busyness follows a slow phase (like the H.264 motion phases).
    const double busyness =
        0.6 + 0.5 * std::sin(img * 0.35) + rng.uniform01() * 0.3;

    HotSpotInstance cc{kHotSpotCc, 1'500};
    HotSpotInstance tq{kHotSpotTq, 1'500};
    HotSpotInstance ec{kHotSpotEc, 1'500};
    for (int mcu = 0; mcu < mcus_x * mcus_y; ++mcu) {
      // Per MCU: 4 luma + 2 chroma 8x8 blocks.
      cc.append(csc, 6);
      cc.append(down);
      for (int b = 0; b < 6; ++b) {
        tq.append(fdct);
        tq.append(quant);
        const int activity = block_activity(rng, busyness);
        activity_sum += static_cast<std::uint64_t>(activity);
        ++result.total_blocks;
        // RLE work scales with the number of coefficient runs.
        const int rle_invocations = 1 + activity / 4;
        ec.append(rle, static_cast<std::uint64_t>(rle_invocations));
      }
    }
    trace.instances.push_back(std::move(cc));
    trace.instances.push_back(std::move(tq));
    trace.instances.push_back(std::move(ec));
  }
  result.mean_activity = result.total_blocks > 0
                             ? static_cast<double>(activity_sum) /
                                   static_cast<double>(result.total_blocks)
                             : 0.0;
  trace.index_runs();
  return result;
}

std::vector<std::vector<std::uint64_t>> jpeg_forecast_seeds(const SpecialInstructionSet& set) {
  const auto need = [&](const char* name) { return set.find(name).value(); };
  std::vector<std::vector<std::uint64_t>> seeds(3,
                                                std::vector<std::uint64_t>(set.si_count(), 0));
  // Rough profile of one 512x384 image (768 MCUs, 4608 blocks).
  seeds[kHotSpotCc][need(jpegsis::kCsc)] = 4'600;
  seeds[kHotSpotCc][need(jpegsis::kDownsample)] = 770;
  seeds[kHotSpotTq][need(jpegsis::kFdct)] = 4'600;
  seeds[kHotSpotTq][need(jpegsis::kQuant)] = 4'600;
  seeds[kHotSpotEc][need(jpegsis::kRle)] = 6'000;
  return seeds;
}

std::uint64_t workload_fingerprint(const SpecialInstructionSet& set,
                                   const JpegWorkloadConfig& config) {
  std::uint64_t hash = fingerprint(set);
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.images));
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.width));
  hash = fingerprint_mix(hash, static_cast<std::uint64_t>(config.height));
  hash = fingerprint_mix(hash, config.seed);
  return hash;
}

std::filesystem::path trace_cache_path(const SpecialInstructionSet& set,
                                       const JpegWorkloadConfig& config) {
  char key[32];
  std::snprintf(key, sizeof key, "%016" PRIx64, workload_fingerprint(set, config));
  return trace_cache_dir() /
         ("rispp_jpeg_trace_v" + std::to_string(kJpegWorkloadTraceVersion) + "_" +
          std::to_string(config.images) + "_" + key + ".rtrc");
}

}  // namespace rispp::jpeg
