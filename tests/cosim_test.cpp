// Multi-tenant co-simulation loop (rtm/tenant_sim.h, DESIGN §9.1).
//
// run_tenants steps the tenant whose simulated clock is furthest behind, one
// hot-spot instance at a time. Its exact step order is pinned here by golden
// digests: seeded cells over every scheduler × both partition modes ×
// 1/2/4/8 tenants, each tenant's SimResult and full SimStats (buckets and
// latency timelines) folded into one 64-bit value. Any change to the pick
// order, the tie-break or the retirement timing moves some digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "fleet/session.h"
#include "fleet/trace_repository.h"
#include "rtm/fabric_arbiter.h"
#include "rtm/run_time_manager.h"
#include "rtm/tenant_sim.h"
#include "sched/registry.h"

namespace rispp {
namespace {

using fleet::Content;
using fleet::SessionSpec;
using fleet::TraceEntry;
using fleet::TraceRepository;

SessionSpec small_session(Content content, int frames, const std::string& scheduler,
                          unsigned acs) {
  SessionSpec spec;
  spec.content = content;
  spec.frames = frames;
  spec.width = content == Content::kH264 ? 96 : 128;
  spec.height = content == Content::kH264 ? 64 : 96;
  spec.scheduler = scheduler;
  spec.container_count = acs;
  return spec;
}

void seed_from_entry(const TraceEntry& entry, RunTimeManager& rtm) {
  for (HotSpotId hs = 0; hs < entry.seeds.size(); ++hs)
    for (SiId si = 0; si < entry.seeds[hs].size(); ++si)
      if (entry.seeds[hs][si] != 0) rtm.seed_forecast(hs, si, entry.seeds[hs][si]);
}

/// One tenant's ingredients: the spec it was configured from (scheduler,
/// forecast mode) plus the repository's shared trace entry.
struct TenantSpec {
  SessionSpec spec;
  const TraceEntry* entry = nullptr;
};

/// One co-simulated device: fresh arbiter + RTMs over shared trace entries.
/// Results and per-tenant stats land in `results` / `stats`.
void run_device(const std::vector<TenantSpec>& entries, PartitionMode partition,
                unsigned acs_per_tenant, std::vector<SimResult>& results,
                std::vector<SimStats>& stats) {
  const std::size_t k = entries.size();
  ArbiterConfig arb_config;
  arb_config.total_containers = static_cast<unsigned>(k) * acs_per_tenant;
  arb_config.partition = partition;
  FabricArbiter arbiter(arb_config);

  std::vector<std::unique_ptr<AtomScheduler>> schedulers(k);
  std::vector<std::unique_ptr<RunTimeManager>> rtms(k);
  std::vector<TenantRun> runs(k);
  for (std::size_t i = 0; i < k; ++i) {
    TenantConfig tenant;
    tenant.quota = acs_per_tenant;
    tenant.floor = 2;
    runs[i].tenant = arbiter.add_tenant(tenant);
  }
  for (std::size_t i = 0; i < k; ++i) {
    const TraceEntry& entry = *entries[i].entry;
    schedulers[i] = make_scheduler(entries[i].spec.scheduler);
    RtmConfig config;
    config.scheduler = schedulers[i].get();
    config.forecast_mode = entries[i].spec.forecast_mode;
    config.arbiter = &arbiter;
    config.tenant = runs[i].tenant;
    rtms[i] = std::make_unique<RunTimeManager>(&entry.set, entry.trace.hot_spots.size(),
                                               config);
    seed_from_entry(entry, *rtms[i]);
    runs[i].trace = &entry.trace;
    runs[i].rtm = rtms[i].get();
    runs[i].stats = &stats[i];
  }
  arbiter.check_invariants();
  results = run_tenants(arbiter, std::span<TenantRun>(runs));
  arbiter.check_invariants();
}

/// FNV-1a over 64-bit words: order-sensitive, stable across hosts.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      value ^= (word >> (8 * b)) & 0xff;
      value *= 0x100000001b3ull;
    }
  }
};

/// Every field of the tenant's SimResult plus its SimStats over `si_count`
/// SIs: per-SI totals, every bucket, every latency change point.
std::uint64_t tenant_digest(const SimResult& result, const SimStats& stats,
                            std::size_t si_count) {
  Digest d;
  d.add(result.total_cycles);
  d.add(result.si_executions);
  d.add(result.atom_loads);
  d.add(result.hot_spot_cycles.size());
  for (const Cycles c : result.hot_spot_cycles) d.add(c);
  d.add(stats.bucket_count());
  for (SiId si = 0; si < si_count; ++si) {
    d.add(stats.executions(si));
    for (std::size_t b = 0; b < stats.bucket_count(); ++b) d.add(stats.bucket_executions(si, b));
    const auto& timeline = stats.latency_timeline(si);
    d.add(timeline.size());
    for (const SimStats::LatencyPoint& p : timeline) {
      d.add(p.at);
      d.add(p.latency);
    }
  }
  return d.value;
}

// Recorded from the instance-stepped min-clock loop; one digest per tenant.
const std::map<std::string, std::vector<std::uint64_t>>& golden_digests() {
  static const std::map<std::string, std::vector<std::uint64_t>> golden = {
      {"ASF/static/1", {0x38a24e4f83b3b35aull}},
      {"ASF/static/2", {0x6fda4416a2aa2e9full, 0xafb7835e68494cd2ull}},
      {"ASF/static/4", {
                   0x740fbef354ce2144ull, 0x79ec9a97092e1292ull, 0xafb7835e68494cd2ull,
                   0xcfff6b2a4cf5614cull}},
      {"ASF/static/8", {
                   0xb3aad5e0986450d4ull, 0xcb34249222911d12ull, 0x3d7ca6ce7e95b5e2ull,
                   0x3d7ca6ce7e95b5e2ull, 0x58672611379f34b7ull, 0xc701ae305117904bull,
                   0xc701ae305117904bull, 0xafb7835e68494cd2ull}},
      {"ASF/weighted/1", {0xc17f51748509fa03ull}},
      {"ASF/weighted/2", {0xf93bfe1fdb7fb4b8ull, 0xfbaebc9d01aacfefull}},
      {"ASF/weighted/4", {
                   0xc17f51748509fa03ull, 0x3fdd635118ca02e4ull, 0xafb7835e68494cd2ull,
                   0x58672611379f34b7ull}},
      {"ASF/weighted/8", {
                   0x8af7e75a0caba38dull, 0xf6d6220dd712fa92ull, 0xab0a3d05b6abeb9cull,
                   0x4321d9dda532cc33ull, 0xafb7835e68494cd2ull, 0xafb7835e68494cd2ull,
                   0xc701ae305117904bull, 0xafb7835e68494cd2ull}},
      {"FSFR/static/1", {0xf5b32ea587a43cbeull}},
      {"FSFR/static/2", {0xb3660ee038ed7026ull, 0xafb7835e68494cd2ull}},
      {"FSFR/static/4", {
                   0x9404fb0072920356ull, 0x562a3a91a912b1edull, 0x3feb2739362c498dull,
                   0xaf43a059108c1439ull}},
      {"FSFR/static/8", {
                   0x515a8c3bb43ff905ull, 0xafb7835e68494cd2ull, 0xab14e8f42a545586ull,
                   0x58672611379f34b7ull, 0xafb7835e68494cd2ull, 0x66467b68482651d5ull,
                   0x66467b68482651d5ull, 0x66467b68482651d5ull}},
      {"FSFR/weighted/1", {0xf5b32ea587a43cbeull}},
      {"FSFR/weighted/2", {0x9404fb0072920356ull, 0xafb7835e68494cd2ull}},
      {"FSFR/weighted/4", {
                   0x9404fb0072920356ull, 0x776a3557b6072d3full, 0x3feb2739362c498dull,
                   0xafb7835e68494cd2ull}},
      {"FSFR/weighted/8", {
                   0x9404fb0072920356ull, 0x66467b68482651d5ull, 0xafb7835e68494cd2ull,
                   0x58672611379f34b7ull, 0xafb7835e68494cd2ull, 0xafb7835e68494cd2ull,
                   0xc701ae305117904bull, 0x66467b68482651d5ull}},
      {"SJF/static/1", {0xf5b32ea587a43cbeull}},
      {"SJF/static/2", {0x9404fb0072920356ull, 0x4a25176d88e18b8full}},
      {"SJF/static/4", {
                   0x8af7e75a0caba38dull, 0x0678d2cd1900da9cull, 0x660ba7f1868d814aull,
                   0xafb7835e68494cd2ull}},
      {"SJF/static/8", {
                   0x515a8c3bb43ff905ull, 0xafb7835e68494cd2ull, 0xc701ae305117904bull,
                   0xafb7835e68494cd2ull, 0xafb7835e68494cd2ull, 0x66467b68482651d5ull,
                   0x66467b68482651d5ull, 0xfe5bba0208233bdfull}},
      {"SJF/weighted/1", {0x9404fb0072920356ull}},
      {"SJF/weighted/2", {0xf8ef8bb70fec806full, 0x2307e100ca68fc9full}},
      {"SJF/weighted/4", {
                   0xf7ff2ee737642a56ull, 0xcb34249222911d12ull, 0xf9eeb1666db3defaull,
                   0x3284d8985375592full}},
      {"SJF/weighted/8", {
                   0x515a8c3bb43ff905ull, 0xafb7835e68494cd2ull, 0x58672611379f34b7ull,
                   0xc701ae305117904bull, 0xc701ae305117904bull, 0xc701ae305117904bull,
                   0xc701ae305117904bull, 0x4e1d428dd31ae72cull}},
      {"HEF/static/1", {0xd01fc25d61611432ull}},
      {"HEF/static/2", {0x9404fb0072920356ull, 0xafb7835e68494cd2ull}},
      {"HEF/static/4", {
                   0x9404fb0072920356ull, 0x1e06e5534e66e02aull, 0xd16b6aca6ae02318ull,
                   0xafb7835e68494cd2ull}},
      {"HEF/static/8", {
                   0xf7ff2ee737642a56ull, 0x3ee43e0e88446f2aull, 0x947e8482b290514full,
                   0x9448702c58ef4c23ull, 0xafb7835e68494cd2ull, 0xf7714468ff977408ull,
                   0xc701ae305117904bull, 0xafb7835e68494cd2ull}},
      {"HEF/weighted/1", {0x38a24e4f83b3b35aull}},
      {"HEF/weighted/2", {0x536cfbf9cd024ae7ull, 0xafb7835e68494cd2ull}},
      {"HEF/weighted/4", {
                   0xf7ff2ee737642a56ull, 0xd00a46f5a2affe6cull, 0x04ab01c576d425b8ull,
                   0x9448702c58ef4c23ull}},
      {"HEF/weighted/8", {
                   0x53b37c5ff5c7bf17ull, 0x562a3a91a912b1edull, 0xafb7835e68494cd2ull,
                   0xafb7835e68494cd2ull, 0x0b1e51e310a15e87ull, 0xafb7835e68494cd2ull,
                   0xafb7835e68494cd2ull, 0x58672611379f34b7ull}},
  };
  return golden;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull", static_cast<unsigned long long>(v));
  return buf;
}

TEST(Cosim, MinClockLoopMatchesGoldenDigests) {
  // Randomized mixes (seeded, deterministic): every scheduler × both
  // partition modes × 1/2/4/8 tenants, stats collected so the digests cover
  // latency timelines, not just totals. A mismatch prints the cell's
  // actual table row.
  TraceRepository repo;
  std::mt19937_64 rng(0x5eed);
  for (const std::string& scheduler : scheduler_names()) {
    for (const PartitionMode partition :
         {PartitionMode::kStatic, PartitionMode::kBenefitWeighted}) {
      for (const std::size_t tenants : {1u, 2u, 4u, 8u}) {
        const std::string cell = scheduler +
                                 (partition == PartitionMode::kStatic ? "/static/" : "/weighted/") +
                                 std::to_string(tenants);
        SCOPED_TRACE(cell);
        std::vector<TenantSpec> entries;
        std::size_t si_count = 0;
        for (std::size_t i = 0; i < tenants; ++i) {
          const Content content = rng() % 3 == 0 ? Content::kJpeg : Content::kH264;
          const int frames = 1 + static_cast<int>(rng() % 2);
          const SessionSpec spec = small_session(content, frames, scheduler, 6);
          entries.push_back({spec, &repo.get(spec)});
          si_count = std::max(si_count, entries.back().entry->set.si_count());
        }

        std::vector<SimResult> results;
        std::vector<SimStats> stats(tenants, SimStats(si_count));
        run_device(entries, partition, 6, results, stats);
        ASSERT_EQ(results.size(), tenants);

        std::vector<std::uint64_t> actual;
        for (std::size_t i = 0; i < tenants; ++i)
          actual.push_back(tenant_digest(results[i], stats[i], si_count));
        const auto it = golden_digests().find(cell);
        if (it == golden_digests().end() || it->second != actual) {
          std::string row = "      {\"" + cell + "\", {";
          for (std::size_t i = 0; i < actual.size(); ++i)
            row += (i == 0 ? "" : ", ") + hex(actual[i]);
          ADD_FAILURE() << "digest mismatch; actual row:\n" << row << "}},";
        }
      }
    }
  }
}

}  // namespace
}  // namespace rispp
