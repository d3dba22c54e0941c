// Contended-fleet simulation: sessions sharing devices (DESIGN §9).
//
// The classic fleet (session_batch.h) gives every session its own device —
// sessions only share immutable traces and memoized decisions, so they
// parallelize freely. The contended fleet packs `tenants_per_device`
// consecutive sessions onto one device whose fabric they share through a
// FabricArbiter: each device is one serial co-simulation (run_tenants), and
// devices fan out across the thread pool. Every tenant of every device
// memoizes its decisions through one bounded SharedDecisionCache per run. The interesting outputs shift from
// wall-clock throughput to *simulated* contention: how much of the solo
// speedup survives the shared port and the split fabric, and how long the
// per-tenant tail gets (fig_multitenant sweeps both against tenant count and
// partition mode).
#pragma once

#include <cstdint>
#include <vector>

#include "base/parallel.h"
#include "base/types.h"
#include "fleet/session.h"
#include "fleet/trace_repository.h"
#include "rtm/fabric_arbiter.h"
#include "rtm/tenant_sim.h"
#include "sim/stats.h"

namespace rispp::fleet {

struct ContendedOptions {
  /// Sessions packed onto one device (arrival order; the last device takes
  /// the remainder). 1 gives every session a private arbiter — bit-identical
  /// to the solo path.
  int tenants_per_device = 4;
  /// Atom Containers each tenant contributes (device fabric = tenants *
  /// acs_per_tenant).
  int acs_per_tenant = 8;
  /// Quota floor per tenant (clamped to acs_per_tenant).
  int floor = 2;
  PartitionMode partition = PartitionMode::kStatic;
  /// Pool to fan devices over; null uses ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// Trace repository; null uses the global one.
  TraceRepository* traces = nullptr;
};

struct ContendedReport {
  std::size_t sessions = 0;
  std::size_t devices = 0;
  double wall_seconds = 0.0;
  double sessions_per_min = 0.0;
  /// Per-tenant completion time in *simulated* cycles (the tail a tenant
  /// application actually experiences under contention).
  Cycles sim_cycles_p50 = 0;
  Cycles sim_cycles_p99 = 0;
  /// Σ software-only cycles / Σ RISPP cycles over all sessions — the fleet's
  /// aggregate speedup (1-tenant devices reproduce the solo speedup).
  double aggregate_speedup = 0.0;
  /// Arbiter activity summed over all devices.
  std::uint64_t grants = 0;
  std::uint64_t evictions = 0;
  std::uint64_t port_wait_cycles = 0;
  /// Order-independent digest of every session's total_cycles (comparable
  /// across thread counts; determinism is per-device, not per-schedule).
  std::uint64_t cycles_checksum = 0;
};

/// Runs the contended fleet. When `results` is non-null it receives one
/// SimResult per session (spec order) — the equivalence tests compare these
/// against solo runs.
ContendedReport run_contended_fleet(const std::vector<SessionSpec>& specs,
                                    const ContendedOptions& options,
                                    std::vector<SimResult>* results = nullptr);

}  // namespace rispp::fleet
