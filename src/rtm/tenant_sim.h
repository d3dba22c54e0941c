// Multi-tenant co-simulation: N traces replayed against N tenant RTMs of one
// FabricArbiter, interleaved at hot-spot-instance granularity (DESIGN §9).
//
// Each tenant keeps its own simulated clock (its application's cycle count);
// the fabric events — port grants and quota moves — are serialized in global
// simulated time by always stepping the tenant whose clock is furthest
// behind. Instance granularity is exact enough because a tenant only *asks*
// for the port at its own reconfiguration events, and those all carry its own
// timestamps; the min-clock order just guarantees no tenant asks for the port
// "in the past" of a grant another tenant already received more than one
// instance ahead. With one tenant this degenerates to run_trace(kBatched) and
// is bit-identical to it.
#pragma once

#include <span>
#include <vector>

#include "rtm/fabric_arbiter.h"
#include "rtm/run_time_manager.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace rispp {

/// One tenant of the co-simulation. The RTM must have been constructed with
/// config.arbiter = the arbiter passed to run_tenants and config.tenant =
/// this tenant id.
struct TenantRun {
  TenantId tenant = 0;
  const WorkloadTrace* trace = nullptr;
  RunTimeManager* rtm = nullptr;
  /// Optional per-tenant stats (forces the per-run replay path, like
  /// run_trace with stats).
  SimStats* stats = nullptr;
};

/// Replays every tenant's trace to completion and returns one SimResult per
/// tenant (same semantics as run_trace per tenant: total_cycles is the
/// tenant's own clock, atom_loads its completed port loads — an empty trace
/// yields total_cycles 0 and whatever loads already completed). Tenants that
/// finish retire from the arbiter so the remaining tenants' port claims
/// stay live. tests/cosim_test.cpp pins every tenant's SimResult + SimStats
/// with golden digests across schedulers, partition modes and tenant counts.
std::vector<SimResult> run_tenants(FabricArbiter& arbiter, std::span<TenantRun> tenants);

}  // namespace rispp
