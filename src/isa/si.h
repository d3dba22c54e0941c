// Special Instructions and the platform's SI set.
//
// An SI (e.g. SATD in the H.264 Motion Estimation hot spot) owns a data-path
// graph and a list of Molecules — alternative hardware implementations that
// trade atom count against latency (Table 1 of the paper). The slowest
// implementation is always the trap onto the base instruction set
// ("software molecule", MoleculeId kSoftwareMolecule), triggered
// automatically when the required atoms are not loaded (§3).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alg/molecule.h"
#include "base/types.h"
#include "dpg/atom_library.h"
#include "dpg/enumerate.h"
#include "dpg/graph.h"

namespace rispp {

class MakespanMemo;  // dpg/makespan_memo.h

struct SpecialInstruction {
  SiId id = 0;
  std::string name;
  DataPathGraph graph;
  /// Hardware molecules, sorted by ascending determinant then latency.
  /// Consistency invariant (checked on construction): no molecule has a
  /// strictly smaller sibling with equal-or-better latency.
  std::vector<MoleculeImpl> molecules;
  /// Trap execution with base instructions (exception entry + emulation).
  Cycles software_latency = 0;

  const MoleculeImpl& molecule(MoleculeId m) const;
  Cycles latency(MoleculeId m) const;  // kSoftwareMolecule -> software_latency
  /// The slowest of its implementations, the trap included.
  Cycles worst_latency() const;
};

/// A concrete implementation choice: one SI plus one of its molecules.
struct SiRef {
  SiId si = 0;
  MoleculeId mol = 0;
  bool operator==(const SiRef&) const = default;
};

class SpecialInstructionSet {
 public:
  explicit SpecialInstructionSet(AtomLibrary library);

  // The library lives at a stable address for the set's lifetime, so
  // DataPathGraphs may point at it.
  SpecialInstructionSet(const SpecialInstructionSet&) = delete;
  SpecialInstructionSet& operator=(const SpecialInstructionSet&) = delete;
  SpecialInstructionSet(SpecialInstructionSet&&) = default;

  const AtomLibrary& library() const { return *library_; }
  std::size_t atom_type_count() const { return library_->size(); }

  /// Registers an SI. Its molecules are enumerated from the graph under
  /// `instance_caps` and — like the paper's manually developed molecule
  /// sets — optionally thinned to `molecule_target` representatives
  /// (smallest and fastest always kept). `min_determinant` drops hardware
  /// molecules below that atom count first: heavyweight SIs (SATD, MC, DCT)
  /// have no tiny implementations — their pipelines only pay off once a
  /// minimum stage balance exists. `trap_overhead` models exception
  /// entry/exit on top of the emulated graph body. `makespan_memo` (optional)
  /// routes the enumeration's list-schedule makespans through a memo — the
  /// DSE engine passes the process-wide one so candidate platforms sharing
  /// graph structure never reschedule; results are bit-identical either way.
  SiId add_si(const std::string& name, DataPathGraph graph, const Molecule& instance_caps,
              Cycles trap_overhead, unsigned molecule_target = 0,
              unsigned min_determinant = 0, MakespanMemo* makespan_memo = nullptr);

  const SpecialInstruction& si(SiId id) const;
  std::size_t si_count() const { return sis_.size(); }
  std::optional<SiId> find(const std::string& name) const;

  Cycles latency(const SiRef& ref) const { return si(ref.si).latency(ref.mol); }

  /// getFastestAvailableMolecule(a): lowest-latency molecule of `si` whose
  /// atoms are all within `available`; software molecule if none is.
  MoleculeId fastest_available(SiId si, const Molecule& available) const;
  Cycles fastest_available_latency(SiId si, const Molecule& available) const;

 private:
  std::unique_ptr<AtomLibrary> library_;
  std::vector<SpecialInstruction> sis_;
};

/// Order-sensitive 64-bit digest of the set's observable contents: atom
/// types (name, latencies, slices), SI names, molecule tables (atom vectors
/// + latencies) and software latencies. Any change that could alter a
/// recorded workload trace changes the fingerprint — cache keys (e.g. the
/// bench trace cache) mix it in so a stale trace is never replayed against
/// an edited library.
std::uint64_t fingerprint(const SpecialInstructionSet& set);

/// FNV-1a accumulator the fingerprint is built from; exposed so callers can
/// keep mixing workload-config fields into the same digest.
std::uint64_t fingerprint_mix(std::uint64_t hash, std::uint64_t value);

}  // namespace rispp
