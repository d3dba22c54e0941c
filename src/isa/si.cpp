#include "isa/si.h"

#include <algorithm>

#include "base/check.h"
#include "dpg/makespan_memo.h"

namespace rispp {

const MoleculeImpl& SpecialInstruction::molecule(MoleculeId m) const {
  RISPP_CHECK(m < molecules.size());
  return molecules[m];
}

Cycles SpecialInstruction::latency(MoleculeId m) const {
  if (m == kSoftwareMolecule) return software_latency;
  return molecule(m).latency;
}

Cycles SpecialInstruction::worst_latency() const {
  Cycles worst = software_latency;
  for (const MoleculeImpl& m : molecules) worst = std::max(worst, m.latency);
  return worst;
}

SpecialInstructionSet::SpecialInstructionSet(AtomLibrary library)
    : library_(std::make_unique<AtomLibrary>(std::move(library))) {}

namespace {

/// Thins a consistent molecule list to `target` entries, keeping the
/// smallest (entry 0) and the fastest, spacing the rest evenly. Subsets of a
/// consistent set stay consistent: removing elements cannot create a
/// dominating smaller sibling.
std::vector<MoleculeImpl> thin_molecules(std::vector<MoleculeImpl> all, unsigned target) {
  if (target == 0 || all.size() <= target) return all;
  // Index of the fastest molecule (ties: biggest determinant last wins).
  std::size_t fastest = 0;
  for (std::size_t i = 1; i < all.size(); ++i)
    if (all[i].latency <= all[fastest].latency) fastest = i;

  std::vector<MoleculeImpl> kept;
  kept.reserve(target);
  for (unsigned k = 0; k < target; ++k) {
    // Even spacing across the sorted list; force the last pick to `fastest`.
    std::size_t idx = (k + 1 == target)
                          ? fastest
                          : (k * (all.size() - 1)) / (target - 1);
    if (idx >= all.size()) idx = all.size() - 1;
    kept.push_back(all[idx]);
  }
  // Deduplicate while preserving order (even spacing may collide).
  std::vector<MoleculeImpl> unique;
  for (const auto& m : kept) {
    const bool seen = std::any_of(unique.begin(), unique.end(),
                                  [&](const MoleculeImpl& u) { return u.atoms == m.atoms; });
    if (!seen) unique.push_back(m);
  }
  // Fill any holes created by deduplication from the remaining pool.
  for (const auto& m : all) {
    if (unique.size() >= target) break;
    const bool seen = std::any_of(unique.begin(), unique.end(),
                                  [&](const MoleculeImpl& u) { return u.atoms == m.atoms; });
    if (!seen) unique.push_back(m);
  }
  std::sort(unique.begin(), unique.end(), [](const MoleculeImpl& a, const MoleculeImpl& b) {
    const unsigned da = a.atoms.determinant(), db = b.atoms.determinant();
    if (da != db) return da < db;
    return a.latency < b.latency;
  });
  return unique;
}

}  // namespace

SiId SpecialInstructionSet::add_si(const std::string& name, DataPathGraph graph,
                                   const Molecule& instance_caps, Cycles trap_overhead,
                                   unsigned molecule_target, unsigned min_determinant,
                                   MakespanMemo* makespan_memo) {
  RISPP_CHECK_MSG(!find(name).has_value(), "duplicate SI " << name);
  RISPP_CHECK(&graph.library() == library_.get());

  EnumerationOptions options;
  options.instance_caps = instance_caps;
  std::vector<MoleculeImpl> molecules = enumerate_molecules(graph, options, makespan_memo);
  if (min_determinant > 0)
    std::erase_if(molecules, [&](const MoleculeImpl& m) {
      return m.atoms.determinant() < min_determinant;
    });
  RISPP_CHECK_MSG(molecule_target == 0 || molecules.size() >= molecule_target,
                  name << ": graph yields only " << molecules.size()
                       << " molecules, target " << molecule_target);
  molecules = thin_molecules(std::move(molecules), molecule_target);

  SpecialInstruction si{
      .id = static_cast<SiId>(sis_.size()),
      .name = name,
      .graph = std::move(graph),
      .molecules = std::move(molecules),
      .software_latency = 0,
  };
  si.software_latency = si.graph.software_cycles() + trap_overhead;
  // The trap must be the slowest implementation, otherwise upgrading would
  // be pointless for this SI.
  for (const MoleculeImpl& m : si.molecules)
    RISPP_CHECK_MSG(m.latency < si.software_latency,
                    name << ": molecule " << m.atoms.to_string() << " slower than trap");
  sis_.push_back(std::move(si));
  return sis_.back().id;
}

const SpecialInstruction& SpecialInstructionSet::si(SiId id) const {
  RISPP_CHECK(id < sis_.size());
  return sis_[id];
}

std::optional<SiId> SpecialInstructionSet::find(const std::string& name) const {
  for (const auto& si : sis_)
    if (si.name == name) return si.id;
  return std::nullopt;
}

MoleculeId SpecialInstructionSet::fastest_available(SiId id, const Molecule& available) const {
  const SpecialInstruction& s = si(id);
  MoleculeId best = kSoftwareMolecule;
  Cycles best_latency = s.software_latency;
  for (MoleculeId m = 0; m < s.molecules.size(); ++m) {
    if (!leq(s.molecules[m].atoms, available)) continue;
    if (s.molecules[m].latency < best_latency) {
      best = m;
      best_latency = s.molecules[m].latency;
    }
  }
  return best;
}

Cycles SpecialInstructionSet::fastest_available_latency(SiId id, const Molecule& available) const {
  return si(id).latency(fastest_available(id, available));
}

std::uint64_t fingerprint_mix(std::uint64_t hash, std::uint64_t value) {
  // FNV-1a over the value's 8 bytes.
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

std::uint64_t mix_string(std::uint64_t hash, const std::string& s) {
  hash = fingerprint_mix(hash, s.size());
  for (const char c : s) hash = fingerprint_mix(hash, static_cast<unsigned char>(c));
  return hash;
}

}  // namespace

std::uint64_t fingerprint(const SpecialInstructionSet& set) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV offset basis
  const AtomLibrary& library = set.library();
  hash = fingerprint_mix(hash, library.size());
  for (AtomTypeId t = 0; t < library.size(); ++t) {
    const AtomType& type = library.type(t);
    hash = mix_string(hash, type.name);
    hash = fingerprint_mix(hash, type.op_latency);
    hash = fingerprint_mix(hash, type.sw_op_cycles);
    hash = fingerprint_mix(hash, type.slices);
  }
  hash = fingerprint_mix(hash, set.si_count());
  for (SiId id = 0; id < set.si_count(); ++id) {
    const SpecialInstruction& si = set.si(id);
    hash = mix_string(hash, si.name);
    hash = fingerprint_mix(hash, si.software_latency);
    hash = fingerprint_mix(hash, si.molecules.size());
    for (const MoleculeImpl& m : si.molecules) {
      hash = fingerprint_mix(hash, m.latency);
      for (const AtomCount count : m.atoms.counts()) hash = fingerprint_mix(hash, count);
    }
  }
  return hash;
}

}  // namespace rispp
