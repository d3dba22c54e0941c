// Table 2: speedup of HEF over ASF, of ASF over a Molen-like system, and of
// HEF over Molen, for 5..24 Atom Containers.
//
// Paper: HEF vs ASF up to 1.52x, ASF vs Molen up to 1.67x, HEF vs Molen up
// to 2.38x (avg 1.71x), and HEF never slower than Molen or any scheduler.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "base/table.h"
#include "bench/common.h"

int main() {
  using namespace rispp;
  const bench::BenchContext ctx;
  bench::BenchPerfLog perf("table2");

  std::printf("Table 2 — speedups vs. ASF and a Molen-like baseline (%d frames)\n\n",
              ctx.frames);

  // Four systems per AC count: ASF, HEF, Molen, OneChip.
  struct Cell { unsigned acs; int system; };
  std::vector<Cell> cells;
  for (unsigned acs = 5; acs <= 24; ++acs)
    for (int system = 0; system < 4; ++system) cells.push_back({acs, system});
  perf.set_cells(cells.size());

  const auto cycles = bench::run_sweep(cells, [&](const Cell& cell) {
    switch (cell.system) {
      case 0: return ctx.run_scheduler("ASF", cell.acs).total_cycles;
      case 1: return ctx.run_scheduler("HEF", cell.acs).total_cycles;
      case 2: return ctx.run_baseline(LoadPolicy::kPrefetch, cell.acs).total_cycles;
      default: return ctx.run_baseline(LoadPolicy::kDemand, cell.acs).total_cycles;
    }
  });

  TextTable table({"#ACs", "HEF vs ASF", "ASF vs Molen", "HEF vs Molen", "HEF vs OneChip"});
  double sum_hef_molen = 0.0, max_hef_molen = 0.0;
  unsigned count = 0;
  bool hef_never_slower = true;
  for (unsigned acs = 5; acs <= 24; ++acs) {
    const std::size_t row = (acs - 5) * 4;
    const double asf = static_cast<double>(cycles[row + 0]);
    const double hef = static_cast<double>(cycles[row + 1]);
    const double molen = static_cast<double>(cycles[row + 2]);
    const double onechip_cycles = static_cast<double>(cycles[row + 3]);
    const double hef_asf = asf / hef;
    const double asf_molen = molen / asf;
    const double hef_molen = molen / hef;
    table.add(acs, hef_asf, asf_molen, hef_molen, onechip_cycles / hef);
    sum_hef_molen += hef_molen;
    max_hef_molen = std::max(max_hef_molen, hef_molen);
    if (hef_molen < 0.995) hef_never_slower = false;  // >0.5% = meaningful
    ++count;
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("HEF vs Molen: avg %.2fx, max %.2fx   (paper: avg 1.71x, max 2.38x)\n",
              sum_hef_molen / count, max_hef_molen);
  std::printf("HEF meaningfully (>0.5%%) slower than Molen at any AC count: %s   "
              "(paper: never)\n",
              hef_never_slower ? "no" : "yes");
  return 0;
}
