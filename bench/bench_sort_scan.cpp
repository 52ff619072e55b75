// EXP-SORT — the §2 prerequisites: k-k mesh sorting and prefix/ranking.
//
// Measures block shearsort steps against its O(L * sqrt(n) * log n) bound
// and against the O(L * sqrt(n)) cost of the algorithms the paper cites
// [KSS94, Kun93] (our documented substitution), plus the scan/rank cost.
// Both come from one sort_and_rank call per point, which charges the sort
// and the group ranking as separate line items.
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "routing/meshsort.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace meshpram;
using namespace meshpram::benchutil;

int main() {
  std::cout << "=== EXP-SORT: k-k mesh sorting (paper 2 prerequisite) ===\n";
  BenchRecorder rec("sort_scan");
  Table t({"n", "L (load)", "measured steps", "shearsort bound",
           "cited-alg cost L*2*sqrt(n)", "measured/cited"});
  Table s({"n", "L (load)", "rank steps", "4*(2*sqrt(n)+sqrt(n)) prediction"});
  for (int side : {16, 32, 64, 128}) {
    const i64 n = static_cast<i64>(side) * side;
    for (i64 load : {1, 4, 9}) {
      if (side == 128 && load > 4) continue;
      Mesh mesh(side, side);
      Rng rng(static_cast<u64>(n * 13 + load));
      for (i64 node = 0; node < n; ++node) {
        for (i64 j = 0; j < load; ++j) {
          Packet p;
          p.key = rng.below(1u << 30);
          p.var = node;
          mesh.buf(static_cast<i32>(node)).push_back(p);
        }
      }
      const WallTimer timer;
      const SortRankSteps steps = sort_and_rank(mesh, mesh.whole());
      const std::string point =
          " side=" + std::to_string(side) + " load=" + std::to_string(load);
      rec.point("sort" + point, timer.ms(), steps.sort);
      rec.point("rank" + point, 0, steps.rank);
      const i64 bound = shearsort_step_bound(mesh.whole(), load);
      const double cited =
          static_cast<double>(load) * 2.0 * std::sqrt(static_cast<double>(n));
      t.add(n, load, steps.sort, bound, cited,
            static_cast<double>(steps.sort) / cited);
      s.add(n, load, steps.rank, 4 * (2 * side + side));
    }
  }
  t.print(std::cout);

  std::cout << "\nscan + group ranking cost (O(sqrt(n))), ranks set by the "
               "sort's write-back:\n";
  s.print(std::cout);
  rec.write();
  return 0;
}
