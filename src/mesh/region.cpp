#include "mesh/region.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace meshpram {

Region::Region(int r0, int c0, int rows, int cols)
    : r0_(r0), c0_(c0), rows_(rows), cols_(cols) {
  MP_REQUIRE(rows >= 1 && cols >= 1,
             "empty region " << rows << 'x' << cols << " at (" << r0 << ','
                             << c0 << ')');
}

Coord Region::at_snake(i64 s) const {
  MP_REQUIRE(0 <= s && s < size(), "snake position " << s << " outside "
                                                     << *this);
  const int lr = static_cast<int>(s / cols_);
  const int lc = static_cast<int>(s % cols_);
  return {r0_ + lr, c0_ + (lr % 2 == 0 ? lc : cols_ - 1 - lc)};
}

std::vector<Region> Region::grid_split(i64 k) const {
  MP_REQUIRE(1 <= k && k <= size(),
             "grid_split(" << k << ") of region " << *this << " with "
                           << size() << " nodes");
  // Pick a g_r x g_c grid with g_r <= rows, g_c <= cols, g_r*g_c >= k,
  // minimizing waste g_r*g_c - k, breaking ties toward square cells.
  i64 best_gr = -1, best_gc = -1;
  i64 best_waste = -1;
  double best_aspect = 0;
  for (i64 gr = 1; gr <= rows_; ++gr) {
    const i64 gc = ceil_div(k, gr);
    if (gc > cols_) continue;
    const i64 waste = gr * gc - k;
    // Cell aspect ratio penalty: |log((rows/gr) / (cols/gc))|.
    const double cell_r = static_cast<double>(rows_) / static_cast<double>(gr);
    const double cell_c = static_cast<double>(cols_) / static_cast<double>(gc);
    const double aspect =
        cell_r > cell_c ? cell_r / cell_c : cell_c / cell_r;
    if (best_waste < 0 || waste < best_waste ||
        (waste == best_waste && aspect < best_aspect)) {
      best_waste = waste;
      best_gr = gr;
      best_gc = gc;
      best_aspect = aspect;
    }
  }
  MP_ASSERT(best_gr > 0, "no feasible grid for k=" << k << " in " << *this);

  const i64 gr = best_gr, gc = best_gc;
  auto cut = [](int extent, i64 parts, i64 i) {
    // Proportional cut positions; strictly increasing because parts <= extent.
    return static_cast<int>((static_cast<i64>(extent) * i) / parts);
  };
  std::vector<Region> out;
  out.reserve(static_cast<size_t>(k));
  for (i64 gi = 0; gi < gr && static_cast<i64>(out.size()) < k; ++gi) {
    const int rr0 = cut(rows_, gr, gi);
    const int rr1 = cut(rows_, gr, gi + 1);
    for (i64 gj = 0; gj < gc && static_cast<i64>(out.size()) < k; ++gj) {
      const int cc0 = cut(cols_, gc, gj);
      const int cc1 = cut(cols_, gc, gj + 1);
      out.emplace_back(r0_ + rr0, c0_ + cc0, rr1 - rr0, cc1 - cc0);
    }
  }
  MP_ASSERT(static_cast<i64>(out.size()) == k, "grid_split produced "
                                                   << out.size() << " != "
                                                   << k);
  return out;
}

}  // namespace meshpram
