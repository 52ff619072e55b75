// Procedure CULLING (§3.2): parallel copy selection.
//
// Each of the n processors is in charge of (at most) one requested variable
// and starts from a minimal level-0 target set C_v^0. Iteration i = 1..k:
//
//   1. every processor emits one packet per currently selected copy, keyed
//      by the copy's level-i page; the mesh sorts and ranks the packets, and
//      the first tau_i = 2 q^k n^{1-1/2^i} copies of every page are MARKED
//      (greedy marking — a page with unmarked copies is saturated);
//   2. packets return their mark bit to the owners;
//   3. every owner extracts a minimal level-i target set, preferring marked
//      copies (set M_v^i) and adding unmarked ones (set S_v^i) only when M
//      alone contains no level-i target set.
//
// Theorem 3 then guarantees <= 4 q^k n^{1-1/2^i} selected copies per level-i
// page — measured by CullingStats and asserted by tests/test_protocol.cpp.
#pragma once

#include <vector>

#include "hmos/placement.hpp"
#include "mesh/machine.hpp"
#include "protocol/target_set.hpp"
#include "routing/meshsort.hpp"
#include "util/error.hpp"

namespace meshpram {

struct CullingStats {
  i64 steps = 0;  ///< total mesh steps charged to copy selection
  /// max_page_load[i-1]: after iteration i, the largest number of selected
  /// copies in any level-i page (to compare against theorem3_bound(i)).
  std::vector<i64> max_page_load;
  std::vector<i64> bound;  ///< theorem3_bound(i), aligned with the above
  i64 selected_copies = 0; ///< |union of final target sets|
  // Degraded-mode accounting (all zero without dead memory modules):
  i64 copies_lost = 0;        ///< requested copies on dead modules
  i64 requests_degraded = 0;  ///< served at degradation level > 0
  i64 requests_failed = 0;    ///< no surviving target set at any level
};

class Culling {
 public:
  Culling(Mesh& mesh, const Placement& placement, SortOptions sort_opts = {});

  /// request_vars[node] = variable the processor wants, or -1 for idle.
  /// Returns per-node selected copy codes (empty for idle processors).
  ///
  /// Degraded mode: when the mesh carries a fault plan with dead memory
  /// modules, copies on dead modules are excluded up front and each affected
  /// variable is served at the smallest degradation level d for which its
  /// surviving copies still contain a level-d target set (iteration i then
  /// extracts at level max(i, d)). Level k is the ordinary target set, so
  /// consistency (quorum intersection) survives at every degradation level —
  /// only the congestion bounds of Theorem 3 weaken (DESIGN.md §10). A
  /// variable with no surviving level-k target set is reported through
  /// `request_ok` (cell set to 0) and stats instead of asserting; its
  /// selection stays empty.
  std::vector<std::vector<i64>> run(const std::vector<i64>& request_vars,
                                    CullingStats* stats,
                                    std::vector<char>* request_ok = nullptr);

 /// HMOS address of a copy selected by the last run(), read from the
  /// per-step path slab instead of re-deriving it: its level-`level` page
  /// (Placement::page_at) and the node holding it (Placement::locate).
  /// `origin` is the node that requested the copy's variable.
  i64 page_of(i32 origin, u64 copy, int level) const {
    return path_of(origin, copy)[level - 1];
  }
  i32 home_of(i32 origin, u64 copy) const {
    return path_of(origin, copy)[k_];
  }

 private:
  /// Walks `var`'s copy tree once into the slab row of physical slot
  /// `slot` (no-op when the row already holds `var`: paths are a pure
  /// function of the variable).
  void fill_paths(i64 slot, i64 var);

  const i32* path_of(i32 origin, u64 copy) const {
    const i64 slot = mesh_.order().slot_of(origin);
    const u64 codes = static_cast<u64>(ncodes_);
    MP_ASSERT(row_var_[static_cast<size_t>(slot)] ==
                  static_cast<i64>(copy / codes),
              "copy " << copy << " has no recorded path at node " << origin);
    return paths_.data() +
           (slot * ncodes_ + static_cast<i64>(copy % codes)) * (k_ + 1);
  }

  Mesh& mesh_;
  const Placement& placement_;
  SortOptions sort_opts_;
  TargetSelector selector_;
  int k_;
  i64 ncodes_;
  /// Per-step copy-path slab, indexed by (physical slot, code): entry
  /// [page_1, ..., page_k, home node], stride k + 1. Filled for requesting
  /// nodes only in the first CULLING iteration; keeps its capacity across
  /// steps. row_var_[slot] = variable the row was filled for (-1 = none).
  std::vector<i32> paths_;
  std::vector<i64> row_var_;
  /// Per-page load tally of the instrumentation, sized per level.
  std::vector<i64> page_load_;
};

}  // namespace meshpram
