#include "protocol/culling.hpp"

#include <algorithm>
#include <cstring>

#include "routing/lroute.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

namespace {

/// Per-node loops below are data-parallel (each node touches only its own
/// buffer / bitmap); chunks smaller than this are not worth a handoff.
constexpr i64 kNodeGrain = 64;

/// Stage-cat spans partition StepStats::total_steps (telemetry.hpp): each
/// CULLING iteration is one stage, charged the steps it added to st.steps.
const telemetry::Label kCullIter = telemetry::intern("culling.iter");

}  // namespace

Culling::Culling(Mesh& mesh, const Placement& placement,
                 SortOptions sort_opts)
    : mesh_(mesh),
      placement_(placement),
      sort_opts_(sort_opts),
      selector_(placement.map().params().q(), placement.map().params().k()),
      k_(placement.map().params().k()),
      ncodes_(selector_.num_codes()) {
  for (int level = 1; level <= k_; ++level) {
    MP_REQUIRE(placement.pages(level).size() <= 0x7FFFFFFFu,
               "level-" << level << " page ids exceed the 32-bit path slab");
  }
}

void Culling::fill_paths(i64 slot, i64 var) {
  if (row_var_[static_cast<size_t>(slot)] == var) return;
  const MemoryMap& map = placement_.map();
  const i64 q = map.params().q();
  const i64 stride = k_ + 1;
  i32* row = paths_.data() + slot * ncodes_ * stride;
  // Depth-first over the copy tree: u[d] = level-d module of the current
  // prefix (u[0] = the variable), rank[d] = rank of edge (u[d-1], u[d])
  // among u[d]'s neighbours in G_d. A prefix is evaluated once for all the
  // leaves below it — sum_d q^d neighbour and edge-rank evaluations instead
  // of k per leaf.
  LevelPath u{}, rank{};
  u[0] = var;
  const auto walk = [&](const auto& self, int depth, i64 code,
                        i64 weight) -> void {
    const BibdSubgraph& g = map.graph(depth);
    const i64 parent = u[static_cast<size_t>(depth - 1)];
    for (i64 c = 0; c < q; ++c) {
      const i64 child = g.neighbor(parent, c);
      u[static_cast<size_t>(depth)] = child;
      rank[static_cast<size_t>(depth)] = g.edge_rank(parent, child);
      const i64 leaf_code = code + c * weight;
      if (depth < k_) {
        self(self, depth + 1, leaf_code, weight * q);
        continue;
      }
      // Leaf: descend the page tree exactly like Placement::locate.
      i32* e = row + leaf_code * stride;
      i64 idx = child;  // level-k page index == module
      e[k_ - 1] = static_cast<i32>(idx);
      for (int i = k_ - 1; i >= 1; --i) {
        idx = placement_.pages(i + 1)[static_cast<size_t>(idx)].first_child +
              rank[static_cast<size_t>(i + 1)];
        e[i - 1] = static_cast<i32>(idx);
      }
      const Region& leaf = placement_.pages(1)[static_cast<size_t>(idx)].region;
      e[k_] = mesh_.node_id(leaf.at_snake(rank[1] % leaf.size()));
    }
  };
  walk(walk, 1, 0, 1);
  row_var_[static_cast<size_t>(slot)] = var;
}

std::vector<std::vector<i64>> Culling::run(
    const std::vector<i64>& request_vars, CullingStats* stats,
    std::vector<char>* request_ok) {
  const HmosParams& params = placement_.map().params();
  const i64 n = mesh_.size();
  MP_REQUIRE(static_cast<i64>(request_vars.size()) == n,
             "request vector size " << request_vars.size() << " != mesh size "
                                    << n);
  const Region whole = mesh_.whole();
  MP_REQUIRE(mesh_.total_packets(whole) == 0,
             "mesh buffers must be empty before CULLING");

  CullingStats local_stats;
  CullingStats& st = stats != nullptr ? *stats : local_stats;
  st = CullingStats{};

  const fault::FaultPlan* plan = mesh_.fault_plan();
  const bool degraded = plan != nullptr && plan->has_dead_modules();
  const bool count_lost = degraded && telemetry::sampling_on();

  // Effective requests: failed variables are culled out up front so every
  // loop below treats them exactly like idle processors.
  std::vector<i64> vars = request_vars;
  // Per-node degradation level (0 = full strength): iteration i extracts at
  // level max(i, deg). Allocated only in degraded mode.
  std::vector<int> deg;
  if (degraded) deg.assign(static_cast<size_t>(n), 0);

  // Per-node candidate bitmaps over the q^k codes: C_v^0 = minimal level-0
  // target set (at degradation level d, a minimal level-d target set within
  // the surviving copies). One flat slab indexed by PHYSICAL slot — node
  // `id`'s row is candidate[order.slot_of(id) * ncodes ...] — so the
  // slot-order sweeps below stream the slab front to back.
  const i64 ncodes = selector_.num_codes();
  const NodeOrder& order = mesh_.order();
  std::vector<char> candidate(static_cast<size_t>(n * ncodes), 0);
  std::vector<char> marked(static_cast<size_t>(n * ncodes), 0);
  const auto row_of = [&](i64 slot, std::vector<char>& slab) -> char* {
    return slab.data() + slot * ncodes;
  };
  // Copy-path slab: sized once per mesh, rows filled on demand.
  const i64 stride = k_ + 1;
  paths_.resize(static_cast<size_t>(n * ncodes * stride));
  row_var_.resize(static_cast<size_t>(n), -1);
  const auto path_row = [&](i64 slot) -> const i32* {
    return paths_.data() + slot * ncodes * stride;
  };
  const auto init_codes = selector_.initial(0);
  std::vector<char> avail;
  for (i64 node = 0; node < n; ++node) {
    const i64 var = vars[static_cast<size_t>(node)];
    if (var < 0) continue;
    MP_REQUIRE(var < params.num_vars(),
               "variable " << var << " outside shared memory");
    const i64 slot = order.slot_of(static_cast<i32>(node));
    char* bits = row_of(slot, candidate);
    if (!degraded) {
      for (i64 code : init_codes) bits[code] = 1;
      continue;
    }
    // Surviving-copy bitmap: a copy is available iff the module of the node
    // it lives on is alive. The plan is static, so this is decided once.
    avail.assign(static_cast<size_t>(ncodes), 1);
    i64 lost = 0;
    fill_paths(slot, var);
    for (i64 code = 0; code < ncodes; ++code) {
      const i32 holder = path_row(slot)[code * stride + k_];
      if (plan->module_dead(holder)) {
        avail[static_cast<size_t>(code)] = 0;
        ++lost;
        if (count_lost) mesh_.counters().add_copies_lost(holder, 1);
      }
    }
    st.copies_lost += lost;
    if (lost == 0) {
      for (i64 code : init_codes) bits[static_cast<size_t>(code)] = 1;
      continue;
    }
    // Smallest degradation level whose requirement the survivors still meet.
    // Level k = ordinary target set; failing even that means the variable is
    // unreadable, reported instead of asserted.
    TargetSelector::Selection sel;
    int d = -1;
    for (int lvl = 0; lvl <= params.k(); ++lvl) {
      sel = selector_.select(lvl, avail, avail);
      if (sel.feasible) {
        d = lvl;
        break;
      }
    }
    if (d < 0) {
      ++st.requests_failed;
      if (request_ok != nullptr) (*request_ok)[static_cast<size_t>(node)] = 0;
      vars[static_cast<size_t>(node)] = -1;
      continue;
    }
    if (d > 0) ++st.requests_degraded;
    deg[static_cast<size_t>(node)] = d;
    for (i64 code : sel.codes) bits[code] = 1;
  }
  const std::vector<i64>& request_vars_eff = vars;

  for (int iter = 1; iter <= params.k(); ++iter) {
    telemetry::Span iter_span(telemetry::Cat::Stage, kCullIter, iter);
    const i64 steps_before = st.steps;
    const i64 tau = params.culling_threshold(iter);

    // Emit one packet per selected copy, keyed by its level-i page. The first
    // iteration walks each requesting variable's copy tree into the path
    // slab; later iterations, the load tally below and the access stages
    // read it. Each node fills only its own buffer and slab rows, so the
    // loop chunks over physical slots.
    execution_pool().for_each_chunk(n, kNodeGrain, [&](i64 lo, i64 hi) {
      for (i64 slot = lo; slot < hi; ++slot) {
        const i32 node = order.id_of(static_cast<i32>(slot));
        const i64 var = request_vars_eff[static_cast<size_t>(node)];
        if (var < 0) continue;
        if (iter == 1) fill_paths(slot, var);
        const char* bits = row_of(slot, candidate);
        const i32* paths = path_row(slot);
        auto& b = mesh_.buf(node);
        for (i64 code = 0; code < ncodes; ++code) {
          if (!bits[code]) continue;
          Packet p;
          p.var = var;
          p.copy = static_cast<u64>(var) *
                       static_cast<u64>(params.redundancy()) +
                   static_cast<u64>(code);
          p.key = static_cast<u64>(paths[code * stride + iter - 1]);
          p.origin = node;
          b.push_back(p);
        }
      }
    });

    // Sort by page, rank within page, mark the first tau of each page.
    st.steps += sort_and_rank(mesh_, whole, sort_opts_).total();
    mesh_.for_each_node(kNodeGrain, [&](i32 id) {
      for (Packet& p : mesh_.buf(id)) {
        p.value = (static_cast<i64>(p.rank) < tau) ? 1 : 0;
        p.dest = p.origin;
      }
    });

    // Return the mark bits to the owners.
    st.steps += route_sorted(mesh_, whole, sort_opts_).steps;

    // Local selection: prefer marked copies; add unmarked only if needed.
    // A node only writes its own slab rows and drains its own buffer, so
    // both passes chunk over physical slots.
    execution_pool().for_each_chunk(n, kNodeGrain, [&](i64 lo, i64 hi) {
      for (i64 slot = lo; slot < hi; ++slot) {
        const i32 id = order.id_of(static_cast<i32>(slot));
        char* mk = row_of(slot, marked);
        std::memset(mk, 0, static_cast<size_t>(ncodes));
        auto& b = mesh_.buf(id);
        for (const Packet& p : b) {
          MP_ASSERT(p.dest == id, "mark bit went astray");
          if (p.value != 0) {
            const i64 code = static_cast<i64>(
                p.copy % static_cast<u64>(params.redundancy()));
            mk[code] = 1;
          }
        }
        b.clear();
      }
    });
    execution_pool().for_each_chunk(n, /*min_grain=*/8, [&](i64 lo, i64 hi) {
      std::vector<char> m_only(static_cast<size_t>(ncodes), 0);
      std::vector<char> cand_vec;  // select() wants a vector view of the row
      for (i64 slot = lo; slot < hi; ++slot) {
        const i32 node = order.id_of(static_cast<i32>(slot));
        if (request_vars_eff[static_cast<size_t>(node)] < 0) continue;
        char* cand = row_of(slot, candidate);
        const char* mk = row_of(slot, marked);
        // Degraded variables extract at max(iter, d): a level-j target set
        // is also a level-j' target set for every j' >= j, so the invariant
        // below carries from iteration to iteration unchanged.
        const int level =
            degraded ? std::max(iter, deg[static_cast<size_t>(node)]) : iter;
        // Try M alone first (the pseudo-code's "if M contains a target set").
        simd::and_bytes(reinterpret_cast<unsigned char*>(m_only.data()),
                        reinterpret_cast<const unsigned char*>(cand),
                        reinterpret_cast<const unsigned char*>(mk), ncodes);
        TargetSelector::Selection sel =
            selector_.select(level, m_only, m_only);
        if (!sel.feasible) {
          // Augment with the fewest possible unmarked copies from C.
          cand_vec.assign(cand, cand + ncodes);
          sel = selector_.select(level, cand_vec, m_only);
          MP_ASSERT(sel.feasible,
                    "C_v^{i-1} lost the level-" << level
                                                << " target set invariant");
        }
        std::memset(cand, 0, static_cast<size_t>(ncodes));
        for (i64 code : sel.codes) cand[code] = 1;
      }
    });
    // Local DP over the q^k-leaf tree: O(q^k) per processor (Eq. 2 charge).
    st.steps += params.redundancy();

    // Instrumentation: per-level-i page load of the union of C_v^i, read
    // from the path slab (C_v^i is a subset of the emitted C_v^{i-1}, so
    // every live code has a recorded path). One flat count per page, tallied
    // serially: the counts are a plain sum, so they are thread-count
    // invariant.
    page_load_.assign(placement_.pages(iter).size(), 0);
    for (i64 slot = 0; slot < n; ++slot) {
      const i32 node = order.id_of(static_cast<i32>(slot));
      if (request_vars_eff[static_cast<size_t>(node)] < 0) continue;
      const char* bits = row_of(slot, candidate);
      const i32* paths = path_row(slot);
      for (i64 code = 0; code < ncodes; ++code) {
        if (bits[code]) {
          ++page_load_[static_cast<size_t>(paths[code * stride + iter - 1])];
        }
      }
    }
    const i64 max_load =
        *std::max_element(page_load_.begin(), page_load_.end());
    st.max_page_load.push_back(max_load);
    st.bound.push_back(params.theorem3_bound(iter));
    iter_span.set_steps(st.steps - steps_before);
  }

  // Emit the final selections.
  const bool count_survivors = telemetry::sampling_on();
  std::vector<std::vector<i64>> out(static_cast<size_t>(n));
  for (i64 node = 0; node < n; ++node) {
    if (request_vars_eff[static_cast<size_t>(node)] < 0) continue;
    const char* bits = row_of(order.slot_of(static_cast<i32>(node)), candidate);
    for (i64 code = 0; code < ncodes; ++code) {
      if (bits[code]) {
        out[static_cast<size_t>(node)].push_back(code);
        ++st.selected_copies;
      }
    }
    if (count_survivors) {
      mesh_.counters().add_survivors(
          static_cast<i32>(node),
          static_cast<i64>(out[static_cast<size_t>(node)].size()));
    }
  }
  return out;
}

}  // namespace meshpram
