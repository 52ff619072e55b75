// Tests for the mesh algorithms of §2: block shearsort, group ranking,
// greedy XY routing, sort-based (l1,l2)-routing and the tessellated
// (l1,l2,δ,m)-routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "fault/plan.hpp"
#include "mesh/machine.hpp"
#include "mesh/parallel.hpp"
#include "routing/greedy.hpp"
#include "routing/lroute.hpp"
#include "routing/meshsort.hpp"
#include "routing/scan.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "route_oracle.hpp"

namespace meshpram {
namespace {

using testing_oracle::expect_matches_reference;
using testing_oracle::route_on;
using testing_oracle::RouteLeg;

Packet mk(u64 key, i64 var = 0, i32 origin = 0) {
  Packet p;
  p.key = key;
  p.var = var;
  p.origin = origin;
  return p;
}

/// Scatter `count` packets with random keys over the region, uneven loads.
void scatter_random(Mesh& mesh, const Region& g, i64 count, u64 key_range,
                    Rng& rng) {
  for (i64 i = 0; i < count; ++i) {
    const i64 s = rng.range(0, g.size() - 1);
    mesh.buf(mesh.node_id(g.at_snake(s)))
        .push_back(mk(rng.below(key_range), i, static_cast<i32>(s)));
  }
}

std::vector<u64> keys_in_snake_order(Mesh& mesh, const Region& g) {
  std::vector<u64> out;
  for (i64 s = 0; s < g.size(); ++s) {
    for (const Packet& p : mesh.buf(mesh.node_id(g.at_snake(s)))) {
      out.push_back(p.key);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sorting.
// ---------------------------------------------------------------------------

struct SortCase {
  int rows;
  int cols;
  i64 packets;
  u64 key_range;
};

class SortSweep : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortSweep, SortsPacksAndPreservesMultiset) {
  const auto [rows, cols, count, range] = GetParam();
  Mesh mesh(rows, cols);
  const Region g = mesh.whole();
  Rng rng(static_cast<u64>(rows * 1000003 + cols * 1009 + count));
  scatter_random(mesh, g, count, range, rng);

  std::vector<u64> before = keys_in_snake_order(mesh, g);
  std::sort(before.begin(), before.end());

  const i64 steps = sort_region(mesh, g);
  EXPECT_GE(steps, 0);
  EXPECT_TRUE(region_sorted(mesh, g));

  std::vector<u64> after = keys_in_snake_order(mesh, g);
  EXPECT_EQ(after, before);  // sorted AND multiset-preserving
  EXPECT_EQ(mesh.total_packets(g), count);
}

TEST_P(SortSweep, AnalyticModeMatchesSimulatedPlacement) {
  const auto [rows, cols, count, range] = GetParam();
  Mesh a(rows, cols), b(rows, cols);
  Rng rng1(99), rng2(99);
  scatter_random(a, a.whole(), count, range, rng1);
  scatter_random(b, b.whole(), count, range, rng2);

  const i64 sim_steps = sort_region(a, a.whole(), {SortMode::Simulated});
  const i64 ana_steps = sort_region(b, b.whole(), {SortMode::Analytic});

  // Identical canonical placement, node by node.
  for (i32 id = 0; id < a.size(); ++id) {
    const auto& ba = a.buf(id);
    const auto& bb = b.buf(id);
    ASSERT_EQ(ba.size(), bb.size()) << "node " << id;
    for (size_t i = 0; i < ba.size(); ++i) {
      EXPECT_EQ(ba[i].key, bb[i].key);
      EXPECT_EQ(ba[i].var, bb[i].var);
    }
  }
  // The analytic charge is the oblivious worst case: never below the
  // early-exit simulated cost.
  EXPECT_GE(ana_steps, sim_steps);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SortSweep,
    ::testing::Values(SortCase{1, 1, 5, 10}, SortCase{1, 16, 40, 8},
                      SortCase{16, 1, 40, 1000}, SortCase{4, 4, 16, 4},
                      SortCase{8, 8, 64, 1u << 30}, SortCase{8, 8, 500, 7},
                      SortCase{7, 5, 123, 50}, SortCase{16, 16, 1000, 3},
                      SortCase{5, 9, 1, 100}, SortCase{6, 6, 0, 10}),
    [](const ::testing::TestParamInfo<SortCase>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols) + "_p" +
             std::to_string(info.param.packets);
    });

TEST(Sort, AlreadySortedIsCheap) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  for (i64 s = 0; s < g.size(); ++s) {
    mesh.buf(mesh.node_id(g.at_snake(s))).push_back(mk(static_cast<u64>(s)));
  }
  const i64 steps = sort_region(mesh, g);
  EXPECT_TRUE(region_sorted(mesh, g));
  // Early exit: far below the worst-case bound.
  EXPECT_LT(steps, shearsort_step_bound(g, 1) / 2);
}

TEST(Sort, PresortedDuplicateBoundariesCheapAndCanonical) {
  // Presorted input whose duplicate keys straddle block boundaries: every
  // merge_split sees large[0] equal (under the full comparator) or greater
  // than small[cap-1], so the early-exit fast path fires everywhere and the
  // quiet rounds terminate the sort far below the oblivious bound. The
  // early exit must not skip a required exchange: the layout has to match
  // the Analytic canonical placement bit for bit.
  Mesh sim(8, 8), ana(8, 8);
  const Region g = sim.whole();
  for (i64 s = 0; s < g.size(); ++s) {
    for (int j = 0; j < 3; ++j) {
      // Keys repeat across 8 consecutive snake positions (whole rows), so
      // every adjacent block pair shares its boundary key.
      const Packet p = mk(static_cast<u64>(s / 8), s * 3 + j,
                          static_cast<i32>(s));
      sim.buf(sim.node_id(g.at_snake(s))).push_back(p);
      ana.buf(ana.node_id(g.at_snake(s))).push_back(p);
    }
  }
  const i64 steps = sort_region(sim, g, {SortMode::Simulated});
  sort_region(ana, ana.whole(), {SortMode::Analytic});
  EXPECT_TRUE(region_sorted(sim, g));
  EXPECT_LT(steps, shearsort_step_bound(g, 3) / 2);
  for (i32 id = 0; id < sim.size(); ++id) {
    const auto& bs = sim.buf(id);
    const auto& ba = ana.buf(id);
    ASSERT_EQ(bs.size(), ba.size()) << "node " << id;
    for (size_t i = 0; i < bs.size(); ++i) {
      EXPECT_EQ(bs[i].key, ba[i].key) << "node " << id << " slot " << i;
      EXPECT_EQ(bs[i].var, ba[i].var) << "node " << id << " slot " << i;
    }
  }
}

TEST(Sort, CanonicalLayoutIsInvariantUnderInitialShuffle) {
  // Same multiset of packets, scattered over the region in two different
  // initial arrangements: the sorted layout must be identical node by node
  // and slot by slot (the total order breaks key ties on the payload, so
  // the result is a pure function of the multiset).
  Mesh a(8, 8), b(8, 8);
  const Region g = a.whole();
  Rng keys(271828);
  std::vector<Packet> packets;
  for (int i = 0; i < 300; ++i) {
    packets.push_back(mk(keys.below(7), i, static_cast<i32>(i % 64)));
  }
  Rng place_a(31), place_b(1042);
  for (const Packet& p : packets) {
    a.buf(a.node_id(g.at_snake(place_a.range(0, g.size() - 1)))).push_back(p);
    b.buf(b.node_id(g.at_snake(place_b.range(0, g.size() - 1)))).push_back(p);
  }
  sort_region(a, g, {SortMode::Simulated});
  sort_region(b, b.whole(), {SortMode::Simulated});
  EXPECT_TRUE(region_sorted(a, g));
  for (i32 id = 0; id < a.size(); ++id) {
    const auto& ba = a.buf(id);
    const auto& bb = b.buf(id);
    ASSERT_EQ(ba.size(), bb.size()) << "node " << id;
    for (size_t i = 0; i < ba.size(); ++i) {
      EXPECT_EQ(ba[i].key, bb[i].key) << "node " << id << " slot " << i;
      EXPECT_EQ(ba[i].var, bb[i].var) << "node " << id << " slot " << i;
      EXPECT_EQ(ba[i].origin, bb[i].origin)
          << "node " << id << " slot " << i;
    }
  }
}

TEST(Sort, ParallelRoundsMatchSerialLayout) {
  // Force the line-parallel odd-even rounds (stripe_min_nodes = 1) and check
  // the layout against a serial sort of the same input.
  Mesh ser(8, 8), par(8, 8);
  Rng r1(77), r2(77);
  scatter_random(ser, ser.whole(), 400, 1u << 20, r1);
  scatter_random(par, par.whole(), 400, 1u << 20, r2);

  set_execution_threads(1);
  const i64 steps_ser = sort_region(ser, ser.whole(), {SortMode::Simulated});
  set_execution_threads(4);
  set_stripe_min_nodes(1);
  const i64 steps_par = sort_region(par, par.whole(), {SortMode::Simulated});
  set_stripe_min_nodes(0);
  set_execution_threads(0);

  EXPECT_EQ(steps_ser, steps_par);
  for (i32 id = 0; id < ser.size(); ++id) {
    const auto& bs = ser.buf(id);
    const auto& bp = par.buf(id);
    ASSERT_EQ(bs.size(), bp.size()) << "node " << id;
    for (size_t i = 0; i < bs.size(); ++i) {
      EXPECT_EQ(bs[i].key, bp[i].key) << "node " << id << " slot " << i;
      EXPECT_EQ(bs[i].var, bp[i].var) << "node " << id << " slot " << i;
    }
  }
}

TEST(Sort, ReverseOrderWorstCaseStaysWithinBound) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  for (i64 s = 0; s < g.size(); ++s) {
    mesh.buf(mesh.node_id(g.at_snake(s)))
        .push_back(mk(static_cast<u64>(g.size() - s)));
  }
  const i64 steps = sort_region(mesh, g);
  EXPECT_TRUE(region_sorted(mesh, g));
  EXPECT_LE(steps, shearsort_step_bound(g, 1));
}

TEST(Sort, SubregionSortLeavesRestAlone) {
  Mesh mesh(8, 8);
  const Region sub(2, 2, 4, 4);
  Rng rng(5);
  scatter_random(mesh, sub, 50, 100, rng);
  Packet outside = mk(0);
  mesh.buf(mesh.node_id({0, 0})).push_back(outside);
  sort_region(mesh, sub);
  EXPECT_TRUE(region_sorted(mesh, sub));
  EXPECT_EQ(mesh.buf(mesh.node_id({0, 0})).size(), 1u);
}

TEST(Sort, RejectsSentinelKey) {
  Mesh mesh(2, 2);
  mesh.buf(0).push_back(mk(kHoleKey));
  EXPECT_THROW(sort_region(mesh, mesh.whole()), ConfigError);
  Mesh ana(2, 2);
  ana.buf(0).push_back(mk(kHoleKey));
  ana.buf(2).push_back(mk(3));
  EXPECT_THROW(sort_region(ana, ana.whole(), {SortMode::Analytic}),
               ConfigError);
  EXPECT_EQ(ana.buf(0).size(), 1u);  // packets handed back on failure
  EXPECT_EQ(ana.buf(2).size(), 1u);
}

TEST(Sort, StepBoundFormula) {
  // phases = ceil(log2 rows) + 1; bound = L*(phases*(R+C) + C).
  EXPECT_EQ(shearsort_step_bound(Region(0, 0, 8, 8), 1), (4 * 16 + 8));
  EXPECT_EQ(shearsort_step_bound(Region(0, 0, 8, 8), 3), 3 * (4 * 16 + 8));
  EXPECT_EQ(shearsort_step_bound(Region(0, 0, 1, 16), 2), 2 * (1 * 17 + 16));
}

// ---------------------------------------------------------------------------
// Scan + ranking.
// ---------------------------------------------------------------------------

TEST(Scan, ExclusivePrefixSum) {
  const Region g(0, 0, 4, 4);
  std::vector<i64> vals(16);
  for (int i = 0; i < 16; ++i) vals[static_cast<size_t>(i)] = i + 1;
  const auto r =
      scan_snake<i64>(g, vals, 0, [](i64 a, i64 b) { return a + b; });
  ASSERT_EQ(r.prefix.size(), 16u);
  EXPECT_EQ(r.prefix[0], 0);
  EXPECT_EQ(r.prefix[1], 1);
  EXPECT_EQ(r.prefix[15], 15 * 16 / 2);
  EXPECT_EQ(r.steps, 2 * 4 + 4);
  EXPECT_THROW(
      scan_snake<i64>(g, std::vector<i64>(3), 0,
                      [](i64 a, i64 b) { return a + b; }),
      ConfigError);
}

TEST(Rank, RanksWithinGroupsAfterSort) {
  Mesh mesh(6, 6);
  const Region g = mesh.whole();
  Rng rng(17);
  scatter_random(mesh, g, 300, 9, rng);  // many collisions across 9 keys
  const SortRankSteps steps = sort_and_rank(mesh, g);
  EXPECT_GT(steps.sort, 0);
  EXPECT_EQ(steps.rank, 4 * (2 * 6 + 6));
  EXPECT_EQ(steps.total(), steps.sort + steps.rank);

  // Every key group must carry ranks 0..groupsize-1 exactly once.
  std::map<u64, std::set<u64>> ranks;
  std::map<u64, i64> sizes;
  for (i64 s = 0; s < g.size(); ++s) {
    for (const Packet& p : mesh.buf(mesh.node_id(g.at_snake(s)))) {
      EXPECT_TRUE(ranks[p.key].insert(p.rank).second)
          << "duplicate rank " << p.rank << " in group " << p.key;
      ++sizes[p.key];
    }
  }
  for (const auto& [key, rs] : ranks) {
    EXPECT_EQ(static_cast<i64>(rs.size()), sizes[key]);
    EXPECT_EQ(*rs.begin(), 0u);
    EXPECT_EQ(*rs.rbegin(), static_cast<u64>(sizes[key] - 1));
  }
}

// ---------------------------------------------------------------------------
// Fused sort-and-rank: both modes against a std::sort-plus-scan oracle.
// ---------------------------------------------------------------------------

/// The canonical order both sort modes promise.
bool canonical_less(const Packet& a, const Packet& b) {
  return std::tie(a.key, a.copy, a.var, a.origin, a.op, a.value) <
         std::tie(b.key, b.copy, b.var, b.origin, b.op, b.value);
}

/// The mesh ranking the sort's write-back replaces: per-node run summaries
/// combined by an exclusive snake scan, then a local pass per node. Sets
/// Packet::rank on a key-sorted region and returns the scan's charge.
i64 oracle_rank_scan(Mesh& mesh, const Region& g) {
  struct Run {
    bool empty = true;
    u64 first = 0;
    u64 last = 0;
    i64 trail = 0;  // length of the trailing run (key == last)
    bool uniform = true;
  };
  std::vector<Run> vals;
  for (RegionCursor cur = mesh.cursor(g); cur.valid(); cur.advance()) {
    const auto& b = mesh.buf(cur.id());
    Run r;
    if (!b.empty()) {
      r.empty = false;
      r.first = b.front().key;
      r.last = b.back().key;
      for (size_t i = b.size(); i > 0 && b[i - 1].key == r.last; --i) {
        ++r.trail;
      }
      r.uniform = r.first == r.last;
    }
    vals.push_back(r);
  }
  const auto combine = [](const Run& a, const Run& b) {
    if (a.empty) return b;
    if (b.empty) return a;
    Run r;
    r.empty = false;
    r.first = a.first;
    r.last = b.last;
    const bool joins = b.uniform && b.first == a.last;
    r.trail = joins ? a.trail + b.trail : b.trail;
    r.uniform = joins && a.uniform;
    return r;
  };
  const auto scan = scan_snake<Run>(g, vals, Run{}, combine, /*words=*/4);
  for (RegionCursor cur = mesh.cursor(g); cur.valid(); cur.advance()) {
    auto& b = mesh.buf(cur.id());
    if (b.empty()) continue;
    const Run& pred = scan.prefix[static_cast<size_t>(cur.pos())];
    i64 run = (!pred.empty && pred.last == b.front().key) ? pred.trail : 0;
    u64 key = b.front().key;
    for (Packet& p : b) {
      if (p.key != key) {
        key = p.key;
        run = 0;
      }
      p.rank = static_cast<u64>(run++);
    }
  }
  return scan.steps;
}

/// Oracle placement: every packet of `g`, std::sort-ed canonically, packed
/// at cap = max load per snake position, then ranked by the scan.
i64 oracle_sort_and_rank(Mesh& mesh, const Region& g) {
  const i64 cap = mesh.max_load(g);
  std::vector<Packet> all = mesh.drain(g);
  std::sort(all.begin(), all.end(), canonical_less);
  for (size_t i = 0; i < all.size(); ++i) {
    mesh.buf(mesh.node_at(g, static_cast<i64>(i) / cap)).push_back(all[i]);
  }
  return oracle_rank_scan(mesh, g);
}

/// Node-by-node equality of the compared fields, the rank and the trail
/// marker (a payload field the sort never reads) over the whole mesh.
void expect_same_layout(const Mesh& a, const Mesh& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (i32 id = 0; id < a.size(); ++id) {
    const auto& ba = a.buf(id);
    const auto& bb = b.buf(id);
    ASSERT_EQ(ba.size(), bb.size()) << what << ": node " << id;
    for (size_t i = 0; i < ba.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << what << ": node " << id
                                        << " slot " << i);
      EXPECT_EQ(ba[i].key, bb[i].key);
      EXPECT_EQ(ba[i].copy, bb[i].copy);
      EXPECT_EQ(ba[i].var, bb[i].var);
      EXPECT_EQ(ba[i].origin, bb[i].origin);
      EXPECT_EQ(ba[i].op, bb[i].op);
      EXPECT_EQ(ba[i].value, bb[i].value);
      EXPECT_EQ(ba[i].rank, bb[i].rank);
    }
  }
}

/// Fills `g` with packets drawn to stress the tie-breaks: few keys (heavy
/// duplicates), few copy ids (duplicate (key, copy) pairs, some identical
/// up to the payload), uneven loads, and only the first `used` snake
/// positions occupied (empty tail). Also drops one packet outside `g`.
void fill_ties(Mesh& mesh, const Region& g, i64 count, i64 used, u64 seed) {
  Rng rng(seed);
  for (i64 i = 0; i < count; ++i) {
    Packet p;
    p.key = rng.below(5);
    p.copy = rng.below(3);
    p.var = static_cast<i64>(rng.below(4));
    p.origin = static_cast<i32>(rng.below(3));
    p.op = rng.below(2) == 0 ? Op::Read : Op::Write;
    p.value = static_cast<i64>(rng.below(2));
    p.rank = 999;  // stale: the sort must overwrite it
    mesh.buf(mesh.node_at(g, rng.range(0, used - 1))).push_back(p);
  }
  if (!(g == mesh.whole())) {
    Packet outside;
    outside.key = 7;
    outside.rank = 42;
    for (RegionCursor cur = mesh.cursor(mesh.whole()); cur.valid();
         cur.advance()) {
      if (!g.contains(cur.coord())) {
        mesh.buf(cur.id()).push_back(outside);
        break;
      }
    }
  }
}

TEST(SortRank, AnalyticAndSimulatedMatchSortPlusScanOracle) {
  struct Case {
    int rows, cols;
    Region region;
    i64 count;
    i64 used;  // occupied leading snake positions
  };
  const std::vector<Case> cases = {
      {8, 8, Region(0, 0, 8, 8), 300, 64},
      {8, 8, Region(0, 0, 8, 8), 200, 23},     // empty tail
      {8, 8, Region(2, 1, 4, 6), 150, 24},     // inside the mesh
      {16, 16, Region(3, 5, 7, 9), 2000, 50},  // radix path, odd shape
      {16, 16, Region(0, 0, 16, 16), 4000, 256},
      {5, 7, Region(0, 0, 5, 7), 1, 1},
  };
  for (const NodeOrderKind order :
       {NodeOrderKind::RowMajor, NodeOrderKind::Hilbert}) {
    for (size_t c = 0; c < cases.size(); ++c) {
      const Case& k = cases[c];
      SCOPED_TRACE(::testing::Message()
                   << node_order_name(order) << " case " << c);
      Mesh sim(k.rows, k.cols, order), ana(k.rows, k.cols, order),
          want(k.rows, k.cols, order);
      const u64 seed = 1000 + c;
      fill_ties(sim, k.region, k.count, k.used, seed);
      fill_ties(ana, k.region, k.count, k.used, seed);
      fill_ties(want, k.region, k.count, k.used, seed);

      const SortRankSteps s = sort_and_rank(sim, k.region,
                                            {SortMode::Simulated});
      const SortRankSteps a = sort_and_rank(ana, k.region,
                                            {SortMode::Analytic});
      const i64 scan_steps = oracle_sort_and_rank(want, k.region);
      expect_same_layout(want, sim, "simulated");
      expect_same_layout(want, ana, "analytic");
      EXPECT_EQ(s.rank, scan_steps);
      EXPECT_EQ(a.rank, scan_steps);
      EXPECT_EQ(a.sort,
                shearsort_step_bound(k.region, want.max_load(k.region)));
      EXPECT_LE(s.sort, a.sort);
    }
  }
}

TEST(SortRank, EmptyRegionChargesOnlyTheRankScan) {
  Mesh mesh(4, 6);
  for (const SortMode mode : {SortMode::Simulated, SortMode::Analytic}) {
    const SortRankSteps st = sort_and_rank(mesh, mesh.whole(), {mode});
    EXPECT_EQ(st.sort, 0);
    EXPECT_EQ(st.rank, 4 * (2 * 6 + 4));
  }
}

TEST(SortRank, CopyIdTooWideToPackThrows) {
  // 64 key bits + 64 copy bits + 1 index bit exceed the two packed words.
  Mesh mesh(2, 2);
  Packet p;
  p.key = u64{1} << 63;
  p.copy = ~u64{0};
  mesh.buf(0).push_back(p);
  mesh.buf(3).push_back(p);
  EXPECT_THROW(sort_and_rank(mesh, mesh.whole(), {SortMode::Analytic}),
               ConfigError);
  // The failed call left every packet where it was; the block sort, which
  // compares instead of packing, still handles them.
  EXPECT_EQ(mesh.buf(0).size(), 1u);
  EXPECT_EQ(mesh.buf(3).size(), 1u);
  sort_and_rank(mesh, mesh.whole(), {SortMode::Simulated});
  EXPECT_EQ(mesh.total_packets(mesh.whole()), 2);
  // One copy bit less fills the 128 bits exactly: the two-word path sorts
  // it (a key-1 packet moves ahead of the wide one).
  Mesh fits(2, 2);
  p.copy = ~u64{0} >> 1;
  fits.buf(fits.node_at(fits.whole(), 0)).push_back(p);
  p.key = 1;
  fits.buf(fits.node_at(fits.whole(), 3)).push_back(p);
  sort_and_rank(fits, fits.whole(), {SortMode::Analytic});
  ASSERT_EQ(fits.buf(fits.node_at(fits.whole(), 0)).size(), 1u);
  EXPECT_EQ(fits.buf(fits.node_at(fits.whole(), 0))[0].key, 1u);
  EXPECT_EQ(fits.buf(fits.node_at(fits.whole(), 1))[0].key, u64{1} << 63);
}

TEST(SortRank, ZeroKeysWithFullWidthCopiesSortByCopy) {
  // Every key 0 while copy and index bits fill a whole word: the packing
  // must not shift by the word width (UBSan checks this).
  Mesh mesh(2, 2);
  Packet p;
  p.copy = (u64{1} << 62) + 5;
  mesh.buf(mesh.node_at(mesh.whole(), 0)).push_back(p);
  p.copy = 5;
  mesh.buf(mesh.node_at(mesh.whole(), 3)).push_back(p);
  const SortRankSteps st =
      sort_and_rank(mesh, mesh.whole(), {SortMode::Analytic});
  EXPECT_EQ(st.sort, shearsort_step_bound(mesh.whole(), 1));
  const auto& first = mesh.buf(mesh.node_at(mesh.whole(), 0));
  const auto& second = mesh.buf(mesh.node_at(mesh.whole(), 1));
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].copy, 5u);
  EXPECT_EQ(first[0].rank, 0u);
  EXPECT_EQ(second[0].rank, 1u);  // one key group across both nodes
}

TEST(SortRank, RegionParallelMatchesOneThread) {
  // Many disjoint regions sorted concurrently (each pool thread borrows its
  // own sort buffers; the back buffers are per node) against one thread.
  std::vector<Region> subs;
  for (int r = 0; r < 16; r += 4) {
    for (int c = 0; c < 16; c += 4) subs.emplace_back(r, c, 4, 4);
  }
  std::vector<std::vector<i64>> steps(2);
  std::vector<std::unique_ptr<Mesh>> meshes;
  for (const int threads : {1, 4}) {
    set_execution_threads(threads);
    for (const SortMode mode : {SortMode::Analytic, SortMode::Simulated}) {
      auto mesh = std::make_unique<Mesh>(16, 16, NodeOrderKind::Hilbert);
      for (size_t i = 0; i < subs.size(); ++i) {
        fill_ties(*mesh, subs[i], 40 + static_cast<i64>(i) * 7, 16, 50 + i);
      }
      for (int rep = 0; rep < 2; ++rep) {  // second pass reuses the buffers
        const std::vector<i64> got = parallel_for_regions(
            *mesh, subs, [&](const Region& sub) {
              return sort_and_rank(*mesh, sub, {mode}).total();
            });
        steps[threads == 1 ? 0 : 1].insert(steps[threads == 1 ? 0 : 1].end(),
                                           got.begin(), got.end());
      }
      meshes.push_back(std::move(mesh));
    }
  }
  set_execution_threads(0);
  EXPECT_EQ(steps[0], steps[1]);
  expect_same_layout(*meshes[0], *meshes[2], "analytic, 4 vs 1 threads");
  expect_same_layout(*meshes[1], *meshes[3], "simulated, 4 vs 1 threads");
  expect_same_layout(*meshes[0], *meshes[1], "analytic vs simulated");
}

TEST(Rank, MaxGroupSize) {
  Mesh mesh(2, 2);
  mesh.buf(0).push_back(mk(1));
  mesh.buf(1).push_back(mk(1));
  mesh.buf(2).push_back(mk(1));
  mesh.buf(3).push_back(mk(2));
  EXPECT_EQ(max_group_size(mesh, mesh.whole()), 3);
}

// ---------------------------------------------------------------------------
// Greedy routing.
// ---------------------------------------------------------------------------

TEST(Greedy, SinglePacketTakesExactlyDistanceSteps) {
  Mesh mesh(8, 8);
  Packet p = mk(0);
  p.dest = mesh.node_id({5, 6});
  mesh.buf(mesh.node_id({1, 2})).push_back(p);
  const RouteStats rs = route_greedy(mesh, mesh.whole());
  EXPECT_EQ(rs.steps, manhattan({1, 2}, {5, 6}));
  EXPECT_EQ(rs.packets, 1);
  EXPECT_EQ(mesh.buf(mesh.node_id({5, 6})).size(), 1u);
}

TEST(Greedy, PermutationDeliversWithinGreedyBound) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  Rng rng(23);
  std::vector<i64> perm(static_cast<size_t>(g.size()));
  for (i64 i = 0; i < g.size(); ++i) perm[static_cast<size_t>(i)] = i;
  rng.shuffle(perm);
  for (i64 s = 0; s < g.size(); ++s) {
    Packet p = mk(0, s);
    p.dest = mesh.node_at(g, perm[static_cast<size_t>(s)]);
    mesh.buf(mesh.node_at(g, s)).push_back(p);
  }
  const RouteStats rs = route_greedy(mesh, g);
  EXPECT_EQ(rs.packets, g.size());
  for (i64 s = 0; s < g.size(); ++s) {
    const i32 id = mesh.node_at(g, s);
    ASSERT_EQ(mesh.buf(id).size(), 1u) << "node " << id;
    EXPECT_EQ(mesh.buf(id)[0].dest, id);
  }
  // Greedy XY on a permutation: never worse than a small multiple of the
  // diameter (theory: 2*sqrt(n)-2 with farthest-first on column-balanced
  // inputs; random permutations stay close to that).
  EXPECT_LE(rs.steps, 4 * (mesh.rows() + mesh.cols()));
}

TEST(Greedy, HotSpotSerializesOnReceiverLinks) {
  // All 4 neighbors + far nodes target one node: receiver has 4 in-links, so
  // steps >= ceil(packets / 4).
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  const i32 target = mesh.node_id({4, 4});
  i64 count = 0;
  for (i64 s = 0; s < g.size(); ++s) {
    const i32 id = mesh.node_at(g, s);
    if (id == target) continue;
    Packet p = mk(0, s);
    p.dest = target;
    mesh.buf(id).push_back(p);
    ++count;
  }
  const RouteStats rs = route_greedy(mesh, g);
  EXPECT_EQ(static_cast<i64>(mesh.buf(target).size()), count);
  EXPECT_GE(rs.steps, ceil_div(count, 4));
}

TEST(Greedy, PacketAlreadyAtDestinationCostsNothing) {
  Mesh mesh(4, 4);
  Packet p = mk(0);
  p.dest = 5;
  mesh.buf(5).push_back(p);
  const RouteStats rs = route_greedy(mesh, mesh.whole());
  EXPECT_EQ(rs.steps, 0);
  EXPECT_EQ(mesh.buf(5).size(), 1u);
}

TEST(Greedy, RejectsDestOutsideRegion) {
  Mesh mesh(4, 4);
  Packet p = mk(0);
  p.dest = mesh.node_id({3, 3});
  mesh.buf(mesh.node_id({0, 0})).push_back(p);
  EXPECT_THROW(route_greedy(mesh, Region(0, 0, 2, 2)), ConfigError);
}

TEST(Greedy, StaysWithinSubregion) {
  // Packets in a subregion must be routed using only subregion nodes; the
  // rest of the mesh must stay untouched.
  Mesh mesh(8, 8);
  const Region sub(2, 2, 4, 4);
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    Packet p = mk(0, i);
    p.dest = mesh.node_id(sub.at_snake(rng.range(0, sub.size() - 1)));
    mesh.buf(mesh.node_id(sub.at_snake(rng.range(0, sub.size() - 1))))
        .push_back(p);
  }
  const RouteStats rs = route_greedy(mesh, sub);
  EXPECT_EQ(rs.packets, 40);
  i64 inside = 0;
  for (i64 s = 0; s < sub.size(); ++s) {
    inside += static_cast<i64>(mesh.buf(mesh.node_id(sub.at_snake(s))).size());
  }
  EXPECT_EQ(inside, 40);
}

/// Routes the same workload on one thread and on a 4-thread line team
/// (forced on any region size), then demands bit-identical stats and
/// node-by-node buffer layouts (delivery order included).
void expect_team_matches_one_thread(const std::function<void(Mesh&)>& load) {
  Mesh ser(16, 16), par(16, 16);
  load(ser);
  load(par);
  const RouteStats ss = route_on(RouteLeg::Serial, ser, ser.whole());
  const RouteStats sp = route_on(RouteLeg::Team, par, par.whole());
  EXPECT_EQ(ss.steps, sp.steps);
  EXPECT_EQ(ss.max_queue, sp.max_queue);
  EXPECT_EQ(ss.packets, sp.packets);
  EXPECT_EQ(ss.total_distance, sp.total_distance);
  for (i32 id = 0; id < ser.size(); ++id) {
    const auto& bs = ser.buf(id);
    const auto& bp = par.buf(id);
    ASSERT_EQ(bs.size(), bp.size()) << "node " << id;
    for (size_t i = 0; i < bs.size(); ++i) {
      EXPECT_EQ(bs[i].var, bp[i].var) << "node " << id << " slot " << i;
      EXPECT_EQ(bs[i].dest, bp[i].dest) << "node " << id << " slot " << i;
    }
  }
}

TEST(Greedy, StripedRandomTrafficMatchesSerial) {
  expect_team_matches_one_thread([](Mesh& mesh) {
    Rng rng(4242);
    for (int i = 0; i < 800; ++i) {
      Packet p = mk(0, i);
      p.dest = static_cast<i32>(rng.range(0, mesh.size() - 1));
      mesh.buf(static_cast<i32>(rng.range(0, mesh.size() - 1))).push_back(p);
    }
  });
}

TEST(Greedy, StripedHotSpotMatchesSerial) {
  // Every node fires 8 packets at 4 targets in one row: the column lines
  // into row 7 carry long trains of turning packets, and each worker solves
  // whole rows and columns of them. The layout must still match one thread.
  expect_team_matches_one_thread([](Mesh& mesh) {
    int i = 0;
    for (i32 id = 0; id < mesh.size(); ++id) {
      for (int j = 0; j < 8; ++j) {
        Packet p = mk(0, i++);
        p.dest = mesh.node_id({7, static_cast<int>(6 + (id + j) % 4)});
        mesh.buf(id).push_back(p);
      }
    }
  });
}

TEST(Greedy, ArenaGrowMatchesPreGrownArena) {
  // Adversarial convergence burst on the step-by-step kernel (the fault
  // kernel under an inert plan; the band router shares its absorb): every
  // node fires 6 packets at a 2-node hot spot, so arrival queues overflow
  // the initial arena layout (setup depth 6 + default headroom 2) and the
  // in-place grow path runs. A second mesh routes the identical workload
  // with the arena pre-grown far past the peak queue (headroom 512, grow
  // never triggers); stats and node-by-node delivery order must be
  // bit-identical.
  const auto load = [](Mesh& mesh) {
    int i = 0;
    for (i32 id = 0; id < mesh.size(); ++id) {
      for (int j = 0; j < 6; ++j) {
        Packet p = mk(0, i++, id);
        p.dest = mesh.node_id({4, 4 + (id + j) % 2});
        mesh.buf(id).push_back(p);
      }
    }
  };
  Mesh grown(8, 8), pre(8, 8);
  load(grown);
  load(pre);

  ASSERT_EQ(route_initial_headroom(), 2);  // default: grow path will trigger
  const RouteStats gs = route_on(RouteLeg::Fault, grown, grown.whole());
  // Peak queue beyond setup depth + headroom proves the arena actually grew.
  ASSERT_GT(gs.max_queue, 6 + 2);

  set_route_initial_headroom(512);
  const RouteStats ps = route_on(RouteLeg::Fault, pre, pre.whole());
  set_route_initial_headroom(2);

  EXPECT_EQ(gs.steps, ps.steps);
  EXPECT_EQ(gs.max_queue, ps.max_queue);
  EXPECT_EQ(gs.packets, ps.packets);
  EXPECT_EQ(gs.total_distance, ps.total_distance);
  for (i32 id = 0; id < grown.size(); ++id) {
    const auto& bg = grown.buf(id);
    const auto& bp = pre.buf(id);
    ASSERT_EQ(bg.size(), bp.size()) << "node " << id;
    for (size_t i = 0; i < bg.size(); ++i) {
      EXPECT_EQ(bg[i].var, bp[i].var) << "node " << id << " slot " << i;
      EXPECT_EQ(bg[i].origin, bp[i].origin) << "node " << id << " slot " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Reference router (route_oracle.hpp): an independent oracle for
// route_greedy on every leg.
// ---------------------------------------------------------------------------

/// Traffic generators over region `g` (sources and destinations inside it).
void random_traffic(Mesh& mesh, const Region& g, u64 seed, int packets) {
  Rng rng(seed);
  for (int i = 0; i < packets; ++i) {
    Packet p = mk(0, i);
    p.dest = mesh.node_id(g.at_snake(rng.range(0, g.size() - 1)));
    mesh.buf(mesh.node_id(g.at_snake(rng.range(0, g.size() - 1))))
        .push_back(p);
  }
}

void hot_spot_traffic(Mesh& mesh, const Region& g, int per_node) {
  int i = 0;
  const i32 hot = mesh.node_id(g.at_snake(g.size() / 2));
  for (i64 s = 0; s < g.size(); ++s) {
    for (int j = 0; j < per_node; ++j) {
      Packet p = mk(0, i++);
      p.dest = j % 2 == 0 ? hot : mesh.node_id(g.at_snake((s + j) % g.size()));
      mesh.buf(mesh.node_id(g.at_snake(s))).push_back(p);
    }
  }
}

void transpose_traffic(Mesh& mesh, const Region& g) {
  int i = 0;
  for (int r = 0; r < g.rows(); ++r) {
    for (int c = 0; c < g.cols(); ++c) {
      Packet p = mk(0, i++);
      p.dest = mesh.node_id({g.r0() + c % g.rows(), g.c0() + r % g.cols()});
      mesh.buf(mesh.node_id({g.r0() + r, g.c0() + c})).push_back(p);
    }
  }
}

/// Every node of `g` sends `per_node` packets to random nodes of `g`.
void dense_traffic(Mesh& mesh, const Region& g, u64 seed, int per_node) {
  Rng rng(seed);
  int i = 0;
  for (i64 s = 0; s < g.size(); ++s) {
    for (int j = 0; j < per_node; ++j) {
      Packet p = mk(0, i++);
      p.dest = mesh.node_id(g.at_snake(rng.range(0, g.size() - 1)));
      mesh.buf(mesh.node_id(g.at_snake(s))).push_back(p);
    }
  }
}

/// Every node of `g` sends `per_node` packets to the one node `hot`.
void all_to_one_traffic(Mesh& mesh, const Region& g, Coord hot, int per_node) {
  int i = 0;
  for (i64 s = 0; s < g.size(); ++s) {
    for (int j = 0; j < per_node; ++j) {
      Packet p = mk(0, i++);
      p.dest = mesh.node_id(hot);
      mesh.buf(mesh.node_id(g.at_snake(s))).push_back(p);
    }
  }
}

/// Every node of `g` sends `per_node` packets, cycling over three hot spots
/// (a corner, the centre and a point on the far edge).
void three_hot_spots_traffic(Mesh& mesh, const Region& g, int per_node) {
  const i32 hot[3] = {
      mesh.node_id({g.r0(), g.c0()}),
      mesh.node_id({g.r0() + g.rows() / 2, g.c0() + g.cols() / 2}),
      mesh.node_id({g.r0() + g.rows() - 1, g.c0() + g.cols() / 3})};
  int i = 0;
  for (i64 s = 0; s < g.size(); ++s) {
    for (int j = 0; j < per_node; ++j) {
      Packet p = mk(0, i++);
      p.dest = hot[(s + j) % 3];
      mesh.buf(mesh.node_id(g.at_snake(s))).push_back(p);
    }
  }
}

/// The node at (r, c) of `g` sends one packet to (rows-1-r, cols-1-c).
void reverse_traffic(Mesh& mesh, const Region& g) {
  int i = 0;
  for (int r = 0; r < g.rows(); ++r) {
    for (int c = 0; c < g.cols(); ++c) {
      Packet p = mk(0, i++);
      p.dest = mesh.node_id(
          {g.r0() + g.rows() - 1 - r, g.c0() + g.cols() - 1 - c});
      mesh.buf(mesh.node_id({g.r0() + r, g.c0() + c})).push_back(p);
    }
  }
}

TEST(Greedy, MatchesReferenceRouter) {
  struct Case {
    int rows, cols;
    Region g;
  };
  const Case cases[] = {
      {16, 16, Region(0, 0, 16, 16)}, {12, 10, Region(0, 0, 12, 10)},
      {16, 16, Region(3, 2, 7, 9)},   {16, 16, Region(5, 1, 1, 11)},
      {16, 16, Region(0, 9, 13, 1)},  {9, 14, Region(2, 3, 6, 6)},
      // 1 x n and n x 1 meshes, and a region on an odd row and column.
      {1, 24, Region(0, 0, 1, 24)},   {24, 1, Region(0, 0, 24, 1)},
      {16, 16, Region(5, 3, 9, 11)},
  };
  for (const NodeOrderKind order :
       {NodeOrderKind::RowMajor, NodeOrderKind::Hilbert}) {
    for (const Case& c : cases) {
      for (const u64 seed : {1u, 2u, 3u}) {
        const int packets = static_cast<int>(c.g.size()) * (1 + seed % 3) * 2;
        expect_matches_reference(c.rows, c.cols, c.g, order, [&](Mesh& m) {
          random_traffic(m, c.g, seed * 7919 + c.g.size(), packets);
        });
      }
      expect_matches_reference(c.rows, c.cols, c.g, order, [&](Mesh& m) {
        hot_spot_traffic(m, c.g, 5);
      });
      expect_matches_reference(c.rows, c.cols, c.g, order, [&](Mesh& m) {
        transpose_traffic(m, c.g);
      });
      expect_matches_reference(c.rows, c.cols, c.g, order, [&](Mesh& m) {
        reverse_traffic(m, c.g);
      });
    }
    // Adversarial loads: deep queues, long trains of one priority class,
    // hot receivers and a permutation whose every packet crosses the mesh.
    const Region whole5(0, 0, 5, 5);
    expect_matches_reference(5, 5, whole5, order, [&](Mesh& m) {
      dense_traffic(m, whole5, 11, 30);
    });
    const Region whole16(0, 0, 16, 16);
    expect_matches_reference(16, 16, whole16, order, [&](Mesh& m) {
      all_to_one_traffic(m, whole16, {0, 0}, 4);
    });
    expect_matches_reference(16, 16, whole16, order, [&](Mesh& m) {
      three_hot_spots_traffic(m, whole16, 6);
    });
    const Region odd(3, 5, 11, 9);
    expect_matches_reference(16, 16, odd, order, [&](Mesh& m) {
      three_hot_spots_traffic(m, odd, 4);
    });
  }
}

TEST(Greedy, AllToOneSerializesOnTheReceiverLinks) {
  // 4 packets from each of 256 nodes converge on corner (0, 0). XY routing
  // turns every packet of rows 1..15 into column 0, so the one link into
  // the corner from below carries 15 * 16 * 4 = 960 packets: 960 steps.
  Mesh mesh(16, 16);
  all_to_one_traffic(mesh, mesh.whole(), {0, 0}, 4);
  const RouteStats rs = route_greedy(mesh, mesh.whole());
  EXPECT_EQ(rs.steps, 960);
  EXPECT_EQ(rs.max_queue, 64);
  EXPECT_EQ(static_cast<i64>(mesh.buf(0).size()), 1024);
}

TEST(Greedy, AlternatingRegionShapesMatchFreshMesh) {
  // One mesh (so one arena and its per-shape tables) serves calls that
  // alternate region extents; every call must equal the same call on a
  // fresh mesh, whose arena has never seen another shape.
  const Region shapes[] = {
      Region(0, 0, 16, 16), Region(2, 3, 7, 7),   Region(9, 9, 2, 3),
      Region(4, 0, 3, 2),   Region(15, 15, 1, 1), Region(1, 8, 7, 7),
      Region(0, 0, 16, 16), Region(10, 2, 2, 3),  Region(6, 6, 3, 2),
      Region(2, 3, 7, 7),   Region(0, 0, 16, 16), Region(7, 7, 1, 1),
  };
  for (const NodeOrderKind order :
       {NodeOrderKind::RowMajor, NodeOrderKind::Hilbert}) {
    Mesh shared(16, 16, order);
    set_execution_threads(1);
    u64 seed = 5;
    for (const Region& g : shapes) {
      SCOPED_TRACE(::testing::Message() << "region " << g << ' '
                                        << node_order_name(order));
      Mesh fresh(16, 16, order);
      const int packets = static_cast<int>(g.size()) * 3;
      random_traffic(shared, g, seed, packets);
      random_traffic(fresh, g, seed, packets);
      ++seed;
      const RouteStats a = route_greedy(shared, g);
      const RouteStats b = route_greedy(fresh, g);
      EXPECT_EQ(a.steps, b.steps);
      EXPECT_EQ(a.max_queue, b.max_queue);
      EXPECT_EQ(a.packets, b.packets);
      EXPECT_EQ(a.total_distance, b.total_distance);
      for (i32 id = 0; id < shared.size(); ++id) {
        const auto& bs = shared.buf(id);
        const auto& bf = fresh.buf(id);
        ASSERT_EQ(bs.size(), bf.size()) << "node " << id;
        for (size_t i = 0; i < bs.size(); ++i) {
          EXPECT_EQ(bs[i].var, bf[i].var) << "node " << id << " slot " << i;
        }
      }
      shared.clear_buffers();
    }
    set_execution_threads(0);
  }
}

// ---------------------------------------------------------------------------
// (l1,l2)-routing strategies.
// ---------------------------------------------------------------------------

TEST(LRoute, SortedRoutingDeliversEverything) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    Packet p = mk(0, i);
    p.dest = mesh.node_at(g, rng.range(0, g.size() - 1));
    mesh.buf(mesh.node_at(g, rng.range(0, g.size() - 1))).push_back(p);
  }
  const auto st = route_sorted(mesh, g);
  EXPECT_GT(st.sort_steps, 0);
  EXPECT_GT(st.route_steps, 0);
  i64 delivered = 0;
  for (i32 id = 0; id < mesh.size(); ++id) {
    for (const Packet& p : mesh.buf(id)) {
      EXPECT_EQ(p.dest, id);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 200);
}

TEST(LRoute, TwoStageDeliversAndBalancesIntermediateLoad) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  const auto subs = g.grid_split(4);  // 4x 4x4 quadrants
  Rng rng(53);
  // Skewed: every packet goes to quadrant 0 (the tessellated case where
  // sort+rank balancing matters).
  for (int i = 0; i < 160; ++i) {
    Packet p = mk(0, i);
    p.dest = mesh.node_id(subs[0].at_snake(rng.range(0, 3)));  // 4 hot nodes
    mesh.buf(mesh.node_at(g, rng.range(0, g.size() - 1))).push_back(p);
  }
  const auto st = route_two_stage(mesh, g, subs);
  EXPECT_GT(st.sort_steps, 0);
  EXPECT_GT(st.rank_steps, 0);
  i64 delivered = 0;
  for (i32 id = 0; id < mesh.size(); ++id) {
    for (const Packet& p : mesh.buf(id)) {
      EXPECT_EQ(p.dest, id);
      EXPECT_EQ(p.stash, -1);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 160);
}

TEST(LRoute, TwoStageRejectsUncoveredDestination) {
  Mesh mesh(8, 8);
  const Region g = mesh.whole();
  // Tessellation covering only the top half.
  const std::vector<Region> subs{Region(0, 0, 4, 8)};
  Packet p = mk(0);
  p.dest = mesh.node_id({6, 6});
  mesh.buf(0).push_back(p);
  EXPECT_THROW(route_two_stage(mesh, g, subs), ConfigError);
}

TEST(LRoute, DirectEqualsGreedy) {
  Mesh a(6, 6), b(6, 6);
  Rng r1(7), r2(7);
  for (int i = 0; i < 60; ++i) {
    Packet p = mk(0, i);
    p.dest = static_cast<i32>(r1.range(0, a.size() - 1));
    a.buf(static_cast<i32>(r1.range(0, a.size() - 1))).push_back(p);
    Packet q = mk(0, i);
    q.dest = static_cast<i32>(r2.range(0, b.size() - 1));
    b.buf(static_cast<i32>(r2.range(0, b.size() - 1))).push_back(q);
  }
  const auto sa = route_direct(a, a.whole());
  const RouteStats sb = route_greedy(b, b.whole());
  EXPECT_EQ(sa.route_steps, sb.steps);
  EXPECT_EQ(sa.steps, sb.steps);
}

}  // namespace
}  // namespace meshpram
