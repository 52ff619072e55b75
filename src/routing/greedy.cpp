#include "routing/greedy.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>
#include <vector>

#include "mesh/parallel.hpp"
#include "routing/greedy_kernel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

namespace {

const telemetry::Label kRouteGreedy = telemetry::intern("route.greedy");
const telemetry::Label kRouteStripe = telemetry::intern("route.stripe");

/// Extra queue capacity beyond the setup max depth (set_route_initial_headroom).
i64 g_route_headroom = 2;

/// Padded per-stripe accumulators: delivered is summed by every rank after
/// each step (all ranks compute the same total), max_queue is merged by the
/// caller after the join.
struct alignas(64) RankSlot {
  i64 delivered = 0;
  i64 max_queue = 0;
  i64 steps = 0;
};

struct Stripe {
  i64 pos_begin = 0;
  i64 pos_end = 0;
};

/// State shared by one route call's stripe team.
struct RouteShared {
  Mesh& mesh;
  const Region& region;
  RouteArena& ar;
  bool count_congestion;
  i64 in_flight0 = 0;
  std::vector<Stripe> stripes;
  std::vector<RankSlot> slots;
  // Per-rank overflow spills (slot, rec), merged by rank 0 under the third
  // barrier of a step. Spilling instead of growing in place: a stripe worker
  // may not resize the shared queue slab while others read it.
  std::vector<std::vector<std::pair<i64, TransitRec>>> spills;
  // Step number (1-based) of the most recent overflow. Written by spillers
  // before the absorb barrier, compared against the (identical) local step
  // counter by every rank after it — no reset, so there is no window where
  // ranks can disagree about whether a grow round happens.
  std::atomic<i64> overflow_step{0};
  SpinBarrier barrier;

  RouteShared(Mesh& mesh_, const Region& region_, RouteArena& ar_,
              bool count_congestion_, int team)
      : mesh(mesh_),
        region(region_),
        ar(ar_),
        count_congestion(count_congestion_),
        stripes(static_cast<size_t>(team)),
        slots(static_cast<size_t>(team)),
        spills(static_cast<size_t>(team)),
        barrier(team) {}
};

/// Grow round (rank 0, under the third barrier): doubling always fits the
/// spills, since at most kNumDirs arrivals spill per node per step and
/// cap >= kNumDirs. A node's spills all come from its owner in canonical lane
/// order, so appending rank-by-rank preserves the serial append order.
void merge_spills(RouteShared& sh) {
  RouteArena& ar = sh.ar;
  ar.grow(ar.cap() * 2);
  i32* counts = ar.counts();
  for (auto& ranks : sh.spills) {
    for (const auto& [s, rec] : ranks) {
      ar.queue_base()[s * ar.cap() + counts[s]++] = rec;
    }
    ranks.clear();
  }
}

/// One stripe worker: the kernel's per-node bodies over the stripe's snake
/// positions, with a barrier after each pass. Deposits may land in a
/// neighbouring stripe's lanes (single writer per lane); a full queue spills
/// and flags a grow round instead of resizing the shared slab.
void route_stripe_worker(RouteShared& sh, int rank) {
  detail::GreedyKernel k(sh.mesh, sh.region, sh.ar, sh.region.r0(),
                         sh.count_congestion);
  const Stripe st = sh.stripes[static_cast<size_t>(rank)];
  const i32* pos_slot = k.shape.pos_slot.data();
  RankSlot& slot = sh.slots[static_cast<size_t>(rank)];
  auto& spills = sh.spills[static_cast<size_t>(rank)];
  i64 steps = 0;
  const auto sink = [&k](i64 s, Coord at, int di, const TransitRec& rec) {
    k.deposit<false>(s, at, di, rec);
  };
  const auto spill = [&](i64 s, const TransitRec& rec) {
    spills.emplace_back(s, rec);
    sh.overflow_step.store(steps, std::memory_order_relaxed);
    return false;
  };
  i64 in_flight = sh.in_flight0;
  while (in_flight > 0) {
    ++steps;
    for (i64 pos = st.pos_begin; pos < st.pos_end; ++pos) {
      const i64 s = pos_slot[pos];
      if (k.counts[s] == 0) continue;
      i32 best[kNumDirs];
      detail::argmax_pick(k, s, best);
      detail::commit_node(k, s, k.coord_of(s), best, sink);
    }
    if (!sh.barrier.wait()) return;
    for (i64 pos = st.pos_begin; pos < st.pos_end; ++pos) {
      const i64 s = pos_slot[pos];
      u32 any;
      std::memcpy(&any, k.lane_full + s * kNumDirs, sizeof(any));
      if (any != 0) detail::absorb_node(k, s, spill);
    }
    slot.delivered = k.delivered;
    slot.max_queue = k.max_queue;
    if (!sh.barrier.wait()) return;
    if (sh.overflow_step.load(std::memory_order_relaxed) == steps) {
      if (rank == 0) merge_spills(sh);
      if (!sh.barrier.wait()) return;
      k.reload();
    }
    in_flight = sh.in_flight0;
    for (const RankSlot& other : sh.slots) in_flight -= other.delivered;
  }
  slot.steps = steps;
}

/// Stripe team route: contiguous row bands, one pool thread each.
void route_striped(Mesh& mesh, const Region& region, RouteArena& ar,
                   i64 in_flight, bool count_congestion, int team,
                   RouteStats& stats) {
  RouteShared sh(mesh, region, ar, count_congestion, team);
  sh.in_flight0 = in_flight;
  const i64 base = region.rows() / team;
  const i64 extra = region.rows() % team;
  i64 row = 0;
  for (int t = 0; t < team; ++t) {
    const i64 nrows = base + (t < extra ? 1 : 0);
    sh.stripes[static_cast<size_t>(t)] = {row * region.cols(),
                                          (row + nrows) * region.cols()};
    row += nrows;
  }
  execution_pool().for_each_index(team, [&sh](i64 rank) {
    telemetry::Span worker(telemetry::Cat::Region, kRouteStripe, rank);
    try {
      route_stripe_worker(sh, static_cast<int>(rank));
    } catch (...) {
      sh.barrier.kill();  // release the team before unwinding
      throw;
    }
    worker.set_steps(sh.slots[static_cast<size_t>(rank)].steps);
  });
  stats.steps = sh.slots[0].steps;
  for (const RankSlot& slot : sh.slots) {
    MP_ASSERT(slot.steps == stats.steps, "stripe team diverged");
    stats.max_queue = std::max(stats.max_queue, slot.max_queue);
  }
}

/// Serial route: the kernel's bitmap walks on the calling thread, one step
/// per forward/absorb pair, growing the arena in place on overflow.
void route_serial(Mesh& mesh, const Region& region, RouteArena& ar,
                  i64 in_flight, bool count_congestion, RouteStats& stats) {
  detail::GreedyKernel k(mesh, region, ar, region.r0(), count_congestion);
  const auto pick = [&k](i64 s, Coord, i32* best) {
    detail::argmax_pick(k, s, best);
  };
  const auto sink = [&k](i64 s, Coord at, int di, const TransitRec& rec) {
    k.deposit<true>(s, at, di, rec);
  };
  while (in_flight > 0) {
    ++stats.steps;
    detail::forward_walk(k, pick, sink);
    in_flight -= detail::absorb_walk(k);
  }
  stats.max_queue = k.max_queue;
}

}  // namespace

void set_route_initial_headroom(i64 slots) {
  MP_REQUIRE(slots >= 0, "route headroom " << slots);
  g_route_headroom = slots;
}

i64 route_initial_headroom() { return g_route_headroom; }

namespace detail {

i64 seed_route(Mesh& mesh, const Region& region, const Region& dest_region,
               RouteArena& ar, RouteStats& stats) {
  ar.reset(region, mesh.order().kind());
  MP_REQUIRE(mesh.rows() <= 32767 && mesh.cols() <= 32767,
             "mesh too large for 16-bit transit offsets");
  const i32* pos_slot = ar.shape().pos_slot.data();
  i64 in_flight = 0;
  i64 max_depth = 0;
  for (RegionCursor cur = mesh.cursor(region); cur.valid(); cur.advance()) {
    const Coord x = cur.coord();
    const i32 id = cur.id();
    auto& b = mesh.buf(id);
    auto keep = b.begin();
    i64 depth = 0;
    for (Packet& p : b) {
      MP_REQUIRE(p.dest >= 0 && p.dest < mesh.size(),
                 "packet without destination");
      const Coord d = mesh.coord(p.dest);
      MP_REQUIRE(dest_region.contains(d),
                 "destination " << d << " outside routing region "
                                << dest_region);
      ++stats.packets;
      stats.total_distance += manhattan(x, d);
      if (p.dest == id) {
        *keep++ = p;  // already home; stays in the buffer
      } else {
        ar.setup_rec.push_back(TransitRec{static_cast<u32>(ar.payload.size()),
                                          static_cast<i16>(d.r - x.r),
                                          static_cast<i16>(d.c - x.c)});
        ar.setup_slot.push_back(pos_slot[cur.pos()]);
        ar.payload.push_back(p);
        ++depth;
      }
    }
    b.erase(keep, b.end());
    max_depth = std::max(max_depth, depth);
    in_flight += depth;
  }
  // Initial capacity with headroom so the first arrivals don't force an
  // immediate grow; doubling takes over from there. Counts are still zero
  // from reset(), so the scatter fills the queues in discovery order.
  ar.layout(std::max<i64>(kNumDirs, max_depth + g_route_headroom));
  i32* counts = ar.counts();
  for (size_t i = 0; i < ar.setup_rec.size(); ++i) {
    const i64 s = ar.setup_slot[i];
    ar.queue_base()[s * ar.cap() + counts[s]++] = ar.setup_rec[i];
    set_bit(ar.active.data(), s);
  }
  return in_flight;
}

}  // namespace detail

RouteStats route_greedy(Mesh& mesh, const Region& region) {
  telemetry::Span span(telemetry::Cat::Phase, kRouteGreedy);
  // Per-node congestion counters are hot-loop writes; hoist the gate. Each
  // node's cells are written by exactly one stripe worker (sources count
  // forwards, receivers observe queues, and both are node-owned), so the
  // counter grids stay thread-count invariant.
  const bool count_congestion = telemetry::sampling_on();
  RouteStats stats;
  detail::ArenaLease lease(mesh);
  RouteArena& ar = lease.ar;
  const i64 in_flight = detail::seed_route(mesh, region, region, ar, stats);
  if (in_flight == 0) {
    span.set_steps(0);
    return stats;
  }

  // Fault plans that touch routing divert to the serial fault-aware kernel
  // (stall backoff, detours, drop retransmission). Module-only plans — and
  // no plan at all — keep the fast path below, so their step counts stay
  // bit-identical to the fault-free run.
  const fault::FaultPlan* plan = mesh.fault_plan();
  if (plan != nullptr && plan->affects_routing()) {
    detail::route_greedy_fault(mesh, region, ar, in_flight, stats);
  } else {
    // Stripe team: contiguous row bands, one pool thread each. Serial when
    // the caller is itself a pool worker (the region loops already use
    // every thread, and the pool is not reentrant) or the region is small.
    int team = 1;
    if (!in_parallel_worker() && execution_threads() > 1 &&
        region.size() >= stripe_min_nodes()) {
      team = static_cast<int>(
          std::min<i64>(execution_threads(), region.rows()));
    }
    if (team == 1) {
      route_serial(mesh, region, ar, in_flight, count_congestion, stats);
    } else {
      route_striped(mesh, region, ar, in_flight, count_congestion, team,
                    stats);
    }
  }
  span.set_steps(stats.steps);
  return stats;
}

}  // namespace meshpram
