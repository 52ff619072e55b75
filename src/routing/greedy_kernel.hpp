// The step-by-step greedy XY store-and-forward kernel (DESIGN.md §9),
// shared by the routers that need a machine step's whole state: the fault
// kernel (greedy_fault.cpp) and the rank-band router (dist/route.cpp).
// Fault-free route_greedy calls use the line engine instead (greedy.cpp),
// which reproduces this kernel's schedule exactly; both start from
// collect_route below.
//
// A transit record holds the remaining (dr, dc) offset to its destination
// from seeding on, so its direction and distance are two register reads and
// a hop updates it from a table. Each machine step is a forward pass (every
// node sends its farthest record per outgoing direction into the
// neighbour's incoming lane) and an absorb pass (every node drains its lanes
// in canonical order). The per-node bodies of both passes live here once;
// a router differs only in how it picks (farthest-first argmax, or the fault
// kernel's per-packet decisions) and where a hop lands (a hop sink: a local
// lane, or the band router's boundary lane). A full queue grows the arena in
// place.
//
// A step's moves depend only on per-node state, never on the order nodes are
// visited: each lane has one writer, each buffer one owner, and the counters
// are per node. So the walks visit physical slots (cache order) and still
// reproduce the snake-order sweep bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "mesh/arena.hpp"
#include "mesh/machine.hpp"
#include "mesh/region.hpp"
#include "routing/greedy.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace meshpram::detail {

/// Incoming lane of a packet that moved in direction d (indexed by Dir value
/// N,E,S,W): moved South = sent by the row above, etc. Lane numbering is
/// chosen so lanes 0..3 in order are the snake-order arrival order for an
/// east-going snake row; see kLaneOrder* below.
constexpr int kLaneOfMove[kNumDirs] = {/*North*/ 3, /*East*/ 1, /*South*/ 0,
                                       /*West*/ 2};

/// Absorb order over lanes, reproducing the arrival order of one pass over
/// the source nodes in snake order: a node's arrivals come from the row
/// above first (lane 0 = moved South), then the same-row neighbours in the
/// row's snake direction (on an east-going row the west neighbour precedes
/// the east neighbour, i.e. lane 1 = moved East before lane 2 = moved West;
/// reversed on west-going rows), then the row below (lane 3 = moved North).
/// Each source forwards at most one packet per direction, so one slot per
/// lane always suffices.
constexpr int kLaneOrderEast[kNumDirs] = {0, 1, 2, 3};
constexpr int kLaneOrderWest[kNumDirs] = {0, 2, 1, 3};

/// Change of a record's remaining (dr, dc) offset when it hops in direction
/// d (Dir values N, E, S, W): the offset shrinks toward zero.
constexpr i16 kHopDr[kNumDirs] = {1, 0, -1, 0};
constexpr i16 kHopDc[kNumDirs] = {0, -1, 0, 1};

/// XY direction of a nonzero remaining offset: east/west until the column
/// matches, then south/north.
inline Dir xy_dir(int dr, int dc) {
  return dc > 0   ? Dir::East
         : dc < 0 ? Dir::West
         : dr > 0 ? Dir::South
                  : Dir::North;
}

inline void set_bit(u64* bits, i64 s) { bits[s >> 6] |= u64{1} << (s & 63); }

/// One route call's arena lease from the mesh's pool.
struct ArenaLease {
  explicit ArenaLease(Mesh& m) : mesh(m), ar(*m.route_arenas().acquire()) {}
  ~ArenaLease() { mesh.route_arenas().release(&ar); }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  Mesh& mesh;
  RouteArena& ar;
};

/// The one route setup walk: resets `ar` over `region` and splits each of
/// the region's buffers (in snake order) into home packets, kept in place
/// and in order, and packets in transit, which move to ar.payload. Calls
/// `on_transit(pos, at, dest, handle)` for each of them in discovery order
/// (buffer order within a node), with the node's snake position and
/// coordinate, the destination coordinate and the payload handle. Every
/// destination must lie in `dest_region`. Adds packets and total_distance to
/// `stats`; returns the number of packets in transit.
template <class OnTransit>
i64 collect_route(Mesh& mesh, const Region& region, const Region& dest_region,
                  RouteArena& ar, RouteStats& stats, OnTransit&& on_transit) {
  ar.reset(region, mesh.order().kind());
  MP_REQUIRE(mesh.rows() <= 32767 && mesh.cols() <= 32767,
             "mesh too large for 16-bit transit offsets");
  i64 in_flight = 0;
  for (RegionCursor cur = mesh.cursor(region); cur.valid(); cur.advance()) {
    const Coord x = cur.coord();
    const i32 id = cur.id();
    auto& b = mesh.buf(id);
    stats.packets += static_cast<i64>(b.size());
    size_t kept = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      const Packet& p = b[j];
      if (p.dest == id) {
        // Already home (distance 0); stays in the buffer. Copy only once a
        // packet ahead of it has left (most buffers are all-home or
        // all-transit).
        if (kept != j) b[kept] = p;
        ++kept;
        continue;
      }
      MP_REQUIRE(p.dest >= 0 && p.dest < mesh.size(),
                 "packet without destination");
      const Coord d = mesh.coord(p.dest);
      MP_REQUIRE(dest_region.contains(d),
                 "destination " << d << " outside routing region "
                                << dest_region);
      stats.total_distance += manhattan(x, d);
      on_transit(cur.pos(), x, d, static_cast<u32>(ar.payload.size()));
      ar.payload.push_back(p);
      ++in_flight;
    }
    b.erase(b.begin() + static_cast<std::ptrdiff_t>(kept), b.end());
  }
  return in_flight;
}

/// collect_route plus the queue layout of the step-by-step kernel: each
/// transit record holds its (dr, dc) offset, the queue slab gets headroom
/// over the deepest node, the records are scattered in discovery order and
/// their nodes marked active. Returns the number of records in transit.
i64 seed_route(Mesh& mesh, const Region& region, const Region& dest_region,
               RouteArena& ar, RouteStats& stats);

/// One walker's view of a route call: the arena's flat slot-addressed slabs
/// (only the queue slab moves, on grow — reload() after one), the region
/// shape's tables and the per-walker accumulators.
struct GreedyKernel {
  /// `parity_row` is the row whose drain order is east-going: the routed
  /// region's first row, or row 0 for the band router, whose bands must
  /// drain like the whole mesh does.
  GreedyKernel(Mesh& mesh_, const Region& region_, RouteArena& ar_,
               int parity_row, bool count_congestion_)
      : mesh(mesh_),
        ar(ar_),
        region(region_),
        shape(ar_.shape()),
        cols(mesh_.cols()),
        row_flip((region_.r0() - parity_row) & 1),
        count_congestion(count_congestion_),
        counts(ar_.counts()),
        lane_recs(ar_.lane_recs()),
        lane_full(ar_.lane_full()),
        queues(ar_.queue_base()),
        cap(ar_.cap()),
        active(ar_.active.data()),
        arrived(ar_.arrived.data()),
        words(static_cast<i64>(ar_.active.size())) {}

  Coord coord_of(i64 s) const {
    const SlotCoord x = shape.coord[static_cast<size_t>(s)];
    return Coord{region.r0() + x.r, region.c0() + x.c};
  }
  i32 id_of(Coord at) const { return at.r * cols + at.c; }
  TransitRec* queue(i64 s) const { return queues + s * cap; }
  void reload() {
    queues = ar.queue_base();
    cap = ar.cap();
  }

  /// Hop sink into the local lane of slot s's neighbour in direction di.
  /// Both per-hop invariants are checked: the hop stays in the region, and
  /// the neighbour table agrees with the snake order. The deposit is marked
  /// in the `arrived` bitmap for the absorb walk.
  void deposit(i64 s, Coord at, int di, const TransitRec& rec) {
    const Coord to = step_toward(at, static_cast<Dir>(di));
    MP_ASSERT(region.contains(to), "XY routing left the region");
    const i32 ds = shape.nbr[static_cast<size_t>(s * kNumDirs + di)];
    MP_ASSERT(ds >= 0 && shape.slot_pos[static_cast<size_t>(ds)] ==
                             region.snake_of(to),
              "neighbour table disagrees with the snake order");
    const i64 lane = ds * kNumDirs + kLaneOfMove[di];
    lane_recs[lane] = rec;
    lane_full[lane] = 1;
    set_bit(arrived, ds);
  }

  Mesh& mesh;
  RouteArena& ar;
  const Region region;
  const RouteShape& shape;
  const int cols;
  const int row_flip;
  const bool count_congestion;
  i32* const counts;
  TransitRec* const lane_recs;
  unsigned char* const lane_full;
  TransitRec* queues;
  i64 cap;
  u64* const active;
  u64* const arrived;
  const i64 words;
  i64 delivered = 0;  ///< packets delivered by this walker so far
  i64 max_queue = 0;  ///< peak queue depth this walker observed
};

/// The forward commit: sends q[best[d]] for every direction d with a pick
/// (best[d] >= 0) — tombstone, offset update from the hop table, deposit
/// through `sink(s, at, d, rec)` — then compacts the survivors stably (queue
/// order is the next argmax's tie-break) and counts the forwards. Returns
/// the node's remaining queue depth.
template <class Sink>
inline i32 commit_node(GreedyKernel& k, i64 s, Coord at, const i32* best,
                       Sink&& sink) {
  TransitRec* q = k.queue(s);
  const i32 cnt = k.counts[s];
  i64 moves = 0;
  i32 first = cnt;
  for (int di = 0; di < kNumDirs; ++di) {
    const i32 idx = best[di];
    if (idx < 0) continue;
    TransitRec rec = q[idx];
    q[idx].handle = RouteArena::kInvalidHandle;
    first = std::min(first, idx);
    rec.dr = static_cast<i16>(rec.dr + kHopDr[di]);
    rec.dc = static_cast<i16>(rec.dc + kHopDc[di]);
    sink(s, at, di, rec);
    ++moves;
  }
  // Branch-free from the first tombstone on.
  i32 kept = first;
  for (i32 i = first + 1; i < cnt; ++i) {
    q[kept] = q[i];
    kept += q[i].handle != RouteArena::kInvalidHandle ? 1 : 0;
  }
  k.counts[s] = kept;
  if (k.count_congestion) k.mesh.counters().add_forwarded(k.id_of(at), moves);
  return kept;
}

/// The absorb: drains slot s's incoming lanes in the canonical order of its
/// row's parity (the four lane flags become a 4-bit mask, permuted on
/// west-going rows so ascending bits follow the canonical order), delivering
/// arrived records to the node's buffer and requeueing the rest; a full
/// queue grows the arena in place. Observes the queue depth for max_queue
/// and the counters. Returns the node's queue depth.
inline i32 absorb_node(GreedyKernel& k, i64 s) {
  unsigned char* flags = k.lane_full + s * kNumDirs;
  u32 full;
  std::memcpy(&full, flags, sizeof(full));
  std::memset(flags, 0, sizeof(full));
  u32 mask = ((full & 0x01010101u) * 0x01020408u) >> 24;
  const SlotCoord x = k.shape.coord[static_cast<size_t>(s)];
  const i32 id = k.id_of({k.region.r0() + x.r, k.region.c0() + x.c});
  const int* order = kLaneOrderEast;
  if (((x.r + k.row_flip) & 1) != 0) {
    order = kLaneOrderWest;
    mask = (mask & 9u) | ((mask & 2u) << 1) | ((mask & 4u) >> 1);
  }
  i32 cnt = k.counts[s];
  for (; mask != 0; mask &= mask - 1) {
    const TransitRec rec =
        k.lane_recs[s * kNumDirs + order[__builtin_ctz(mask)]];
    if (rec.dr == 0 && rec.dc == 0) {
      k.mesh.buf(id).push_back(k.ar.payload[rec.handle]);
      ++k.delivered;
      continue;
    }
    // The offset was updated at the sender; requeue verbatim.
    if (cnt >= k.cap) {
      k.counts[s] = cnt;
      k.ar.grow(k.cap * 2);
      k.reload();
    }
    k.queues[s * k.cap + cnt++] = rec;
  }
  k.counts[s] = cnt;
  k.max_queue = std::max<i64>(k.max_queue, cnt);
  if (k.count_congestion) k.mesh.counters().observe_queue(id, cnt);
  return cnt;
}

/// Serial forward walk over the `active` bitmap in slot order:
/// `pick(s, at, best)` chooses each direction's record, commit_node sends
/// them through `sink`, and a node whose queue drained leaves the bitmap.
template <class Pick, class Sink>
inline void forward_walk(GreedyKernel& k, Pick&& pick, Sink&& sink) {
  for (i64 w = 0; w < k.words; ++w) {
    for (u64 bits = k.active[w]; bits != 0; bits &= bits - 1) {
      const int b = __builtin_ctzll(bits);
      const i64 s = w * 64 + b;
      const Coord at = k.coord_of(s);
      i32 best[kNumDirs];
      pick(s, at, best);
      if (commit_node(k, s, at, best, sink) == 0) {
        k.active[w] &= ~(u64{1} << b);
      }
    }
  }
}

/// Serial absorb walk over the `arrived` bitmap (cleared on the way).
/// Returns the packets delivered this step.
inline i64 absorb_walk(GreedyKernel& k) {
  const i64 before = k.delivered;
  for (i64 w = 0; w < k.words; ++w) {
    const u64 word = k.arrived[w];
    k.arrived[w] = 0;
    for (u64 bits = word; bits != 0; bits &= bits - 1) {
      const int b = __builtin_ctzll(bits);
      if (absorb_node(k, w * 64 + b) > 0) k.active[w] |= u64{1} << b;
    }
  }
  return k.delivered - before;
}

/// Farthest-first pick of the fault-free step kernel (the band router): per
/// direction, the record with the largest remaining distance, the first one
/// on ties.
inline void argmax_pick(const GreedyKernel& k, i64 s, i32* best) {
  static_assert(offsetof(TransitRec, dr) == 4 && offsetof(TransitRec, dc) == 6,
                "simd::transit_argmax reads (dr, dc) at bytes 4 and 6");
  simd::transit_argmax(k.queue(s), k.counts[s], best);
}

}  // namespace meshpram::detail
