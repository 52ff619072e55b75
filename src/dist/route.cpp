#include "dist/route.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "dist/wire.hpp"
#include "mesh/arena.hpp"
#include "routing/greedy.hpp"
#include "routing/xy.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace meshpram::dist {

namespace {

/// Queues at most this deep scan into stack buffers (mirrors greedy.cpp).
constexpr i32 kSmallScan = 32;

const telemetry::Label kRouteDist = telemetry::intern("route.dist");

struct SweepState {
  Mesh& mesh;
  RouteArena& ar;
  Region band_region;
  int row_begin;
  int row_end;
  bool count_congestion;
  std::vector<BoundaryHop> north_out;
  std::vector<BoundaryHop> south_out;
};

/// Forward sweep over the band: identical per-node decisions to
/// greedy.cpp's forward_sweep; the only difference is that a vertical hop
/// leaving the band becomes a BoundaryHop instead of a local lane deposit.
void forward_sweep(SweepState& st) {
  RouteArena& ar = st.ar;
  std::vector<unsigned char> dir_heap;
  std::vector<u16> rem_heap;
  unsigned char dir_buf[kSmallScan];
  u16 rem_buf[kSmallScan];
  for (RegionCursor cur(st.band_region, st.mesh.cols()); cur.valid();
       cur.advance()) {
    const i64 pos = cur.pos();
    const i32 cnt = ar.count(pos);
    if (cnt == 0) continue;
    TransitRec* q = ar.queue(pos);
    const Coord at = cur.coord();
    unsigned char* dirs = dir_buf;
    u16* rems = rem_buf;
    if (cnt > kSmallScan) {
      if (dir_heap.size() < static_cast<size_t>(cnt)) {
        dir_heap.resize(static_cast<size_t>(cnt));
        rem_heap.resize(static_cast<size_t>(cnt));
      }
      dirs = dir_heap.data();
      rems = rem_heap.data();
    }
    simd::transit_scan(q, cnt, static_cast<i16>(at.r), static_cast<i16>(at.c),
                       dirs, rems);
    std::array<i32, kNumDirs> best;
    best.fill(-1);
    std::array<i64, kNumDirs> best_dist{};
    for (i32 i = 0; i < cnt; ++i) {
      const i64 rem = rems[i];
      MP_ASSERT(rem > 0, "arrived packet still in transit");
      const auto di = static_cast<size_t>(dirs[i]);
      if (best[di] < 0 || rem > best_dist[di]) {
        best[di] = i;
        best_dist[di] = rem;
      }
    }
    i64 moves = 0;
    for (int di = 0; di < kNumDirs; ++di) {
      const i32 idx = best[static_cast<size_t>(di)];
      if (idx < 0) continue;
      const TransitRec rec = q[idx];
      q[idx].handle = RouteArena::kInvalidHandle;
      const Coord to = step_toward(at, static_cast<Dir>(di));
      if (to.r < st.row_begin) {
        st.north_out.push_back(
            {to.c, rec.dest_r, rec.dest_c, ar.payload[rec.handle]});
      } else if (to.r >= st.row_end) {
        st.south_out.push_back(
            {to.c, rec.dest_r, rec.dest_c, ar.payload[rec.handle]});
      } else {
        const i64 dpos = st.band_region.snake_of(to);
        ar.lane_rec(dpos, kLaneOfMove[di]) = rec;
        ar.lane_flags(dpos)[kLaneOfMove[di]] = 1;
      }
      ++moves;
    }
    if (moves > 0) {
      i32 w = 0;
      for (i32 i = 0; i < cnt; ++i) {
        if (q[i].handle != RouteArena::kInvalidHandle) q[w++] = q[i];
      }
      ar.count(pos) = w;
      if (st.count_congestion) {
        st.mesh.counters().add_forwarded(cur.id(), moves);
      }
    }
  }
}

/// Absorb sweep: canonical lane drain per node. The drain order follows the
/// *global* row parity — the oracle routes the whole mesh (region r0 = 0),
/// so its (at.r - r0) parity is absolute; a band starting on an odd row must
/// not flip it.
i64 absorb_sweep(SweepState& st) {
  RouteArena& ar = st.ar;
  i64 delivered = 0;
  for (RegionCursor cur(st.band_region, st.mesh.cols()); cur.valid();
       cur.advance()) {
    const i64 pos = cur.pos();
    unsigned char* flags = ar.lane_flags(pos);
    u32 any;
    std::memcpy(&any, flags, sizeof(any));
    if (any == 0) continue;
    const Coord at = cur.coord();
    const bool east_row = (at.r & 1) == 0;
    const int* order = east_row ? kLaneOrderEast : kLaneOrderWest;
    const i32 id = cur.id();
    for (int oi = 0; oi < kNumDirs; ++oi) {
      const int lane = order[oi];
      if (!flags[lane]) continue;
      flags[lane] = 0;
      const TransitRec rec = ar.lane_rec(pos, lane);
      if (rec.dest_r == at.r && rec.dest_c == at.c) {
        st.mesh.buf(id).push_back(ar.payload[rec.handle]);
        ++delivered;
      } else {
        if (ar.count(pos) >= ar.cap()) ar.grow(ar.cap() * 2);
        ar.queue(pos)[ar.count(pos)++] = rec;
      }
    }
    if (st.count_congestion) {
      st.mesh.counters().observe_queue(id, ar.count(pos));
    }
  }
  return delivered;
}

/// Deposits an imported boundary frame into the incoming lanes of the
/// receiving edge row. `lane` is disjoint from every locally writable lane
/// at that row (a local deposit into it would have required a sender outside
/// the band), so imports and local forwards never collide even in a
/// one-row band.
void import_boundary(SweepState& st, const std::vector<BoundaryHop>& hops,
                     int boundary_row, int lane) {
  RouteArena& ar = st.ar;
  for (const BoundaryHop& h : hops) {
    const i64 pos = st.band_region.snake_of({boundary_row, h.col});
    const auto handle = static_cast<u32>(ar.payload.size());
    ar.payload.push_back(h.payload);
    ar.lane_rec(pos, lane) = TransitRec{handle, h.dest_r, h.dest_c};
    ar.lane_flags(pos)[lane] = 1;
  }
}

}  // namespace

DistRouteStats dist_route_whole(Mesh& mesh, const RankPartition& part,
                                int rank, Collectives& coll, bool validate) {
  telemetry::Span span(telemetry::Cat::Phase, kRouteDist, rank);
  const bool count_congestion = telemetry::sampling_on();
  DistRouteStats stats;

  const RankBand& band = part.band(rank);
  const Region band_region(band.row_begin, 0, band.rows(), mesh.cols());

  RouteArena* const arena = mesh.route_arenas().acquire();
  struct Lease {
    Mesh& mesh;
    RouteArena* arena;
    ~Lease() { mesh.route_arenas().release(arena); }
  } lease{mesh, arena};
  RouteArena& ar = *arena;
  // Row-major arena layout: the band is walked once per sweep anyway, and
  // position==slot keeps the lane addressing trivial for imports.
  ar.reset(band_region, NodeOrderKind::RowMajor);

  MP_REQUIRE(mesh.rows() <= 32767 && mesh.cols() <= 32767,
             "mesh too large for 16-bit transit coordinates");
  i64 local_in_flight = 0;
  i64 max_depth = 0;
  for (RegionCursor cur(band_region, mesh.cols()); cur.valid();
       cur.advance()) {
    const i32 id = cur.id();
    auto& b = mesh.buf(id);
    auto keep = b.begin();
    i64 depth = 0;
    for (Packet& p : b) {
      MP_REQUIRE(p.dest >= 0 && p.dest < mesh.size(),
                 "packet without destination");
      const Coord d = mesh.coord(p.dest);
      if (p.dest == id) {
        *keep++ = p;
      } else {
        ar.setup_rec.push_back(TransitRec{static_cast<u32>(ar.payload.size()),
                                          static_cast<i16>(d.r),
                                          static_cast<i16>(d.c)});
        ar.setup_pos.push_back(cur.pos());
        ar.payload.push_back(p);
        ++depth;
      }
    }
    b.erase(keep, b.end());
    max_depth = std::max(max_depth, depth);
    local_in_flight += depth;
  }

  i64 in_flight = coll.allreduce_sum(local_in_flight);
  if (in_flight == 0) {
    span.set_steps(0);
    return stats;
  }

  // Even a rank with no local packets must lay out its lanes and join every
  // sweep: imports may land on it from the first step on.
  ar.layout(std::max<i64>(kNumDirs, max_depth + route_initial_headroom()));
  for (size_t i = 0; i < ar.setup_rec.size(); ++i) {
    const i64 pos = ar.setup_pos[i];
    ar.queue(pos)[ar.count(pos)++] = ar.setup_rec[i];
  }

  SweepState st{mesh,          ar,
                band_region,   band.row_begin,
                band.row_end,  count_congestion,
                {},            {}};
  const bool has_north = rank > 0;
  const bool has_south = rank + 1 < part.ranks();
  Transport& tp = coll.transport();

  while (in_flight > 0) {
    ++stats.steps;
    st.north_out.clear();
    st.south_out.clear();
    forward_sweep(st);
    // Unconditional exchange every sweep (possibly empty frames): sends and
    // receives stay matched without any out-of-band agreement, and sends are
    // non-blocking, so send-both-then-receive-both cannot deadlock.
    if (has_north) {
      std::string frame = encode_boundary(st.north_out, validate);
      stats.boundary_hops += static_cast<i64>(st.north_out.size());
      stats.boundary_bytes += static_cast<i64>(frame.size());
      tp.send(rank - 1, std::move(frame));
    }
    if (has_south) {
      std::string frame = encode_boundary(st.south_out, validate);
      stats.boundary_hops += static_cast<i64>(st.south_out.size());
      stats.boundary_bytes += static_cast<i64>(frame.size());
      tp.send(rank + 1, std::move(frame));
    }
    if (has_north) {
      import_boundary(st, decode_boundary(tp.recv(rank - 1)), band.row_begin,
                      kLaneOfMove[static_cast<int>(Dir::South)]);
    }
    if (has_south) {
      import_boundary(st, decode_boundary(tp.recv(rank + 1)), band.row_end - 1,
                      kLaneOfMove[static_cast<int>(Dir::North)]);
    }
    const i64 delivered = coll.allreduce_sum(absorb_sweep(st));
    in_flight -= delivered;
    if (validate) {
      coll.check_uniform(static_cast<u64>(in_flight) * 0x9e3779b97f4a7c15ULL ^
                             static_cast<u64>(stats.steps),
                         "route sweep");
    }
  }

  span.set_steps(stats.steps);
  return stats;
}

}  // namespace meshpram::dist
