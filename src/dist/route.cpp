#include "dist/route.hpp"

#include <string>
#include <utility>
#include <vector>

#include "dist/wire.hpp"
#include "routing/greedy_kernel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace meshpram::dist {

namespace {

const telemetry::Label kRouteDist = telemetry::intern("route.dist");

/// Deposits an imported boundary frame into the incoming lanes of the
/// receiving edge row, restoring each record's (dr, dc) offset from the
/// absolute destination on the wire. `lane` is disjoint from every locally
/// writable lane at that row (a local deposit into it would have required a
/// sender outside the band), so imports and local forwards never collide
/// even in a one-row band.
void import_boundary(detail::GreedyKernel& k,
                     const std::vector<BoundaryHop>& hops, int boundary_row,
                     int lane) {
  for (const BoundaryHop& h : hops) {
    const i64 s = k.shape.pos_slot[static_cast<size_t>(
        k.region.snake_of({boundary_row, h.col}))];
    const auto handle = static_cast<u32>(k.ar.payload.size());
    k.ar.payload.push_back(h.payload);
    k.lane_recs[s * kNumDirs + lane] =
        TransitRec{handle, static_cast<i16>(h.dest_r - boundary_row),
                   static_cast<i16>(h.dest_c - h.col)};
    k.lane_full[s * kNumDirs + lane] = 1;
    detail::set_bit(k.arrived, s);
  }
}

}  // namespace

DistRouteStats dist_route_whole(Mesh& mesh, const RankPartition& part,
                                int rank, Collectives& coll, bool validate) {
  telemetry::Span span(telemetry::Cat::Phase, kRouteDist, rank);
  DistRouteStats stats;

  const RankBand& band = part.band(rank);
  const Region band_region(band.row_begin, 0, band.rows(), mesh.cols());
  detail::ArenaLease lease(mesh);
  RouteStats seeded;
  const i64 local_in_flight = detail::seed_route(mesh, band_region,
                                                 mesh.whole(), lease.ar,
                                                 seeded);
  i64 in_flight = coll.allreduce_sum(local_in_flight);
  if (in_flight == 0) {
    span.set_steps(0);
    return stats;
  }

  // Even a rank with no local packets joins every sweep: imports may land
  // on it from the first step on. Lanes drain in the *global* row parity —
  // the single-process router routes the whole mesh (r0 = 0), so a band
  // starting on an odd row must not flip it.
  detail::GreedyKernel k(mesh, band_region, lease.ar, /*parity_row=*/0,
                         telemetry::sampling_on());
  std::vector<BoundaryHop> north_out;
  std::vector<BoundaryHop> south_out;
  const auto pick = [&k](i64 s, Coord, i32* best) {
    detail::argmax_pick(k, s, best);
  };
  // Band sink: a vertical hop that leaves the band becomes a BoundaryHop
  // with its absolute destination; every other hop is a local deposit.
  const auto sink = [&](i64 s, Coord at, int di, const TransitRec& rec) {
    if (k.shape.nbr[static_cast<size_t>(s * kNumDirs + di)] >= 0) {
      k.deposit(s, at, di, rec);
      return;
    }
    const Coord to = step_toward(at, static_cast<Dir>(di));
    MP_ASSERT(to.r == band.row_begin - 1 || to.r == band.row_end,
              "XY routing left the mesh");
    (to.r < band.row_begin ? north_out : south_out)
        .push_back({to.c, static_cast<i16>(to.r + rec.dr),
                    static_cast<i16>(to.c + rec.dc),
                    k.ar.payload[rec.handle]});
  };
  const bool has_north = rank > 0;
  const bool has_south = rank + 1 < part.ranks();
  Transport& tp = coll.transport();

  while (in_flight > 0) {
    ++stats.steps;
    north_out.clear();
    south_out.clear();
    detail::forward_walk(k, pick, sink);
    // Unconditional exchange every sweep (possibly empty frames): sends and
    // receives stay matched without any out-of-band agreement, and sends are
    // non-blocking, so send-both-then-receive-both cannot deadlock.
    if (has_north) {
      std::string frame = encode_boundary(north_out, validate);
      stats.boundary_hops += static_cast<i64>(north_out.size());
      stats.boundary_bytes += static_cast<i64>(frame.size());
      tp.send(rank - 1, std::move(frame));
    }
    if (has_south) {
      std::string frame = encode_boundary(south_out, validate);
      stats.boundary_hops += static_cast<i64>(south_out.size());
      stats.boundary_bytes += static_cast<i64>(frame.size());
      tp.send(rank + 1, std::move(frame));
    }
    if (has_north) {
      import_boundary(k, decode_boundary(tp.recv(rank - 1)), band.row_begin,
                      detail::kLaneOfMove[static_cast<int>(Dir::South)]);
    }
    if (has_south) {
      import_boundary(k, decode_boundary(tp.recv(rank + 1)), band.row_end - 1,
                      detail::kLaneOfMove[static_cast<int>(Dir::North)]);
    }
    in_flight -= coll.allreduce_sum(detail::absorb_walk(k));
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
