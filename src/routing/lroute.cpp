#include "routing/lroute.hpp"

#include <algorithm>

#include "mesh/parallel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace meshpram {

namespace {

const telemetry::Label kRouteSorted = telemetry::intern("route.sorted");
const telemetry::Label kRouteTwoStage = telemetry::intern("route.two_stage");

/// Chunk size for the per-node keying sweeps (same grain as the protocol's
/// node loops). Each node only rewrites its own packets, so the chunking
/// never shows in the results.
constexpr i64 kNodeGrain = 64;

}  // namespace

StagedRouteStats route_direct(Mesh& mesh, const Region& region) {
  StagedRouteStats out;
  const RouteStats rs = route_greedy(mesh, region);
  out.route_steps = rs.steps;
  out.max_queue = rs.max_queue;
  out.steps = rs.steps;
  return out;
}

StagedRouteStats route_sorted(Mesh& mesh, const Region& region,
                              const SortOptions& opts) {
  telemetry::Span span(telemetry::Cat::Phase, kRouteSorted);
  StagedRouteStats out;
  for_each_region_chunk(
      mesh, region, kNodeGrain, [&](RegionCursor& cur, i64 end) {
        for (; cur.pos() < end; cur.advance()) {
          for (Packet& p : mesh.buf(cur.id())) {
            MP_REQUIRE(p.dest >= 0, "packet without destination");
            p.key = static_cast<u64>(region.snake_of(mesh.coord(p.dest)));
          }
        }
      });
  out.sort_steps = sort_region(mesh, region, opts);
  const RouteStats rs = route_greedy(mesh, region);
  out.route_steps = rs.steps;
  out.max_queue = rs.max_queue;
  out.steps = out.sort_steps + out.route_steps;
  span.set_steps(out.steps);
  return out;
}

StagedRouteStats route_two_stage(Mesh& mesh, const Region& region,
                                 const std::vector<Region>& subs,
                                 const SortOptions& opts) {
  MP_REQUIRE(!subs.empty(), "tessellated routing needs subregions");
  telemetry::Span span(telemetry::Cat::Phase, kRouteTwoStage);
  StagedRouteStats out;

  // Map node -> subregion index for destination lookup.
  std::vector<i32> sub_of(static_cast<size_t>(mesh.size()), -1);
  for (size_t i = 0; i < subs.size(); ++i) {
    for (RegionCursor cur = mesh.cursor(subs[i]); cur.valid(); cur.advance()) {
      i32& cell = sub_of[static_cast<size_t>(cur.id())];
      MP_ASSERT(cell == -1, "overlapping subregions in tessellated routing");
      cell = static_cast<i32>(i);
    }
  }

  // Key by destination subregion; remember the true destination.
  for_each_region_chunk(
      mesh, region, kNodeGrain, [&](RegionCursor& cur, i64 end) {
        for (; cur.pos() < end; cur.advance()) {
          for (Packet& p : mesh.buf(cur.id())) {
            MP_REQUIRE(p.dest >= 0, "packet without destination");
            const i32 sub = sub_of[static_cast<size_t>(p.dest)];
            MP_REQUIRE(sub >= 0, "destination "
                                     << p.dest
                                     << " not covered by a subregion");
            p.key = static_cast<u64>(sub);
            p.stash = p.dest;
          }
        }
      });

  // Sort by destination subregion and rank within it.
  const SortRankSteps sorted = sort_and_rank(mesh, region, opts);
  out.sort_steps = sorted.sort;
  out.rank_steps = sorted.rank;

  // Stage A: rank i goes to node (i mod m) of the destination subregion —
  // the even spread that makes the second stage a (δ, l2)-problem.
  for_each_region_chunk(
      mesh, region, kNodeGrain, [&](RegionCursor& cur, i64 end) {
        for (; cur.pos() < end; cur.advance()) {
          for (Packet& p : mesh.buf(cur.id())) {
            const Region& sub = subs[static_cast<size_t>(p.key)];
            p.dest = mesh.node_at(sub, static_cast<i64>(p.rank) % sub.size());
          }
        }
      });
  const RouteStats stage_a = route_greedy(mesh, region);
  out.max_queue = stage_a.max_queue;

  // Stage B: all subregions finish "in parallel" — on the host too. Each
  // worker owns one disjoint subregion; per-region costs are merged after
  // the join in subregion order, so the charged max (and max_queue) are
  // independent of the thread count.
  for_each_region_chunk(
      mesh, region, kNodeGrain, [&](RegionCursor& cur, i64 end) {
        for (; cur.pos() < end; cur.advance()) {
          for (Packet& p : mesh.buf(cur.id())) {
            p.dest = p.stash;
            p.stash = -1;
          }
        }
      });
  ParallelCost stage_b;
  {
    std::vector<i64> queues(subs.size(), 0);
    stage_b.observe_all(parallel_for_regions(
        mesh, subs, [&](const Region& sub, size_t i) {
          const RouteStats rs = route_greedy(mesh, sub);
          queues[i] = rs.max_queue;
          return rs.steps;
        }));
    for (const i64 q : queues) out.max_queue = std::max(out.max_queue, q);
  }

  out.route_steps = stage_a.steps + stage_b.max();
  out.steps = out.sort_steps + out.rank_steps + out.route_steps;
  span.set_steps(out.steps);
  return out;
}

}  // namespace meshpram
