#include "mesh/parallel.hpp"

#include <atomic>
#include <cstdlib>

#include "telemetry/telemetry.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

namespace {

/// Worker-task span: one per region per parallel loop, recorded on the thread
/// that ran the region, so a trace shows how regions spread over the pool.
const telemetry::Label kRegionTask = telemetry::intern("parallel.region");

/// Debug-mode guard for the disjoint-region ownership rule: overlapping
/// regions would let two workers mutate the same node's buffers concurrently.
[[maybe_unused]] void check_disjoint(const Mesh& mesh,
                                     const std::vector<Region>& regions) {
  std::vector<char> owned(static_cast<size_t>(mesh.size()), 0);
  for (const Region& g : regions) {
    for (RegionCursor cur(g, mesh.cols()); cur.valid(); cur.advance()) {
      char& cell = owned[static_cast<size_t>(cur.id())];
      MP_ASSERT(cell == 0, "overlapping regions in parallel_for_regions at "
                               << cur.coord());
      cell = 1;
    }
  }
}

}  // namespace

std::vector<i64> parallel_for_regions(
    Mesh& mesh, const std::vector<Region>& regions,
    const std::function<i64(const Region&)>& fn) {
  return parallel_for_regions(
      mesh, regions,
      std::function<i64(const Region&, size_t)>(
          [&fn](const Region& g, size_t) { return fn(g); }));
}

std::vector<i64> parallel_for_regions(
    Mesh& mesh, const std::vector<Region>& regions,
    const std::function<i64(const Region&, size_t)>& fn) {
  for (const Region& g : regions) {
    MP_REQUIRE(g.r0() >= 0 && g.c0() >= 0 && g.r0() + g.rows() <= mesh.rows() &&
                   g.c0() + g.cols() <= mesh.cols(),
               "region " << g << " escapes the mesh");
  }
#ifndef NDEBUG
  check_disjoint(mesh, regions);
#endif

  std::vector<i64> costs(regions.size(), 0);
  execution_pool().for_each_index(
      static_cast<i64>(regions.size()), [&](i64 i) {
        telemetry::Span span(telemetry::Cat::Region, kRegionTask, i);
        costs[static_cast<size_t>(i)] =
            fn(regions[static_cast<size_t>(i)], static_cast<size_t>(i));
        span.set_steps(costs[static_cast<size_t>(i)]);
      });
  return costs;
}

i64 parallel_max_regions(Mesh& mesh, const std::vector<Region>& regions,
                         const std::function<i64(const Region&)>& fn) {
  ParallelCost pc;
  pc.observe_all(parallel_for_regions(mesh, regions, fn));
  return pc.max();
}

namespace {

std::atomic<i64> g_stripe_min_nodes{0};  // 0 = env/default

i64 default_stripe_min_nodes() {
  if (const auto n = env_i64("MESHPRAM_STRIPE_MIN_NODES", 1,
                             i64{1} << 40)) {
    return *n;
  }
  return 4096;
}

}  // namespace

void set_stripe_min_nodes(i64 nodes) {
  MP_REQUIRE(nodes >= 0, "stripe threshold " << nodes);
  g_stripe_min_nodes.store(nodes, std::memory_order_relaxed);
}

i64 stripe_min_nodes() {
  const i64 v = g_stripe_min_nodes.load(std::memory_order_relaxed);
  if (v > 0) return v;
  static const i64 def = default_stripe_min_nodes();
  return def;
}

void for_each_region_chunk(const Mesh& mesh, const Region& region,
                           i64 min_grain,
                           const std::function<void(RegionCursor&, i64)>& fn) {
  const i64 m = region.size();
  if (m == 0) return;
  ThreadPool& pool = execution_pool();
  if (pool.threads() == 1 || in_parallel_worker() || m < 2 * min_grain) {
    RegionCursor cur = mesh.cursor(region);
    fn(cur, m);
    return;
  }
  pool.for_each_chunk(m, min_grain, [&](i64 begin, i64 end) {
    RegionCursor cur(region, mesh.cols(), begin);
    fn(cur, end);
  });
}

}  // namespace meshpram
