// Determinism of the host-parallel execution engine: the counted mesh steps
// and the PRAM-visible results must be bit-identical at any thread count
// (DESIGN.md §7 — per-region costs merge in region order after the join).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "mesh/parallel.hpp"
#include "protocol/simulator.hpp"
#include "routing/greedy.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {
namespace {

struct StepTrace {
  std::vector<i64> reads;
  StepStats stats;
  // Congestion counter grids captured after the read step (all-zero unless
  // the run sampled with telemetry on).
  std::vector<i64> max_queue;
  std::vector<i64> forwarded;
  std::vector<i64> copies_touched;
  std::vector<i64> survivors;
};

/// Runs a fixed two-step PRAM workload (write everything, read it back) and
/// returns everything an observer can see. With `stripe_path` the intra-region
/// stripe threshold is forced to 1 so every route/sort call on the 16x16 mesh
/// takes the stripe-team path, and telemetry sampling is switched on so the
/// congestion counter grids fill.
StepTrace run_workload(int threads, bool stripe_path = false) {
  set_execution_threads(threads);
  if (stripe_path) {
    set_stripe_min_nodes(1);
    telemetry::set_enabled(true);
  }
  set_log_level(LogLevel::Error);
  SimConfig cfg;
  cfg.mesh_rows = 16;
  cfg.mesh_cols = 16;
  cfg.num_vars = 1080;
  cfg.q = 3;
  cfg.k = 2;
  cfg.sort_mode = SortMode::Simulated;
  PramMeshSimulator sim(cfg);
  const i64 n = sim.processors();

  Rng rng(2024);
  std::vector<i64> vars(static_cast<size_t>(n));
  std::vector<i64> values(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    vars[static_cast<size_t>(i)] = (i * 7 + 3) % cfg.num_vars;
    values[static_cast<size_t>(i)] = rng.range(0, 1 << 20);
  }
  sim.write_step(vars, values);

  StepTrace trace;
  trace.reads = sim.read_step(vars, &trace.stats);
  EXPECT_EQ(sim.mesh().total_packets(sim.mesh().whole()), 0)
      << "buffers must drain after a step";
  const telemetry::MeshCounters& c = sim.mesh().counters();
  trace.max_queue = c.max_queue();
  trace.forwarded = c.forwarded();
  trace.copies_touched = c.copies_touched();
  trace.survivors = c.survivors();
  if (stripe_path) {
    telemetry::set_enabled(false);
    set_stripe_min_nodes(0);  // restore the environment default
  }
  return trace;
}

void expect_same(const StepTrace& a, const StepTrace& b, int threads) {
  EXPECT_EQ(a.reads, b.reads) << "read results differ at " << threads
                              << " threads";
  EXPECT_EQ(a.stats.total_steps, b.stats.total_steps);
  EXPECT_EQ(a.stats.culling_steps, b.stats.culling_steps);
  EXPECT_EQ(a.stats.forward_steps, b.stats.forward_steps);
  EXPECT_EQ(a.stats.return_steps, b.stats.return_steps);
  EXPECT_EQ(a.stats.packets, b.stats.packets);
  EXPECT_EQ(a.stats.forward_stage_steps, b.stats.forward_stage_steps)
      << "per-stage step vector differs at " << threads << " threads";
  EXPECT_EQ(a.stats.culling.steps, b.stats.culling.steps);
  EXPECT_EQ(a.stats.culling.max_page_load, b.stats.culling.max_page_load);
  EXPECT_EQ(a.stats.culling.selected_copies, b.stats.culling.selected_copies);
}

void expect_same_counters(const StepTrace& a, const StepTrace& b,
                          int threads) {
  EXPECT_EQ(a.max_queue, b.max_queue)
      << "max_queue grid differs at " << threads << " threads";
  EXPECT_EQ(a.forwarded, b.forwarded)
      << "forwarded grid differs at " << threads << " threads";
  EXPECT_EQ(a.copies_touched, b.copies_touched)
      << "copies_touched grid differs at " << threads << " threads";
  EXPECT_EQ(a.survivors, b.survivors)
      << "survivors grid differs at " << threads << " threads";
}

TEST(ParallelEngine, StepStatsAreThreadCountInvariant) {
  const StepTrace seq = run_workload(1);
  // Reads must return what was written, independent of the engine.
  for (i64 v : seq.reads) EXPECT_GE(v, 0);

  const int hw = std::max(2u, std::thread::hardware_concurrency());
  for (const int threads : {2, hw}) {
    const StepTrace par = run_workload(threads);
    expect_same(seq, par, threads);
  }
  set_execution_threads(0);  // restore the environment default
}

// The intra-region path (DESIGN.md §9): with the stripe threshold forced to 1
// every route_greedy call runs on a line team and every meshsort round
// runs line-parallel, even on this small mesh. Reads, every StepStats field,
// and all four congestion counter grids must be bit-identical across thread
// counts AND identical to the serial whole-region path (stripes never
// engaged), which is the pre-stripe behaviour.
TEST(ParallelEngine, IntraRegionStripesAreThreadCountInvariant) {
  const StepTrace serial = run_workload(1, /*stripe_path=*/false);
  const StepTrace base = run_workload(1, /*stripe_path=*/true);
  expect_same(serial, base, 1);  // stripe decomposition changes nothing

  const int hw = std::max(2u, std::thread::hardware_concurrency());
  for (const int threads : {2, hw}) {
    const StepTrace par = run_workload(threads, /*stripe_path=*/true);
    expect_same(base, par, threads);
    expect_same_counters(base, par, threads);
  }
  set_execution_threads(0);  // restore the environment default
}

TEST(ParallelEngine, ForEachIndexCoversAllIndicesOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.for_each_index(1000, [&](i64 i) { ++hits[static_cast<size_t>(i)]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelEngine, ForEachChunkCoversAllIndicesOnce) {
  ThreadPool pool(3);
  std::vector<int> hits(257, 0);
  pool.for_each_chunk(257, 10, [&](i64 lo, i64 hi) {
    for (i64 i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelEngine, ExceptionsPropagateAndPoolStaysUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.for_each_index(10,
                          [&](i64 i) {
                            if (i == 3) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // The pool survives the throw and runs the next loop normally.
  std::vector<int> hits(20, 0);
  pool.for_each_index(20, [&](i64 i) { ++hits[static_cast<size_t>(i)]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelEngine, ParallelForRegionsMergesCostsInRegionOrder) {
  Mesh mesh(8, 8);
  const auto subs = mesh.whole().grid_split(4);
  const auto costs = parallel_for_regions(
      mesh, subs, [&](const Region& g, size_t i) {
        return g.size() * 100 + static_cast<i64>(i);
      });
  ASSERT_EQ(costs.size(), subs.size());
  for (size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(costs[i], subs[i].size() * 100 + static_cast<i64>(i));
  }
}

}  // namespace
}  // namespace meshpram
