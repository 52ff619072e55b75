// algo-cc: closed loop of oracle-checked connected-components solves
// (cc:expander, n = 400, a fresh input seed per solve) through the
// Priority-CRCW -> EREW combining adapter on a 32x32 mesh, one thread.
#include <algorithm>
#include <exception>
#include <memory>
#include <optional>

#include "algo/backends.hpp"
#include "algo/harness.hpp"
#include "bench.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace meshpram;

namespace {

constexpr int kSide = 32;
constexpr i64 kVertices = 400;
constexpr int kSetupReps = 9;  ///< sub-ms each: more reps for the median
constexpr int kMinSolves = 8;
const char* const kWorkload = "cc:expander";

SimConfig algo_config() {
  SimConfig cfg;
  cfg.mesh_rows = kSide;
  cfg.mesh_cols = kSide;
  cfg.num_vars = 16384;
  cfg.q = 3;
  cfg.k = 2;
  cfg.sort_mode = SortMode::Analytic;
  cfg.fault_plan_from_env = false;
  return cfg;
}

/// One leg's timed solves.
struct Solves {
  std::vector<double> ms;
  std::vector<i64> mesh_steps;  ///< per solve
  std::vector<algo::HarnessResult> results;
};

/// One oracle-checked solve of `wl` on the mesh backend, recorded in `out`
/// when `timed`. `pool` (optional) is installed around it; with `spans` set
/// it is traced and its spans collected afterwards. The harness REQUIREs the
/// output to match the Ideal backend and the host reference; a throw is a
/// failure.
void solve(const algo::WorkloadHarness& harness, const algo::Workload& wl,
           bool timed, Solves& out, Report& rep, ThreadPool* pool = nullptr,
           SpanTotals* spans = nullptr) {
  ++rep.attempted;
  try {
    std::optional<ScopedPool> guard;
    if (pool != nullptr) guard.emplace(*pool);
    if (timed && spans != nullptr) set_tracing(true);
    const double t0 = now_s();
    algo::HarnessResult res = harness.run(wl, algo::BackendKind::Mesh);
    const double ms = (now_s() - t0) * 1e3;
    if (timed && spans != nullptr) {
      set_tracing(false);
      collect_spans(*spans);
    }
    if (!timed) return;
    out.ms.push_back(ms);
    out.mesh_steps.push_back(res.mesh_steps);
    out.results.push_back(std::move(res));
  } catch (const std::exception& e) {
    set_tracing(false);
    rep.fail(std::string(kWorkload) + " input " + wl.name() + ": " + e.what());
  }
}

}  // namespace

void run_algo_cc(const Options& opt, Report& rep) {
  set_execution_threads(1);
  rep.stamps["threads"] = std::string("1");
  rep.stamps["ranks"] = std::string("1");
  const SimConfig cfg = algo_config();

  // Set-up: the harness, the first input with its host reference, and the
  // mesh backend the harness builds for every solve.
  std::unique_ptr<algo::WorkloadHarness> harness;
  for (int r = 0; r < kSetupReps; ++r) {
    const double t0 = now_s();
    harness = std::make_unique<algo::WorkloadHarness>(cfg);
    const auto wl =
        algo::make_workload(kWorkload, kVertices, mix_seed(opt.seed, 0));
    (void)wl->reference();
    (void)algo::make_backend(algo::BackendKind::Mesh, cfg);
    rep.setup_s.push_back(now_s() - t0);
  }

  // Input 0 warms up; inputs 1, 2, ... are timed. The traced run solves
  // each input three times in a row: untraced on one thread (the
  // end-to-end leg), traced, and untraced on four threads, then times the
  // harness on the Ideal backend for the same input.
  Solves a, b, c;
  std::vector<double> ends;  ///< completion time of each timed input
  SpanTotals spans;
  std::unique_ptr<ThreadPool> four;
  if (opt.trace) four = std::make_unique<ThreadPool>(4);
  std::vector<double> oracle_ms;
  // One solve is ~60 PRAM steps between two collects: its spans must fit
  // one ring (a single thread records them).
  if (opt.trace) meshpram::telemetry::set_ring_capacity(size_t{1} << 20);
  {
    const auto wl =
        algo::make_workload(kWorkload, kVertices, mix_seed(opt.seed, 0));
    solve(*harness, *wl, false, a, rep);
  }
  const double t_start = now_s();
  for (u64 i = 1; static_cast<i64>(a.ms.size()) < kMinSolves ||
                  now_s() - t_start < opt.seconds;
       ++i) {
    const auto wl =
        algo::make_workload(kWorkload, kVertices, mix_seed(opt.seed, i));
    solve(*harness, *wl, true, a, rep);
    if (rep.failed > 0 && a.ms.empty()) break;  // broken: stop early
    ends.push_back(now_s());
    // Peak RSS after a fixed amount of work, not the run's length.
    if (static_cast<i64>(ends.size()) == kMinSolves) {
      rep.peak_rss_mb = peak_rss_mb();
    }
    if (!opt.trace) continue;
    solve(*harness, *wl, true, b, rep, nullptr, &spans);
    solve(*harness, *wl, true, c, rep, four.get());
    const double o0 = now_s();
    try {
      harness->run(*wl, algo::BackendKind::Ideal);
    } catch (const std::exception& e) {
      rep.fail(std::string("Ideal backend: ") + e.what());
    }
    oracle_ms.push_back((now_s() - o0) * 1e3);
  }

  rep.unit_ms = a.ms;
  i64 backend_steps = 0, pram_steps = 0, groups = 0, concurrency = 0;
  for (const algo::HarnessResult& r : a.results) {
    rep.mesh_steps += r.mesh_steps;
    backend_steps += r.backend_steps;
    pram_steps += r.pram_steps;
    groups += r.combined_groups;
    concurrency = std::max(concurrency, r.stream.max_concurrency);
  }
  rep.mesh_units = backend_steps;
  rep.throughput_per_s = windowed_rate(t_start, ends);
  if (!opt.trace || a.results.empty()) return;

  rep.layers["algo.erew_per_crcw"] =
      static_cast<double>(backend_steps) / static_cast<double>(pram_steps);
  rep.layers["algo.combined_groups"] =
      static_cast<double>(groups) / static_cast<double>(a.results.size());
  rep.layers["algo.max_concurrency"] = static_cast<double>(concurrency);
  rep.layers["algo.oracle_ms"] = median(oracle_ms);
  rep.layers["mesh.thread_speedup"] = median(a.ms) / median(c.ms);
  rep.layers["telemetry.overhead"] = median(b.ms) / median(a.ms);
  i64 traced_steps = 0;
  for (const algo::HarnessResult& r : b.results) traced_steps += r.backend_steps;
  fill_span_layers(spans, static_cast<double>(traced_steps), 1, rep);
  rep.exact.push_back({"traced Stage span steps vs HarnessResult::mesh_steps",
                       spans.stage_steps, b.mesh_steps});
  rep.exact.push_back(
      {"mesh steps per solve: untraced vs traced", a.mesh_steps, b.mesh_steps});
  rep.exact.push_back({"mesh steps per solve: 1 thread vs 4 threads",
                       a.mesh_steps, c.mesh_steps});
  for (const char* name : {"protocol.copy_yield", "protocol.page_load_ratio"}) {
    rep.absent[name] =
        "the harness's mesh backend does not expose per-step CullingStats";
  }
}

}  // namespace perfbench
