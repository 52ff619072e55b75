// pram-step and dist-ranks: the same seeded stream of full PRAM steps at the
// ROADMAP reference point (side 64, k = 3, q = 3, M = n^1.5), on
// PramMeshSimulator and on a 4-rank DistMachine.
#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "dist/machine.hpp"
#include "hmos/memory_map.hpp"
#include "hmos/params.hpp"
#include "hmos/placement.hpp"
#include "mesh/machine.hpp"
#include "protocol/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace meshpram;

namespace {

constexpr int kSide = 64;
/// pram-step's end-to-end leg runs on one thread: at four, the step time
/// followed the hypervisor's steal (7% spread between quartiles on a quiet
/// host, 19-38% on a busy one). The traced run times four threads too.
constexpr int kThreads = 1;
constexpr int kParallelThreads = 4;
constexpr int kRanks = 4;
constexpr int kSetupReps = 5;
constexpr int kWarmup = 2;       ///< untimed steps before the timed window
constexpr int kRefSteps = 3;     ///< dist steps checked against the simulator
constexpr int kMinTimed = 12;    ///< timed steps even when --seconds is short

SimConfig step_config() {
  SimConfig cfg;
  cfg.mesh_rows = kSide;
  cfg.mesh_cols = kSide;
  const i64 n = i64{kSide} * kSide;
  cfg.num_vars = n * 64;  // n^1.5 at n = 4096
  cfg.q = 3;
  cfg.k = 3;
  cfg.sort_mode = SortMode::Analytic;
  cfg.fault_plan_from_env = false;  // every workload runs fault-free
  return cfg;
}

/// q^k copies per variable.
i64 redundancy(const SimConfig& cfg) {
  i64 r = 1;
  for (int i = 0; i < cfg.k; ++i) r *= cfg.q;
  return r;
}

/// The seeded step stream plus the host shadow memory that is its oracle:
/// every processor accesses a distinct variable, even processors read and
/// odd ones write.
class StepStream {
 public:
  StepStream(u64 seed, i64 n, i64 num_vars)
      : rng_(mix_seed(seed, 0x5fe9)), n_(n), shadow_(num_vars, 0) {}

  const std::vector<AccessRequest>& next() {
    std::vector<i64> vars = rng_.sample(static_cast<i64>(shadow_.size()), n_);
    rng_.shuffle(vars);
    reqs_.assign(static_cast<size_t>(n_), {});
    expect_.assign(static_cast<size_t>(n_), 0);
    for (i64 i = 0; i < n_; ++i) {
      AccessRequest& r = reqs_[static_cast<size_t>(i)];
      r.var = vars[static_cast<size_t>(i)];
      if (i % 2 == 0) {
        r.op = Op::Read;
        expect_[static_cast<size_t>(i)] = shadow_[static_cast<size_t>(r.var)];
      } else {
        r.op = Op::Write;
        r.value = static_cast<i64>(rng_() >> 2);
      }
    }
    for (const AccessRequest& r : reqs_) {
      if (r.op == Op::Write) shadow_[static_cast<size_t>(r.var)] = r.value;
    }
    ++index_;
    return reqs_;
  }

  /// Checks the read results of the step last returned by next().
  bool check(const std::vector<i64>& values, Report& rep) const {
    for (i64 i = 0; i < n_; i += 2) {
      if (values[static_cast<size_t>(i)] != expect_[static_cast<size_t>(i)]) {
        std::ostringstream os;
        os << rep.workload << " step " << index_ - 1 << ": processor " << i
           << " read " << values[static_cast<size_t>(i)] << ", shadow holds "
           << expect_[static_cast<size_t>(i)];
        rep.fail(os.str());
        return false;
      }
    }
    return true;
  }

 private:
  Rng rng_;
  i64 n_;
  std::vector<i64> shadow_;
  std::vector<AccessRequest> reqs_;
  std::vector<i64> expect_;
  i64 index_ = 0;
};

/// Per-step record of one leg.
struct Leg {
  std::vector<double> ms;          ///< timed steps only
  std::vector<double> ends;        ///< completion time of each timed step
  std::vector<i64> total_steps;    ///< every step, warm-up included
  std::vector<i64> digest;         ///< FNV-1a of each step's read values
  std::vector<StepStats> stats;    ///< timed steps only
};

i64 digest_of(const std::vector<i64>& values) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const i64 v : values) {
    h = (h ^ static_cast<u64>(v)) * 0x100000001b3ULL;
  }
  return static_cast<i64>(h >> 1);
}

/// Steps one engine through the seeded stream, checking every read against
/// the shadow memory. `pool` (optional) is installed around each step;
/// with `spans` set, each timed step is traced and its spans collected
/// right after it, outside the timing.
template <class Engine>
class Runner {
 public:
  Runner(Engine& engine, u64 seed, Report& rep, ThreadPool* pool = nullptr,
         SpanTotals* spans = nullptr)
      : engine_(engine),
        stream_(seed, engine.processors(), engine.num_vars()),
        rep_(rep),
        pool_(pool),
        spans_(spans) {}

  void step(bool timed) {
    const auto& reqs = stream_.next();
    StepStats st;
    std::optional<ScopedPool> guard;
    if (pool_ != nullptr) guard.emplace(*pool_);
    if (timed && spans_ != nullptr) set_tracing(true);
    const double t0 = now_s();
    const std::vector<i64> values = engine_.step(reqs, &st);
    const double ms = (now_s() - t0) * 1e3;
    if (timed && spans_ != nullptr) {
      set_tracing(false);
      collect_spans(*spans_);
    }
    ++rep_.attempted;
    stream_.check(values, rep_);
    leg.total_steps.push_back(st.total_steps);
    leg.digest.push_back(digest_of(values));
    if (timed) {
      leg.ms.push_back(ms);
      leg.ends.push_back(now_s());
      leg.stats.push_back(std::move(st));
      if (rss_probe && leg.ms.size() == kMinTimed) {
        rep_.peak_rss_mb = peak_rss_mb();
      }
    }
  }

  i64 timed() const { return static_cast<i64>(leg.ms.size()); }

  Leg leg;
  /// Record the process's peak RSS once kMinTimed steps are timed, so the
  /// figure reflects a fixed amount of work rather than the run's length.
  bool rss_probe = false;

 private:
  Engine& engine_;
  StepStream stream_;
  Report& rep_;
  ThreadPool* pool_;
  SpanTotals* spans_;
};

/// Warm-up steps on every runner, then rounds of one timed step per runner
/// (interleaved, so host noise falls on all legs alike) until `seconds`
/// have passed, with at least `min_rounds` and at most `max_rounds`.
/// Returns when the timed rounds started.
template <class Engine>
double run_rounds(std::vector<Runner<Engine>*> runners, double seconds,
                  i64 min_rounds, i64 max_rounds,
                  const std::function<void(bool)>& also = nullptr) {
  auto round = [&](bool timed) {
    for (Runner<Engine>* r : runners) r->step(timed);
    if (also) also(timed);
  };
  for (int w = 0; w < kWarmup; ++w) round(false);
  const double t_start = now_s();
  for (i64 n = 0;
       n < max_rounds && (n < min_rounds || now_s() - t_start < seconds);
       ++n) {
    round(true);
  }
  return t_start;
}

/// The first `n` entries of `v`.
std::vector<i64> head(const std::vector<i64>& v, size_t n) {
  return {v.begin(), v.begin() + static_cast<long>(std::min(n, v.size()))};
}

void fill_end_to_end(const Leg& leg, double start, Report& rep) {
  rep.unit_ms = leg.ms;
  rep.throughput_per_s = windowed_rate(start, leg.ends);
  for (const StepStats& st : leg.stats) rep.mesh_steps += st.total_steps;
  rep.mesh_units = static_cast<i64>(leg.stats.size());
}

/// protocol.copy_yield / page_load_ratio from the timed steps' stats.
void fill_culling_layers(const Leg& leg, i64 n, i64 redundancy, Report& rep) {
  double selected = 0, ratio = 0;
  for (const StepStats& st : leg.stats) {
    selected += static_cast<double>(st.culling.selected_copies);
    for (size_t i = 0; i < st.culling.max_page_load.size(); ++i) {
      ratio = std::max(ratio, static_cast<double>(st.culling.max_page_load[i]) /
                                  static_cast<double>(st.culling.bound[i]));
    }
  }
  const double steps = static_cast<double>(leg.stats.size());
  rep.layers["protocol.copy_yield"] =
      selected / (steps * static_cast<double>(n * redundancy));
  rep.layers["protocol.page_load_ratio"] = ratio;
}

/// The exact check that the Stage spans of every traced step add up to its
/// StepStats::total_steps.
void add_stage_check(const Leg& traced, const SpanTotals& spans,
                     Report& rep) {
  ExactCheck sum{"traced Stage span steps vs StepStats::total_steps",
                 spans.stage_steps, {}};
  for (const StepStats& st : traced.stats) sum.b.push_back(st.total_steps);
  rep.exact.push_back(std::move(sum));
}

dist::DistConfig dist_config() {
  dist::DistConfig dcfg;
  dcfg.sim = step_config();
  dcfg.ranks = kRanks;
  dcfg.validate = 0;
  return dcfg;
}

/// A DistMachine's cumulative counters, to take per-step deltas.
struct DistTotals {
  dist::WaitStats wait;
  dist::TransportStats transport;
  i64 hops = 0;
  i64 bytes = 0;

  explicit DistTotals(const dist::DistMachine& m)
      : wait(m.wait_totals()),
        transport(m.transport_totals()),
        hops(m.boundary_hops()),
        bytes(m.boundary_bytes()) {}
};

/// The dist.* layer metrics of `leg`, run on `machine` since `before`;
/// `spans` holds the leg's traced rank threads.
void fill_dist_layers(const dist::DistMachine& machine,
                      const DistTotals& before, const Leg& leg,
                      const SpanTotals& spans, Report& rep) {
  const DistTotals after(machine);
  const double steps = static_cast<double>(leg.total_steps.size());
  rep.layers["dist.barrier_wait_ms"] =
      (after.wait.wait_ms - before.wait.wait_ms) / steps;
  rep.layers["dist.collective_calls"] =
      static_cast<double>(after.wait.calls - before.wait.calls) / steps;
  rep.layers["dist.boundary_bytes"] =
      static_cast<double>(after.bytes - before.bytes) / steps;
  rep.layers["dist.boundary_hops"] =
      static_cast<double>(after.hops - before.hops) / steps;
  rep.layers["dist.messages"] =
      static_cast<double>(after.transport.messages_sent -
                          before.transport.messages_sent) /
      steps;
  std::vector<double> culling(kRanks, 0), busy(kRanks, 0);
  for (const SpanTotals::ThreadTotals& th : spans.threads) {
    if (th.rank < 0 || th.rank >= kRanks) continue;
    culling[static_cast<size_t>(th.rank)] += th.culling_ms;
    busy[static_cast<size_t>(th.rank)] += th.busy_ms;
  }
  const double cull_sum = std::accumulate(culling.begin(), culling.end(), 0.0);
  const double cull_max = *std::max_element(culling.begin(), culling.end());
  const double busy_mean =
      std::accumulate(busy.begin(), busy.end(), 0.0) / kRanks;
  rep.layers["dist.culling_replication"] =
      cull_max > 0 ? cull_sum / cull_max : 0;
  rep.layers["dist.rank_imbalance"] =
      busy_mean > 0 ? *std::max_element(busy.begin(), busy.end()) / busy_mean
                    : 0;
}

/// Rank threads are new every step and each registers a telemetry ring, so
/// traced dist legs use small rings and few rounds.
constexpr size_t kDistRingEvents = size_t{1} << 15;
constexpr i64 kDistTracedRounds = 16;

}  // namespace

void run_pram_step(const Options& opt, Report& rep) {
  set_execution_threads(kThreads);
  const SimConfig cfg = step_config();
  rep.stamps["threads"] = std::to_string(kThreads);
  rep.stamps["ranks"] = std::string("1");

  std::unique_ptr<PramMeshSimulator> sim;
  std::vector<double> hmos_ms;
  for (int r = 0; r < kSetupReps; ++r) {
    sim.reset();
    const double t0 = now_s();
    sim = std::make_unique<PramMeshSimulator>(cfg);
    rep.setup_s.push_back(now_s() - t0);
    // hmos.build_ms: the HMOS structures alone, on a prebuilt mesh.
    const Mesh mesh(cfg.mesh_rows, cfg.mesh_cols);
    const double h0 = now_s();
    const HmosParams params(cfg.q, cfg.k, cfg.num_vars, cfg.mesh_rows,
                            cfg.mesh_cols);
    const MemoryMap map(params);
    const Placement placement(map, mesh.whole());
    hmos_ms.push_back((now_s() - h0) * 1e3);
  }
  rep.layers["hmos.build_ms"] = median(hmos_ms);

  Runner<PramMeshSimulator> a(*sim, opt.seed, rep);
  a.rss_probe = true;
  if (!opt.trace) {
    fill_end_to_end(a.leg, run_rounds<PramMeshSimulator>({&a}, opt.seconds,
                                                         kMinTimed, 1 << 30),
                    rep);
    return;
  }

  // Traced run: the untraced 1-thread simulator, a traced 1-thread one, an
  // untraced 4-thread one and a traced 4-rank DistMachine replay the same
  // stream, a step of each per round. The 4-thread leg exercises stripe
  // teams and the region pool; the DistMachine leg measures the dist layer
  // and checks the bit-identity contract on every step.
  meshpram::telemetry::set_ring_capacity(kDistRingEvents);
  PramMeshSimulator sim_traced(cfg);
  PramMeshSimulator sim_parallel(cfg);
  ThreadPool parallel(kParallelThreads);
  dist::DistMachine machine(dist_config());
  const DistTotals dist_before(machine);
  SpanTotals spans, dist_spans;
  Runner<PramMeshSimulator> b(sim_traced, opt.seed, rep, nullptr, &spans);
  Runner<PramMeshSimulator> c(sim_parallel, opt.seed, rep, &parallel);
  Runner<dist::DistMachine> d(machine, opt.seed, rep, nullptr, &dist_spans);
  fill_end_to_end(a.leg,
                  run_rounds<PramMeshSimulator>({&a, &b, &c}, opt.seconds,
                                                kMinTimed / 2,
                                                kDistTracedRounds,
                                                [&](bool timed) { d.step(timed); }),
                  rep);
  fill_culling_layers(a.leg, sim->processors(), redundancy(cfg), rep);
  fill_span_layers(spans, static_cast<double>(b.timed()), 1, rep);
  add_stage_check(b.leg, spans, rep);
  fill_dist_layers(machine, dist_before, d.leg, dist_spans, rep);
  rep.layers["mesh.thread_speedup"] = median(a.leg.ms) / median(c.leg.ms);
  rep.layers["telemetry.overhead"] = median(b.leg.ms) / median(a.leg.ms);
  rep.exact.push_back({"mesh steps per step: untraced vs traced",
                       a.leg.total_steps, b.leg.total_steps});
  rep.exact.push_back({"mesh steps per step: 1 thread vs 4 threads",
                       a.leg.total_steps, c.leg.total_steps});
  rep.exact.push_back({"read digests: 1 thread vs 4 threads", a.leg.digest,
                       c.leg.digest});
  rep.exact.push_back({"mesh steps per step: 4 ranks vs 1 thread",
                       a.leg.total_steps, d.leg.total_steps});
  rep.exact.push_back({"read digests: 4 ranks vs 1 thread", a.leg.digest,
                       d.leg.digest});
}

void run_dist_ranks(const Options& opt, Report& rep) {
  // The rank threads run serial pools; the process pool only serves the
  // reference simulator below.
  set_execution_threads(kParallelThreads);
  rep.stamps["threads"] = std::to_string(kRanks) + " rank threads";
  rep.stamps["ranks"] = std::to_string(kRanks);
  rep.stamps["transport"] = std::string("channel");
  const dist::DistConfig dcfg = dist_config();

  std::unique_ptr<dist::DistMachine> machine;
  for (int r = 0; r < kSetupReps; ++r) {
    machine.reset();
    const double t0 = now_s();
    machine = std::make_unique<dist::DistMachine>(dcfg);
    rep.setup_s.push_back(now_s() - t0);
  }

  // Bit-identity contract: the first steps of the stream on the
  // single-process simulator give the same reads and the same mesh steps.
  Leg ref;
  {
    PramMeshSimulator sim(dcfg.sim);
    Runner<PramMeshSimulator> r(sim, opt.seed, rep);
    for (int i = 0; i < kRefSteps; ++i) r.step(false);
    ref = std::move(r.leg);
  }

  const DistTotals before(*machine);
  Runner<dist::DistMachine> a(*machine, opt.seed, rep);
  a.rss_probe = true;
  std::unique_ptr<dist::DistMachine> traced_machine;
  std::unique_ptr<Runner<dist::DistMachine>> b;
  SpanTotals spans;
  std::vector<Runner<dist::DistMachine>*> runners{&a};
  if (opt.trace) {
    meshpram::telemetry::set_ring_capacity(kDistRingEvents);
    traced_machine = std::make_unique<dist::DistMachine>(dcfg);
    b = std::make_unique<Runner<dist::DistMachine>>(*traced_machine, opt.seed,
                                                    rep, nullptr, &spans);
    runners.push_back(b.get());
  }
  fill_end_to_end(
      a.leg,
      run_rounds<dist::DistMachine>(runners, opt.seconds,
                                    opt.trace ? kMinTimed / 2 : kMinTimed,
                                    opt.trace ? kDistTracedRounds : 1 << 30),
      rep);
  rep.exact.push_back({"mesh steps per step: dist-ranks vs pram-step",
                       ref.total_steps, head(a.leg.total_steps, kRefSteps)});
  rep.exact.push_back({"read digests: dist-ranks vs pram-step", ref.digest,
                       head(a.leg.digest, kRefSteps)});
  if (!opt.trace) return;

  fill_dist_layers(*machine, before, a.leg, spans, rep);
  fill_culling_layers(a.leg, machine->processors(), redundancy(dcfg.sim), rep);
  fill_span_layers(spans, static_cast<double>(b->timed()), kRanks, rep);
  add_stage_check(b->leg, spans, rep);
  rep.layers["telemetry.overhead"] = median(b->leg.ms) / median(a.leg.ms);
  rep.exact.push_back({"mesh steps per step: untraced vs traced",
                       a.leg.total_steps, b->leg.total_steps});
}

void fill_span_layers(const SpanTotals& sp, double units, int replicas,
                      Report& rep) {
  auto ms = [&](const std::string& label) { return sp.at(label).ms / units; };
  auto steps = [&](const std::string& label) {
    return static_cast<double>(sp.at(label).mesh_steps) / units;
  };
  auto stage_steps = [&](const std::string& label) {
    return steps(label) / replicas;
  };
  const SpanTotals::Entry& greedy = sp.at("route.greedy");
  rep.layers["mesh.region_ms"] = ms("parallel.region");
  rep.layers["mesh.drain_ms"] = ms("mesh.drain");
  rep.layers["routing.greedy_calls"] = static_cast<double>(greedy.count) / units;
  rep.layers["routing.greedy_us_per_call"] =
      greedy.count > 0 ? greedy.ms * 1e3 / static_cast<double>(greedy.count)
                       : 0;
  rep.layers["routing.greedy_mesh_steps"] = steps("route.greedy");
  rep.layers["routing.sort_ms"] = ms("sort.region");
  rep.layers["routing.sort_mesh_steps"] = steps("sort.region");
  rep.layers["routing.rank_ms"] = ms("rank.groups");
  rep.layers["routing.sorted_route_ms"] = ms("route.sorted");
  rep.layers["protocol.culling_ms"] = ms("culling.run");
  rep.layers["protocol.culling_mesh_steps"] = stage_steps("culling.iter");
  rep.layers["protocol.forward_ms"] = ms("access.forward");
  rep.layers["protocol.forward_mesh_steps"] = stage_steps("access.forward");
  rep.layers["protocol.deliver_ms"] = ms("access.deliver");
  rep.layers["protocol.deliver_mesh_steps"] = stage_steps("access.deliver");
  rep.layers["protocol.return_ms"] = ms("access.return");
  rep.layers["protocol.return_mesh_steps"] = stage_steps("access.return");
  rep.layers["trace.dropped_events"] = static_cast<double>(sp.dropped);
}

}  // namespace perfbench
