// serve-tcp: NetServer on 127.0.0.1 with 4 sessions (side 16, k = 2,
// M = 8n) and coalescing window 8. One generator thread multiplexes one
// connection per session and sends Poisson arrivals of 8-access requests
// (half writes) at the reference rate and on a fixed ladder of offered
// rates, and measures the saturated goodput with a closed loop of 48
// requests in flight per session. Two threads: the server loop, which runs
// the scheduler's steps itself (a larger pool made 256-node passes slower
// and their latency erratic), and the generator.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "serve/api.hpp"
#include "serve/manager.hpp"
#include "serve/net_client.hpp"
#include "serve/net_server.hpp"
#include "serve/scheduler.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace meshpram;
using namespace meshpram::serve;

namespace {

constexpr int kSide = 16;
constexpr int kSessions = 4;
constexpr int kAccesses = 8;
constexpr int kPoolThreads = 1;
constexpr i64 kWindow = 8;
constexpr i64 kClosedDepth = 48;  ///< in flight per session (queue cap 64)
constexpr int kSegments = 8;
constexpr double kWarmupS = 0.2;
/// Offered rates (requests/s over all sessions): the reference rate, at
/// which latency is reported, and the ascending ladder for slo_rps.
constexpr double kReferenceRate = 1000;
constexpr double kLadder[] = {250,  500,  750,  1000, 1250,
                              1500, 2000, 2500, 3000, 4000};
/// A rung stops the ladder once this many in a row miss the limit.
constexpr int kMissesToStop = 2;
constexpr double kDrainTimeoutS = 5;
constexpr int kTracedRungs = 5;
constexpr double kTracedRungS = 0.1;

SimConfig serve_config() {
  SimConfig cfg;
  cfg.mesh_rows = kSide;
  cfg.mesh_cols = kSide;
  cfg.num_vars = i64{kSide} * kSide * 8;
  cfg.q = 3;
  cfg.k = 2;
  cfg.sort_mode = SortMode::Analytic;
  cfg.fault_plan_from_env = false;
  return cfg;
}

/// Sessions, scheduler and NetServer, with the event loop on its own thread.
/// Stats are read only after stop(), once the loop thread has joined.
class Stack {
 public:
  Stack() {
    const SimConfig cfg = serve_config();
    for (int s = 0; s < kSessions; ++s) {
      std::string name = "s";
      name += std::to_string(s);
      names_.push_back(mgr_.create(name, cfg).name());
    }
    SchedulerConfig scfg;
    scfg.threads = kPoolThreads;
    scfg.coalesce_window = kWindow;
    scfg.global_inflight = 4096;  // the per-session queues park first
    scfg.validate_coalescing = false;
    sched_ = std::make_unique<FairScheduler>(mgr_, scfg);
    NetServerConfig ncfg;
    ncfg.tcp = true;
    server_ = std::make_unique<NetServer>(mgr_, *sched_, ncfg);
    // The loop busy-polls (epoll timeout 0) instead of NetServer::run's
    // blocking wait: on a virtual machine a halted CPU wakes only when the
    // host schedules it again, which would put the host's load, not the
    // server's, into every latency.
    loop_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) server_->poll_once(0);
    });
  }
  ~Stack() { stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void stop() {
    stop_ = true;
    if (loop_.joinable()) loop_.join();
  }
  int port() const { return server_->tcp_port(); }
  const std::vector<std::string>& names() const { return names_; }
  SessionManager& manager() { return mgr_; }
  const FairScheduler& scheduler() const { return *sched_; }
  const NetServerStats& net_stats() const { return server_->stats(); }

 private:
  SessionManager mgr_;
  std::vector<std::string> names_;
  std::unique_ptr<FairScheduler> sched_;
  std::unique_ptr<NetServer> server_;
  std::atomic<bool> stop_{false};
  std::thread loop_;  // last: joined before the members it uses go away
};

struct Pending {
  u64 id = 0;
  double due = 0;
  std::vector<i64> expect;  ///< expected read values (writes: 0)
  Rung* rung = nullptr;     ///< null in the closed-loop phase
};

/// Outcome counters of the phase currently running.
struct Tally {
  i64 answered = 0;
  double passes = 0;      ///< sum of 1/coalesced over responses
  double mesh_steps = 0;  ///< sum of mesh_steps/coalesced
};

/// The single generator thread: one connection per session, per-session
/// shadow memory in request order, and the response oracle.
class Generator {
 public:
  Generator(Stack& stack, u64 seed, Report& rep)
      : rng_(mix_seed(seed, 0x5e7e)), rep_(rep) {
    ConnectOptions copt;
    copt.attempts = 20;
    for (const std::string& name : stack.names()) {
      clients_.push_back(NetClient::connect_tcp("127.0.0.1", stack.port(), copt));
      sessions_.push_back(name);
      shadow_.emplace_back(static_cast<size_t>(serve_config().num_vars), 0);
      pending_.emplace_back();
    }
  }

  /// One Stats round trip per session: the loop has accepted every
  /// connection and serves every session.
  void ready() {
    for (size_t s = 0; s < clients_.size(); ++s) {
      clients_[s].send_frame(encode_control(MsgType::Stats, 0, sessions_[s]));
      const WireResponse resp = clients_[s].recv_response(10000);
      if (!resp.ok) {
        throw std::runtime_error("session " + sessions_[s] + " not served: " +
                                 resp.error);
      }
    }
  }

  i64 outstanding() const { return outstanding_; }
  const Tally& tally() const { return tally_; }
  void reset_tally() { tally_ = {}; }
  double codec_us() const { return codec_us_; }
  i64 codec_samples() const { return codec_samples_; }
  void set_time_codec(bool on) { time_codec_ = on; }

  /// Sends one seeded request to session `s`, due at `due`.
  void send(int s, double due, Rung* rung) {
    const i64 num_vars = static_cast<i64>(shadow_[static_cast<size_t>(s)].size());
    std::vector<i64> vars = rng_.sample(num_vars, kAccesses);
    rng_.shuffle(vars);
    std::vector<AccessRequest> accesses(kAccesses);
    Pending p;
    p.id = next_id_++;
    p.due = due;
    p.rung = rung;
    p.expect.assign(kAccesses, 0);
    std::vector<i64>& shadow = shadow_[static_cast<size_t>(s)];
    for (int i = 0; i < kAccesses; ++i) {
      AccessRequest& a = accesses[static_cast<size_t>(i)];
      a.var = vars[static_cast<size_t>(i)];
      if (i % 2 == 0) {
        a.op = Op::Read;
        p.expect[static_cast<size_t>(i)] = shadow[static_cast<size_t>(a.var)];
      } else {
        a.op = Op::Write;
        a.value = static_cast<i64>(rng_() >> 2);
      }
    }
    for (const AccessRequest& a : accesses) {
      if (a.op == Op::Write) shadow[static_cast<size_t>(a.var)] = a.value;
    }
    const double c0 = now_s();
    const std::string frame =
        encode_step(p.id, sessions_[static_cast<size_t>(s)], accesses);
    if (time_codec_) codec_us_ += (now_s() - c0) * 1e6;
    const double sent = now_s();
    clients_[static_cast<size_t>(s)].send_frame(frame);
    if (rung != nullptr) {
      ++rung->sent;
      rung->lag_ms.push_back((sent - due) * 1e3);
    }
    ++rep_.attempted;
    ++outstanding_;
    pending_[static_cast<size_t>(s)].push_back(std::move(p));
  }

  /// Harvests every response already readable; returns how many arrived.
  /// `on_answer(s)` runs for each (the closed loop refills from it).
  template <class F>
  i64 harvest(F&& on_answer) {
    i64 got = 0;
    for (size_t s = 0; s < clients_.size(); ++s) {
      while (auto resp = clients_[s].try_recv()) {
        const double at = now_s();
        check(static_cast<int>(s), *resp, at);
        ++got;
        on_answer(static_cast<int>(s));
      }
    }
    return got;
  }
  i64 harvest() {
    return harvest([](int) {});
  }

  /// Waits until nothing is outstanding (bounded); true when drained.
  bool drain() {
    const double limit = now_s() + kDrainTimeoutS;
    while (outstanding_ > 0 && now_s() < limit) {
      if (harvest() == 0) std::this_thread::yield();
    }
    return outstanding_ == 0;
  }

 private:
  void check(int s, const WireResponse& resp, double at) {
    std::deque<Pending>& q = pending_[static_cast<size_t>(s)];
    // Responses on one connection come back in request order.
    if (q.empty() || q.front().id != resp.request_id) {
      rep_.fail("serve-tcp: response id " + std::to_string(resp.request_id) +
                " out of order on session " + sessions_[static_cast<size_t>(s)]);
      return;
    }
    Pending p = std::move(q.front());
    q.pop_front();
    --outstanding_;
    if (time_codec_) {
      // Wire cost of the reply: encode it again and decode it.
      const double c0 = now_s();
      const std::string frame = encode_response(resp);
      std::string_view buf = frame;
      const auto payload = next_frame(buf);
      if (payload) (void)decode_response(*payload);
      codec_us_ += (now_s() - c0) * 1e6;
      ++codec_samples_;
    }
    if (!resp.ok) {
      if (p.rung != nullptr) ++p.rung->refused;
      rep_.fail("serve-tcp: request refused: " + resp.error);
      return;
    }
    bool match = resp.values.size() >= p.expect.size();
    for (size_t i = 0; match && i < p.expect.size(); i += 2) {
      match = resp.values[i] == p.expect[i];
    }
    if (!match) {
      if (p.rung != nullptr) ++p.rung->mismatched;
      rep_.fail("serve-tcp: request " + std::to_string(p.id) +
                " read values differ from the session's shadow memory");
      return;
    }
    ++tally_.answered;
    const double share = 1.0 / static_cast<double>(std::max<i64>(1, resp.coalesced));
    tally_.passes += share;
    tally_.mesh_steps += static_cast<double>(resp.mesh_steps) * share;
    if (p.rung != nullptr) {
      ++p.rung->answered;
      p.rung->latency_ms.push_back((at - p.due) * 1e3);
    }
  }

  Rng rng_;
  Report& rep_;
  std::vector<NetClient> clients_;
  std::vector<std::string> sessions_;
  std::vector<std::vector<i64>> shadow_;
  std::vector<std::deque<Pending>> pending_;
  u64 next_id_ = 1;
  i64 outstanding_ = 0;
  Tally tally_;
  bool time_codec_ = false;
  double codec_us_ = 0;
  i64 codec_samples_ = 0;
};

/// One open-loop rung: Poisson arrivals at `rate` for `seconds`, each sent
/// to a uniformly drawn session. Latency runs from the due time. The rung
/// drains its stragglers before returning (its requests point at it).
Rung run_rung(Generator& gen, double rate, double seconds, u64 seed) {
  Rung rung;
  rung.rate = rate;
  rung.seconds = seconds;
  rung.backlog_start = gen.outstanding();
  std::mt19937_64 arrivals(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<int> pick(0, kSessions - 1);
  const double start = now_s();
  const double end = start + seconds;
  double due = start + gap(arrivals);
  while (true) {
    const double now = now_s();
    if (due <= now) {
      if (due >= end) break;
      gen.send(pick(arrivals), due, &rung);
      due += gap(arrivals);
      continue;
    }
    if (gen.harvest() == 0) std::this_thread::yield();
  }
  rung.backlog_end = gen.outstanding();
  if (!gen.drain()) {
    throw std::runtime_error("responses still missing " +
                             std::to_string(kDrainTimeoutS) +
                             " s after the rung at " + std::to_string(rate) +
                             " req/s ended");
  }
  return rung;
}

/// Closed loop: kClosedDepth requests in flight per session for `seconds`;
/// returns requests answered per second.
double run_closed(Generator& gen, double seconds) {
  gen.reset_tally();
  for (int s = 0; s < kSessions; ++s) {
    for (i64 d = 0; d < kClosedDepth; ++d) gen.send(s, now_s(), nullptr);
  }
  const double start = now_s();
  const double end = start + seconds;
  while (now_s() < end) {
    const i64 got = gen.harvest([&](int s) { gen.send(s, now_s(), nullptr); });
    if (got == 0) std::this_thread::yield();
  }
  const double rate = static_cast<double>(gen.tally().answered) / (now_s() - start);
  if (!gen.drain()) throw std::runtime_error("closed loop did not drain");
  return rate;
}

}  // namespace

void run_serve_tcp(const Options& opt, Report& rep) {
  rep.stamps["threads"] =
      "server loop (" + std::to_string(kPoolThreads) + "-thread pool) + generator";
  rep.stamps["ranks"] = std::string("1");
  rep.stamps["transport"] = std::string("tcp 127.0.0.1");
  rep.notes["reference_rate_rps"] =
      std::to_string(static_cast<int>(kReferenceRate));

  // The reference measurements run in kSegments segments, each on a fresh
  // stack (new threads, so a new placement on the host's CPUs): set-up up
  // to a served control round trip on every session, a warm-up rung, a
  // reference rung and a closed loop. Each metric is the median over the
  // segments. The last segment's stack then climbs the ladder.
  const double budget = opt.seconds;
  const double ref_s = 0.4 * budget / kSegments;
  const double closed_s = 0.15 * budget / kSegments;
  const double rung_s = 0.04 * budget;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Generator> generator;
  Tally ref_tally, closed_tally;
  std::vector<double> capacity;
  for (int seg = 0; seg < kSegments; ++seg) {
    generator.reset();  // clients close before their server goes away
    stack.reset();
    const double t0 = now_s();
    stack = std::make_unique<Stack>();
    generator = std::make_unique<Generator>(*stack, mix_seed(opt.seed, seg), rep);
    generator->ready();
    rep.setup_s.push_back(now_s() - t0);
    Generator& gen = *generator;
    // Warm-up: pool spin-up and first touch of every session's machine.
    run_rung(gen, kReferenceRate, kWarmupS, mix_seed(opt.seed, 100 + seg));
    gen.reset_tally();
    rep.reference.push_back(run_rung(gen, kReferenceRate, ref_s,
                                     mix_seed(opt.seed, 200 + seg)));
    ref_tally.answered += gen.tally().answered;
    ref_tally.passes += gen.tally().passes;
    ref_tally.mesh_steps += gen.tally().mesh_steps;
    if (opt.trace) continue;
    capacity.push_back(run_closed(gen, closed_s));
    closed_tally.answered += gen.tally().answered;
    closed_tally.mesh_steps += gen.tally().mesh_steps;
  }
  Generator& gen = *generator;
  rep.peak_rss_mb = peak_rss_mb();  // after the segments, before the ladder
  // Mesh steps per request at saturation: the coalescing windows stay full,
  // so the count follows the seeded requests rather than their timing.
  rep.throughput_per_s = median(capacity);
  rep.mesh_steps = static_cast<i64>(std::llround(closed_tally.mesh_steps));
  rep.mesh_units = closed_tally.answered;

  int misses = 0;
  u64 rung_index = 300;
  for (const double rate : kLadder) {
    Rung rung = run_rung(gen, rate, rung_s, mix_seed(opt.seed, rung_index++));
    const bool miss = rung.backlog_end - rung.backlog_start > 32;
    rep.ladder.push_back(std::move(rung));
    // run.py applies the full limit rule; here only a clear overload (a
    // backlog that kept growing) counts toward stopping the ladder early.
    misses = miss ? misses + 1 : 0;
    if (misses >= kMissesToStop) break;
  }

  if (opt.trace) {
    rep.layers["serve.requests_per_pass"] =
        static_cast<double>(ref_tally.answered) / ref_tally.passes;
    rep.layers["serve.mesh_steps_per_req"] =
        ref_tally.mesh_steps / static_cast<double>(ref_tally.answered);
    // Traced reference rate: serve.<session> spans and the layers beneath,
    // in short rungs, each drained and collected before the next.
    meshpram::telemetry::set_ring_capacity(size_t{1} << 19);
    SpanTotals spans;
    std::vector<double> traced_ms;
    i64 traced_answered = 0;
    gen.set_time_codec(true);
    for (int t = 0; t < kTracedRungs; ++t) {
      set_tracing(true);
      const Rung traced = run_rung(gen, kReferenceRate, kTracedRungS,
                                   mix_seed(opt.seed, 400 + t));
      set_tracing(false);
      collect_spans(spans);
      traced_ms.insert(traced_ms.end(), traced.latency_ms.begin(),
                       traced.latency_ms.end());
      traced_answered += traced.answered;
    }
    gen.set_time_codec(false);
    double exec_ms = 0;
    i64 passes = 0;
    for (const std::string& name : stack->names()) {
      const SpanTotals::Entry& e = spans.at("serve." + name);
      exec_ms += e.ms;
      passes += e.count;
    }
    rep.layers["serve.execute_ms"] =
        passes > 0 ? exec_ms / static_cast<double>(passes) : 0;
    fill_span_layers(spans, static_cast<double>(traced_answered), 1, rep);
    rep.layers["serve.codec_us_per_req"] =
        gen.codec_samples() > 0
            ? gen.codec_us() / static_cast<double>(gen.codec_samples())
            : 0;
    rep.layers["telemetry.overhead"] =
        median(traced_ms) / median(rep.reference.back().latency_ms);
    for (const char* name : {"protocol.copy_yield", "protocol.page_load_ratio"}) {
      rep.absent[name] = "sessions do not expose per-step CullingStats";
    }
  }

  stack->stop();
  const NetServerStats& net = stack->net_stats();
  const CoalesceStats& co = stack->scheduler().coalesce_stats();
  i64 executed = 0, peak = 0;
  for (Session* s : stack->manager().sessions()) {
    executed += s->stats().accepted;
    peak = std::max(peak, s->stats().peak_queue_depth);
  }
  if (opt.trace) {
    const double frames = static_cast<double>(std::max<i64>(1, net.frames_in));
    rep.layers["serve.coalesce_ratio"] =
        static_cast<double>(co.merged_requests) /
        static_cast<double>(std::max<i64>(1, executed));
    rep.layers["serve.peak_queue_depth"] = static_cast<double>(peak);
    rep.layers["serve.parked_per_1k"] =
        1e3 * static_cast<double>(net.parked) / frames;
    rep.layers["serve.rejected_per_1k"] =
        1e3 * static_cast<double>(net.rejected) / frames;
    rep.layers["serve.bytes_per_req"] =
        static_cast<double>(net.bytes_in + net.bytes_out) / frames;
  }
}

}  // namespace perfbench
