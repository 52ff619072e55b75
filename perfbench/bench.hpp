// Shared types of the same-host benchmark driver (see README.md).
//
// Each workload fills one Report with raw measurements: per-unit wall
// samples, set-up repetitions, counted mesh steps, per-layer values and the
// oracle verdicts. The driver prints it as one JSON object; run.py turns it
// into the named end-to-end and per-layer metrics. Nothing here reaches into
// the library's private headers.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/math.hpp"

namespace perfbench {

using meshpram::i64;
using meshpram::u64;

/// What the driver was asked to do.
struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One open-loop rate step of the serve-tcp ladder.
struct Rung {
  double rate = 0;        ///< offered requests per second
  double seconds = 0;     ///< scheduled duration of the rung
  i64 sent = 0;
  i64 answered = 0;
  i64 refused = 0;        ///< ok=false admission replies
  i64 mismatched = 0;     ///< reads that disagree with the shadow memory
  i64 backlog_start = 0;  ///< requests outstanding when the rung began
  i64 backlog_end = 0;    ///< requests outstanding when its schedule ended
  std::vector<double> latency_ms;  ///< due time -> response, per request
  std::vector<double> lag_ms;      ///< actual send - due time, per request
};

/// A pair of integer sequences that must be identical (run.py checks).
struct ExactCheck {
  std::string name;
  std::vector<i64> a;
  std::vector<i64> b;
};

struct Report {
  std::string workload;
  std::map<std::string, std::string> stamps;
  i64 attempted = 0;  ///< units the workload tried (steps, solves, requests)
  i64 failed = 0;     ///< errors, refusals and oracle mismatches
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<double> setup_s;      ///< one entry per set-up repetition
  std::vector<double> unit_ms;      ///< timed wall per unit of work
  double throughput_per_s = 0;      ///< units of work per second
  i64 mesh_steps = 0;               ///< counted mesh steps ...
  i64 mesh_units = 0;               ///< ... over this many PRAM steps/requests
  std::vector<Rung> reference;  ///< serve-tcp: reference-rate segments
  std::vector<Rung> ladder;     ///< serve-tcp: ascending offered rates
  std::vector<ExactCheck> exact;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> absent;  ///< layer metric -> why absent
  std::map<std::string, std::string> notes;   ///< free-form context lines
  double peak_rss_mb = 0;  ///< after a fixed amount of work (0: at exit)

  void fail(const std::string& what);
};

// ---- time ----
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seed of sub-stream `index` of run seed `seed` (splitmix64 mixing).
u64 mix_seed(u64 seed, u64 index);

double median(std::vector<double> v);

/// Units of work per second, robust to a host stall: the timed units are
/// cut into `windows` consecutive groups of equal count, each group's rate
/// is its count over the time since the previous group ended (`start` for
/// the first), and the median rate is returned. `ends` holds the completion
/// time of each unit, ascending.
double windowed_rate(double start, const std::vector<double>& ends,
                     int windows = 5);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

// ---- spans ----
/// Telemetry spans of the traced legs, aggregated by label.
struct SpanTotals {
  struct Entry {
    i64 count = 0;
    double ms = 0;        ///< summed durations (over all threads)
    i64 mesh_steps = 0;   ///< summed span step payloads (absent = 0)
  };
  std::map<std::string, Entry> by_label;
  /// Per recording thread: rank (from route.dist) and culling/busy wall.
  struct ThreadTotals {
    int rank = -1;
    double culling_ms = 0;
    double busy_ms = 0;   ///< leaf compute spans, see collect_spans
  };
  std::vector<ThreadTotals> threads;
  /// Per collect_spans call: the largest per-thread sum of Stage span
  /// steps (the Stage spans of one PRAM step partition its total_steps;
  /// every dist rank records the full partition).
  std::vector<i64> stage_steps;
  u64 dropped = 0;

  const Entry& at(const std::string& label) const;
};

/// Drains every recording thread's ring into `into` and clears the rings.
/// Call between PRAM steps only (telemetry's quiescence rule).
void collect_spans(SpanTotals& into);

/// The span-derived mesh/routing/protocol layer metrics per unit of work.
/// Times and routing step counts are summed over threads; the protocol
/// stage step counts are divided by `replicas`, the number of threads that
/// each record every stage (each dist rank charges the full stage cost).
void fill_span_layers(const SpanTotals& sp, double units, int replicas,
                      Report& rep);

/// Switches span recording on or off (every frame sampled).
void set_tracing(bool on);

// ---- workloads ----
void run_pram_step(const Options& opt, Report& rep);
void run_dist_ranks(const Options& opt, Report& rep);
void run_algo_cc(const Options& opt, Report& rep);
void run_serve_tcp(const Options& opt, Report& rep);

}  // namespace perfbench
