#include <sys/resource.h>

#include <algorithm>

#include "bench.hpp"

namespace perfbench {

void Report::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

u64 mix_seed(u64 seed, u64 index) {
  u64 z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double windowed_rate(double start, const std::vector<double>& ends,
                     int windows) {
  const size_t n = ends.size();
  if (n == 0) return 0;
  const size_t groups = std::min(n, static_cast<size_t>(std::max(1, windows)));
  std::vector<double> rates;
  double from = start;
  for (size_t g = 0; g < groups; ++g) {
    const size_t lo = n * g / groups;
    const size_t hi = n * (g + 1) / groups;
    rates.push_back(static_cast<double>(hi - lo) / (ends[hi - 1] - from));
    from = ends[hi - 1];
  }
  return median(rates);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

const SpanTotals::Entry& SpanTotals::at(const std::string& label) const {
  static const Entry kNone;
  const auto it = by_label.find(label);
  return it == by_label.end() ? kNone : it->second;
}

void set_tracing(bool on) {
  namespace tm = meshpram::telemetry;
  tm::set_sample_every(1);
  tm::set_enabled(on);
}

void collect_spans(SpanTotals& into) {
  namespace tm = meshpram::telemetry;
  const int threads = tm::thread_count();
  if (static_cast<int>(into.threads.size()) < threads) {
    into.threads.resize(static_cast<size_t>(threads));
  }
  std::map<tm::Label, std::string> names;
  i64 stage_steps = 0;
  for (int tid = 0; tid < threads; ++tid) {
    std::vector<tm::Event> events = tm::thread_events(tid);
    // Outer spans first, so a span's children follow it.
    std::sort(events.begin(), events.end(),
              [](const tm::Event& x, const tm::Event& y) {
                return x.t0_ns != y.t0_ns ? x.t0_ns < y.t0_ns
                                          : x.t1_ns > y.t1_ns;
              });
    SpanTotals::ThreadTotals& th = into.threads[static_cast<size_t>(tid)];
    i64 thread_stage_steps = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      const tm::Event& e = events[i];
      if (e.t1_ns == e.t0_ns) continue;  // instant counter sample
      auto nit = names.find(e.label);
      if (nit == names.end()) {
        nit = names.emplace(e.label, tm::label_name(e.label)).first;
      }
      const std::string& name = nit->second;
      const double ms = static_cast<double>(e.t1_ns - e.t0_ns) / 1e6;
      SpanTotals::Entry& entry = into.by_label[name];
      ++entry.count;
      entry.ms += ms;
      if (e.steps > 0) entry.mesh_steps += e.steps;
      if (e.cat == tm::Cat::Stage && e.steps > 0) {
        thread_stage_steps += e.steps;
      }
      if (name == "route.dist") th.rank = static_cast<int>(e.index);
      if (name == "culling.run") th.culling_ms += ms;
      // Busy time: top-level protocol phases minus the distributed route,
      // whose sweeps include blocking boundary-lane exchanges.
      if (e.cat == tm::Cat::Phase || e.cat == tm::Cat::Stage) {
        const bool leaf = i + 1 == events.size() ||
                          events[i + 1].t0_ns >= e.t1_ns;
        if (leaf && name != "route.dist") th.busy_ms += ms;
      }
    }
    stage_steps = std::max(stage_steps, thread_stage_steps);
  }
  into.stage_steps.push_back(stage_steps);
  into.dropped += tm::buffer_stats().dropped;
  tm::clear();
}

}  // namespace perfbench
