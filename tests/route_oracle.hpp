// Reference router and route_greedy differential checks, shared by the
// routing tests and the randomized route fuzzer.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "mesh/machine.hpp"
#include "mesh/parallel.hpp"
#include "routing/greedy.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace meshpram::testing_oracle {

/// What one greedy route call leaves behind, as the reference computes it.
struct RefRoute {
  i64 steps = 0;
  i64 max_queue = 0;
  std::vector<std::vector<Packet>> bufs;  ///< final buffers, by node id
  std::vector<i64> forwarded;             ///< counter grid, by node id
  std::vector<i64> queue_peak;            ///< counter grid, by node id
};

/// Plain farthest-first XY routing: one vector queue per node, a full rescan
/// of every node each step, and arrivals absorbed in the snake order of
/// their senders (the canonical lane order). Shares nothing with
/// route_greedy but the Packet type.
inline RefRoute reference_route(const Mesh& mesh, const Region& g) {
  const auto n = static_cast<size_t>(mesh.size());
  RefRoute out;
  out.bufs.resize(n);
  out.forwarded.assign(n, 0);
  out.queue_peak.assign(n, 0);
  std::vector<std::vector<Packet>> queue(n);
  i64 in_flight = 0;
  for (i32 id = 0; id < mesh.size(); ++id) {
    for (const Packet& p : mesh.buf(id)) {
      auto& to = p.dest == id ? out.bufs[static_cast<size_t>(id)]
                              : queue[static_cast<size_t>(id)];
      to.push_back(p);
      in_flight += p.dest == id ? 0 : 1;
    }
  }
  const auto dir_of = [&](Coord at, Coord d) {
    if (d.c != at.c) return d.c > at.c ? Dir::East : Dir::West;
    return d.r > at.r ? Dir::South : Dir::North;
  };
  while (in_flight > 0) {
    ++out.steps;
    std::vector<std::pair<i32, Packet>> moves;  // (receiver, packet)
    for (i64 s = 0; s < g.size(); ++s) {
      const Coord at = g.at_snake(s);
      auto& q = queue[static_cast<size_t>(mesh.node_id(at))];
      int best[kNumDirs] = {-1, -1, -1, -1};
      i64 best_rem[kNumDirs] = {0, 0, 0, 0};
      for (size_t i = 0; i < q.size(); ++i) {
        const Coord d = mesh.coord(q[i].dest);
        const int di = static_cast<int>(dir_of(at, d));
        if (best[di] < 0 || manhattan(at, d) > best_rem[di]) {
          best[di] = static_cast<int>(i);
          best_rem[di] = manhattan(at, d);
        }
      }
      std::vector<Packet> keep;
      for (size_t i = 0; i < q.size(); ++i) {
        const Dir d = dir_of(at, mesh.coord(q[i].dest));
        if (best[static_cast<int>(d)] == static_cast<int>(i)) {
          moves.emplace_back(mesh.node_id(step_toward(at, d)), q[i]);
          ++out.forwarded[static_cast<size_t>(mesh.node_id(at))];
        } else {
          keep.push_back(q[i]);
        }
      }
      q = std::move(keep);
    }
    std::set<i32> receivers;
    for (const auto& [to, p] : moves) {  // sender snake order
      receivers.insert(to);
      if (p.dest == to) {
        out.bufs[static_cast<size_t>(to)].push_back(p);
        --in_flight;
      } else {
        queue[static_cast<size_t>(to)].push_back(p);
      }
    }
    for (const i32 id : receivers) {
      const auto depth = static_cast<i64>(queue[static_cast<size_t>(id)].size());
      out.max_queue = std::max(out.max_queue, depth);
      i64& peak = out.queue_peak[static_cast<size_t>(id)];
      peak = std::max(peak, depth);
    }
  }
  return out;
}

/// The route_greedy legs the reference checks: the line engine on one
/// thread, the line engine on a 4-thread team (forced on any region), and
/// the step-by-step fault kernel under an inert plan.
enum class RouteLeg { Serial, Team, Fault };

inline const char* route_leg_name(RouteLeg leg) {
  switch (leg) {
    case RouteLeg::Serial: return "serial";
    case RouteLeg::Team: return "4 threads";
    case RouteLeg::Fault: return "fault";
  }
  return "?";
}

/// A fault plan that sends route_greedy to the fault kernel without firing:
/// one stall window that opens after the mesh's current PRAM step.
inline fault::FaultPlan inert_stall_plan(const Mesh& mesh) {
  fault::FaultPlan plan(mesh.rows(), mesh.cols());
  fault::StallWindow w;
  w.node = 0;
  w.dir = mesh.rows() > 1 ? Dir::South : Dir::East;
  w.pram_from = mesh.fault_now() + 1;
  plan.add_stall(w);
  return plan;
}

/// Runs route_greedy on `leg`, leaving the thread count, the team gate and
/// the mesh's fault plan as they were.
inline RouteStats route_on(RouteLeg leg, Mesh& mesh, const Region& g) {
  const fault::FaultPlan inert = inert_stall_plan(mesh);
  if (leg == RouteLeg::Fault) {
    EXPECT_TRUE(inert.affects_routing());
    mesh.set_fault_plan(&inert);
  }
  set_execution_threads(leg == RouteLeg::Team ? 4 : 1);
  if (leg == RouteLeg::Team) set_stripe_min_nodes(1);
  struct Restore {
    Mesh& mesh;
    bool fault;
    ~Restore() {
      set_stripe_min_nodes(0);
      set_execution_threads(0);
      if (fault) mesh.set_fault_plan(nullptr);
    }
  } restore{mesh, leg == RouteLeg::Fault};
  return route_greedy(mesh, g);
}

/// Demands the reference's steps, max_queue, per-node delivery order and
/// (while sampling is on) counter grids from one route_greedy result.
inline void expect_route_matches(const Mesh& mesh, const RouteStats& got,
                                 const RefRoute& want, bool sampled) {
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.max_queue, want.max_queue);
  EXPECT_EQ(got.fault_retried, 0);
  EXPECT_EQ(got.fault_detoured, 0);
  EXPECT_EQ(got.fault_dropped, 0);
  for (i32 id = 0; id < mesh.size(); ++id) {
    const auto& b = mesh.buf(id);
    const auto& w = want.bufs[static_cast<size_t>(id)];
    ASSERT_EQ(b.size(), w.size()) << "node " << id;
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(b[i].var, w[i].var) << "node " << id << " slot " << i;
    }
  }
  // The counter grids fill only while sampling is on (never in a build
  // with telemetry compiled out, where they must stay zero).
  EXPECT_EQ(sampled, MESHPRAM_TELEMETRY != 0);
  const std::vector<i64> zeros(want.forwarded.size(), 0);
  EXPECT_EQ(mesh.counters().forwarded(), sampled ? want.forwarded : zeros);
  EXPECT_EQ(mesh.counters().max_queue(), sampled ? want.queue_peak : zeros);
}

/// Routes `load`'s packets with route_greedy on every leg, congestion
/// counters on, and demands the reference's result from each one.
inline void expect_matches_reference(int rows, int cols, const Region& g,
                                     NodeOrderKind order,
                                     const std::function<void(Mesh&)>& load) {
  SCOPED_TRACE(::testing::Message() << rows << 'x' << cols << " region " << g
                                    << ' ' << node_order_name(order));
  for (const RouteLeg leg :
       {RouteLeg::Serial, RouteLeg::Team, RouteLeg::Fault}) {
    SCOPED_TRACE(route_leg_name(leg));
    Mesh mesh(rows, cols, order);
    load(mesh);
    const RefRoute want = reference_route(mesh, g);
    telemetry::set_enabled(true);
    const bool sampled = telemetry::sampling_on();
    const RouteStats got = route_on(leg, mesh, g);
    telemetry::set_enabled(false);
    expect_route_matches(mesh, got, want, sampled);
  }
}

}  // namespace meshpram::testing_oracle
