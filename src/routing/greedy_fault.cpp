// Fault-aware obstacle policy on the greedy XY kernel (DESIGN.md §10).
//
// route_greedy dispatches here when the mesh's fault plan affects routing
// (dead or stalled links, a positive drop rate). Only the per-packet decision
// is this file's own: the commit, absorb and walk are the shared kernel's
// (greedy_kernel.hpp). The kernel runs serial per region, so fault behaviour is a pure function of (plan, PRAM step, routing
// step) and bit-identical at any thread count; region-level parallelism
// (disjoint ownership) still applies above it.
//
// Fault handling per packet:
//   stall    — transient by definition (every stall window ends), so a packet
//              whose chosen link is stalled simply waits: step-tagged backoff
//              (retry next step, then exponential, capped at 8 steps), one
//              retry counted per blocked attempt. A stall never alters the
//              route decision — that keeps the maze the wall-follower below
//              perceives static.
//   detour   — dead links and the region boundary are permanent walls, and
//              the packet routes around them with the Pledge maze algorithm:
//              follow the XY gradient until a wall blocks it frontally, then
//              wall-follow (left hand on the wall: prefer left, straight,
//              right, U-turn) while summing signed quarter-turns; resume the
//              gradient once the turn counter returns to zero — or the packet
//              is closer to its destination than where it met the wall — and
//              the gradient direction is wall-free. Pledge provably escapes
//              any finite obstacle set in a static maze, so a reachable
//              destination is always reached; an unreachable one is caught
//              by the step cap and reported as FaultError.
//   drop     — a winner whose traversal the plan drops keeps its link slot
//              for the step (the corrupted word occupied the wire) but stays
//              queued; link-level ARQ retransmits it on a later step.
//
// No fault ever destroys an in-flight packet, so the access protocol's
// conservation assertions hold unchanged; a plan that walls a destination off
// completely is detected by the step cap and reported as FaultError rather
// than looping forever.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "routing/greedy_kernel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace meshpram::detail {

namespace {

const telemetry::Label kRouteFault = telemetry::intern("route.greedy.fault");

/// Step-tagged backoff: first two blocks retry next step, then exponential
/// capped at 8 steps.
i64 backoff_until(i64 step, i32 blocks) {
  if (blocks <= 2) return step + 1;
  return step + std::min<i64>(i64{1} << std::min<i32>(blocks - 2, 3), 8);
}

/// Dir is laid out clockwise (N=0 E=1 S=2 W=3): rotating right is +1.
Dir rot(Dir d, int quarter_turns_cw) {
  return static_cast<Dir>((static_cast<int>(d) + quarter_turns_cw) & 3);
}

/// Per-payload-handle fault state (stall backoff + Pledge wall-follower).
struct HandleState {
  i64 blocked_until = 0;  ///< packet waits while blocked_until > step
  i64 entry_rem = 0;      ///< Manhattan distance where the wall was met
  i32 turns = 0;          ///< signed quarter-turns since entering the wall
  i32 wall_steps = 0;     ///< hops spent on the current wall (safety net)
  i32 blocks = 0;         ///< consecutive blocked attempts (stall backoff)
  i32 heading = 0;        ///< Dir of the last hop while wall-following
  bool wall = false;      ///< currently wall-following
};

}  // namespace

void route_greedy_fault(Mesh& mesh, const Region& region, RouteArena& ar,
                        i64 in_flight, RouteStats& stats) {
  telemetry::Span span(telemetry::Cat::Fault, kRouteFault);
  const fault::FaultPlan& plan = *mesh.fault_plan();
  const i64 pram_now = mesh.fault_now();
  const bool count_congestion = telemetry::sampling_on();
  GreedyKernel k(mesh, region, ar, region.r0(), count_congestion);

  std::vector<HandleState> hs(ar.payload.size());
  i64 retried = 0;
  i64 dropped = 0;
  i64 detoured = 0;
  i64 remaining = in_flight;
  i64 step = 0;
  // Generous cap: any reachable destination is reached long before this on a
  // connected survivor mesh (a Pledge traversal rounds each obstacle in at
  // most its perimeter of hops); hitting the cap means the plan walled a
  // packet in. The region-size term budgets worst-case wall traversals even
  // when only a handful of packets are in flight.
  const i64 step_cap = 64 * (region.rows() + region.cols()) +
                       16 * in_flight + 8 * region.size() + 256;
  // Safety net for the wall-follower: the boundary of any obstacle set fits
  // in 4*size directed wall edges, so a correct traversal never needs more
  // hops than that. A counter corrupted beyond it (possible only while stall
  // windows were rewriting the perceived maze) is discarded and the packet
  // restarts Pledge fresh — on the now-static maze the fresh run is correct.
  const i32 wall_reset = static_cast<i32>(4 * region.size() + 16);

  // The per-packet decision for one node: each direction's farthest packet
  // among those not backing off, after the stall/wall policy chose its
  // direction. Winners the plan drops stay queued (best = -1); the others
  // commit their wall-follower transition before the kernel sends them.
  const auto pick = [&](i64 s, Coord at, i32* best) {
    const TransitRec* q = k.queue(s);
    const i32 cnt = k.counts[s];
    const i32* nbr = k.shape.nbr.data() + s * kNumDirs;
    const i32 id = k.id_of(at);
    const bool at_dead = plan.node_dead(id);
    // A wall is permanent: the region boundary or a dead link. A packet
    // that the hardened sort network left at a DEAD node is the one
    // exception: the dead node's switch fabric keeps relaying (the same
    // model boundary that lets the systolic phases traverse it), so
    // resident words percolate outward — straight through a contiguous
    // dead cluster — until they exit into an alive node. The router never
    // hands a dead node new packets: its incident links are dead for
    // everyone routing from an alive node.
    const auto wall_at = [&](Dir c) {
      if (nbr[static_cast<int>(c)] < 0) return true;
      if (at_dead) return false;  // dead fabric relays in every direction
      return plan.link_dead(id, c);
    };
    const auto pause_at = [&](Dir c) {
      return !at_dead && plan.link_stalled(id, c, pram_now, step);
    };
    std::array<i64, kNumDirs> best_dist{};
    std::array<bool, kNumDirs> best_wall{};
    std::array<bool, kNumDirs> best_enter{};
    std::array<i32, kNumDirs> best_turn{};
    std::fill(best, best + kNumDirs, -1);
    for (i32 i = 0; i < cnt; ++i) {
      HandleState& st = hs[q[i].handle];
      if (st.blocked_until > step) continue;  // backing off
      MP_ASSERT(q[i].dr != 0 || q[i].dc != 0,
                "arrived packet still in transit");
      const Dir primary = xy_dir(q[i].dr, q[i].dc);
      const i64 rem = std::abs(q[i].dr) + std::abs(q[i].dc);
      if (st.wall && st.wall_steps > wall_reset) {
        st.wall = false;  // corrupted traversal (see wall_reset): restart
        st.turns = 0;
        st.wall_steps = 0;
      }
      Dir use = primary;
      i32 turn_delta = 0;
      bool wall_move = false;
      bool enter = false;
      bool wait = false;
      bool found = false;
      const bool may_leave_wall =
          st.wall && (st.turns == 0 || rem < st.entry_rem) &&
          !wall_at(primary);
      if (!st.wall || may_leave_wall) {
        // Greedy: follow the XY gradient (re-joining it if the wall is
        // done). A committed greedy move clears all wall state.
        if (!wall_at(primary)) {
          if (pause_at(primary)) {
            wait = true;
          } else {
            found = true;
          }
        } else {
          // Frontal block: put the left hand on the wall ahead — rotate
          // right until a non-wall direction appears, counting each
          // quarter-turn. A cul-de-sac U-turns out at +2.
          enter = true;
          for (int r = 1; r <= 3 && !found && !wait; ++r) {
            const Dir c = rot(primary, r);
            if (wall_at(c)) continue;
            if (pause_at(c)) {
              wait = true;
            } else {
              use = c;
              turn_delta = r;
              wall_move = true;
              found = true;
            }
          }
          if (!found) wait = true;  // every link is a wall: wait (and let
                                    // the step cap report a walled-in
                                    // packet if none ever opens)
        }
      } else {
        // Wall traversal, left hand on the wall: prefer left, straight,
        // right, then U-turn, relative to the last hop's heading. The
        // first non-wall candidate IS the Pledge move; if that link is
        // stalled the packet waits for it rather than re-deciding, so the
        // traversal is a pure function of the dead-link maze.
        const Dir h = static_cast<Dir>(st.heading);
        const Dir cand[4] = {rot(h, 3), h, rot(h, 1), rot(h, 2)};
        const i32 delta[4] = {-1, 0, +1, +2};
        for (int r = 0; r < 4 && !found && !wait; ++r) {
          if (wall_at(cand[r])) continue;
          if (pause_at(cand[r])) {
            wait = true;
          } else {
            use = cand[r];
            turn_delta = delta[r];
            wall_move = true;
            found = true;
          }
        }
        if (!found) wait = true;
      }
      if (wait) {
        ++st.blocks;
        st.blocked_until = backoff_until(step, st.blocks);
        ++retried;
        if (count_congestion) mesh.counters().add_retries(id, 1);
        continue;
      }
      const auto di = static_cast<size_t>(use);
      if (best[di] < 0 || rem > best_dist[di]) {
        best[di] = i;
        best_dist[di] = rem;
        best_wall[di] = wall_move;
        best_enter[di] = enter;
        best_turn[di] = turn_delta;
      }
    }
    for (size_t di = 0; di < kNumDirs; ++di) {
      if (best[di] < 0) continue;
      if (plan.drop(id, static_cast<Dir>(di), pram_now, step)) {
        // Corrupted on the wire: the slot is spent, the packet stays
        // queued for retransmission.
        best[di] = -1;
        ++dropped;
        ++retried;
        if (count_congestion) mesh.counters().add_retries(id, 1);
        continue;
      }
      // Moves: clear the backoff state and commit the wall-follower's
      // transition. Wall state only ever changes on an actual hop — a
      // packet that loses arbitration or gets dropped re-derives the same
      // decision next step, so the traversal stays consistent.
      HandleState& st = hs[q[best[di]].handle];
      st.blocked_until = 0;
      st.blocks = 0;
      if (best_wall[di]) {
        if (best_enter[di]) {
          st.wall = true;
          st.turns = best_turn[di];
          st.wall_steps = 1;
          st.entry_rem = best_dist[di];
        } else {
          st.turns += best_turn[di];
          ++st.wall_steps;
        }
        st.heading = static_cast<i32>(di);
        ++detoured;
      } else {
        st.wall = false;
        st.turns = 0;
        st.wall_steps = 0;
      }
    }
  };
  const auto sink = [&k](i64 s, Coord at, int di, const TransitRec& rec) {
    k.deposit(s, at, di, rec);
  };

  while (remaining > 0) {
    ++step;
    if (step > step_cap) {
      std::string detail;
      int listed = 0;
      for (i64 pos = 0; pos < region.size() && listed < 8; ++pos) {
        const i64 s = k.shape.pos_slot[static_cast<size_t>(pos)];
        const TransitRec* q = k.queue(s);
        const Coord at = k.coord_of(s);
        for (i32 i = 0; i < k.counts[s] && listed < 8; ++i, ++listed) {
          const i32 dest = k.id_of({at.r + q[i].dr, at.c + q[i].dc});
          detail += "; packet at " + std::to_string(k.id_of(at)) + " -> " +
                    std::to_string(dest) +
                    (plan.node_dead(dest) ? " (dest DEAD)" : "");
        }
      }
      throw fault::FaultError(
          "fault plan leaves " + std::to_string(remaining) +
          " packet(s) unroutable after " + std::to_string(step_cap) +
          " steps (" + plan.summary() + ")" + detail);
    }
    forward_walk(k, pick, sink);
    remaining -= absorb_walk(k);
  }

  stats.steps = step;
  stats.max_queue = k.max_queue;
  stats.fault_retried = retried;
  stats.fault_dropped = dropped;
  stats.fault_detoured = detoured;
  FaultTally& tally = mesh.fault_tally();
  tally.retried.fetch_add(retried, std::memory_order_relaxed);
  tally.dropped.fetch_add(dropped, std::memory_order_relaxed);
  tally.detoured.fetch_add(detoured, std::memory_order_relaxed);
  span.set_steps(stats.steps);
}

}  // namespace meshpram::detail
