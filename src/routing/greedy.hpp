// Cycle-accurate greedy XY (dimension-order) store-and-forward routing.
//
// Every packet first corrects its column (east/west), then its row
// (north/south). Per machine step, every directed link carries at most one
// packet; when several queued packets want the same outgoing link, the one
// with the largest remaining distance goes first (farthest-first is the
// classic priority that makes greedy routing optimal for permutations), and
// of equals the one queued first; a node queues one step's arrivals in a
// fixed lane order (DESIGN.md §9).
// Queues are unbounded (store-and-forward with buffering at the nodes);
// congestion and queueing delay are therefore emergent, which is exactly
// what the (l1,l2)-routing benches measure against Theorem 2.
#pragma once

#include "mesh/machine.hpp"
#include "mesh/region.hpp"

namespace meshpram {

struct RouteStats {
  i64 steps = 0;          ///< parallel machine steps (cycles)
  i64 max_queue = 0;      ///< peak per-node transit queue occupancy
  i64 packets = 0;        ///< packets routed
  i64 total_distance = 0; ///< sum of source-destination Manhattan distances
  // Fault-injection accounting (all zero without an active fault plan that
  // affects routing; see fault/plan.hpp for the event semantics).
  i64 fault_retried = 0;  ///< hop attempts blocked by stall backoff or drops
  i64 fault_dropped = 0;  ///< link-level drops (detected and retransmitted)
  i64 fault_detoured = 0; ///< hops taken off the XY path around dead links
};

/// Routes every packet buffered in `region` to its Packet::dest node buffer.
/// All destinations must lie inside `region`. Returns cycle-accurate stats.
///
/// Fault-free calls run the line engine (greedy.cpp, DESIGN.md §9): the E
/// and W line of every row, then the S and N line of every column, each
/// solved one priority class at a time against per-position slot bitsets.
/// It reproduces the machine-step schedule exactly: steps, max_queue, the
/// per-node delivery order and the congestion counter grids. Regions of at
/// least stripe_min_nodes() nodes (mesh/parallel.hpp) solve their lines in
/// chunks on the execution pool; results are bit-identical at any thread
/// count. Each call records one `route.greedy` span (with its steps), and
/// under it `route.rows` and `route.cols`.
///
/// When the mesh carries a fault plan that affects routing (dead or stalled
/// links, a positive drop rate), the call runs the step kernel
/// (greedy_kernel.hpp) serially under the fault policy (greedy_fault.cpp):
/// stalled hops back off and retry, dead links are detoured, drops are
/// retransmitted — no packet is ever lost. Plans that only kill memory
/// modules stay on the line engine, so their step counts are bit-identical
/// to the fault-free run.
RouteStats route_greedy(Mesh& mesh, const Region& region);

/// Test hook: extra per-node queue capacity the step kernel lays out beyond
/// the setup-time maximum depth (default 2). Raising it pre-grows the arena
/// so the overflow grow path never triggers; the adversarial-burst test
/// compares the two configurations for bit-identical delivery. Not
/// thread-safe; set it before spawning work.
void set_route_initial_headroom(i64 slots);
i64 route_initial_headroom();

namespace detail {
/// Serial fault-aware greedy route. Called by route_greedy after the route
/// setup; `in_flight` is the number of in-transit records already scattered
/// into `ar`'s queues. Fills steps/max_queue/fault_* of `stats` and adds the
/// fault events to mesh.fault_tally(). Throws fault::FaultError if the plan
/// leaves some packet unroutable (step cap exceeded).
void route_greedy_fault(Mesh& mesh, const Region& region, RouteArena& ar,
                        i64 in_flight, RouteStats& stats);
}  // namespace detail

}  // namespace meshpram
