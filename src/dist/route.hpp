// Distributed greedy XY routing over the whole mesh (DESIGN.md §13.2).
//
// Each rank runs the step kernel of routing/greedy_kernel.hpp —
// farthest-first pick, commit and absorb, the schedule route_greedy's line
// engine reproduces — over its own row band. Only the hop sink differs: a
// packet whose XY hop crosses a band edge (always a single vertical hop) is
// exported as a boundary-lane frame to the neighbouring rank instead of
// deposited into a local incoming lane. The per-sweep allreduce of delivered
// counts doubles as the lockstep barrier, so every rank executes the same
// number of sweeps, and the step count is bit-identical to the
// single-process router: per-node decisions depend only on per-node state,
// and each lane has exactly one writer, here a message instead of a store.
#pragma once

#include "dist/collectives.hpp"
#include "dist/partition.hpp"
#include "mesh/machine.hpp"

namespace meshpram::dist {

struct DistRouteStats {
  i64 steps = 0;           ///< sweeps executed (identical on every rank)
  i64 boundary_hops = 0;   ///< packets this rank exported across band edges
  i64 boundary_bytes = 0;  ///< encoded boundary-frame bytes this rank sent
};

/// Routes every packet buffered in `rank`'s band of `mesh` to its
/// Packet::dest buffer, cooperating with the other ranks through `coll`'s
/// transport. All ranks must call this at the same point of the step
/// schedule. `validate` adds per-frame checksums and a per-sweep uniformity
/// check.
DistRouteStats dist_route_whole(Mesh& mesh, const RankPartition& part,
                                int rank, Collectives& coll, bool validate);

}  // namespace meshpram::dist
