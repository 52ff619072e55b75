// Deterministic k-k sorting on a rectangular submesh.
//
// The paper relies on mesh sorting/ranking in O(l1 * sqrt(n)) steps
// [KSS94, Kun93]. We implement block SHEARSORT: every node holds a fixed
// block of L = max-initial-load slots (padded with hole sentinels), blocks
// are kept locally sorted, and rows/columns run odd-even block transposition
// (a merge-split comparator per neighboring pair) in alternating passes:
//
//   repeat <= ceil(log2 rows) + 1 times:
//     sort all rows in snake direction   (cols rounds, L words per round)
//     sort all columns downward          (rows rounds, L words per round)
//   final row pass in snake direction
//
// Correctness follows from the 0-1 principle (every merge-split is a monotone
// block comparator). The step count is O(L * (rows + cols) * log rows) — a
// log factor above the cited bound; DESIGN.md §2.2 records this substitution.
// Hole sentinels (key = kHoleKey) sort to the tail of the snake, so real
// packets end up packed at the front of the snake order.
//
// SortMode::Simulated performs every merge-split for real, with early exit
// when a full pass makes no exchange, and charges the rounds actually
// executed. SortMode::Analytic produces the identical final placement but
// charges the full data-independent worst-case round count (the algorithm is
// oblivious, so this is exactly what a hardware run would cost without the
// early-exit wire); it exists so that large benches stay fast. It packs each
// packet into at most two machine words (key, copy, input index — only the
// bits the call needs), radix-sorts the words, and writes each packet back
// once.
//
// Both modes also rank: the write-back sets Packet::rank to the packet's
// index within its equal-key run along the snake (§2 step 2, §3.3). On a
// mesh that ranking is a snake scan over 4-word run summaries, charged
// 4 * (2 * cols + rows) steps by sort_and_rank; sort_region leaves it
// uncharged for callers that do not read ranks.
#pragma once

#include "mesh/machine.hpp"
#include "mesh/region.hpp"

namespace meshpram {

inline constexpr u64 kHoleKey = ~0ULL;

enum class SortMode { Simulated, Analytic };

struct SortOptions {
  SortMode mode = SortMode::Simulated;
};

/// Sorts all packets buffered in `region` by Packet::key (ties broken by
/// Packet::copy, then var, origin, op and value, for determinism) into snake
/// order, packed at the front, and sets every Packet::rank to the packet's
/// index within its key group. Returns the sort's step charge; the caller
/// adds it to the clock (possibly max-ed across parallel regions). Analytic
/// mode throws ConfigError when a key, a copy id and an input index together
/// need more than 128 bits.
i64 sort_region(Mesh& mesh, const Region& region,
                const SortOptions& opts = {});

/// Charges of one sort_and_rank call.
struct SortRankSteps {
  i64 sort = 0;  ///< shearsort (recorded under the `sort.region` span)
  i64 rank = 0;  ///< group-ranking scan (recorded under `rank.groups`)
  i64 total() const { return sort + rank; }
};

/// sort_region plus the charge of ranking within key groups — what CULLING
/// and every forward stage pay before routing by rank.
SortRankSteps sort_and_rank(Mesh& mesh, const Region& region,
                            const SortOptions& opts = {});

/// Worst-case step count of block shearsort on `region` with node capacity L
/// (the Analytic charge).
i64 shearsort_step_bound(const Region& region, i64 capacity);

/// Validation helper: true if the packets in `region` are in ascending key
/// order along the snake, packed at the front.
bool region_sorted(const Mesh& mesh, const Region& region);

/// Count of packets in the largest key group of the region (validation /
/// congestion measurement helper; free of charge).
i64 max_group_size(const Mesh& mesh, const Region& region);

}  // namespace meshpram
