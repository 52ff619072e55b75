// The request packet that travels through the simulated mesh.
//
// One packet is generated per selected copy of a requested variable (§3.3).
// It records its origin, the copy it addresses, the routing key/rank used by
// the sort-and-distribute stages, and the trail of intermediate positions for
// the destination-to-origin return trip.
#pragma once

#include <array>
#include <cstdint>

#include "util/error.hpp"
#include "util/math.hpp"

namespace meshpram {

enum class Op : std::uint8_t { Read = 0, Write = 1 };

struct Packet {
  u64 key = 0;   ///< current sort key (stage-dependent)
  u64 rank = 0;  ///< rank within key group (set by every sort_region)

  u64 copy = 0;       ///< HMOS copy id (variable * q^k + child choices)
  i64 var = -1;       ///< PRAM variable id
  i32 origin = -1;    ///< node that issued the request (global node id)
  i32 dest = -1;      ///< current routing destination (global node id)
  i32 stash = -1;     ///< scratch: saved destination across staged routing
  i64 value = 0;      ///< write payload / read result
  i64 timestamp = -1; ///< copy timestamp carried back by reads
  Op op = Op::Read;

  /// Intermediate stops recorded on the forward journey (one per stage),
  /// replayed in reverse on the way back. k <= 6 in any sane configuration.
  std::array<i32, 8> trail{};
  std::uint8_t trail_len = 0;

  void push_trail(i32 node);
};

inline void Packet::push_trail(i32 node) {
  MP_ASSERT(trail_len < trail.size(),
            "packet trail overflow (more stages than expected)");
  trail[trail_len++] = node;
}

/// Number of mesh words a packet occupies on a link. The paper charges one
/// "step" per packet per link; we keep that convention (a packet = 1 word of
/// routed payload; headers are accounted in the O() constants there too).
inline constexpr i64 kPacketWords = 1;

}  // namespace meshpram
