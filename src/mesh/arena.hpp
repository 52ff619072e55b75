// Flat, reusable transit storage for the routing kernels.
//
// Every route call keeps its in-flight Packets in one flat slab here; the
// step-by-step kernel (greedy_kernel.hpp: the fault router and the rank-band
// router) also walks per-node queues and lanes laid out by layout():
//
//   payload   in-flight Packets, written once at setup and read once at
//             delivery; they never move while the packet is in transit.
//   queues    per-node transit queues of 8-byte TransitRec (payload handle +
//             remaining offset), laid out strided: the node at physical slot
//             `s` keeps its queue at [s*cap, s*cap + count[s]). The per-step
//             passes walk records, not Packets.
//   lanes     per-node incoming mailboxes, one slot per direction of motion.
//             A node receives at most one packet per incoming link per step
//             (each neighbor forwards at most one packet per outgoing
//             direction), so four slots suffice, and each lane has exactly
//             one writer (the neighbor on that side, or the band router's
//             boundary import).
//
// Each arena also caches, per region extent, the slot maps, slot
// coordinates and neighbour slots (RouteShape), and carries the serial
// walks' active/arrived bitmaps over physical slots.
//
// Ownership/reuse contract: arenas are leased from Mesh::route_arenas() for
// the duration of one route call and returned to the pool afterwards,
// keeping their heap capacity. Pooling (rather than one arena on the Mesh) is
// required because parallel_for_regions runs several route calls at once.
#pragma once

#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "mesh/geometry.hpp"
#include "mesh/node_order.hpp"
#include "mesh/packet.hpp"
#include "mesh/region.hpp"
#include "util/error.hpp"

namespace meshpram {

/// A packet in transit: handle into RouteArena::payload plus the remaining
/// (dr, dc) offset from the node holding it to its destination, written at
/// setup and updated per hop, so a record's direction and distance need no
/// node coordinate. 8 bytes — a queue sweep touches 14x less memory than
/// moving Packets.
struct TransitRec {
  u32 handle;
  i16 dr;
  i16 dc;
};
static_assert(sizeof(TransitRec) == 8, "TransitRec must stay one word");

/// Region-local (row, col) of a physical slot.
struct SlotCoord {
  i16 r;
  i16 c;
};

/// Lookup tables for one region extent under one node order. Route calls
/// repeat the same tessellation extents constantly, so each arena builds a
/// shape's tables once and keeps them (RouteArena::reset).
struct RouteShape {
  int rows = 0;
  int cols = 0;
  NodeOrderKind order = NodeOrderKind::RowMajor;
  std::vector<i32> pos_slot;     ///< snake position -> physical slot
  std::vector<i32> slot_pos;     ///< physical slot -> snake position
  std::vector<SlotCoord> coord;  ///< physical slot -> region-local (r, c)
  /// nbr[slot * kNumDirs + dir] = slot of the neighbour in direction `dir`
  /// (Dir values N, E, S, W), -1 where the step leaves the region.
  std::vector<i32> nbr;

  RouteShape(int rows_, int cols_, NodeOrderKind order_)
      : rows(rows_), cols(cols_), order(order_) {
    const i64 n = static_cast<i64>(rows) * cols;
    pos_slot.resize(static_cast<size_t>(n));
    slot_pos.resize(static_cast<size_t>(n));
    coord.resize(static_cast<size_t>(n));
    nbr.resize(static_cast<size_t>(n) * kNumDirs);
    // Under a curve order the per-node blocks follow the same curve as the
    // mesh's node state; row-major keeps slot == snake position.
    std::vector<i32> id_at_slot;
    if (order != NodeOrderKind::RowMajor) {
      fill_curve_order(rows, cols, order, id_at_slot);
    }
    for (i64 s = 0; s < n; ++s) {
      i64 pos = s;
      int r = static_cast<int>(s / cols);
      int c = static_cast<int>(s % cols);
      if (order == NodeOrderKind::RowMajor) {
        if ((r & 1) != 0) c = cols - 1 - c;
      } else {
        const i32 rm = id_at_slot[static_cast<size_t>(s)];
        r = rm / cols;
        c = rm % cols;
        pos = static_cast<i64>(r) * cols + ((r & 1) == 0 ? c : cols - 1 - c);
      }
      pos_slot[static_cast<size_t>(pos)] = static_cast<i32>(s);
      slot_pos[static_cast<size_t>(s)] = static_cast<i32>(pos);
      coord[static_cast<size_t>(s)] = {static_cast<i16>(r),
                                       static_cast<i16>(c)};
    }
    const auto snake = [this](int r, int c) -> i32 {
      if (r < 0 || r >= rows || c < 0 || c >= cols) return -1;
      const i64 pos =
          static_cast<i64>(r) * cols + ((r & 1) == 0 ? c : cols - 1 - c);
      return pos_slot[static_cast<size_t>(pos)];
    };
    for (i64 s = 0; s < n; ++s) {
      const SlotCoord x = coord[static_cast<size_t>(s)];
      i32* out = nbr.data() + s * kNumDirs;
      out[static_cast<int>(Dir::North)] = snake(x.r - 1, x.c);
      out[static_cast<int>(Dir::East)] = snake(x.r, x.c + 1);
      out[static_cast<int>(Dir::South)] = snake(x.r + 1, x.c);
      out[static_cast<int>(Dir::West)] = snake(x.r, x.c - 1);
    }
  }
};

class RouteArena {
 public:
  /// Tombstone handle used by the routers' mark-and-compact commit.
  static constexpr u32 kInvalidHandle = ~0u;

  /// Starts a new route call over `region`: clears the payload and setup
  /// scratch. Capacities of all slabs are kept (reuse contract). `order`
  /// picks the physical placement of the per-node queue/lane blocks that
  /// layout() prepares: under Hilbert the blocks follow the same curve as
  /// the mesh's node state, so neighboring nodes' transit queues share cache
  /// lines at every tessellation level. Purely physical — the shape's tables
  /// translate between snake positions and slots.
  void reset(const Region& region, NodeOrderKind order) {
    region_ = region;
    order_ = order;
    nodes_ = region.size();
    payload.clear();
    setup_rec.clear();
    setup_pos.clear();
  }

  /// Prepares the queue walks over the region of the last reset(): selects
  /// the shape's tables, zeroes queue counts, lane flags and the serial
  /// walks' bitmaps, and sizes the strided queue slab for `cap` records per
  /// node. Slab contents are garbage until scattered into.
  void layout(i64 cap) {
    MP_ASSERT(cap >= kNumDirs, "queue capacity " << cap);
    select_shape(region_, order_);
    count_.assign(static_cast<size_t>(nodes_), 0);
    in_rec_.resize(static_cast<size_t>(nodes_) * kNumDirs);
    in_full_.assign(static_cast<size_t>(nodes_) * kNumDirs, 0);
    const size_t words = static_cast<size_t>((nodes_ + 63) / 64);
    active.assign(words, 0);
    arrived.assign(words, 0);
    cap_ = cap;
    rec_.resize(static_cast<size_t>(nodes_) * static_cast<size_t>(cap));
  }

  /// Grows every queue to `new_cap` records in place, preserving contents.
  /// Walks physical slots back-to-front so the strided moves never overlap.
  void grow(i64 new_cap) {
    MP_ASSERT(new_cap > cap_, "arena grow to " << new_cap);
    rec_.resize(static_cast<size_t>(nodes_) * static_cast<size_t>(new_cap));
    for (i64 slot = nodes_ - 1; slot > 0; --slot) {
      const i32 cnt = count_[static_cast<size_t>(slot)];
      if (cnt > 0) {
        std::memmove(rec_.data() + slot * new_cap, rec_.data() + slot * cap_,
                     static_cast<size_t>(cnt) * sizeof(TransitRec));
      }
    }
    cap_ = new_cap;
  }

  i64 cap() const { return cap_; }

  /// Flat views addressed by physical slot (shape().pos_slot maps a snake
  /// position to its slot): node s's queue is queue_base()[s * cap(), +
  /// counts()[s]), its lanes lane_recs()/lane_full()[s * kNumDirs + lane].
  /// The queue slab moves on grow(): re-read queue_base() after one.
  i32* counts() { return count_.data(); }
  TransitRec* queue_base() { return rec_.data(); }
  TransitRec* lane_recs() { return in_rec_.data(); }
  unsigned char* lane_full() { return in_full_.data(); }

  /// Tables of the current call's region extent (valid after layout()).
  const RouteShape& shape() const { return *shape_; }

  /// In-flight packets, appended at setup; stable until the call completes.
  std::vector<Packet> payload;
  /// Setup scratch: records and their nodes' snake positions in discovery
  /// (snake) order, scattered into the strided queues once the capacity is
  /// known.
  std::vector<TransitRec> setup_rec;
  std::vector<i32> setup_pos;

  /// Serial-walk bitmaps over physical slots (bit s of word s / 64):
  /// `active` marks nodes with a non-empty transit queue, `arrived` the
  /// nodes that received a lane deposit this step. Zeroed by layout().
  std::vector<u64> active;
  std::vector<u64> arrived;

 private:
  /// At most this many extents keep tables; the oldest is dropped first.
  static constexpr size_t kMaxShapes = 32;

  void select_shape(const Region& region, NodeOrderKind order) {
    const auto matches = [&](const RouteShape& sh) {
      return sh.rows == region.rows() && sh.cols == region.cols() &&
             sh.order == order;
    };
    if (shape_ != nullptr && matches(*shape_)) return;
    for (const auto& sh : shapes_) {
      if (matches(*sh)) {
        shape_ = sh.get();
        return;
      }
    }
    if (shapes_.size() == kMaxShapes) shapes_.erase(shapes_.begin());
    shapes_.push_back(
        std::make_unique<RouteShape>(region.rows(), region.cols(), order));
    shape_ = shapes_.back().get();
  }

  Region region_;
  NodeOrderKind order_ = NodeOrderKind::RowMajor;
  i64 nodes_ = 0;
  i64 cap_ = 0;
  std::vector<std::unique_ptr<RouteShape>> shapes_;
  const RouteShape* shape_ = nullptr;
  std::vector<TransitRec> rec_;
  std::vector<i32> count_;
  std::vector<TransitRec> in_rec_;
  std::vector<unsigned char> in_full_;
};

/// Mutex-guarded free list of RouteArenas. Leases are per route call; the
/// pool never shrinks (at most one arena per concurrently running route
/// call, i.e. per pool thread).
class ArenaPool {
 public:
  RouteArena* acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      all_.push_back(std::make_unique<RouteArena>());
      return all_.back().get();
    }
    RouteArena* a = free_.back();
    free_.pop_back();
    return a;
  }

  void release(RouteArena* a) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(a);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<RouteArena>> all_;
  std::vector<RouteArena*> free_;
};

}  // namespace meshpram
