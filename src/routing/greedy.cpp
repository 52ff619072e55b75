#include "routing/greedy.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "mesh/parallel.hpp"
#include "routing/greedy_kernel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

namespace {

const telemetry::Label kRouteGreedy = telemetry::intern("route.greedy");
const telemetry::Label kRouteRows = telemetry::intern("route.rows");
const telemetry::Label kRouteCols = telemetry::intern("route.cols");

/// Extra queue capacity beyond the setup max depth (set_route_initial_headroom).
i64 g_route_headroom = 2;

// ---------------------------------------------------------------------------
// The line engine (DESIGN.md §9). Under XY routing an east- or west-bound
// packet only competes with packets of its own row moving the same way, and
// a north- or south-bound one only with packets of its own column moving
// the same way. So a route is a row phase (the E and W line of every row)
// followed by a column phase (the S and N line of every column), into which
// each turning packet is injected at the step and lane where its row line
// delivers it. Inside a line a packet's priority (exit position plus
// remaining cross distance) is constant, and ties go to the earlier arrival,
// so a line is solved one priority class at a time, highest first: each
// packet takes the first free departure slot after its arrival in its
// node's slot bitset, which is exactly the step-by-step kernel's schedule.
// ---------------------------------------------------------------------------

/// A packet in transit as seeded: payload handle, remaining offset, and the
/// region-local row and column of its source node.
struct SeedRec {
  u32 handle;
  i16 dr;
  i16 dc;
  i16 row;
  i16 col;
};

/// A column-line injection at region-local node (row, col): a seed with
/// dc == 0 (time 0, rank -1), or a packet its row line hands over at `time`
/// through the lane of canonical rank `rank`.
struct ColRec {
  u32 handle;
  i32 time;
  i16 dr;
  i16 row;
  i16 col;
  i16 rank;
};

/// One packet of the line being solved. Line positions grow along the
/// direction of motion; `src` indexes the phase's input records.
struct LineItem {
  i32 time;  ///< step at which the packet is queued at its entry position
  i16 exit;  ///< position where it leaves the line (delivery or turn)
  i16 rank;  ///< canonical lane rank of its injection (seeds: -1)
  u32 src;
};

/// A packet moving down the line within one priority class: the step it
/// arrives at the current position, and where it leaves the line.
struct TrainCar {
  i32 time;
  i32 exit;
  u32 item;
};

/// Per-thread scratch for solving lines.
struct LineScratch {
  std::vector<LineItem> items;
  std::vector<u64> keys[2];  ///< per direction of the line pair
  std::vector<TrainCar> train;
  std::vector<TrainCar> order;  ///< train and injections, merged
  std::vector<u32> inj;  ///< one position's injections of one class
  std::vector<u64> sort_tmp;
  std::vector<i32> sort_count;
};

LineScratch& line_scratch() {
  thread_local LineScratch sc;
  return sc;
}

/// Sort key of a line item: priority classes in decreasing order, then the
/// entry position, then the item index (items are listed in queue order
/// within a node).
u64 line_key(int priority, int pos, size_t item) {
  return (static_cast<u64>(0xFFFF - priority) << 48) |
         (static_cast<u64>(pos) << 32) | static_cast<u64>(item);
}
int key_pos(u64 key) { return static_cast<int>((key >> 32) & 0xFFFF); }
u32 key_item(u64 key) { return static_cast<u32>(key); }

/// Delivery key of a node's buffer order: step, then canonical lane rank.
u64 delivery_key(i32 time, int rank, u32 handle) {
  return (static_cast<u64>(time) << 34) | (static_cast<u64>(rank) << 32) |
         handle;
}

/// Claims the first free slot at or after `from` in one position's slot
/// bitset of `words` words (the line's horizon). depart's slow path.
[[gnu::noinline]] i32 claim_slot(u64* node, i32 from, i32 words) {
  i32 w = from >> 6;
  u64 free = ~node[w] & (~u64{0} << (from & 63));
  while (free == 0) {
    ++w;
    MP_ASSERT(w < words, "slot search left the line's horizon");
    free = ~node[w];
  }
  const int b = __builtin_ctzll(free);
  node[w] |= u64{1} << b;
  return w * 64 + b;
}

/// Departure step of a packet that arrived at a position at step `time`:
/// the first free slot after it, claimed. Mostly that is the very next slot,
/// which is tested without making the packet's next position wait for the
/// answer.
inline i32 depart(u64* node, i32 time, i32 words) {
  const i32 from = time + 1;
  MP_ASSERT((from >> 6) < words, "slot search left the line's horizon");
  u64& word = node[from >> 6];
  const u64 bit = u64{1} << (from & 63);
  if ((word & bit) != 0) return claim_slot(node, from, words);
  word |= bit;
  return from;
}

/// Solves a line whose packets are all seeds (a row line). Within a class,
/// a packet seeded further down the line is ahead of every packet that
/// reaches its position from behind, and seeds at one position leave in
/// buffer order, so each packet runs its whole way in key order: classes by
/// decreasing priority, then from the line's far end back (`keys` hold
/// len - 1 - position), then buffer order. Otherwise as solve_line.
template <class Exit>
i32 solve_seed_line(const LineScratch& sc, const std::vector<u64>& keys,
                    int len, u64* bits, i32 words, Exit&& exit) {
  i32 last = 0;
  for (const u64 key : keys) {
    const LineItem& it = sc.items[key_item(key)];
    i32 t = 0;
    for (int y = len - 1 - key_pos(key); y < it.exit; ++y) {
      t = depart(bits + static_cast<i64>(y) * words, t, words);
    }
    exit(it.src, t);
    last = std::max(last, t);
  }
  return last;
}

/// Solves one line: `keys` (sorted line_key values over sc.items) in
/// decreasing priority classes. Within a class, packets never overtake each
/// other, and the train (the class's packets on their way down the line)
/// changes only where the class injects packets. So the sweep merges the
/// train arriving at an injection position (on the lane of rank
/// `cont_rank`) with the injections there in (step, lane rank) order, then
/// runs each packet in that order down to the next injection position:
/// every packet takes the first free slot after its arrival at each
/// position, and at its exit calls `exit(src, step)` instead. `bits` holds
/// `words` words per position. Injections at one position are listed in
/// queue order for equal steps (seeds in buffer order). Returns the line's
/// last step (0 when it carries nothing).
template <class Exit>
i32 solve_line(LineScratch& sc, const std::vector<u64>& keys, u64* bits,
               i32 words, int cont_rank, Exit&& exit) {
  const LineItem* items = sc.items.data();
  const size_t n = keys.size();
  if (sc.train.size() < n) {
    sc.train.resize(n);
    sc.order.resize(n);
  }
  TrainCar* train = sc.train.data();
  TrainCar* order = sc.order.data();
  std::vector<u32>& inj = sc.inj;
  const auto before = [items](u32 a, u32 b) {
    return items[a].time != items[b].time ? items[a].time < items[b].time
                                          : items[a].rank < items[b].rank;
  };
  i32 last = 0;
  size_t k = 0;
  while (k < n) {
    const u64 cls = keys[k] >> 48;
    size_t end = k + 1;
    while (end < n && (keys[end] >> 48) == cls) ++end;
    size_t cars = 0;
    while (k < end) {
      // Injection position x: the class's injections there, in queue order.
      const int x = key_pos(keys[k]);
      inj.clear();
      for (; k < end && key_pos(keys[k]) == x; ++k) {
        inj.push_back(key_item(keys[k]));
      }
      for (size_t i = 1; i < inj.size(); ++i) {  // stable, and short
        const u32 v = inj[i];
        size_t j = i;
        for (; j > 0 && before(v, inj[j - 1]); --j) inj[j] = inj[j - 1];
        inj[j] = v;
      }
      // Cars still on the train arrive at x; merge them with the
      // injections in (step, lane rank) order.
      size_t merged = 0;
      size_t t = 0;
      for (const u32 it : inj) {
        const LineItem& a = items[it];
        while (t < cars && (train[t].time < a.time ||
                            (train[t].time == a.time && cont_rank < a.rank))) {
          order[merged++] = train[t++];
        }
        order[merged++] = {a.time, a.exit, it};
      }
      while (t < cars) order[merged++] = train[t++];
      // Run every car, in that order, down to the next injection position.
      const int stop =
          k < end ? key_pos(keys[k]) : std::numeric_limits<int>::max();
      cars = 0;
      for (size_t m = 0; m < merged; ++m) {
        TrainCar car = order[m];
        int y = x;
        const int until = std::min(car.exit, stop);
        for (; y < until; ++y) {
          car.time = depart(bits + static_cast<i64>(y) * words, car.time,
                            words);
        }
        if (y == car.exit) {
          exit(items[car.item].src, car.time);
          last = std::max(last, car.time);
        } else {
          train[cars++] = car;
        }
      }
    }
  }
  return last;
}

/// Sorts [first, last): by insertion while short (most lines and nodes
/// carry a few packets), else std::sort.
void sort_keys(u64* first, u64* last) {
  if (last - first > 48) {
    std::sort(first, last);
    return;
  }
  for (u64* i = first + 1; i < last; ++i) {
    const u64 v = *i;
    u64* j = i;
    for (; j > first && v < j[-1]; --j) *j = j[-1];
    *j = v;
  }
}

/// Sorts line keys by (class, position), keeping the item order within a
/// position: two stable counting passes, or sort_keys when short.
void sort_line_keys(std::vector<u64>& keys, LineScratch& sc) {
  const size_t n = keys.size();
  if (n <= 48) {
    sort_keys(keys.data(), keys.data() + n);
    return;
  }
  std::vector<u64>& tmp = sc.sort_tmp;
  std::vector<i32>& count = sc.sort_count;
  tmp.resize(n);
  const auto pass = [&](const std::vector<u64>& from, std::vector<u64>& to,
                        int shift) {
    u32 lo = 0xFFFF;
    u32 hi = 0;
    for (const u64 k : from) {
      const u32 d = static_cast<u32>(k >> shift) & 0xFFFF;
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    count.assign(hi - lo + 2, 0);
    for (const u64 k : from) ++count[((k >> shift) & 0xFFFF) - lo + 1];
    for (size_t d = 1; d < count.size(); ++d) count[d] += count[d - 1];
    for (const u64 k : from) {
      to[static_cast<size_t>(count[((k >> shift) & 0xFFFF) - lo]++)] = k;
    }
  };
  pass(keys, tmp, 32);  // position
  pass(tmp, keys, 48);  // class
}

/// Per-row state of a route call.
struct RowLine {
  i32 seeds = 0;      ///< first seed of the row (seeds are in row order)
  i32 hand = 0;       ///< first handoff slot of the row
  i32 hand_fill = 0;  ///< next handoff slot
  i32 words = 0;      ///< slot-bitset words per position
  i32 used = 0;       ///< words up to the lines' last step
  i64 bits = 0;       ///< bitset base: the E line, then the W line
  i64 last = 0;       ///< last delivery step at the row's nodes
  i64 peak = 0;       ///< peak observed queue depth at the row's nodes
};

/// Per-column state of a route call.
struct ColLine {
  i32 in = 0;           ///< first injection of the column
  i32 fill = 0;         ///< next injection slot
  i32 last_inject = 0;  ///< latest injection step
  i32 words = 0;        ///< slot-bitset words per position
  i32 used = 0;         ///< words up to the lines' last step
  i64 bits = 0;         ///< bitset base: the S line, then the N line
};

/// Per-node state of a route call (region-local row-major index).
struct NodeCell {
  i32 deliv = 0;      ///< first delivery key
  i32 row_fill = 0;   ///< next row-phase delivery
  i32 col_first = 0;  ///< first column-phase delivery
  i32 col_fill = 0;   ///< next column-phase delivery
  i32 transit = 0;    ///< packets seeded here in transit
};

/// Per-call slabs of the line engine, kept per thread across calls.
struct LineSlabs {
  std::vector<SeedRec> seeds;  ///< discovery (snake) order, so by row
  std::vector<RowLine> rows;   ///< rows + 1
  std::vector<ColLine> cols;   ///< cols + 1
  std::vector<NodeCell> nodes;  ///< nodes + 1
  std::vector<ColRec> hand;    ///< row-phase handoffs, by row
  std::vector<ColRec> col_in;  ///< column-phase injections, by column
  std::vector<u64> deliv;      ///< delivery keys, by node
  std::vector<u64> row_bits;
  std::vector<u64> col_bits;
};

LineSlabs& line_slabs() {
  thread_local LineSlabs sl;
  return sl;
}

/// Runs fn(scratch, line) for every line in [0, n): on the calling thread,
/// or chunked over the execution pool. Each line writes only its own
/// slices, so the result is the same under any chunking.
template <class Fn>
void for_lines(i64 n, bool team, const Fn& fn) {
  if (!team) {
    LineScratch& sc = line_scratch();
    for (i64 i = 0; i < n; ++i) fn(sc, i);
    return;
  }
  execution_pool().for_each_chunk(n, 1, [&fn](i64 begin, i64 end) {
    LineScratch& sc = line_scratch();
    for (i64 i = begin; i < end; ++i) fn(sc, i);
  });
}

/// Words of a slot bitset covering every departure of a line of `len`
/// positions carrying `packets` packets injected by step `last_inject`: a
/// packet waits at most once per packet ahead of it in the line's static
/// priority order, so every departure happens before
/// last_inject + len + packets.
i32 horizon_words(i64 last_inject, i64 len, i64 packets) {
  if (packets == 0) return 0;
  const i64 horizon = last_inject + len + packets;
  MP_REQUIRE(horizon < (i64{1} << 30), "route horizon " << horizon);
  return static_cast<i32>((horizon + 63) / 64);
}

/// Event codes of the depth scan: bit l (l < 4) of a step's code is an
/// arrival on incoming lane l, bit 4 + l a departure in direction l.
/// spread[byte] moves bit j of a byte to bit 0 of byte j, so OR-ing eight
/// spread, shifted stream bytes transposes them into eight step codes.
struct EventTables {
  u64 spread[256];
  constexpr EventTables() : spread() {
    for (int x = 0; x < 256; ++x) {
      for (int j = 0; j < 8; ++j) {
        if ((x >> j) & 1) spread[x] |= u64{1} << (8 * j);
      }
    }
  }
};
constexpr EventTables kEvents;

constexpr u64 kBytes = 0x0101010101010101ULL;

/// Per byte of `v` (values below 16): its bit count.
u64 nibble_counts(u64 v) {
  v -= (v >> 1) & (0x55 * kBytes);
  return (v & (0x33 * kBytes)) + ((v >> 2) & (0x33 * kBytes));
}

/// The last pass of a route over one row of nodes: fills each node's buffer
/// in (step, lane rank) order, and follows its queue depth, seeds +
/// arrivals - deliveries - departures, from the departure bitsets of the
/// node (its own lines) and of its neighbours (its arrivals), eight steps
/// at a time. The kernel observes the depth only at steps with an arrival;
/// eight steps whose arrivals cannot beat the node's peak so far, and that
/// deliver nothing, only move the depth.
void finish_row(Mesh& mesh, const Region& region, const RouteArena& ar,
                LineSlabs& sl, bool count_congestion, i64 i) {
  const int R = region.rows();
  const int C = region.cols();
  const int row = static_cast<int>(i);
  RowLine& line = sl.rows[static_cast<size_t>(i)];
  const i32 wr = line.words;
  const i32 ur = line.used;
  const u64* rb = sl.row_bits.data() + line.bits;
  const auto east = [&](int x) { return rb + static_cast<i64>(x) * wr; };
  const auto west = [&](int x) { return rb + static_cast<i64>(C + x) * wr; };
  u64* dl = sl.deliv.data();
  for (int c = 0; c < C; ++c) {
    const NodeCell& cell = sl.nodes[static_cast<size_t>(i * C + c)];
    const i32 id = (region.r0() + row) * mesh.cols() + region.c0() + c;
    const i32 b = cell.deliv;
    const i32 e = (&cell)[1].deliv;
    MP_ASSERT(cell.row_fill == cell.col_first && cell.col_fill == e,
              "node " << id << " did not receive every packet bound to it");
    if (e > b) {
      sort_keys(dl + b, dl + e);
      auto& buf = mesh.buf(id);
      for (i32 j = b; j < e; ++j) {
        const Packet& p = ar.payload[static_cast<u32>(dl[j])];
        MP_ASSERT(p.dest == id,
                  "packet delivered to " << id << ", not " << p.dest);
        buf.push_back(p);
      }
      line.last = std::max<i64>(line.last, static_cast<i64>(dl[e - 1] >> 34));
    }

    const ColLine& col = sl.cols[static_cast<size_t>(c)];
    const i32 wc = col.words;
    const i32 uc = col.used;
    const u64* cb = sl.col_bits.data() + col.bits;
    const auto south = [&](int x) { return cb + static_cast<i64>(x) * wc; };
    const auto north = [&](int x) {
      return cb + static_cast<i64>(R + x) * wc;
    };
    // Streams 0-3 arrive from the west, east, north and south neighbours;
    // streams 4-7 are the node's own E, W, S and N departures.
    const u64* stream[8] = {c > 0 ? east(c - 1) : nullptr,
                            c + 1 < C ? west(C - 2 - c) : nullptr,
                            row > 0 ? south(row - 1) : nullptr,
                            row + 1 < R ? north(R - 2 - row) : nullptr,
                            east(c),
                            west(C - 1 - c),
                            south(row),
                            north(R - 1 - row)};
    const i32 words[8] = {ur, ur, uc, uc, ur, ur, uc, uc};
    i64 depth = cell.transit;  // after the steps so far
    i64 node_peak = -1;        // none observed yet
    i64 departed = 0;
    i32 dp = b;  // deliveries so far: [b, dp)
    const i32 wmax = std::max(ur, uc);
    for (i32 w = 0; w < wmax; ++w) {
      u64 x[8];
      u64 any = 0;
      for (int l = 0; l < 8; ++l) {
        x[l] = w < words[l] && stream[l] != nullptr ? stream[l][w] : 0;
        any |= x[l];
      }
      for (int k = 0; k < 64 && (any >> k) != 0; k += 8) {
        if (((any >> k) & 0xFF) == 0) continue;
        u64 codes = 0;
        for (int l = 0; l < 8; ++l) {
          codes |= kEvents.spread[(x[l] >> k) & 0xFF] << l;
        }
        // Per step (byte): arrivals, departures, and their running sums.
        const u64 in = nibble_counts(codes & (0x0F * kBytes));
        const u64 out = nibble_counts((codes >> 4) & (0x0F * kBytes));
        const u64 in_sum = in * kBytes;
        const u64 out_sum = out * kBytes;
        const i64 first = static_cast<i64>(w) * 64 + k;
        const bool delivers =
            dp < e && static_cast<i64>(dl[dp] >> 34) < first + 8;
        bool quiet = !delivers && node_peak >= 0;
        if (quiet && node_peak - depth < 32) {
          // Per step: 64 + the depth change so far (32..96), and whether
          // an arrival there lifts the depth above node_peak.
          const u64 level = 64 * kBytes + in_sum - out_sum;
          const u64 need =
              static_cast<u64>(std::max<i64>(node_peak - depth, -33) + 65);
          const u64 arrivals = (in + 0x7F * kBytes) & (0x80 * kBytes);
          quiet = (((level | 0x80 * kBytes) - need * kBytes) & arrivals) == 0;
        }
        if (quiet) {
          depth += static_cast<i64>(in_sum >> 56) -
                   static_cast<i64>(out_sum >> 56);
          departed += static_cast<i64>(out_sum >> 56);
          continue;
        }
        for (int j = 0; j < 8; ++j) {
          const int arrived = static_cast<int>((in >> (8 * j)) & 0xFF);
          const int gone = static_cast<int>((out >> (8 * j)) & 0xFF);
          depth += arrived - gone;
          departed += gone;
          if (arrived == 0) continue;
          while (dp < e && static_cast<i64>(dl[dp] >> 34) <= first + j) {
            ++dp;
            --depth;
          }
          node_peak = std::max(node_peak, depth);
        }
      }
    }
    line.peak = std::max(line.peak, node_peak);
    if (count_congestion) {
      if (departed > 0) mesh.counters().add_forwarded(id, departed);
      if (node_peak >= 0) mesh.counters().observe_queue(id, node_peak);
    }
  }
}

/// The fault-free route: row phase, column phase, then one pass per node
/// that fills its buffer in (step, lane rank) order and derives its queue
/// depths from the kept departure bitsets.
void route_lines(Mesh& mesh, const Region& region, RouteArena& ar,
                 LineSlabs& sl, i64 in_flight, bool count_congestion,
                 RouteStats& stats) {
  const int R = region.rows();
  const int C = region.cols();
  const i64 nodes = region.size();
  const bool team = !in_parallel_worker() && execution_threads() > 1 &&
                    nodes >= stripe_min_nodes();

  // Counts per row, column and node, all known from the seeds, then their
  // prefix sums. rows[].words counts row-line packets until it is sized.
  sl.rows.assign(static_cast<size_t>(R) + 1, RowLine{});
  sl.cols.assign(static_cast<size_t>(C) + 1, ColLine{});
  sl.nodes.assign(static_cast<size_t>(nodes) + 1, NodeCell{});
  for (const SeedRec& s : sl.seeds) {
    const int dest_c = s.col + s.dc;
    const size_t dest = static_cast<size_t>(s.row + s.dr) * C + dest_c;
    RowLine& line = sl.rows[static_cast<size_t>(s.row)];
    ++line.seeds;
    ++sl.nodes[static_cast<size_t>(s.row) * C + s.col].transit;
    ++sl.nodes[dest].deliv;
    if (s.dc != 0) ++line.words;
    if (s.dr != 0) {
      ++sl.cols[static_cast<size_t>(dest_c)].in;
      if (s.dc != 0) ++line.hand;
    } else {
      ++sl.nodes[dest].row_fill;
    }
  }
  i32 seeds = 0;
  i32 hand = 0;
  i64 row_bits = 0;
  for (RowLine& line : sl.rows) {
    const i32 n_seeds = line.seeds;
    const i32 n_hand = line.hand;
    line.seeds = seeds;
    line.hand = line.hand_fill = hand;
    line.words = horizon_words(0, C, line.words);
    line.bits = row_bits;
    seeds += n_seeds;
    hand += n_hand;
    row_bits += 2 * static_cast<i64>(C) * line.words;
  }
  i32 col_in = 0;
  for (ColLine& col : sl.cols) {
    const i32 n = col.in;
    col.in = col.fill = col_in;
    col_in += n;
  }
  i32 deliv = 0;
  for (NodeCell& cell : sl.nodes) {
    const i32 n = cell.deliv;
    cell.deliv = deliv;
    cell.col_first = cell.col_fill = deliv + cell.row_fill;
    cell.row_fill = deliv;
    deliv += n;
  }
  sl.hand.resize(static_cast<size_t>(hand));
  sl.col_in.resize(static_cast<size_t>(col_in));
  sl.deliv.resize(static_cast<size_t>(in_flight));
  sl.row_bits.assign(static_cast<size_t>(row_bits), 0);

  {
    telemetry::Span rows(telemetry::Cat::Phase, kRouteRows);
    for_lines(R, team, [&](LineScratch& sc, i64 i) {
      RowLine& line = sl.rows[static_cast<size_t>(i)];
      if (line.words == 0) return;
      sc.items.clear();
      sc.keys[0].clear();
      sc.keys[1].clear();
      for (i32 j = line.seeds; j < (&line)[1].seeds; ++j) {
        const SeedRec& s = sl.seeds[static_cast<size_t>(j)];
        if (s.dc == 0) continue;
        const int adr = s.dr < 0 ? -s.dr : s.dr;
        const bool east = s.dc > 0;
        const int pos = east ? s.col : C - 1 - s.col;
        const int exit = east ? s.col + s.dc : C - 1 - (s.col + s.dc);
        sc.keys[east ? 0 : 1].push_back(
            line_key(adr + exit, C - 1 - pos, sc.items.size()));
        sc.items.push_back({0, static_cast<i16>(exit), -1, static_cast<u32>(j)});
      }
      // Canonical lane ranks at this row: moved East is lane 1, moved West
      // lane 2, swapped on west-going (odd) rows.
      const int odd = static_cast<int>(i & 1);
      u64* base = sl.row_bits.data() + line.bits;
      for (int d = 0; d < 2; ++d) {
        sort_line_keys(sc.keys[d], sc);
        const int rank = d == 0 ? 1 + odd : 2 - odd;
        const i32 last = solve_seed_line(
            sc, sc.keys[d], C, base + static_cast<i64>(d) * C * line.words,
            line.words, [&](u32 src, i32 time) {
                     const SeedRec& s = sl.seeds[src];
                     const int dest_c = s.col + s.dc;
                     if (s.dr == 0) {
                       NodeCell& cell = sl.nodes[static_cast<size_t>(i * C + dest_c)];
                       sl.deliv[static_cast<size_t>(cell.row_fill++)] =
                           delivery_key(time, rank, s.handle);
                     } else {
                       sl.hand[static_cast<size_t>(line.hand_fill++)] = {
                           s.handle,         time,
                           s.dr,             static_cast<i16>(i),
                           static_cast<i16>(dest_c), static_cast<i16>(rank)};
                     }
                   });
        line.used = std::max(line.used, last / 64 + 1);
      }
    });

    // Column injections by row, and within a node the seeds (buffer order)
    // before the handoffs; the column sweep orders a node's injections by
    // (step, lane rank).
    for (int i = 0; i < R; ++i) {
      const RowLine& line = sl.rows[static_cast<size_t>(i)];
      for (i32 j = line.seeds; j < (&line)[1].seeds; ++j) {
        const SeedRec& s = sl.seeds[static_cast<size_t>(j)];
        if (s.dc != 0) continue;
        sl.col_in[static_cast<size_t>(sl.cols[static_cast<size_t>(s.col)].fill++)] =
            {s.handle, 0, s.dr, s.row, s.col, -1};
      }
      MP_ASSERT(line.hand_fill == (&line)[1].hand,
                "row " << i << " lost a turning packet");
      for (i32 j = line.hand; j < line.hand_fill; ++j) {
        const ColRec& h = sl.hand[static_cast<size_t>(j)];
        ColLine& col = sl.cols[static_cast<size_t>(h.col)];
        sl.col_in[static_cast<size_t>(col.fill++)] = h;
        col.last_inject = std::max(col.last_inject, h.time);
      }
    }
  }

  i64 col_bits = 0;
  for (int c = 0; c < C; ++c) {
    ColLine& col = sl.cols[static_cast<size_t>(c)];
    col.words = horizon_words(col.last_inject, R, (&col)[1].in - col.in);
    col.bits = col_bits;
    col_bits += 2 * static_cast<i64>(R) * col.words;
  }
  sl.col_bits.assign(static_cast<size_t>(col_bits), 0);

  telemetry::Span cols(telemetry::Cat::Phase, kRouteCols);
  for_lines(C, team, [&](LineScratch& sc, i64 c) {
    ColLine& col = sl.cols[static_cast<size_t>(c)];
    if (col.words == 0) return;
    sc.items.clear();
    sc.keys[0].clear();
    sc.keys[1].clear();
    for (i32 j = col.in; j < (&col)[1].in; ++j) {
      const ColRec& h = sl.col_in[static_cast<size_t>(j)];
      const bool south = h.dr > 0;
      const int pos = south ? h.row : R - 1 - h.row;
      const int exit = south ? h.row + h.dr : R - 1 - (h.row + h.dr);
      sc.keys[south ? 0 : 1].push_back(line_key(exit, pos, sc.items.size()));
      sc.items.push_back(
          {h.time, static_cast<i16>(exit), h.rank, static_cast<u32>(j)});
    }
    u64* base = sl.col_bits.data() + col.bits;
    for (int d = 0; d < 2; ++d) {
      sort_line_keys(sc.keys[d], sc);
      // Moved South is lane 0 (first), moved North lane 3 (last).
      const int rank = d == 0 ? 0 : 3;
      const i32 last = solve_line(sc, sc.keys[d], base + static_cast<i64>(d) * R * col.words,
                 col.words, rank, [&](u32 src, i32 time) {
                   const ColRec& h = sl.col_in[src];
                   NodeCell& cell = sl.nodes[static_cast<size_t>(
                       static_cast<i64>(h.row + h.dr) * C + c)];
                   sl.deliv[static_cast<size_t>(cell.col_fill++)] =
                       delivery_key(time, rank, h.handle);
                 });
      col.used = std::max(col.used, last / 64 + 1);
    }
  });

  for_lines(R, team, [&](LineScratch&, i64 i) {
    finish_row(mesh, region, ar, sl, count_congestion, i);
  });
  for (int i = 0; i < R; ++i) {
    stats.steps = std::max(stats.steps, sl.rows[static_cast<size_t>(i)].last);
    stats.max_queue =
        std::max(stats.max_queue, sl.rows[static_cast<size_t>(i)].peak);
  }
}

}  // namespace

void set_route_initial_headroom(i64 slots) {
  MP_REQUIRE(slots >= 0, "route headroom " << slots);
  g_route_headroom = slots;
}

i64 route_initial_headroom() { return g_route_headroom; }

namespace detail {

i64 seed_route(Mesh& mesh, const Region& region, const Region& dest_region,
               RouteArena& ar, RouteStats& stats) {
  i64 max_depth = 0;
  i64 depth = 0;
  i32 last_pos = -1;
  const i64 in_flight = collect_route(
      mesh, region, dest_region, ar, stats,
      [&](i64 pos, Coord x, Coord d, u32 handle) {
        if (pos != last_pos) depth = 0;
        last_pos = static_cast<i32>(pos);
        max_depth = std::max(max_depth, ++depth);
        ar.setup_rec.push_back(TransitRec{handle, static_cast<i16>(d.r - x.r),
                                          static_cast<i16>(d.c - x.c)});
        ar.setup_pos.push_back(static_cast<i32>(pos));
      });
  // Initial capacity with headroom so the first arrivals don't force an
  // immediate grow; doubling takes over from there. Counts start at zero,
  // so the scatter fills the queues in discovery order.
  ar.layout(std::max<i64>(kNumDirs, max_depth + g_route_headroom));
  const i32* pos_slot = ar.shape().pos_slot.data();
  i32* counts = ar.counts();
  for (size_t i = 0; i < ar.setup_rec.size(); ++i) {
    const i64 s = pos_slot[ar.setup_pos[i]];
    ar.queue_base()[s * ar.cap() + counts[s]++] = ar.setup_rec[i];
    set_bit(ar.active.data(), s);
  }
  return in_flight;
}

}  // namespace detail

RouteStats route_greedy(Mesh& mesh, const Region& region) {
  telemetry::Span span(telemetry::Cat::Phase, kRouteGreedy);
  // Per-node congestion counters are hot-loop writes; hoist the gate. Each
  // node's cells are written by the one line worker that owns its row, so
  // the counter grids stay thread-count invariant.
  const bool count_congestion = telemetry::sampling_on();
  RouteStats stats;
  detail::ArenaLease lease(mesh);
  RouteArena& ar = lease.ar;

  // Fault plans that touch routing divert to the serial fault-aware kernel
  // (stall backoff, detours, drop retransmission). Module-only plans — and
  // no plan at all — take the line engine, so their step counts stay
  // bit-identical to the fault-free run.
  const fault::FaultPlan* plan = mesh.fault_plan();
  if (plan != nullptr && plan->affects_routing()) {
    const i64 in_flight = detail::seed_route(mesh, region, region, ar, stats);
    if (in_flight > 0) {
      detail::route_greedy_fault(mesh, region, ar, in_flight, stats);
    }
    span.set_steps(stats.steps);
    return stats;
  }

  LineSlabs& sl = line_slabs();
  sl.seeds.clear();
  const i64 in_flight = detail::collect_route(
      mesh, region, region, ar, stats,
      [&](i64, Coord x, Coord d, u32 handle) {
        sl.seeds.push_back({handle, static_cast<i16>(d.r - x.r),
                            static_cast<i16>(d.c - x.c),
                            static_cast<i16>(x.r - region.r0()),
                            static_cast<i16>(x.c - region.c0())});
      });
  if (in_flight > 0) {
    route_lines(mesh, region, ar, sl, in_flight, count_congestion, stats);
  }
  span.set_steps(stats.steps);
  return stats;
}

}  // namespace meshpram
