#include "routing/meshsort.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "mesh/node_order.hpp"
#include "mesh/parallel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace meshpram {

namespace {

/// Block record of the simulated sort: the (key, copy, var) prefix decides
/// every comparison in the protocol's workloads without touching the payload
/// arena (copy ids are unique per packet there; var is the first payload tie
/// field, carried inline so the comparator has no dependent load). The handle
/// indirects into the payload for the rare deeper tie-break and for the final
/// writeback. 32 bytes — merging records instead of 104-byte Packets is the
/// main bandwidth win of the block merges, and one record is exactly one
/// AVX2 vector.
struct SortRec {
  u64 key;
  u64 copy;
  i64 var;
  u32 handle;
};
static_assert(sizeof(SortRec) == 32, "SortRec must stay one vector register");

SortRec make_hole_rec() { return SortRec{kHoleKey, 0, 0, ~0u}; }

bool is_hole_rec(const SortRec& r) { return r.key == kHoleKey; }

/// The canonical order's tie-break after (key, copy): tie(var, origin, op,
/// value). Both sort modes use it, so their placements agree.
bool payload_less(const Packet& a, const Packet& b) {
  return std::tie(a.var, a.origin, a.op, a.value) <
         std::tie(b.var, b.origin, b.op, b.value);
}

/// Strict total order: key first, then enough fields to make the order (and
/// therefore the sorted layout) canonical regardless of execution order —
/// the record form of tie(key, copy, var, origin, op, value).
bool rec_less(const std::vector<Packet>& payload, const SortRec& a,
              const SortRec& b) {
  if (a.key != b.key) return a.key < b.key;
  if (a.copy != b.copy) return a.copy < b.copy;
  if (a.key == kHoleKey) return false;  // holes compare equal
  if (a.var != b.var) return a.var < b.var;
  return payload_less(payload[a.handle], payload[b.handle]);
}

using u128 = unsigned __int128;

/// Reusable per-thread sort storage: payload/record slabs for the block
/// grid, the packed-word buffers of the analytic path, and the cached
/// block-slot curve table. One instance per pool thread; a thread runs at
/// most one sort_region call at a time (region tasks don't nest), so
/// borrowing these is race-free and every steady-state sort reuses the same
/// allocations.
struct SortBuffers {
  std::vector<Packet> payload;
  std::vector<SortRec> recs;
  // Analytic path: the back buffers holding the region's packets; per input
  // packet in snake order its address there, its key and its copy id; then
  // the packed words.
  std::vector<std::vector<Packet>*> backs;
  std::vector<const Packet*> src;
  std::vector<u64> keys;
  std::vector<u64> copies;
  std::vector<u64> words64;
  std::vector<u64> scratch64;
  std::vector<u128> words128;
  std::vector<u128> scratch128;
  // Block-slot map (see BlockGrid): physical slot of each region-local
  // row-major block index, cached by geometry.
  std::vector<i32> slot_of_rm;
  std::vector<i32> curve_tmp;
  int curve_rows = 0;
  int curve_cols = 0;
  NodeOrderKind curve_kind = NodeOrderKind::RowMajor;
};

SortBuffers& sort_buffers() {
  static thread_local SortBuffers b;
  return b;
}

/// Per-worker merge scratch, reused across rounds and sort calls.
std::vector<SortRec>& merge_scratch() {
  static thread_local std::vector<SortRec> s;
  return s;
}

/// Below this many words a comparison sort beats the radix passes' fixed
/// histogram cost.
constexpr size_t kRadixMin = 512;

/// Sorts packed words ascending. The words arrive in input-index order and
/// their bits below `lo` are that index, so a stable LSD radix over bits
/// [lo, hi) alone yields the full ascending order: 8-bit digits, every
/// histogram from one read pass, digits shared by all words skipped.
template <class W>
void sort_words(std::vector<W>& w, std::vector<W>& scratch, int lo, int hi) {
  const size_t n = w.size();
  if (n < kRadixMin) {
    std::sort(w.begin(), w.end());
    return;
  }
  const int digits = (hi - lo + 7) / 8;
  std::array<std::array<u32, 256>, 16> hist;
  for (int d = 0; d < digits; ++d) hist[static_cast<size_t>(d)].fill(0);
  for (const W x : w) {
    for (int d = 0; d < digits; ++d) {
      ++hist[static_cast<size_t>(d)]
            [static_cast<size_t>(x >> (lo + 8 * d)) & 0xff];
    }
  }
  scratch.resize(n);
  W* a = w.data();
  W* b = scratch.data();
  for (int d = 0; d < digits; ++d) {
    std::array<u32, 256>& h = hist[static_cast<size_t>(d)];
    const int shift = lo + 8 * d;
    if (h[static_cast<size_t>(a[0] >> shift) & 0xff] == n) continue;
    u32 sum = 0;
    for (u32& c : h) {
      const u32 count = c;
      c = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      b[h[static_cast<size_t>(a[i] >> shift) & 0xff]++] = a[i];
    }
    std::swap(a, b);
  }
  if (a != w.data()) std::copy(a, a + n, w.data());
}

/// The analytic sort on `W`-wide words. Packs (key, copy, input index) into
/// adjacent bit fields of one word, sorts the words, puts each run of equal
/// (key, copy) into canonical payload order, then writes every packet back
/// once — word i to snake position i / cap — setting its rank within its
/// key run on the way.
template <class W>
void packed_sort(Mesh& mesh, const Region& region, i64 cap, SortBuffers& bufs,
                 std::vector<W>& w, std::vector<W>& scratch, int key_bits,
                 int copy_bits, int idx_bits) {
  const size_t n = bufs.src.size();
  const int key_shift = copy_bits + idx_bits;
  w.resize(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = (static_cast<W>(bufs.keys[i]) << key_shift) |
           (static_cast<W>(bufs.copies[i]) << idx_bits) | static_cast<W>(i);
  }
  sort_words(w, scratch, idx_bits, key_shift + key_bits);

  const W idx_mask = (static_cast<W>(1) << idx_bits) - 1;
  const Packet* const* src = bufs.src.data();
  const auto packet = [&](W x) -> const Packet& {
    return *src[static_cast<size_t>(x & idx_mask)];
  };
  const auto tie_less = [&](W x, W y) {
    const Packet& px = packet(x);
    const Packet& py = packet(y);
    if (payload_less(px, py)) return true;
    if (payload_less(py, px)) return false;
    return x < y;  // equal payload prefix: input order
  };
  RegionCursor cur = mesh.cursor(region);
  std::vector<Packet>* b = &mesh.buf(cur.id());
  i64 room = cap;
  size_t settled = 0;  // words before this index are in final order
  size_t run_start = 0;
  W run_key = w[0] >> key_shift;
  constexpr size_t kAhead = 8;  // packets fetched ahead of the write-back
  for (size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) {
      const char* ahead = reinterpret_cast<const char*>(&packet(w[i + kAhead]));
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + sizeof(Packet) - 1);
    }
    if (i >= settled && i + 1 < n &&
        (w[i + 1] >> idx_bits) == (w[i] >> idx_bits)) {
      size_t j = i + 2;
      while (j < n && (w[j] >> idx_bits) == (w[i] >> idx_bits)) ++j;
      std::sort(w.begin() + static_cast<i64>(i),
                w.begin() + static_cast<i64>(j), tie_less);
      settled = j;
    }
    const W key = w[i] >> key_shift;
    if (key != run_key) {
      run_key = key;
      run_start = i;
    }
    if (room == 0) {
      cur.advance();
      b = &mesh.buf(cur.id());
      room = cap;
    }
    --room;
    b->push_back(packet(w[i]));
    b->back().rank = static_cast<u64>(i - run_start);
  }
}

/// SortMode::Analytic: the canonical placement and ranks without the block
/// rounds. Every node's packets leave by Mesh::swap_out (no copy), so the
/// only packet copy is the write-back. Returns the per-node capacity L of
/// the sort (0 for an empty region).
i64 analytic_sort(Mesh& mesh, const Region& region) {
  SortBuffers& bufs = sort_buffers();
  bufs.backs.clear();
  size_t n = 0;
  i64 cap = 0;
  for (RegionCursor cur = mesh.cursor(region); cur.valid(); cur.advance()) {
    const std::vector<Packet>& out =
        *bufs.backs.emplace_back(&mesh.swap_out(cur.id()));
    n += out.size();
    cap = std::max(cap, static_cast<i64>(out.size()));
  }
  bufs.src.resize(n);
  bufs.keys.resize(n);
  bufs.copies.resize(n);
  u64 key_or = 0;
  u64 copy_or = 0;
  bool hole = false;
  size_t i = 0;
  for (const std::vector<Packet>* back : bufs.backs) {
    for (const Packet& p : *back) {
      bufs.src[i] = &p;
      bufs.keys[i] = p.key;
      bufs.copies[i] = p.copy;
      key_or |= p.key;
      copy_or |= p.copy;
      hole |= p.key == kHoleKey;
      ++i;
    }
  }
  // At least one key bit keeps every shift below the word width.
  const int key_bits = std::max(1, static_cast<int>(std::bit_width(key_or)));
  const int copy_bits = std::bit_width(copy_or);
  const int idx_bits = n > 0 ? std::bit_width(n - 1) : 0;
  if (hole || key_bits + copy_bits + idx_bits > 128) {
    // Hand every node its packets back before failing.
    size_t b = 0;
    for (RegionCursor cur = mesh.cursor(region); cur.valid(); cur.advance()) {
      mesh.buf(cur.id()).swap(*bufs.backs[b++]);
    }
    MP_REQUIRE(!hole, "packet key collides with sentinel");
    MP_REQUIRE(false, "sort keys too wide to pack: "
                          << key_bits << " key + " << copy_bits << " copy + "
                          << idx_bits << " index bits exceed 128");
  }
  if (n > 0) {
    if (key_bits + copy_bits + idx_bits <= 64) {
      packed_sort(mesh, region, cap, bufs, bufs.words64, bufs.scratch64,
                  key_bits, copy_bits, idx_bits);
    } else {
      packed_sort(mesh, region, cap, bufs, bufs.words128, bufs.scratch128,
                  key_bits, copy_bits, idx_bits);
    }
  }
  for (std::vector<Packet>* back : bufs.backs) {
    back->clear();  // keeps capacity (reuse contract)
  }
  return cap;
}

/// Working state: grid of fixed-capacity sorted blocks, local (row, col).
/// Blocks live in one strided record slab borrowed from the thread's
/// SortBuffers; under a Hilbert mesh order the blocks are placed along the
/// same curve (block (r,c) occupies [slot(r,c) * cap, ... + cap)), so a
/// row/column round streams the curve's contiguous runs. Packets sit still
/// in the payload arena until flush(). Rows are pairwise independent within
/// a row round (and columns within a column round), so rounds run
/// chunk-parallel over the pool with per-worker merge scratch — the merge
/// outcomes are data-dependent only, hence identical under any chunking.
class BlockGrid {
 public:
  BlockGrid(Mesh& mesh, const Region& region, SortBuffers& bufs)
      : mesh_(mesh), region_(region), rows_(region.rows()),
        cols_(region.cols()), payload_(bufs.payload), recs_(bufs.recs) {
    build_slot_map(bufs, mesh.order().kind());
    cap_ = std::max<i64>(1, mesh.max_load(region));
    payload_.clear();
    payload_.reserve(static_cast<size_t>(mesh.total_packets(region)));
    recs_.assign(static_cast<size_t>(rows_ * cols_ * cap_), make_hole_rec());
    for (int r = 0; r < rows_; ++r) {
      for (int c = 0; c < cols_; ++c) {
        SortRec* blk = at(r, c);
        auto& b = mesh.buf(mesh.node_id({region.r0() + r, region.c0() + c}));
        i64 j = 0;
        for (const Packet& p : b) {
          MP_REQUIRE(p.key != kHoleKey, "packet key collides with sentinel");
          blk[j++] = SortRec{p.key, p.copy, p.var,
                             static_cast<u32>(payload_.size())};
          payload_.push_back(p);
        }
        b.clear();  // keeps capacity (reuse contract)
        std::sort(blk, blk + cap_, [this](const SortRec& a, const SortRec& b2) {
          return rec_less(payload_, a, b2);
        });
      }
    }
    parallel_rounds_ = !in_parallel_worker() && execution_threads() > 1 &&
                       region.size() >= stripe_min_nodes();
  }

  i64 capacity() const { return cap_; }

  SortRec* at(int r, int c) {
    return recs_.data() + slot(r, c) * cap_;
  }
  const SortRec* at(int r, int c) const {
    return recs_.data() + slot(r, c) * cap_;
  }

  /// Merge-split comparator: after the call, `small` holds the cap smallest
  /// of the union and `large` the cap largest. Returns true if anything
  /// changed (used for early exit). The merge writes into pre-sized scratch
  /// (no push_back in the inner loop); ties take the `small` side, exactly
  /// like std::merge.
  bool merge_split(SortRec* small, SortRec* large,
                   std::vector<SortRec>& scratch) const {
    // Fast path: already in order (last of small <= first of large).
    if (!rec_less(payload_, large[0], small[cap_ - 1])) return false;
    scratch.resize(static_cast<size_t>(2 * cap_));
    SortRec* out = scratch.data();
    const SortRec* a = small;
    const SortRec* const ae = small + cap_;
    const SortRec* b = large;
    const SortRec* const be = large + cap_;
    while (a != ae && b != be) {
      if (rec_less(payload_, *b, *a)) {
        *out++ = *b++;
      } else {
        *out++ = *a++;
      }
    }
    out = std::copy(a, ae, out);
    std::copy(b, be, out);
    std::copy(scratch.data(), scratch.data() + cap_, small);
    std::copy(scratch.data() + cap_, scratch.data() + 2 * cap_, large);
    return true;
  }

  /// One odd-even round over all rows, pairing columns (c, c+1) with
  /// c % 2 == parity. Direction follows the snake: even local rows ascend
  /// west->east, odd rows east->west. Returns true if anything changed.
  bool row_round(int parity) {
    std::atomic<int> changed{0};
    run_lines(rows_, [&](i64 lb, i64 le) {
      std::vector<SortRec>& scratch = merge_scratch();
      bool ch = false;
      for (i64 r = lb; r < le; ++r) {
        const bool ascending = (r % 2 == 0);
        for (int c = parity; c + 1 < cols_; c += 2) {
          SortRec* left = at(static_cast<int>(r), c);
          SortRec* right = at(static_cast<int>(r), c + 1);
          ch |= ascending ? merge_split(left, right, scratch)
                          : merge_split(right, left, scratch);
        }
      }
      if (ch) changed.store(1, std::memory_order_relaxed);
    });
    return changed.load(std::memory_order_relaxed) != 0;
  }

  /// One odd-even round over all columns (top block keeps the smaller keys).
  bool col_round(int parity) {
    std::atomic<int> changed{0};
    run_lines(cols_, [&](i64 lb, i64 le) {
      std::vector<SortRec>& scratch = merge_scratch();
      bool ch = false;
      for (i64 c = lb; c < le; ++c) {
        for (int r = parity; r + 1 < rows_; r += 2) {
          ch |= merge_split(at(r, static_cast<int>(c)),
                            at(r + 1, static_cast<int>(c)), scratch);
        }
      }
      if (ch) changed.store(1, std::memory_order_relaxed);
    });
    return changed.load(std::memory_order_relaxed) != 0;
  }

  /// Full odd-even transposition pass along rows; returns rounds executed.
  i64 row_pass(bool* changed_any) {
    i64 rounds = 0;
    int quiet = 0;
    for (int t = 0; t < cols_ && quiet < 2; ++t) {
      const bool ch = row_round(t % 2);
      ++rounds;
      quiet = ch ? 0 : quiet + 1;
      *changed_any |= ch;
    }
    return rounds;
  }

  i64 col_pass(bool* changed_any) {
    i64 rounds = 0;
    int quiet = 0;
    for (int t = 0; t < rows_ && quiet < 2; ++t) {
      const bool ch = col_round(t % 2);
      ++rounds;
      quiet = ch ? 0 : quiet + 1;
      *changed_any |= ch;
    }
    return rounds;
  }

  bool snake_sorted() const {
    const SortRec* prev = nullptr;
    for (RegionCursor cur(region_); cur.valid(); cur.advance()) {
      const Coord x = cur.coord();
      const SortRec* blk = at(x.r - region_.r0(), x.c - region_.c0());
      if (prev != nullptr && rec_less(payload_, blk[0], *prev)) return false;
      // Strictly increasing keys need no further checks; the kernel returns
      // where that stops and the full comparator takes over from there.
      i64 j = simd::first_key_violation(blk, sizeof(SortRec), cap_);
      for (; j + 1 < cap_; ++j) {
        if (rec_less(payload_, blk[j + 1], blk[j])) return false;
      }
      prev = blk + cap_ - 1;
    }
    return true;
  }

  /// Writes blocks back to the mesh buffers in snake order, dropping hole
  /// sentinels and setting each packet's rank within its key run; each
  /// packet moves exactly once (payload arena -> destination buffer).
  void flush() {
    u64 run_key = kHoleKey;  // no packet carries the sentinel key
    u64 rank = 0;
    for (RegionCursor cur = mesh_.cursor(region_); cur.valid(); cur.advance()) {
      auto& b = mesh_.buf(cur.id());
      MP_ASSERT(b.empty(), "mesh buffer refilled during sort");
      const Coord x = cur.coord();
      const SortRec* blk = at(x.r - region_.r0(), x.c - region_.c0());
      for (i64 j = 0; j < cap_; ++j) {
        if (is_hole_rec(blk[j])) continue;
        rank = blk[j].key == run_key ? rank + 1 : 0;
        run_key = blk[j].key;
        b.push_back(payload_[blk[j].handle]);
        b.back().rank = rank;
      }
    }
  }

 private:
  /// Physical slot of region-local block (r, c); identity under row-major.
  i64 slot(int r, int c) const {
    const i64 rm = static_cast<i64>(r) * cols_ + c;
    return slot_map_ == nullptr ? rm : (*slot_map_)[static_cast<size_t>(rm)];
  }

  void build_slot_map(SortBuffers& bufs, NodeOrderKind kind) {
    if (kind == NodeOrderKind::RowMajor) {
      slot_map_ = nullptr;
      return;
    }
    if (bufs.curve_rows != rows_ || bufs.curve_cols != cols_ ||
        bufs.curve_kind != kind) {
      bufs.curve_rows = rows_;
      bufs.curve_cols = cols_;
      bufs.curve_kind = kind;
      fill_curve_order(rows_, cols_, kind, bufs.curve_tmp);
      bufs.slot_of_rm.assign(bufs.curve_tmp.size(), 0);
      for (size_t s = 0; s < bufs.curve_tmp.size(); ++s) {
        bufs.slot_of_rm[static_cast<size_t>(bufs.curve_tmp[s])] =
            static_cast<i32>(s);
      }
    }
    slot_map_ = &bufs.slot_of_rm;
  }

  /// Runs fn(begin, end) over [0, lines) — chunked on the pool when the
  /// region qualified at construction, one serial chunk otherwise.
  void run_lines(int lines, const std::function<void(i64, i64)>& fn) {
    if (parallel_rounds_) {
      execution_pool().for_each_chunk(lines, 1, fn);
    } else {
      fn(0, lines);
    }
  }

  Mesh& mesh_;
  Region region_;
  int rows_;
  int cols_;
  i64 cap_ = 1;
  bool parallel_rounds_ = false;
  std::vector<Packet>& payload_;
  std::vector<SortRec>& recs_;
  const std::vector<i32>* slot_map_ = nullptr;
};

int shear_phases(int rows) {
  int p = 1;
  int covered = 1;
  while (covered < rows) {
    covered *= 2;
    ++p;
  }
  return p;  // ceil(log2(rows)) + 1
}

}  // namespace

i64 shearsort_step_bound(const Region& region, i64 capacity) {
  const i64 phases = shear_phases(region.rows());
  return capacity *
         (phases * (region.rows() + region.cols()) + region.cols());
}

bool region_sorted(const Mesh& mesh, const Region& region) {
  const Packet* prev = nullptr;
  bool saw_gap = false;
  for (RegionCursor cur = mesh.cursor(region); cur.valid(); cur.advance()) {
    const auto& b = mesh.buf(cur.id());
    if (b.empty()) {
      saw_gap = true;
      continue;
    }
    if (saw_gap) return false;  // not packed at the front
    for (const Packet& p : b) {
      if (prev != nullptr && p.key < prev->key) return false;
      prev = &p;
    }
  }
  return true;
}

namespace {

const telemetry::Label kSortRegion = telemetry::intern("sort.region");
const telemetry::Label kRankGroups = telemetry::intern("rank.groups");

i64 sort_region_impl(Mesh& mesh, const Region& region,
                     const SortOptions& opts) {
  if (opts.mode == SortMode::Analytic) {
    // Identical final placement; charged the oblivious worst-case cost.
    const i64 cap = analytic_sort(mesh, region);
    return cap == 0 ? 0 : shearsort_step_bound(region, cap);
  }

  if (mesh.total_packets(region) == 0) return 0;
  BlockGrid grid(mesh, region, sort_buffers());
  const int max_phases = shear_phases(region.rows());
  i64 rounds = 0;
  // Shearsort: log(rows)+1 alternating row/column passes...
  for (int p = 0; p < max_phases; ++p) {
    bool changed = false;
    rounds += grid.row_pass(&changed);
    rounds += grid.col_pass(&changed);
    if (!changed) break;
  }
  // ... plus a final row pass to finish the snake.
  {
    bool changed = false;
    rounds += grid.row_pass(&changed);
  }
  // Safety net: the 0-1 principle guarantees the bound above, but run extra
  // passes (and fail loudly) rather than return unsorted data if a bug slips
  // in.
  int extra = 0;
  while (!grid.snake_sorted()) {
    MP_ASSERT(extra++ <= max_phases + 2,
              "shearsort failed to converge on " << region.rows() << 'x'
                                                 << region.cols());
    bool changed = false;
    rounds += grid.row_pass(&changed);
    rounds += grid.col_pass(&changed);
    bool fin = false;
    rounds += grid.row_pass(&fin);
  }
  grid.flush();
  return rounds * grid.capacity();
}

}  // namespace

i64 sort_region(Mesh& mesh, const Region& region, const SortOptions& opts) {
  telemetry::Span span(telemetry::Cat::Phase, kSortRegion);
  const i64 steps = sort_region_impl(mesh, region, opts);
  span.set_steps(steps);
  return steps;
}

SortRankSteps sort_and_rank(Mesh& mesh, const Region& region,
                            const SortOptions& opts) {
  SortRankSteps out;
  out.sort = sort_region(mesh, region, opts);
  // The sort's write-back already set the ranks; what remains is the mesh's
  // cost of computing them: an exclusive snake scan whose values are 4-word
  // run summaries (key and length of a node's trailing run, first key,
  // uniformity), (2 * cols + rows) steps per word.
  telemetry::Span span(telemetry::Cat::Phase, kRankGroups);
  out.rank = 4 * (2 * static_cast<i64>(region.cols()) + region.rows());
  span.set_steps(out.rank);
  return out;
}

i64 max_group_size(const Mesh& mesh, const Region& region) {
  std::unordered_map<u64, i64> counts;
  for (RegionCursor cur = mesh.cursor(region); cur.valid(); cur.advance()) {
    for (const Packet& p : mesh.buf(cur.id())) {
      ++counts[p.key];
    }
  }
  i64 best = 0;
  for (const auto& [k, v] : counts) best = std::max(best, v);
  return best;
}

}  // namespace meshpram
