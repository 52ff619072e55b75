// Rectangular submesh views and their snake (boustrophedon) ordering.
//
// The paper's access protocol runs each stage "in parallel and independently
// in every level-i submesh": Region is the view type all mesh algorithms
// (sorting, scanning, routing) operate on. The snake order — row 0 left to
// right, row 1 right to left, ... — is the canonical linear order used for
// sorted sequences and balanced distributions, because consecutive snake
// positions are mesh neighbors.
#pragma once

#include <ostream>
#include <vector>

#include "mesh/geometry.hpp"
#include "util/error.hpp"

namespace meshpram {

class Region {
 public:
  Region() = default;
  Region(int r0, int c0, int rows, int cols);

  int r0() const { return r0_; }
  int c0() const { return c0_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  i64 size() const { return static_cast<i64>(rows_) * cols_; }

  bool contains(Coord x) const {
    return r0_ <= x.r && x.r < r0_ + rows_ && c0_ <= x.c && x.c < c0_ + cols_;
  }

  /// Coordinate at snake position s (s in [0, size())).
  Coord at_snake(i64 s) const;

  /// Snake position of coordinate x (must be contained). Inline: the serial
  /// router checks every hop against it.
  i64 snake_of(Coord x) const {
    MP_REQUIRE(contains(x), "coordinate " << x << " outside " << *this);
    const int lr = x.r - r0_;
    const int lc = x.c - c0_;
    return static_cast<i64>(lr) * cols_ + (lr % 2 == 0 ? lc : cols_ - 1 - lc);
  }

  /// Splits the region into exactly k disjoint non-empty subrectangles with
  /// near-equal areas, arranged as a g_r x g_c grid with proportional cuts.
  /// Requires 1 <= k <= size(). When k does not factor to fit the rectangle
  /// exactly, the grid may have up to g_r - 1 leftover cells; their nodes
  /// belong to no subregion (they still route traffic for the parent).
  std::vector<Region> grid_split(i64 k) const;

  friend bool operator==(const Region& a, const Region& b) {
    return a.r0_ == b.r0_ && a.c0_ == b.c0_ && a.rows_ == b.rows_ &&
           a.cols_ == b.cols_;
  }
  friend std::ostream& operator<<(std::ostream& os, const Region& g) {
    return os << '[' << g.r0_ << ',' << g.c0_ << ' ' << g.rows_ << 'x'
              << g.cols_ << ']';
  }

 private:
  int r0_ = 0;
  int c0_ = 0;
  int rows_ = 0;
  int cols_ = 0;
};

/// Incremental walk of a region in snake order: O(1) advance with no div/mod,
/// replacing repeated Region::at_snake(s) recomputation (O(extent) arithmetic
/// per visit) in the per-node hot loops. With a positive `id_stride` (the
/// mesh column count) the cursor also maintains the global node id
/// incrementally; Mesh::cursor() constructs it that way.
class RegionCursor {
 public:
  explicit RegionCursor(const Region& g, int id_stride = 0)
      : r_(g.r0()),
        c_(g.c0()),
        c_lo_(g.c0()),
        c_hi_(g.c0() + g.cols() - 1),
        east_(true),
        pos_(0),
        end_(g.size()),
        stride_(id_stride),
        id_(static_cast<i64>(g.r0()) * id_stride + g.c0()) {}

  /// Cursor starting at snake position `start_pos` (0 <= start_pos <= size()).
  /// Lets a worker walk just its chunk of the region: the stripe/chunk
  /// parallel loops hand each worker a contiguous snake-position range.
  RegionCursor(const Region& g, int id_stride, i64 start_pos)
      : RegionCursor(g, id_stride) {
    if (start_pos >= end_) {
      pos_ = end_;
      return;
    }
    const i64 row = start_pos / g.cols();
    const i64 off = start_pos - row * g.cols();
    r_ = g.r0() + static_cast<int>(row);
    east_ = (row % 2) == 0;
    c_ = east_ ? c_lo_ + static_cast<int>(off) : c_hi_ - static_cast<int>(off);
    pos_ = start_pos;
    id_ = static_cast<i64>(r_) * id_stride + c_;
  }

  bool valid() const { return pos_ < end_; }
  /// Snake position in [0, region.size()).
  i64 pos() const { return pos_; }
  Coord coord() const { return {r_, c_}; }
  /// Global node id; only meaningful when constructed with an id stride.
  i32 id() const { return static_cast<i32>(id_); }

  void advance() {
    ++pos_;
    if (east_ ? c_ < c_hi_ : c_ > c_lo_) {
      const int dc = east_ ? 1 : -1;
      c_ += dc;
      id_ += dc;
    } else {
      ++r_;
      id_ += stride_;
      east_ = !east_;
    }
  }

 private:
  int r_, c_;
  int c_lo_, c_hi_;
  bool east_;
  i64 pos_;
  i64 end_;
  int stride_;
  i64 id_;
};

}  // namespace meshpram
