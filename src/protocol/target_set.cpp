#include "protocol/target_set.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace meshpram {

TargetSelector::TargetSelector(i64 q, int k) : q_(q), k_(k) {
  MP_REQUIRE(q >= 3, "target sets need q >= 3, got " << q);
  MP_REQUIRE(1 <= k && k <= 6, "tree depth k=" << k);
  codes_ = ipow(q, k);
  qpow_.resize(static_cast<size_t>(k) + 1);
  for (int i = 0; i <= k; ++i) qpow_[static_cast<size_t>(i)] = ipow(q, i);
}

/// Fixed per-depth scratch of solve(): one leaf buffer of q^k codes and, per
/// tree depth, q child results plus their cost order. thread_local because
/// select() is const and CULLING calls it from every pool worker; it only
/// grows, so steady-state calls allocate nothing.
struct TargetSelector::Scratch {
  std::vector<i64> leaves;
  std::vector<Kid> kids;
  std::vector<i32> order;

  void fit(i64 codes, i64 per_depth) {
    if (static_cast<i64>(leaves.size()) < codes) {
      leaves.resize(static_cast<size_t>(codes));
    }
    if (static_cast<i64>(kids.size()) < per_depth) {
      kids.resize(static_cast<size_t>(per_depth));
      order.resize(static_cast<size_t>(per_depth));
    }
  }
};

TargetSelector::Kid TargetSelector::solve(int depth, i64 prefix, int level,
                                          const char* candidate,
                                          const char* marked, Scratch& sc,
                                          i32 pos) const {
  Kid node;
  node.begin = pos;
  if (depth == k_) {
    node.feasible = candidate[prefix] != 0;
    if (node.feasible) {
      node.cost = marked[prefix] ? 0 : 1;
      node.len = 1;
      sc.leaves[static_cast<size_t>(pos)] = prefix;
    }
    return node;
  }
  // Children of the node at tree depth `depth`: vary digit c_{depth+1}.
  // Each child writes its chosen leaves right after its left sibling's.
  Kid* kids = sc.kids.data() + depth * q_;
  i32* order = sc.order.data() + depth * q_;
  i32 at = pos;
  i64 feasible = 0;
  for (i64 c = 0; c < q_; ++c) {
    kids[c] = solve(depth + 1, prefix + c * qpow_[static_cast<size_t>(depth)],
                    level, candidate, marked, sc, at);
    at += kids[c].len;
    // Feasible children in cost order, stable (insertion sort shifts only
    // strictly costlier entries), so ties keep child order.
    if (kids[c].feasible) {
      i64 j = feasible++;
      while (j > 0 && kids[order[j - 1]].cost > kids[c].cost) {
        order[j] = order[j - 1];
        --j;
      }
      order[j] = static_cast<i32>(c);
    }
  }
  const i64 need = (depth >= level) ? extensive() : majority();
  if (feasible < need) return node;  // infeasible
  // Take the `need` cheapest, then pack their leaves down in child order.
  for (i64 c = 0; c < q_; ++c) kids[c].chosen = false;
  for (i64 t = 0; t < need; ++t) {
    Kid& kid = kids[order[t]];
    kid.chosen = true;
    node.cost += kid.cost;
  }
  i32 w = pos;
  for (i64 c = 0; c < q_; ++c) {
    const Kid& kid = kids[c];
    if (!kid.chosen) continue;
    std::copy(sc.leaves.begin() + kid.begin,
              sc.leaves.begin() + kid.begin + kid.len, sc.leaves.begin() + w);
    w += kid.len;
  }
  node.feasible = true;
  node.len = w - pos;
  return node;
}

TargetSelector::Selection TargetSelector::select(
    int level, const std::vector<char>& candidate,
    const std::vector<char>& marked) const {
  MP_REQUIRE(0 <= level && level <= k_, "target level " << level);
  MP_REQUIRE(static_cast<i64>(candidate.size()) == codes_ &&
                 static_cast<i64>(marked.size()) == codes_,
             "bitmap size mismatch: " << candidate.size() << '/'
                                      << marked.size() << " vs " << codes_);
  static thread_local Scratch sc;
  sc.fit(codes_, static_cast<i64>(k_) * q_);
  const Kid root = solve(0, 0, level, candidate.data(), marked.data(), sc, 0);
  Selection sel;
  sel.feasible = root.feasible;
  if (root.feasible) {
    sel.codes.assign(sc.leaves.begin() + root.begin,
                     sc.leaves.begin() + root.begin + root.len);
    std::sort(sel.codes.begin(), sel.codes.end());
    sel.unmarked = root.cost;
  }
  return sel;
}

std::vector<i64> TargetSelector::initial(int level) const {
  const std::vector<char> all(static_cast<size_t>(codes_), 1);
  const Selection sel = select(level, all, all);
  MP_ASSERT(sel.feasible, "full copy tree cannot satisfy level " << level);
  return sel.codes;
}

bool TargetSelector::accessed(int depth, i64 prefix, int level,
                              const std::vector<char>& leaves) const {
  if (depth == k_) return leaves[static_cast<size_t>(prefix)] != 0;
  const i64 need = (depth >= level) ? extensive() : majority();
  i64 got = 0;
  for (i64 c = 0; c < q_; ++c) {
    if (accessed(depth + 1, prefix + c * qpow_[static_cast<size_t>(depth)],
                 level, leaves)) {
      ++got;
    }
  }
  return got >= need;
}

bool TargetSelector::is_target_set(const std::vector<char>& leaves) const {
  // Plain Definition 2 access = level-(k+1) rule: every internal node uses
  // plain majority. Passing level = k makes depth >= level only hold at
  // leaves, which have no children; use k_ (internal depths 0..k-1 < k).
  return is_level_target_set(leaves, k_);
}

bool TargetSelector::is_level_target_set(const std::vector<char>& leaves,
                                         int level) const {
  MP_REQUIRE(static_cast<i64>(leaves.size()) == codes_, "bitmap size");
  MP_REQUIRE(0 <= level && level <= k_, "target level " << level);
  return accessed(0, 0, level, leaves);
}

bool TargetSelector::intersects(const std::vector<i64>& a,
                                const std::vector<i64>& b) {
  // Both inputs sorted (select() sorts).
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace meshpram
