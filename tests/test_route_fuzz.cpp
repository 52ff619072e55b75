// Fixed-budget randomized differential of route_greedy against the
// reference router (route_oracle.hpp): seeded random mesh shapes and
// region offsets, random loads with hot-spot mixes, on one thread and on a
// 4-thread team. A failing route names its seed and shape; rerun one with
// MESHPRAM_ROUTE_FUZZ_SEED=<seed>.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "mesh/machine.hpp"
#include "route_oracle.hpp"
#include "util/rng.hpp"

namespace meshpram {
namespace {

using testing_oracle::expect_route_matches;
using testing_oracle::reference_route;
using testing_oracle::RefRoute;
using testing_oracle::route_on;
using testing_oracle::RouteLeg;

constexpr u64 kRoutes = 200;

/// One seeded route: mesh up to 24 x 24, a region at a random offset, 0-12
/// packets per node, and for some seeds a share of them aimed at 1-3 hot
/// spots.
struct FuzzRoute {
  int rows = 0;
  int cols = 0;
  Region g;
  NodeOrderKind order = NodeOrderKind::RowMajor;
  int max_per_node = 0;
  int hot_spots = 0;
  int hot_percent = 0;
};

FuzzRoute draw(u64 seed) {
  Rng rng(seed);
  FuzzRoute f;
  f.rows = static_cast<int>(rng.range(1, 24));
  f.cols = static_cast<int>(rng.range(1, 24));
  const int gr = static_cast<int>(rng.range(1, f.rows));
  const int gc = static_cast<int>(rng.range(1, f.cols));
  f.g = Region(static_cast<int>(rng.range(0, f.rows - gr)),
               static_cast<int>(rng.range(0, f.cols - gc)), gr, gc);
  f.order = rng.below(2) == 0 ? NodeOrderKind::RowMajor
                              : NodeOrderKind::Hilbert;
  f.max_per_node = static_cast<int>(rng.range(0, 12));
  f.hot_spots = static_cast<int>(rng.range(0, 3));
  f.hot_percent = f.hot_spots == 0 ? 0 : static_cast<int>(rng.range(10, 90));
  return f;
}

void load(Mesh& mesh, const FuzzRoute& f, u64 seed) {
  Rng rng(seed ^ 0x5bd1e995u);
  i32 hot[3];
  for (i32& h : hot) h = mesh.node_id(f.g.at_snake(rng.range(0, f.g.size() - 1)));
  i64 var = 0;
  for (i64 s = 0; s < f.g.size(); ++s) {
    const i64 n = rng.range(0, f.max_per_node);
    for (i64 j = 0; j < n; ++j) {
      Packet p;
      p.var = var++;
      p.origin = mesh.node_id(f.g.at_snake(s));
      p.dest = static_cast<i64>(rng.below(100)) < f.hot_percent
                   ? hot[rng.below(static_cast<u64>(f.hot_spots))]
                   : mesh.node_id(f.g.at_snake(rng.range(0, f.g.size() - 1)));
      mesh.buf(p.origin).push_back(p);
    }
  }
}

void check_seed(u64 seed) {
  const FuzzRoute f = draw(seed);
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << ": " << f.rows << 'x' << f.cols
               << " mesh, region " << f.g << ' ' << node_order_name(f.order)
               << ", 0-" << f.max_per_node << " packets per node, "
               << f.hot_spots << " hot spot(s) at " << f.hot_percent << '%');
  for (const RouteLeg leg : {RouteLeg::Serial, RouteLeg::Team}) {
    SCOPED_TRACE(testing_oracle::route_leg_name(leg));
    Mesh mesh(f.rows, f.cols, f.order);
    load(mesh, f, seed);
    const RefRoute want = reference_route(mesh, f.g);
    telemetry::set_enabled(true);
    const bool sampled = telemetry::sampling_on();
    const RouteStats got = route_on(leg, mesh, f.g);
    telemetry::set_enabled(false);
    expect_route_matches(mesh, got, want, sampled);
  }
}

TEST(RouteFuzz, LineEngineMatchesReferenceRouter) {
  if (const char* one = std::getenv("MESHPRAM_ROUTE_FUZZ_SEED")) {
    check_seed(std::stoull(one));
    return;
  }
  for (u64 seed = 1; seed <= kRoutes; ++seed) {
    check_seed(seed);
    if (::testing::Test::HasFailure()) return;  // report the first seed only
  }
}

}  // namespace
}  // namespace meshpram
