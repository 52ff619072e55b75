// Fixed-size thread pool for the host-parallel execution engine.
//
// The paper's staged protocol runs every phase "in parallel and independently
// in every level-i submesh"; the simulator exploits exactly that structure for
// real host parallelism. The pool hands out loop indices to a fixed set of
// workers (plus the calling thread); the *counted* mesh steps never depend on
// the thread count because every consumer merges per-region costs in region
// order after the join (see src/mesh/parallel.hpp and DESIGN.md §7).
#pragma once

#include <functional>
#include <memory>

#include "util/math.hpp"

namespace meshpram {

class ThreadPool {
 public:
  /// Creates a pool that executes loops on `threads` threads in total
  /// (threads - 1 workers plus the calling thread). threads >= 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, count), distributing indices dynamically
  /// over the workers and the calling thread; blocks until all indices are
  /// done. The first exception thrown by any fn is rethrown in the caller
  /// (remaining indices still run to completion so the pool stays reusable).
  /// Contract: fn(i) and fn(j) must touch disjoint state for i != j.
  /// Not reentrant: fn must not call back into the same pool.
  void for_each_index(i64 count, const std::function<void(i64)>& fn);

  /// Chunked variant for flat per-node loops: splits [0, count) into at most
  /// threads() * 4 contiguous chunks of at least `min_grain` indices and runs
  /// fn(begin, end) per chunk. Chunk boundaries affect scheduling only: as
  /// long as the per-index work is disjoint, every index computes the same
  /// value under any chunking, so results are thread-count invariant.
  void for_each_chunk(i64 count, i64 min_grain,
                      const std::function<void(i64, i64)>& fn);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int threads_;
};

/// Pool used by the mesh execution engine for the calling thread. By default
/// every thread shares one process-wide pool, sized by the last
/// set_execution_threads() call, else the MESHPRAM_THREADS environment
/// variable, else std::thread::hardware_concurrency(). A ScopedPool guard
/// overrides the answer for the installing thread only, so independent
/// drivers (one simulator per thread, or a serve scheduler) each get a pool
/// of their own instead of colliding on the shared one — ThreadPool is not
/// reentrant, so two threads racing for_each_index on the same pool was a
/// latent crash, not just unfairness.
ThreadPool& execution_pool();

/// RAII override of execution_pool() for the current thread. While alive,
/// every execution_pool()/execution_threads() call made on this thread (and
/// only this thread — pool worker threads stay serial by the
/// in_parallel_worker() rule, so they never consult the slot) resolves to
/// `pool`. Guards nest; destruction restores the previous override.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool& pool);
  ~ScopedPool();
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* prev_;
};

/// True while the calling thread is executing loop indices handed out by a
/// ThreadPool (including the calling thread's own participation). Kernels
/// that can spawn an intra-region worker team (route_greedy line teams, the
/// meshsort rounds) consult this to stay serial when they are themselves a
/// pool task: the pool is not reentrant, and the per-region disjointness that
/// makes the outer loop deterministic already provides the parallelism.
bool in_parallel_worker();

/// Current size of the execution pool.
int execution_threads();

/// Resizes the execution pool (0 restores the environment/hardware default).
/// Must not be called while a loop is running on the pool.
void set_execution_threads(int threads);

}  // namespace meshpram
