#pragma once
// ThreadExec: the intra-rank (second) level of the paper's two-level
// parallel scheme — a persistent worker-thread pool with a blocking
// parallelFor over an index range. The per-cell RHS loops of the DG
// updaters (Vlasov volume/surface terms, BGK relaxation) route
// through it so the update is parallel by default. Chunks are contiguous
// and cells are written by exactly one chunk, so the threaded result is
// bit-for-bit identical to serial execution.
//
// The first (inter-rank) level — configuration-space domain decomposition
// with packed ghost exchange — lives in par/communicator.hpp (Communicator
// backends over a CartDecomp) and app/distributed.hpp
// (DistributedSimulation, which runs the full Updater pipeline per rank).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "grid/grid.hpp"

namespace vdg {

class Profiler;

/// A fixed-size pool of worker threads executing blocking parallel-for
/// loops. The calling thread participates (it runs chunk 0), so a pool of
/// size 1 degenerates to a plain serial loop with no synchronization.
///
/// parallelFor is not reentrant: a call issued while another is in flight
/// (from a worker, or from a concurrent caller such as the per-rank threads
/// of DistributedSimulation) runs the loop inline on the calling thread.
/// This makes nested use safe and keeps updaters oblivious to their context.
class ThreadExec {
 public:
  /// numThreads <= 0: use VDG_NUM_THREADS if set, else hardware_concurrency.
  explicit ThreadExec(int numThreads = 0);
  ~ThreadExec();
  ThreadExec(const ThreadExec&) = delete;
  ThreadExec& operator=(const ThreadExec&) = delete;

  [[nodiscard]] int numThreads() const { return nthreads_; }

  /// Invoke fn(begin, end) over a partition of [0, n) into at most
  /// numThreads contiguous chunks, blocking until every chunk completes.
  /// fn must only write state disjoint between chunks. If any chunk
  /// throws, the first exception is rethrown on the calling thread after
  /// all chunks have finished.
  using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;
  void parallelFor(std::size_t n, const RangeFn& fn);

  /// The process-wide default pool used by the updaters.
  static ThreadExec& global();

  /// Attach a profiler (non-owning; nullptr detaches): workers label their
  /// trace tracks "worker N" and wrap each executed chunk in an exec:chunk
  /// zone, so a trace shows how evenly the per-cell loops spread across the
  /// pool. Atomic because workers may already be parked when the owning
  /// Simulation attaches. Never attached to the shared global() pool — a
  /// profiler must not outlive instrumented code, and the global pool
  /// outlives every Simulation (Builder wires only owned pools).
  void setProfiler(Profiler* p) { prof_.store(p, std::memory_order_release); }

 private:
  void workerLoop(int t);

  int nthreads_ = 1;
  std::vector<std::thread> workers_;

  std::atomic<bool> busy_{false};  ///< a parallelFor is in flight
  std::mutex m_;
  std::condition_variable cv_, doneCv_;
  const RangeFn* job_ = nullptr;
  std::size_t jobN_ = 0;
  std::size_t jobChunks_ = 0;
  int pending_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr jobError_;  ///< first exception thrown by a chunk
  bool stop_ = false;
  std::atomic<Profiler*> prof_{nullptr};
};

/// parallelFor with a nullable pool: the serial fallback every chunked
/// per-cell loop shares. exec == nullptr (or n == 0) runs fn(0, n) inline
/// as one chunk, which is exactly the partition the threaded path reduces
/// to — keeping the serial/threaded bit-for-bit guarantee in one place.
template <typename Fn>
void chunkedFor(ThreadExec* exec, std::size_t n, const Fn& fn) {
  if (n == 0) return;
  if (exec)
    exec->parallelFor(n, fn);
  else
    fn(std::size_t{0}, n);
}

/// forEachCell routed through a (nullable) pool: interior cells are
/// visited exactly once, partitioned into contiguous chunks of the
/// flattened (dimension 0 fastest) cell ordering. Within a chunk the
/// visit order matches the serial forEachCell, so per-cell work is
/// bitwise reproducible. Template on the callable so the per-cell body
/// stays inlinable (the type-erased boundary is per chunk, in
/// ThreadExec::parallelFor).
template <typename Fn>
void parallelForEachCell(ThreadExec* exec, const Grid& grid, const Fn& fn) {
  chunkedFor(exec, grid.numCells(), [&](std::size_t begin, std::size_t end) {
    forEachIndexInRange(grid.ndim, grid.cells.data(), begin, end, fn);
  });
}

}  // namespace vdg
