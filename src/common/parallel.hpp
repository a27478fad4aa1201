#pragma once
// Minimal fork-join helpers. Dataset generation and exhaustive search are
// embarrassingly parallel; this keeps them fast without pulling in a task
// framework. The auto-sized overload hands out chunks dynamically from an
// atomic counter — labelling cost per item is wildly non-uniform once
// budget filtering and sweep caching are in play (src/search/sweep_cache),
// and static partitioning would leave workers idle behind the unluckiest
// chunk. The explicit-worker overload keeps static disjoint partitioning:
// the TSan stress suite relies on its deterministic chunk shapes.

#include <cstddef>
#include <functional>
#include <thread>  // airch-lint: allow(raw-thread) — this IS the threading layer
#include <utility>

namespace airch {

/// RAII thread for long-lived workers (the serving layer's acceptor and
/// per-connection loops): joins on destruction instead of calling
/// std::terminate, so stack unwinding through a live worker is safe. The
/// `raw-thread` lint rule keeps std::thread out of library code; spawning
/// through this wrapper (or the parallel_for helpers below) is the
/// sanctioned alternative. The wrapped function must return on its own —
/// there is no interrupt; services signal their workers to stop, then let
/// the Thread destructor reap them.
class Thread {
 public:
  Thread() noexcept = default;
  explicit Thread(std::function<void()> fn) : t_(std::move(fn)) {}
  Thread(Thread&& other) noexcept = default;
  Thread& operator=(Thread&& other) {
    if (this != &other) {
      join();
      t_ = std::move(other.t_);
    }
    return *this;
  }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;
  ~Thread() { join(); }

  bool joinable() const noexcept { return t_.joinable(); }
  void join() {
    if (t_.joinable()) t_.join();
  }

 private:
  std::thread t_;  // airch-lint: allow(raw-thread)
};

/// Number of worker threads used by the auto-sized parallel_for (>= 1).
/// Honors the AIRCH_THREADS environment variable (1..1024) when set; this
/// is how concurrency tests force real threads on small machines and how
/// deployments pin the pool width. Falls back to hardware_concurrency().
unsigned hardware_threads();

/// Invokes fn(begin, end) on disjoint chunks covering [0, n), concurrently.
/// fn must be thread-safe across chunks. Runs inline when n is small.
/// Chunks are claimed dynamically from an atomic counter, so uneven
/// per-item costs self-balance; chunk begins are handed out in ascending
/// order. The calling thread drains chunks as one of the workers instead
/// of idling in join(). If any worker throws, the exception of the
/// lowest-begin throwing chunk is rethrown on the calling thread after
/// all workers have joined.
void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

/// Static variant with an explicit worker count (>= 1): worker w gets the
/// single contiguous chunk [w * ceil(n/workers), ...). Always forks
/// `workers` threads (capped at n), even for tiny n — concurrency stress
/// tests rely on this to exercise real thread interleavings regardless of
/// core count, and on the deterministic chunk shapes. Nesting is allowed:
/// an inner parallel_for simply spawns its own workers. If any worker
/// throws, the lowest chunk's exception is rethrown after all join.
void parallel_for(std::size_t n, unsigned workers,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace airch
