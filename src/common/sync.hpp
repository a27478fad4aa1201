#pragma once
// Annotated synchronization layer (docs/static_analysis.md, "Thread-safety
// capability analysis"). Every mutex in library code goes through these
// wrappers instead of <mutex>, for two reasons:
//
//   1. Compile time: the types carry Clang Thread Safety Analysis
//      capability attributes, so `-Wthread-safety -Werror=thread-safety`
//      (the `capability` preset / CI job) turns lock-discipline mistakes —
//      reading a GUARDED_BY field without the lock, calling a REQUIRES
//      helper unlocked, double-acquiring, returning a reference to guarded
//      data — into build failures. On GCC every attribute macro expands to
//      nothing and the wrappers compile down to the std primitives.
//   2. Run time (checked builds only): every Mutex/SharedMutex carries a
//      lock-rank ordinal (the table lives below and in the docs) and each
//      thread maintains a held-lock stack. Acquiring a lock whose rank is
//      not strictly above every lock the thread already holds — or one the
//      thread already holds — throws airch::ContractViolation before the
//      acquire, so a lock-order inversion that would deadlock one run in a
//      million is caught deterministically on any run that merely
//      *attempts* the inverted order. Like AIRCH_DCHECK, the registry is
//      compiled out under NDEBUG: Release-mode lock() is exactly
//      std::mutex::lock().
//
// The lint rules `raw-mutex` and `raw-lock` (tools/lint_airch.cpp) keep
// library code on this layer: no std mutex/lock types outside this file,
// and no manual .lock()/.unlock() calls — acquisition is RAII
// (MutexLock / ReaderLock / WriterLock) so scoped-capability analysis and
// exception safety hold everywhere.
//
// Escape hatches are explicit and documented at the use site: lock-free
// std::atomic state (the sweep-cache prefetch snapshot, the kernel-mode
// flag, parallel_for's chunk counter) is not a capability and is not
// annotated; anything genuinely outside the analysis carries
// NO_THREAD_SAFETY_ANALYSIS plus a justification comment.

#include <condition_variable>  // airch-lint: allow(raw-mutex) — this IS the sync layer
#include <cstddef>
#include <mutex>               // airch-lint: allow(raw-mutex)
#include <shared_mutex>        // airch-lint: allow(raw-mutex)

#include "common/check.hpp"

// --------------------------------------------------------------- attributes
// Clang Thread Safety Analysis attribute macros, following the reference
// spelling from the Clang documentation. No-ops on every other compiler.

#if defined(__clang__) && !defined(SWIG)
#define AIRCH_TSA(x) __attribute__((x))
#else
#define AIRCH_TSA(x)  // not Clang: thread-safety attributes compile away
#endif

#define CAPABILITY(x) AIRCH_TSA(capability(x))
#define SCOPED_CAPABILITY AIRCH_TSA(scoped_lockable)
#define GUARDED_BY(x) AIRCH_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) AIRCH_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) AIRCH_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) AIRCH_TSA(acquired_after(__VA_ARGS__))
#define REQUIRES(...) AIRCH_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) AIRCH_TSA(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) AIRCH_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) AIRCH_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) AIRCH_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) AIRCH_TSA(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) AIRCH_TSA(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) AIRCH_TSA(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) AIRCH_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) AIRCH_TSA(assert_capability(x))
#define RETURN_CAPABILITY(x) AIRCH_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS AIRCH_TSA(no_thread_safety_analysis)

// ---------------------------------------------------------------- lock ranks
// The runtime half of the discipline. Checks are live exactly when the
// contract macros are (Debug and every sanitizer preset; compiled out
// under NDEBUG — see common/check.hpp).

#ifdef NDEBUG
#define AIRCH_SYNC_CHECKED 0
#else
#define AIRCH_SYNC_CHECKED 1
#endif

namespace airch {

/// True when the lock-rank registry is active in this build. Tests branch
/// on this to assert either the throw (checked) or the no-op (Release).
inline constexpr bool kLockRankChecksEnabled = AIRCH_SYNC_CHECKED != 0;

/// Lock-rank ordinals. A thread may only acquire a mutex whose rank is
/// STRICTLY ABOVE every lock it already holds, so any cycle in the
/// acquisition order is impossible by construction. Two locks of the same
/// rank therefore never nest — the correct default for peer locks (e.g.
/// the sweep-cache shards, which are taken one at a time). Give a mutex an
/// explicit rank only when it participates in a documented nesting; keep
/// this table in sync with docs/static_analysis.md.
namespace lock_rank {
/// parallel_for's first-exception slot: taken by a worker only after its
/// user callback has unwound (no user lock can still be held).
inline constexpr int kParallelError = 10;
/// Sweep-cache shard locks (all three caches): peers, never nested —
/// compute always runs outside the shard lock (sweep_cache.hpp).
inline constexpr int kSweepCacheShard = 20;
/// Default for unranked mutexes: a leaf. Two leaves cannot nest; pick
/// explicit ranks the moment a nesting is intended.
inline constexpr int kLeaf = 1000;
}  // namespace lock_rank

namespace detail {

// Registry hooks (sync.cpp). Only called when AIRCH_SYNC_CHECKED; they
// throw ContractViolation on re-acquire and on rank inversion.
void lock_rank_acquire(const void* mu, int rank);
void lock_rank_release(const void* mu);
/// Locks currently held by the calling thread (checked builds; 0 in
/// Release). Exposed for tests and leak-style assertions.
std::size_t locks_held_by_this_thread();

}  // namespace detail

// ---------------------------------------------------------------- primitives

/// std::mutex with a thread-safety capability attribute and a lock-rank
/// ordinal. Release builds compile lock()/unlock() down to the std calls.
/// Prefer MutexLock over calling lock()/unlock() manually (the `raw-lock`
/// lint rule enforces this outside this header).
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(int rank = lock_rank::kLeaf) noexcept : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
#if AIRCH_SYNC_CHECKED
    detail::lock_rank_acquire(this, rank_);  // throws BEFORE blocking
#endif
    mu_.lock();
  }

  void unlock() RELEASE() {
    mu_.unlock();
#if AIRCH_SYNC_CHECKED
    detail::lock_rank_release(this);
#endif
  }

  bool try_lock() TRY_ACQUIRE(true) {
#if AIRCH_SYNC_CHECKED
    // Rank discipline applies to attempts too: an inverted try_lock is the
    // same latent deadlock. Note-then-maybe-retract keeps the registry
    // consistent when the try fails.
    detail::lock_rank_acquire(this, rank_);
    if (!mu_.try_lock()) {
      detail::lock_rank_release(this);
      return false;
    }
    return true;
#else
    return mu_.try_lock();
#endif
  }

  int rank() const noexcept { return rank_; }

 private:
  std::mutex mu_;  // airch-lint: allow(raw-mutex)
  int rank_;
};

/// std::shared_mutex counterpart. Shared (reader) acquisitions obey the
/// same rank discipline — a reader participating in an inverted order
/// deadlocks against writers just as surely.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(int rank = lock_rank::kLeaf) noexcept : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
#if AIRCH_SYNC_CHECKED
    detail::lock_rank_acquire(this, rank_);
#endif
    mu_.lock();
  }

  void unlock() RELEASE() {
    mu_.unlock();
#if AIRCH_SYNC_CHECKED
    detail::lock_rank_release(this);
#endif
  }

  void lock_shared() ACQUIRE_SHARED() {
#if AIRCH_SYNC_CHECKED
    // Re-acquiring shared ownership the thread already has is UB on
    // std::shared_mutex; the registry's re-acquire check covers it.
    detail::lock_rank_acquire(this, rank_);
#endif
    mu_.lock_shared();
  }

  void unlock_shared() RELEASE_SHARED() {
    mu_.unlock_shared();
#if AIRCH_SYNC_CHECKED
    detail::lock_rank_release(this);
#endif
  }

  int rank() const noexcept { return rank_; }

 private:
  std::shared_mutex mu_;  // airch-lint: allow(raw-mutex)
  int rank_;
};

// ----------------------------------------------------------------- RAII

/// Scoped exclusive lock on a Mutex; the only sanctioned way to hold one
/// in library code.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu.lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) { mu.lock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;
  ~ReaderLock() RELEASE() { mu_.unlock_shared(); }

 private:
  SharedMutex& mu_;
};

/// Scoped exclusive (writer) lock on a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu.lock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;
  ~WriterLock() RELEASE() { mu_.unlock(); }

 private:
  SharedMutex& mu_;
};

// ---------------------------------------------------------------- CondVar

/// Condition variable paired with Mutex. wait() REQUIRES the mutex, so
/// forgetting the lock is a compile error under the capability preset; the
/// internal unlock/relock goes through Mutex's annotated-and-registered
/// methods, so the lock-rank stack stays exact across a wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires before returning.
  /// Spurious wakeups happen: callers re-check their condition in a loop
  /// that runs in the locked scope, so the capability analysis sees the
  /// reads of GUARDED_BY state (a predicate lambda would hide them).
  void wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  // _any variant: it takes our annotated Mutex (a BasicLockable) directly,
  // so waits keep the rank registry consistent.
  std::condition_variable_any cv_;  // airch-lint: allow(raw-mutex)
};

}  // namespace airch
