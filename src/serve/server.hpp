#pragma once
// The batched recommender service: a persistent socket front-end over
// warm Recommender models (docs/performance.md, "Serving"). The paper's
// pitch is constant-time inference; what a deployment actually runs is a
// process that loads the trained models ONCE and answers a stream of
// design queries. An idle model answers a request at once, on the thread
// that read it; requests that queue on a busy model share its next
// packed recommend_batch forward pass.
//
// Threading model (all synchronization via common/sync.hpp, all threads
// via common/parallel.hpp Thread):
//   - acceptor thread: poll-based accept loop, spawns one thread per
//     connection, reaps finished ones lazily. A failed accept() is
//     retried after accept_poll_ms; only stop() ends the loop.
//   - connection threads: length-prefixed frame in, validate, queue on
//     the model's lane, frame out. Invalid requests are answered with an
//     error frame BEFORE queueing, so one bad request can never poison a
//     packed pass.
//   - one lane per model: a queue and a busy flag. The thread that queues
//     on an idle lane leads it: one pass over everything queued, then,
//     before sending its own reply, it hands the lead to the head of the
//     queue or marks the lane idle. Other requests wait on their own
//     CondVar until a pass completes them or the lead reaches them.
//     Lanes of different models run at the same time.
//
// The locks involved (lane, per-request, connection registry, stats) are
// peers — none is ever held while acquiring another — so they all sit at
// the default kLeaf rank and the runtime rank registry enforces exactly
// that.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/recommender.hpp"

namespace airch::serve {

struct ServeOptions {
  /// Acceptor poll granularity, and the wait before retrying a failed
  /// accept(); bounds stop() latency, not request latency.
  int accept_poll_ms = 20;
  /// Connections beyond this are answered with an error frame and closed.
  std::size_t max_connections = 64;
};

/// Service counters, readable while the service runs (stats() takes a
/// snapshot under the stats lock). Every count is taken before the frames
/// it covers are sent, so a client that has received a reply or an error
/// frame and then calls stats() always finds that frame counted. A frame
/// whose send fails afterwards (the peer left) stays counted.
struct [[nodiscard]] ServeStats {
  std::uint64_t requests = 0;  ///< reply frames sent, one per answered query frame
  std::uint64_t queries = 0;   ///< feature vectors answered by successful forward passes
  std::uint64_t batches = 0;   ///< packed forward passes that succeeded
  std::uint64_t errors = 0;    ///< error frames sent: bad frame, unknown case, arity,
                               ///< failed forward pass, or connection limit
  /// batch_size_log2_hist[b] = packed passes whose query count n had
  /// floor(log2(n)) == b (last bucket absorbs the tail): how requests
  /// coalesce under load, reported by bench_serve.
  std::vector<std::uint64_t> batch_size_log2_hist;
};

/// One registered model: the service answers case_id queries with *rec.
/// The Recommender must stay alive and unmodified while the service runs
/// (its predict path is const and thread-safe — that is the whole point).
struct ServedModel {
  int case_id = 0;
  const Recommender* rec = nullptr;
};

class RecommenderService {
 public:
  /// Validates the model table (case ids 1..3, non-null, unique) and the
  /// options (accept_poll_ms >= 1).
  explicit RecommenderService(std::vector<ServedModel> models, ServeOptions options = {});
  ~RecommenderService();
  RecommenderService(const RecommenderService&) = delete;
  RecommenderService& operator=(const RecommenderService&) = delete;

  /// Binds 127.0.0.1:<ephemeral> and spawns the acceptor.
  void start();
  /// Stops accepting, shuts every connection down, joins every thread. A
  /// request already queued is still answered; only its reply's send
  /// fails. Idempotent; also run by the destructor.
  void stop();

  /// Port clients connect to; valid after start().
  int port() const;

  [[nodiscard]] ServeStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace airch::serve
