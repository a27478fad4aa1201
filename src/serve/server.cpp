#include "serve/server.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <list>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/sync.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"

namespace airch::serve {

namespace {
/// floor(log2(n)) clamped into the fixed histogram width; n >= 1.
constexpr std::size_t kHistBuckets = 13;  // 2^12 = kMaxQueriesPerFrame
std::size_t log2_bucket(std::size_t n) {
  std::size_t b = 0;
  while (n > 1 && b + 1 < kHistBuckets) {
    n >>= 1U;
    ++b;
  }
  return b;
}
}  // namespace

struct RecommenderService::Impl {
  /// One in-flight request, shared between its connection thread (waits,
  /// then sends) and the leaders that answer it or hand it the lead. Its
  /// lock is a kLeaf peer of every other service lock: nobody holds
  /// another lock while touching it.
  struct Pending {
    QueryFrame query;
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    bool lead GUARDED_BY(mu) = false;
    std::vector<std::int32_t> labels GUARDED_BY(mu);
    std::string error GUARDED_BY(mu);
  };

  /// One served model. `busy` is true while some thread leads the lane;
  /// `queue` holds the requests for its next pass (empty when idle).
  struct Lane {
    const Recommender* rec = nullptr;  ///< null: this case is not served
    Mutex mu;
    std::vector<std::shared_ptr<Pending>> queue GUARDED_BY(mu);
    bool busy GUARDED_BY(mu) = false;
  };

  struct ConnState {
    explicit ConnState(Socket s) : sock(std::move(s)) {}
    Socket sock;
    // Lock-free completion flag (documented escape hatch, not a
    // capability): the acceptor polls it to reap finished connection
    // threads without blocking on a lock the connection might hold.
    std::atomic<bool> done{false};
  };

  struct Conn {
    std::shared_ptr<ConnState> state;
    Thread thread;
  };

  Impl(const std::vector<ServedModel>& models, ServeOptions o) : options(o) {
    AIRCH_CHECK(!models.empty(), "service needs at least one model");
    AIRCH_CHECK(options.accept_poll_ms >= 1, "accept_poll_ms must be >= 1");
    for (const ServedModel& m : models) {
      AIRCH_CHECK(m.rec != nullptr, "null recommender in the model table");
      AIRCH_CHECK(m.case_id >= 1 && m.case_id <= 3, "case id must be 1..3");
      Lane& lane = lanes[static_cast<std::size_t>(m.case_id - 1)];
      AIRCH_CHECK(lane.rec == nullptr, "duplicate case id in the model table");
      lane.rec = m.rec;
    }
    stats_.batch_size_log2_hist.assign(kHistBuckets, 0);
  }

  Lane* find_lane(int case_id) {
    if (case_id < 1 || case_id > static_cast<int>(lanes.size())) return nullptr;
    Lane& lane = lanes[static_cast<std::size_t>(case_id - 1)];
    return lane.rec != nullptr ? &lane : nullptr;
  }

  // Each frame is counted BEFORE it is sent (see ServeStats): a client
  // that reads stats() after receiving its reply must find it counted.
  void send_reply(Socket& sock, const std::vector<std::int32_t>& labels) {
    {
      const MutexLock lock(stats_mu_);
      ++stats_.requests;
    }
    sock.send_frame(encode_reply(labels));
  }

  void send_error(Socket& sock, const std::string& message) {
    {
      const MutexLock lock(stats_mu_);
      ++stats_.errors;
    }
    sock.send_frame(encode_error(message));
  }

  // ------------------------------------------------------------- acceptor

  void accept_loop() {
    while (!stopping.load(std::memory_order_acquire)) {
      std::optional<Socket> sock;
      try {
        sock = listener->accept_one(options.accept_poll_ms);
      } catch (...) {
        // accept() failed (EMFILE, ENFILE, ENOBUFS, ENOMEM, ...). The
        // connection stays in the backlog: wait a poll period rather than
        // spin, and retry, so a passing shortage cannot leave us deaf.
        std::this_thread::sleep_for(std::chrono::milliseconds(options.accept_poll_ms));
      }
      reap_finished();  // a reaped connection also frees its fd
      if (!sock) continue;
      bool reject = false;
      {
        const MutexLock lock(conns_mu_);
        if (conns_.size() >= options.max_connections) {
          reject = true;
        } else {
          auto state = std::make_shared<ConnState>(std::move(*sock));
          conns_.push_back(
              {state, Thread([this, state] { serve_connection(*state); })});
        }
      }
      if (reject) {
        try {
          send_error(*sock, "connection limit reached");
        } catch (...) {
          // peer already gone; nothing to report to
        }
      }
    }
  }

  void reap_finished() {
    const MutexLock lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->state->done.load(std::memory_order_acquire)) {
        it = conns_.erase(it);  // Thread dtor joins the finished thread
      } else {
        ++it;
      }
    }
  }

  // ---------------------------------------------------------- connections

  void serve_connection(ConnState& cs) {
    try {
      for (;;) {
        auto body = cs.sock.recv_frame(kMaxFrameBytes);
        if (!body) break;  // clean EOF
        Frame frame;
        try {
          frame = decode_frame(body->data(), body->size());
          AIRCH_CHECK(frame.type == FrameType::kQuery, "expected a query frame");
        } catch (const std::exception& e) {
          // Length-prefixed framing keeps the stream in sync past a bad
          // body, so a malformed request costs its sender one error reply,
          // not the connection.
          send_error(cs.sock, e.what());
          continue;
        }
        Lane* lane = find_lane(frame.query.case_id);
        if (lane == nullptr) {
          send_error(cs.sock, "no model loaded for case " +
                                  std::to_string(frame.query.case_id));
          continue;
        }
        if (frame.query.num_features != static_cast<std::size_t>(lane->rec->num_features())) {
          // Arity is checked HERE, before the request can join a packed
          // pass: recommend_batch would throw for the whole pass and
          // take every coalesced neighbor down with it.
          send_error(cs.sock, "feature arity mismatch for case " +
                                  std::to_string(frame.query.case_id));
          continue;
        }
        auto pending = std::make_shared<Pending>();
        pending->query = std::move(frame.query);
        answer(*lane, pending);
        std::vector<std::int32_t> labels;
        std::string error;
        {
          const MutexLock lock(pending->mu);
          labels = std::move(pending->labels);
          error = std::move(pending->error);
        }
        if (!error.empty()) {
          send_error(cs.sock, error);
        } else {
          send_reply(cs.sock, labels);
        }
      }
    } catch (...) {
      // Torn connection (peer reset, or stop() shut the socket down
      // mid-recv or mid-send): drop it. A pass this thread led has
      // already completed its requests and handed the lane on.
    }
    cs.done.store(true, std::memory_order_release);
  }

  // ---------------------------------------------------------------- lanes

  /// Scope guard of a pass: on every exit path, and before the leader
  /// sends its own reply, passes the lead to the request at the head of
  /// the lane's queue, or marks the lane idle when nothing queued during
  /// the pass. The lane lock is released before the request lock is
  /// taken: the two never nest.
  class HandOff {
   public:
    explicit HandOff(Lane& lane) : lane_(lane) {}
    HandOff(const HandOff&) = delete;
    HandOff& operator=(const HandOff&) = delete;
    ~HandOff() {
      std::shared_ptr<Pending> next;
      {
        const MutexLock lock(lane_.mu);
        if (lane_.queue.empty()) {
          lane_.busy = false;
          return;
        }
        next = lane_.queue.front();
      }
      {
        const MutexLock lock(next->mu);
        next->lead = true;
      }
      next->cv.notify_all();
    }

   private:
    Lane& lane_;
  };

  /// Returns once `pending` is done. Queues it on `lane`; if the lane was
  /// idle, or once a finishing leader hands this request the lead, runs
  /// one pass over everything queued, which includes `pending` itself.
  /// Otherwise another leader's pass completes it.
  void answer(Lane& lane, const std::shared_ptr<Pending>& pending) {
    bool lead = false;
    {
      const MutexLock lock(lane.mu);
      lane.queue.push_back(pending);
      lead = !std::exchange(lane.busy, true);
    }
    if (!lead) {
      const MutexLock lock(pending->mu);
      while (!pending->done && !pending->lead) pending->cv.wait(pending->mu);
      lead = pending->lead;
    }
    if (!lead) return;
    std::vector<std::shared_ptr<Pending>> batch;
    {
      const MutexLock lock(lane.mu);
      batch.swap(lane.queue);
    }
    const HandOff hand_off(lane);
    run_batch(*lane.rec, batch);
  }

  /// One packed recommend_batch over every request of `batch`, in arrival
  /// order, then completes each request with its slice of the labels (or
  /// the pass's error).
  void run_batch(const Recommender& rec, const std::vector<std::shared_ptr<Pending>>& batch) {
    std::vector<std::vector<std::int64_t>> queries;
    std::vector<std::int32_t> labels;
    std::string error;
    try {
      for (const auto& p : batch) {
        const std::size_t arity = p->query.num_features;
        for (std::size_t q = 0; q < p->query.num_queries(); ++q) {
          const auto* row = p->query.features.data() + q * arity;
          queries.emplace_back(row, row + arity);
        }
      }
      labels = rec.recommend_batch(queries);
      AIRCH_CHECK(labels.size() == queries.size(), "recommend_batch returned a short result");
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (error.empty()) {
      const MutexLock lock(stats_mu_);
      ++stats_.batches;
      stats_.queries += queries.size();
      ++stats_.batch_size_log2_hist[log2_bucket(queries.size())];
    }
    std::size_t offset = 0;
    for (const auto& p : batch) {
      const std::size_t n = p->query.num_queries();
      {
        const MutexLock lock(p->mu);
        if (error.empty()) {
          p->labels.assign(labels.begin() + static_cast<std::ptrdiff_t>(offset),
                           labels.begin() + static_cast<std::ptrdiff_t>(offset + n));
        } else {
          p->error = error;
        }
        p->done = true;
      }
      p->cv.notify_all();
      offset += n;
    }
  }

  // -------------------------------------------------------------- members

  const ServeOptions options;
  std::array<Lane, 3> lanes;  ///< by case id - 1

  std::optional<Listener> listener;
  Thread acceptor;
  bool started = false;
  bool stopped = false;
  // Lock-free stop flag (escape hatch, not a capability): checked by the
  // acceptor between polls; no compound state rides on it.
  std::atomic<bool> stopping{false};

  Mutex conns_mu_;
  std::list<Conn> conns_ GUARDED_BY(conns_mu_);

  mutable Mutex stats_mu_;
  ServeStats stats_ GUARDED_BY(stats_mu_);
};

RecommenderService::RecommenderService(std::vector<ServedModel> models, ServeOptions options)
    : impl_(std::make_unique<Impl>(models, options)) {}

RecommenderService::~RecommenderService() { stop(); }

void RecommenderService::start() {
  AIRCH_CHECK(!impl_->started, "service already started");
  impl_->started = true;
  impl_->listener.emplace();  // binds 127.0.0.1:<ephemeral>
  impl_->acceptor = Thread([impl = impl_.get()] { impl->accept_loop(); });
}

void RecommenderService::stop() {
  if (!impl_->started || impl_->stopped) return;
  impl_->stopped = true;
  // 1. Stop accepting; the poll timeout bounds how long this join takes.
  impl_->stopping.store(true, std::memory_order_release);
  impl_->acceptor.join();
  // 2. Unblock every connection's recv and send, then join the connection
  //    threads. Passes never block on a socket, so every queued request is
  //    still answered and every lane handed on before a send fails.
  std::list<Impl::Conn> conns;
  {
    const MutexLock lock(impl_->conns_mu_);
    for (auto& conn : impl_->conns_) conn.state->sock.shutdown_both();
    conns.swap(impl_->conns_);
  }
  conns.clear();  // Thread dtors join outside any lock
}

int RecommenderService::port() const {
  AIRCH_CHECK(impl_->started, "port() before start()");
  return impl_->listener->port();
}

ServeStats RecommenderService::stats() const {
  const MutexLock lock(impl_->stats_mu_);
  return impl_->stats_;
}

}  // namespace airch::serve
