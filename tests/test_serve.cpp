// The serving layer (src/serve/) and the concurrency contract it rests
// on. Three groups:
//
//   1. Wire protocol: round trips, the flip-every-byte / every-truncation
//      corruption sweeps, and the hard caps.
//   2. The warm-model predict path: recommend_batch == mapped
//      recommend_label (the batched-vs-scalar property), and the
//      8-threads-on-one-model bit-identity test that pins the const
//      inference path as actually shareable (this file carries the tsan
//      label so the claim is checked by the race detector, not just by
//      matching outputs).
//   3. The service end to end over real loopback sockets: replies
//      bit-identical to in-process recommend_batch, error frames for bad
//      requests (connection survives them), the lane contract (requests
//      that queue on a busy model share one pass, a client that leaves
//      strands nobody, two lanes serve at once, stop() mid-stream answers
//      every queued request), stats and their count-before-send ordering,
//      the connection cap, accepting again after a failed accept(), and
//      stop() idempotence.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/case_study.hpp"
#include "core/recommender.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

namespace airch {
namespace {

using serve::decode_frame;
using serve::encode_error;
using serve::encode_query;
using serve::encode_reply;
using serve::Frame;
using serve::FrameType;
using serve::QueryFrame;
using serve::RecommenderClient;
using serve::RecommenderService;
using serve::ServeOptions;

// ------------------------------------------------------------- protocol

QueryFrame sample_query_frame() {
  QueryFrame q;
  q.case_id = 1;
  q.num_features = 4;
  q.features = {8, 512, 128, 256, 10, 64, 64, 1024};  // two queries
  return q;
}

TEST(ServeProtocol, QueryRoundTrip) {
  const QueryFrame q = sample_query_frame();
  const auto body = encode_query(q);
  const Frame f = decode_frame(body.data(), body.size());
  EXPECT_EQ(f.type, FrameType::kQuery);
  EXPECT_EQ(f.query.case_id, q.case_id);
  EXPECT_EQ(f.query.num_features, q.num_features);
  EXPECT_EQ(f.query.features, q.features);
  EXPECT_EQ(f.query.num_queries(), 2u);
}

TEST(ServeProtocol, ReplyRoundTrip) {
  const std::vector<std::int32_t> labels = {0, 7, -1, 458};
  const auto body = encode_reply(labels);
  const Frame f = decode_frame(body.data(), body.size());
  EXPECT_EQ(f.type, FrameType::kReply);
  EXPECT_EQ(f.labels, labels);
}

TEST(ServeProtocol, ErrorRoundTrip) {
  const auto body = encode_error("no model loaded for case 3");
  const Frame f = decode_frame(body.data(), body.size());
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_EQ(f.error, "no model loaded for case 3");
}

TEST(ServeProtocol, EveryByteFlipRejected) {
  // Any single corrupted byte must surface as a thrown contract violation
  // — caught by a count check, a cap, or ultimately the trailer digest —
  // never as a silently different frame.
  const auto body = encode_query(sample_query_frame());
  for (std::size_t i = 0; i < body.size(); ++i) {
    auto bad = body;
    bad[i] ^= 0xFF;
    EXPECT_THROW(decode_frame(bad.data(), bad.size()), ContractViolation)
        << "flipped byte " << i;
  }
}

TEST(ServeProtocol, EveryTruncationRejected) {
  const auto body = encode_query(sample_query_frame());
  for (std::size_t n = 0; n < body.size(); ++n) {
    EXPECT_THROW(decode_frame(body.data(), n), ContractViolation) << "length " << n;
  }
  // ... and bytes past the trailer are just as fatal as missing ones.
  auto padded = body;
  padded.push_back(0);
  EXPECT_THROW(decode_frame(padded.data(), padded.size()), ContractViolation);
}

TEST(ServeProtocol, CapsEnforcedOnEncode) {
  QueryFrame wide;
  wide.case_id = 1;
  wide.num_features = serve::kMaxFeaturesPerQuery + 1;
  wide.features.assign(wide.num_features, 0);
  EXPECT_THROW(encode_query(wide), ContractViolation);

  QueryFrame tall;
  tall.case_id = 1;
  tall.num_features = 1;
  tall.features.assign(serve::kMaxQueriesPerFrame + 1, 0);
  EXPECT_THROW(encode_query(tall), ContractViolation);

  QueryFrame empty;
  empty.case_id = 1;
  empty.num_features = 4;
  EXPECT_THROW(encode_query(empty), ContractViolation);

  QueryFrame ragged;
  ragged.case_id = 1;
  ragged.num_features = 4;
  ragged.features.assign(6, 0);  // not a multiple of the arity
  EXPECT_THROW(encode_query(ragged), ContractViolation);

  QueryFrame bad_case;
  bad_case.case_id = 4;
  bad_case.num_features = 4;
  bad_case.features.assign(4, 0);
  EXPECT_THROW(encode_query(bad_case), ContractViolation);

  // The error path must always be encodable, so an oversized message is
  // truncated to the cap instead of rejected.
  const auto body = encode_error(std::string(serve::kMaxErrorBytes + 100, 'x'));
  EXPECT_EQ(decode_frame(body.data(), body.size()).error,
            std::string(serve::kMaxErrorBytes, 'x'));
  EXPECT_THROW(encode_reply(std::vector<std::int32_t>(serve::kMaxQueriesPerFrame + 1, 0)),
               ContractViolation);
}

// ------------------------------------------- warm model, shared fixture
//
// Training is the expensive part, so one tiny case-1 model is trained
// once for the whole suite. Every test below treats it as const — which
// is exactly the serving contract under test.

class ServeModel : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Real kernel workers even on 1-core CI boxes, so the concurrent
    // tests exercise parallel_rows inside concurrent forward passes.
    setenv("AIRCH_THREADS", "2", 1);
    study_ = std::make_unique<ArrayDataflowStudy>();
    Recommender::TrainOptions opts;
    opts.dataset_size = 400;
    opts.epochs = 1;
    rec_ = std::make_unique<Recommender>(Recommender::train(*study_, opts));
  }
  static void TearDownTestSuite() {
    rec_.reset();
    study_.reset();
  }

  /// Deterministic case-1 queries: {budget_exp, m, n, k}.
  static std::vector<std::vector<std::int64_t>> make_queries(std::size_t n,
                                                             std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<std::int64_t>> out(n);
    for (auto& q : out) {
      q = {rng.uniform_int(5, 10), rng.log_uniform_int(4, 1 << 16),
           rng.log_uniform_int(4, 1 << 12), rng.log_uniform_int(4, 1 << 12)};
    }
    return out;
  }

  static QueryFrame to_frame(int case_id,
                             const std::vector<std::vector<std::int64_t>>& queries) {
    QueryFrame q;
    q.case_id = case_id;
    q.num_features = queries.front().size();
    for (const auto& row : queries) q.features.insert(q.features.end(), row.begin(), row.end());
    return q;
  }

  /// Sends a kHeadQueries-query request on a new connection and returns
  /// without waiting for the reply. Its pass keeps the lane's leader busy
  /// far longer than a client takes to send a small request (about 10 ms
  /// in Release, seconds under TSan), so requests sent after it queue
  /// behind it and share a later pass.
  static serve::Socket send_head_request(int port, int case_id) {
    serve::Socket sock = serve::connect_local(port);
    sock.send_frame(encode_query(to_frame(case_id, head_queries())));
    return sock;
  }

  /// Receives the head request's reply; true when it is bit-identical to
  /// an in-process recommend_batch.
  static bool head_reply_matches(serve::Socket& sock) {
    const auto body = sock.recv_frame(serve::kMaxFrameBytes);
    if (!body) return false;
    const Frame f = decode_frame(body->data(), body->size());
    return f.type == FrameType::kReply && f.labels == rec_->recommend_batch(head_queries());
  }

  static std::vector<std::vector<std::int64_t>> head_queries() {
    return make_queries(kHeadQueries, 99);
  }

  static constexpr std::size_t kHeadQueries = 1024;
  static std::unique_ptr<ArrayDataflowStudy> study_;
  static std::unique_ptr<Recommender> rec_;
};

std::unique_ptr<ArrayDataflowStudy> ServeModel::study_;
std::unique_ptr<Recommender> ServeModel::rec_;

TEST_F(ServeModel, BatchedMatchesScalar) {
  // The batched-vs-scalar property: one packed forward pass must agree
  // bit-for-bit with N scalar queries, duplicates included.
  auto queries = make_queries(100, 7);
  queries.push_back(queries.front());  // exact duplicates share one row each
  queries.push_back(queries.front());
  const auto batched = rec_->recommend_batch(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], rec_->recommend_label(queries[i])) << "query " << i;
  }
}

TEST_F(ServeModel, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(rec_->recommend_batch({}).empty());
}

TEST_F(ServeModel, RaggedBatchThrows) {
  auto queries = make_queries(4, 9);
  queries[2].pop_back();  // 3 features in a 4-feature batch
  EXPECT_THROW(rec_->recommend_batch(queries), std::invalid_argument);
}

TEST_F(ServeModel, ConcurrentQueriesMatchSerial) {
  // The headline concurrency claim: 8 threads hammering ONE warm model
  // must each see answers bit-identical to the serial baseline. Before
  // the predict path went const, DenseLayer/ReluLayer/EmbeddingBag scratch
  // state was shared across callers and this raced (TSan caught it; this
  // file carries the tsan label so it still would).
  const auto queries = make_queries(64, 11);
  const auto serial_batch = rec_->recommend_batch(queries);
  std::vector<std::vector<std::int32_t>> serial_topk;
  serial_topk.reserve(queries.size());
  for (const auto& q : queries) serial_topk.push_back(rec_->recommend_topk(q, 5));

  constexpr int kThreads = 8;
  constexpr int kIters = 4;
  std::atomic<int> mismatches{0};
  {
    std::vector<Thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (int it = 0; it < kIters; ++it) {
          if (rec_->recommend_batch(queries) != serial_batch) mismatches.fetch_add(1);
          // Rotate a scalar + top-k probe per thread so the proba path
          // (softmax over infer_logits) runs concurrently too.
          const auto qi = static_cast<std::size_t>((t * kIters + it) %
                                                   static_cast<int>(queries.size()));
          if (rec_->recommend_label(queries[qi]) != serial_batch[qi]) mismatches.fetch_add(1);
          if (rec_->recommend_topk(queries[qi], 5) != serial_topk[qi]) mismatches.fetch_add(1);
        }
      });
    }
  }  // Thread joins on scope exit
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------ service, e2e

TEST_F(ServeModel, ServiceRepliesBitIdenticalToDirectBatch) {
  RecommenderService service({{1, rec_.get()}});
  service.start();
  RecommenderClient client(service.port());
  const auto queries = make_queries(16, 21);
  EXPECT_EQ(client.recommend_batch(1, queries), rec_->recommend_batch(queries));
  service.stop();
}

TEST_F(ServeModel, ServiceCoalescesConcurrentClients) {
  RecommenderService service({{1, rec_.get()}});
  service.start();
  const int port = service.port();

  constexpr int kClients = 8;
  constexpr std::size_t kRequests = 10;
  constexpr std::size_t kBatch = 4;
  std::vector<RecommenderClient> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(port);
  // The clients start once the head request is on the wire, so their
  // first requests queue behind its long pass and share the next one.
  serve::Socket head = send_head_request(port, 1);
  std::promise<void> head_sent;
  const std::shared_future<void> start = head_sent.get_future().share();
  std::atomic<int> failures{0};
  {
    std::vector<Thread> pool;
    pool.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      pool.emplace_back([&, c] {
        start.wait();
        try {
          for (std::size_t r = 0; r < kRequests; ++r) {
            const auto queries =
                make_queries(kBatch, 100 + static_cast<std::uint64_t>(c) * 1000 + r);
            if (clients[static_cast<std::size_t>(c)].recommend_batch(1, queries) !=
                rec_->recommend_batch(queries)) {
              failures.fetch_add(1);
            }
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
    head_sent.set_value();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(head_reply_matches(head));

  const auto stats = service.stats();
  service.stop();
  EXPECT_EQ(stats.requests, kClients * kRequests + 1);
  EXPECT_EQ(stats.queries, kClients * kRequests * kBatch + kHeadQueries);
  EXPECT_EQ(stats.errors, 0u);
  // Coalescing means strictly fewer forward passes than requests, and the
  // histogram must account for every pass.
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LT(stats.batches, stats.requests);
  std::uint64_t hist_total = 0;
  for (const auto b : stats.batch_size_log2_hist) hist_total += b;
  EXPECT_EQ(hist_total, stats.batches);
}

TEST_F(ServeModel, LaneSurvivesAClientThatLeavesRightAfterSending) {
  // The leaver queues right behind the head request, so its connection
  // thread is likely the one the lead passes to, with the other clients
  // queued behind it. Whoever leads, the leaver's failed send comes after
  // its pass and its hand-off: nobody is stranded.
  RecommenderService service({{1, rec_.get()}});
  service.start();
  const int port = service.port();

  constexpr int kClients = 8;
  std::vector<RecommenderClient> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(port);
  serve::Socket head = send_head_request(port, 1);
  {
    serve::Socket leaver = serve::connect_local(port);
    leaver.send_frame(encode_query(to_frame(1, make_queries(4, 71))));
  }  // closed right after sending
  std::promise<void> leaver_gone;
  const std::shared_future<void> start = leaver_gone.get_future().share();
  std::atomic<int> failures{0};
  {
    std::vector<Thread> pool;
    pool.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      pool.emplace_back([&, c] {
        start.wait();
        const auto queries = make_queries(4, 200 + static_cast<std::uint64_t>(c));
        try {
          if (clients[static_cast<std::size_t>(c)].recommend_batch(1, queries) !=
              rec_->recommend_batch(queries)) {
            failures.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
    leaver_gone.set_value();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(head_reply_matches(head));
  service.stop();
  // The leaver's request was read before its FIN, so it was answered and
  // its reply counted, whether or not the send reached anyone.
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, kClients + 2u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(ServeModel, InterleavedCasesOnTwoLanes) {
  // rec_ registered twice gives two lanes that answer identically.
  RecommenderService service({{1, rec_.get()}, {2, rec_.get()}});
  service.start();
  const int port = service.port();

  constexpr int kClients = 8;
  constexpr std::size_t kRequests = 10;
  constexpr std::size_t kBatch = 4;
  std::atomic<int> failures{0};
  {
    std::vector<Thread> pool;
    pool.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      pool.emplace_back([&, c] {
        try {
          RecommenderClient client(port);
          for (std::size_t r = 0; r < kRequests; ++r) {
            const int case_id = 1 + static_cast<int>((static_cast<std::size_t>(c) + r) % 2);
            const auto queries =
                make_queries(kBatch, 300 + static_cast<std::uint64_t>(c) * 1000 + r);
            if (client.recommend_batch(case_id, queries) != rec_->recommend_batch(queries)) {
              failures.fetch_add(1);
            }
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  service.stop();
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, kClients * kRequests);
  EXPECT_EQ(stats.queries, kClients * kRequests * kBatch);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_LE(stats.batches, stats.requests);
  std::uint64_t hist_total = 0;
  for (const auto b : stats.batch_size_log2_hist) hist_total += b;
  EXPECT_EQ(hist_total, stats.batches);
}

TEST_F(ServeModel, StopMidStreamOnTwoLanesAnswersEveryQueuedRequest) {
  RecommenderService service({{1, rec_.get()}, {2, rec_.get()}});
  service.start();
  const int port = service.port();

  constexpr int kClients = 8;
  constexpr std::size_t kBatch = 4;
  std::vector<RecommenderClient> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(port);
  std::atomic<std::uint64_t> received{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> streaming{kClients};
  {
    std::vector<Thread> pool;
    pool.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      pool.emplace_back([&, c] {
        // Closed loop until stop() shuts the connection down.
        for (std::uint64_t r = 0;; ++r) {
          const int case_id = 1 + static_cast<int>((static_cast<std::uint64_t>(c) + r) % 2);
          const auto queries = make_queries(kBatch, 400 + static_cast<std::uint64_t>(c) * 1000 + r);
          std::vector<std::int32_t> labels;
          try {
            labels = clients[static_cast<std::size_t>(c)].recommend_batch(case_id, queries);
          } catch (const std::exception&) {
            streaming.fetch_sub(1);
            return;
          }
          if (labels != rec_->recommend_batch(queries)) mismatches.fetch_add(1);
          received.fetch_add(1);
        }
      });
    }
    while (received.load() < std::uint64_t{4} * kClients && streaming.load() == kClients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(streaming.load(), kClients) << "a client failed before stop()";
    service.stop();  // must return with clients mid-stream on both lanes
  }
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = service.stats();
  EXPECT_EQ(stats.errors, 0u);
  // Every request a pass answered got its reply sent (and counted): at
  // most the one request in flight per client when stop() cut in was
  // answered without its reply arriving.
  EXPECT_EQ(stats.queries, stats.requests * kBatch);
  EXPECT_GE(stats.requests, received.load());
  EXPECT_LE(stats.requests, received.load() + kClients);
}

TEST_F(ServeModel, ServiceAnswersUnknownCaseWithErrorAndSurvives) {
  RecommenderService service({{1, rec_.get()}});
  service.start();
  RecommenderClient client(service.port());
  const auto queries = make_queries(2, 31);
  EXPECT_THROW(client.recommend_batch(3, queries), std::runtime_error);
  // The error frame costs the sender one reply, not the connection.
  EXPECT_EQ(client.recommend_batch(1, queries), rec_->recommend_batch(queries));
  const auto stats = service.stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.requests, 1u);
  service.stop();
}

TEST_F(ServeModel, StatsCountEachFrameBeforeTheClientSeesIt) {
  // Counters are taken before the frame they count is sent, so a client
  // that reads stats() right after a reply or an error frame must find it
  // counted — exactly, on every one of many back-to-back round trips.
  RecommenderService service({{1, rec_.get()}});
  service.start();
  RecommenderClient client(service.port());
  const auto queries = make_queries(2, 51);
  const auto expected = rec_->recommend_batch(queries);
  constexpr std::uint64_t kRounds = 1000;
  for (std::uint64_t r = 1; r <= kRounds; ++r) {
    ASSERT_EQ(client.recommend_batch(1, queries), expected);
    auto stats = service.stats();
    ASSERT_EQ(stats.requests, r) << "reply " << r << " not counted when received";
    ASSERT_EQ(stats.errors, r - 1);
    ASSERT_THROW(client.recommend_batch(3, queries), std::runtime_error);
    stats = service.stats();
    ASSERT_EQ(stats.errors, r) << "error frame " << r << " not counted when received";
    ASSERT_EQ(stats.requests, r);
  }
  service.stop();
}

TEST_F(ServeModel, ServiceRejectsArityMismatchBeforeBatching) {
  RecommenderService service({{1, rec_.get()}});
  service.start();
  RecommenderClient client(service.port());
  const std::vector<std::vector<std::int64_t>> wrong = {{8, 512, 128}};  // 3 != 4
  try {
    client.recommend_batch(1, wrong);
    FAIL() << "arity mismatch was answered with a reply";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("arity"), std::string::npos) << e.what();
  }
  const auto queries = make_queries(2, 33);
  EXPECT_EQ(client.recommend_batch(1, queries), rec_->recommend_batch(queries));
  service.stop();
}

TEST_F(ServeModel, ServiceSurvivesMalformedFrame) {
  RecommenderService service({{1, rec_.get()}});
  service.start();
  serve::Socket sock = serve::connect_local(service.port());

  QueryFrame q;
  q.case_id = 1;
  q.num_features = 4;
  q.features = {8, 512, 128, 256};
  auto body = encode_query(q);
  body[body.size() / 2] ^= 0xFF;  // corrupt mid-payload; digest must catch it
  sock.send_frame(body);
  auto reply = sock.recv_frame(serve::kMaxFrameBytes);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decode_frame(reply->data(), reply->size()).type, FrameType::kError);

  // Same connection, clean frame: the length prefix kept the stream in sync.
  sock.send_frame(encode_query(q));
  reply = sock.recv_frame(serve::kMaxFrameBytes);
  ASSERT_TRUE(reply.has_value());
  const Frame f = decode_frame(reply->data(), reply->size());
  ASSERT_EQ(f.type, FrameType::kReply);
  EXPECT_EQ(f.labels, rec_->recommend_batch({q.features}));
  service.stop();
}

TEST_F(ServeModel, ServiceEnforcesConnectionCap) {
  ServeOptions opts;
  opts.max_connections = 1;
  RecommenderService service({{1, rec_.get()}}, opts);
  service.start();
  RecommenderClient first(service.port());
  const auto queries = make_queries(2, 41);
  // The first request proves `first` holds the single slot...
  EXPECT_EQ(first.recommend_batch(1, queries), rec_->recommend_batch(queries));
  // ...so the second connection is answered with an error frame and closed.
  RecommenderClient second(service.port());
  EXPECT_THROW(second.recommend_batch(1, queries), std::runtime_error);
  // The occupant is unaffected.
  EXPECT_EQ(first.recommend_batch(1, queries), rec_->recommend_batch(queries));
  service.stop();
}

/// Lowers the soft RLIMIT_NOFILE to a few fds above the lowest free one
/// and fills every free fd below it but one, so the next fd the process
/// creates takes the last slot and the one after fails with EMFILE. The
/// destructor closes the fillers and restores the limit.
class FdExhaustion {
 public:
  FdExhaustion() {
    EXPECT_EQ(getrlimit(RLIMIT_NOFILE, &saved_), 0);
    anchor_ = open("/dev/null", O_RDONLY);
    EXPECT_GE(anchor_, 0);
    rlimit low = saved_;
    low.rlim_cur = static_cast<rlim_t>(anchor_) + 8;
    EXPECT_EQ(setrlimit(RLIMIT_NOFILE, &low), 0);
    for (int fd = dup(anchor_); fd >= 0; fd = dup(anchor_)) fillers_.push_back(fd);
    EXPECT_EQ(errno, EMFILE);
    EXPECT_FALSE(fillers_.empty());
    if (!fillers_.empty()) {
      close(fillers_.back());  // the one free slot
      fillers_.pop_back();
    }
  }
  ~FdExhaustion() {
    for (const int fd : fillers_) close(fd);
    close(anchor_);
    setrlimit(RLIMIT_NOFILE, &saved_);
  }
  FdExhaustion(const FdExhaustion&) = delete;
  FdExhaustion& operator=(const FdExhaustion&) = delete;

 private:
  rlimit saved_{};
  int anchor_ = -1;
  std::vector<int> fillers_;
};

TEST_F(ServeModel, ServiceKeepsAcceptingAfterAFailedAccept) {
  ServeOptions opts;
  opts.accept_poll_ms = 5;
  RecommenderService service({{1, rec_.get()}}, opts);
  service.start();
  const auto queries = make_queries(2, 61);
  const auto frame = encode_query(to_frame(1, queries));

  std::optional<serve::Socket> client;
  {
    const FdExhaustion no_fds;
    client.emplace(serve::connect_local(service.port()));  // takes the last fd
    client->send_frame(frame);
    // Every accept() of this connection fails with EMFILE meanwhile.
    std::this_thread::sleep_for(std::chrono::milliseconds(20 * opts.accept_poll_ms));
  }
  // The fds are back: the waiting client must get its reply. A deaf
  // service fails the test after a timeout instead of hanging it.
  std::promise<std::optional<std::vector<unsigned char>>> reply;
  auto got = reply.get_future();
  Thread reader([&] {
    try {
      reply.set_value(client->recv_frame(serve::kMaxFrameBytes));
    } catch (...) {
      reply.set_exception(std::current_exception());
    }
  });
  const bool answered = got.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!answered) client->shutdown_both();  // unblocks the reader
  reader.join();
  ASSERT_TRUE(answered) << "no reply after the fds were freed: the service stopped accepting";
  const auto body = got.get();
  ASSERT_TRUE(body.has_value());
  const Frame f = decode_frame(body->data(), body->size());
  ASSERT_EQ(f.type, FrameType::kReply);
  EXPECT_EQ(f.labels, rec_->recommend_batch(queries));
  service.stop();
}

TEST_F(ServeModel, StopIsIdempotentAndDestructorSafe) {
  auto service = std::make_unique<RecommenderService>(
      std::vector<serve::ServedModel>{{1, rec_.get()}});
  service->start();
  {
    RecommenderClient client(service->port());
    const auto queries = make_queries(2, 47);
    EXPECT_EQ(client.recommend_batch(1, queries), rec_->recommend_batch(queries));
  }
  service->stop();
  service->stop();    // idempotent
  service.reset();    // destructor after stop() is a no-op
}

TEST_F(ServeModel, ConstructorValidatesModelTable) {
  EXPECT_THROW(RecommenderService({}), ContractViolation);
  EXPECT_THROW(RecommenderService({{1, nullptr}}), ContractViolation);
  EXPECT_THROW(RecommenderService({{0, rec_.get()}}), ContractViolation);
  EXPECT_THROW(RecommenderService({{4, rec_.get()}}), ContractViolation);
  EXPECT_THROW(RecommenderService({{1, rec_.get()}, {1, rec_.get()}}), ContractViolation);
  ServeOptions bad;
  bad.accept_poll_ms = 0;
  EXPECT_THROW(RecommenderService({{1, rec_.get()}}, bad), ContractViolation);
}

TEST_F(ServeModel, PortBeforeStartThrows) {
  RecommenderService service({{1, rec_.get()}});
  EXPECT_THROW(service.port(), ContractViolation);
  service.start();
  EXPECT_THROW(service.start(), ContractViolation);  // double start
  EXPECT_GT(service.port(), 0);
  service.stop();
}

}  // namespace
}  // namespace airch
