// serve_small / serve_bulk: closed-loop clients against a RecommenderService
// holding the three case-study models.
//
//   serve_small  one client, 4-query requests, cases cycling 1 -> 2 -> 3
//   serve_bulk   two clients, 64-query requests (= batch_max, so every
//                request dispatches at once, without the admission wait),
//                each request's case drawn from the seed: two clients
//                cycling in step would lock into a phase that differs from
//                run to run

//
// The models are trained beforehand by `perfbench serve_prep` in its own
// process, so neither set-up time nor peak RSS of the serving process
// includes training. Set-up is Recommender::load of the three model files
// plus RecommenderService::start, repeated before the timed window and again
// after it, so set-up time is sampled at both ends of the run. Each client
// regenerates its queries from the seed, keeps only a digest of each reply,
// and after the timed window every reply is compared with an in-process
// recommend_batch on the same model.
//
// Files (--files): three model files.
//
// The traced run also times, per request, the codec chain the request goes
// through and a loopback echo of frames of the same sizes, so the
// per-request latency splits into model, codec, socket and the rest.

#include <algorithm>
#include <array>
#include <cstddef>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/recommender.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

namespace perfbench {
namespace {

/// Points, epochs and seed of the served models. The seed is fixed, not
/// taken from --seed: the matmul kernel skips zero activations, so serving
/// cost depends on the weights, and every run serves the same deployment;
/// --seed varies the traffic.
constexpr std::array<std::size_t, kCases> kServePoints = {4000, 2000, 1000};
constexpr int kServeEpochs = 2;
constexpr std::uint64_t kModelSeed = 42;
/// Set-up repetitions on each side of the timed window; set-up time is the
/// median of all of them.
constexpr int kSetups = 6;
/// Requests whose frame sizes the traced run echoes over a loopback socket.
constexpr std::size_t kEchoRequests = 1000;
/// Per-client request rate the client-side buffers are reserved for (about
/// ten times the fastest rate measured).
constexpr double kMaxRequestsPerSecond = 20000;

struct Shape {
  int clients = 1;
  std::size_t batch = 4;
  bool cycle = true;  ///< cases in turn, or drawn per request
};

int case_of(const Shape& shape, std::uint64_t seed, int client, std::uint64_t index) {
  if (shape.cycle) return 1 + static_cast<int>(index % kCases);
  return 1 + static_cast<int>(request_seed(seed, client, index) % kCases);
}

std::int64_t request_id(int client, std::uint64_t index) {
  return static_cast<std::int64_t>((static_cast<std::uint64_t>(client) << 40) | index);
}

struct Reply {
  std::uint64_t digest = 0;
  bool ok = false;
};

struct ClientLog {
  std::vector<Reply> replies;
  double queries = 0;
  std::string error;
};

/// One closed-loop client: the next request goes out when the previous reply
/// has been received and decoded. Stops at `deadline` or at the first error.
void client_loop(airch::serve::RecommenderClient& client, int id, const Shape& shape,
                 std::uint64_t seed, Clock::time_point deadline, Tracer& tracer,
                 ClientLog& log) {
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    const int case_id = case_of(shape, seed, id, i);
    const auto queries = make_queries(case_id, shape.batch, request_seed(seed, id, i));
    std::vector<std::int32_t> labels;
    try {
      auto s = tracer.e2e("serve.request", case_id, request_id(id, i));
      labels = client.recommend_batch(case_id, queries);
    } catch (const std::exception& e) {
      log.replies.push_back({});
      log.error = e.what();
      return;
    }
    log.replies.push_back({label_digest(labels), true});
    log.queries += static_cast<double>(labels.size());
  }
}

airch::serve::QueryFrame to_frame(int case_id,
                                  const std::vector<std::vector<std::int64_t>>& queries) {
  airch::serve::QueryFrame q;
  q.case_id = case_id;
  q.num_features = queries.front().size();
  for (const auto& row : queries) q.features.insert(q.features.end(), row.begin(), row.end());
  return q;
}

struct EchoFrames {
  std::vector<unsigned char> query;
  std::vector<unsigned char> reply;
  int case_id = 0;
  std::int64_t request = 0;
};

/// Round trips of query-sized frames out and reply-sized frames back over a
/// loopback socket pair with a trivial echo peer: the transport floor.
void time_socket_rtt(const std::vector<EchoFrames>& frames, Tracer& tracer) {
  if (frames.empty()) return;
  airch::serve::Listener listener;
  std::string echo_error;
  std::thread echo([&] {
    try {
      auto peer = listener.accept_one(5000);
      if (!peer) throw std::runtime_error("echo peer: no connection");
      for (const auto& f : frames) {
        if (!peer->recv_frame(airch::serve::kMaxFrameBytes)) break;
        peer->send_frame(f.reply);
      }
    } catch (const std::exception& e) {
      echo_error = e.what();
    }
  });
  try {
    airch::serve::Socket sock = airch::serve::connect_local(listener.port());
    for (const auto& f : frames) {
      auto s = tracer.layer("serve.socket_rtt", f.case_id, f.request);
      sock.send_frame(f.query);
      if (!sock.recv_frame(airch::serve::kMaxFrameBytes)) break;
    }
  } catch (...) {
    echo.join();
    throw;
  }
  echo.join();
  if (!echo_error.empty()) throw std::runtime_error(echo_error);
}

}  // namespace

int run_serve_prep(const Options& opt, Report& report) {
  if (opt.files.size() != kCases) throw std::invalid_argument("serve_prep needs 3 files");
  const auto studies = make_studies();
  for (int c = 0; c < kCases; ++c) {
    const auto i = static_cast<std::size_t>(c);
    airch::Recommender::TrainOptions o;
    o.dataset_size = kServePoints[i];
    o.epochs = kServeEpochs;
    o.seed = kModelSeed;
    airch::Recommender::train(*studies[i], o).save(opt.files[i]);
  }
  report.counters["items"] = kCases;
  return 0;
}

int run_serve(const Options& opt, Tracer& tracer, Report& report) {
  if (opt.files.size() != kCases) throw std::invalid_argument("serve needs 3 files");
  const Shape shape = opt.workload == "serve_bulk" ? Shape{2, 64, false} : Shape{1, 4, true};

  // The studies only validate the model files (id and class count).
  const auto studies = make_studies();
  std::array<std::optional<airch::Recommender>, kCases> recs;
  std::unique_ptr<airch::serve::RecommenderService> service;
  const auto set_up = [&](int first) {
    for (int r = first; r < first + kSetups; ++r) {
      if (service) service->stop();
      service.reset();
      for (auto& rec : recs) rec.reset();

      auto s = tracer.e2e("setup", 0, r);
      std::vector<airch::serve::ServedModel> models;
      for (int c = 0; c < kCases; ++c) {
        const auto i = static_cast<std::size_t>(c);
        {
          auto l = tracer.layer("core.load", c + 1, r);
          recs[i].emplace(airch::Recommender::load(opt.files[i], *studies[i]));
        }
        models.push_back({c + 1, &*recs[i]});
      }
      service = std::make_unique<airch::serve::RecommenderService>(std::move(models));
      auto l = tracer.layer("serve.start", 0, r);
      service->start();
    }
  };
  set_up(0);

  std::vector<airch::serve::RecommenderClient> clients;
  for (int k = 0; k < shape.clients; ++k) clients.emplace_back(service->port());
  // Reserved up front (virtual memory, touched only as requests complete),
  // so the load generator's share of peak RSS grows smoothly with the
  // request count instead of in reallocation steps.
  const auto max_requests = static_cast<std::size_t>(opt.seconds * kMaxRequestsPerSecond) + 1;
  std::vector<ClientLog> logs(static_cast<std::size_t>(shape.clients));
  std::vector<Tracer> client_tracers(static_cast<std::size_t>(shape.clients), tracer.fork());
  for (int k = 0; k < shape.clients; ++k) {
    logs[static_cast<std::size_t>(k)].replies.reserve(max_requests);
    client_tracers[static_cast<std::size_t>(k)].reserve(max_requests);
  }

  const airch::serve::ServeStats before = service->stats();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  {
    std::vector<std::thread> threads;
    for (int k = 0; k < shape.clients; ++k) {
      const auto i = static_cast<std::size_t>(k);
      threads.emplace_back([&, k, i] {
        client_loop(clients[i], k, shape, opt.seed, deadline, client_tracers[i], logs[i]);
      });
    }
    for (auto& t : threads) t.join();
  }
  const airch::serve::ServeStats after = service->stats();
  report.counters["peak_rss_mb"] = peak_rss_mb();  // before the checks below
  service->stop();
  clients.clear();
  set_up(kSetups);  // reloads the same files, so the checks below are unaffected
  service->stop();
  for (const auto& t : client_tracers) tracer.absorb(t);

  const double batches = static_cast<double>(after.batches - before.batches);
  const double served = static_cast<double>(after.queries - before.queries);
  report.counters["serve.batches"] = batches;
  report.counters["serve.mean_batch_queries"] = batches > 0 ? served / batches : 0.0;
  report.counters["serve.errors"] = static_cast<double>(after.errors - before.errors);
  report.counters["serve.batch_queries"] = static_cast<double>(shape.batch);
  double items = 0;
  for (const auto& log : logs) items += log.queries;
  report.counters["items"] = items;

  // Every reply against an in-process recommend_batch on the same model. An
  // untraced run checks on two threads; the traced run checks on one, since
  // it times each call, and also times the codec chain of each request.
  std::vector<std::pair<int, std::uint64_t>> requests;  // (client, index)
  for (int k = 0; k < shape.clients; ++k) {
    const auto& log = logs[static_cast<std::size_t>(k)];
    if (!log.error.empty()) report.errors.push_back("client " + std::to_string(k) + ": " + log.error);
    for (std::uint64_t i = 0; i < log.replies.size(); ++i) requests.emplace_back(k, i);
  }
  std::vector<char> matches(requests.size(), 0);
  std::vector<EchoFrames> echo;
  const auto verify = [&](std::size_t first, std::size_t stride, Tracer& t) {
    for (std::size_t r = first; r < requests.size(); r += stride) {
      const auto [k, i] = requests[r];
      const int case_id = case_of(shape, opt.seed, k, i);
      const std::int64_t rid = request_id(k, i);
      const auto queries = make_queries(case_id, shape.batch, request_seed(opt.seed, k, i));
      const auto& rec = *recs[static_cast<std::size_t>(case_id - 1)];
      std::vector<std::int32_t> expect;
      {
        auto s = t.layer("core.recommend_batch", case_id, rid);
        expect = rec.recommend_batch(queries);
      }
      const Reply& got = logs[static_cast<std::size_t>(k)].replies[i];
      matches[r] = got.ok && got.digest == label_digest(expect);
      if (!t.layers()) continue;
      const airch::serve::QueryFrame frame = to_frame(case_id, queries);
      EchoFrames f;
      {
        auto s = t.layer("serve.codec", case_id, rid);
        f.query = airch::serve::encode_query(frame);
        const auto q = airch::serve::decode_frame(f.query.data(), f.query.size());
        f.reply = airch::serve::encode_reply(expect);
        const auto a = airch::serve::decode_frame(f.reply.data(), f.reply.size());
        if (q.query.num_queries() != a.labels.size()) throw std::logic_error("codec mismatch");
      }
      if (echo.size() < kEchoRequests) {
        f.case_id = case_id;
        f.request = rid;
        echo.push_back(std::move(f));
      }
    }
  };
  if (tracer.layers()) {
    verify(0, 1, tracer);
  } else {
    Tracer quiet = tracer.fork();
    std::exception_ptr failure;
    std::thread other([&] {
      try {
        verify(1, 2, quiet);
      } catch (...) {
        failure = std::current_exception();
      }
    });
    try {
      verify(0, 2, tracer);
    } catch (...) {
      other.join();
      throw;
    }
    other.join();
    if (failure) std::rethrow_exception(failure);
  }
  for (std::size_t r = 0; r < requests.size(); ++r) {
    report.check(matches[r] != 0, "reply differs from in-process recommend_batch (client " +
                                      std::to_string(requests[r].first) + ", request " +
                                      std::to_string(requests[r].second) + ")");
  }
  if (tracer.layers()) time_socket_rtt(echo, tracer);
  return 0;
}

}  // namespace perfbench
