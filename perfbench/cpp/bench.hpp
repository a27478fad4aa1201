#pragma once
// Shared plumbing of the perfbench executable: options, the span tracer, the
// run report, and the seeded query generator of the serve workloads. Every
// span is opened in the benchmark, around a call into a library layer;
// nothing inside src/ is instrumented.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/case_study.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Files the workload reads and writes, in the order the workload
  /// documents; run.py passes memory-backed files so no run touches disk.
  std::vector<std::string> files;
};

/// One timed interval. Spans of one request share `request`; `parent` is the
/// index of the enclosing span in the same tracer (-1 for a root).
struct Span {
  const char* name = "";
  int case_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

/// Records spans in memory; they are written once, at exit. End-to-end
/// spans (set-up, job, request) are what the end-to-end metrics are computed
/// from and are recorded in every run; layer spans wrap single library calls
/// and are recorded only in the traced run. Not thread-safe: each thread
/// owns a tracer, and the owner merges them with absorb() after joining.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  Tracer(bool layers, Clock::time_point epoch) : layers_(layers), epoch_(epoch) {}

  bool layers() const { return layers_; }

  /// An empty tracer on the same clock, for another thread to fill.
  Tracer fork() const { return Tracer(layers_, epoch_); }

  [[nodiscard]] Scope e2e(const char* name, int case_id = 0, std::int64_t request = -1) {
    return Scope(this, open(name, case_id, request));
  }
  [[nodiscard]] Scope layer(const char* name, int case_id = 0, std::int64_t request = -1) {
    if (!layers_) return Scope(nullptr, 0);
    return Scope(this, open(name, case_id, request));
  }

  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Appends another (closed) tracer's spans, re-basing their parents.
  void absorb(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::size_t open(const char* name, int case_id, std::int64_t request);
  void close(std::size_t index);

  bool layers_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Everything a run hands back to run.py: spans, named counters, and the
/// tally of checked operations.
struct Report {
  std::map<std::string, double> counters;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Counts one checked operation; a failure keeps its message (the first
  /// few only, so a systematic fault cannot flood the output).
  void check(bool ok, const std::string& what);
};

inline constexpr int kCases = 3;

/// Fresh case studies 1..3 with the paper's parameters (cold caches).
std::array<std::unique_ptr<airch::CaseStudy>, kCases> make_studies();

/// Seconds since `start`.
double seconds_since(Clock::time_point start);

/// Seed of request `index` of client `client` in a run keyed by `seed`.
std::uint64_t request_seed(std::uint64_t seed, int client, std::uint64_t index);

/// `count` design queries for `case_id` drawn from the same distributions
/// the dataset generators sample (feature layouts of dataset/generator.hpp).
std::vector<std::vector<std::int64_t>> make_queries(int case_id, std::size_t count,
                                                    std::uint64_t seed);

/// 64-bit FNV-1a digest of a label vector (count folded in).
std::uint64_t label_digest(const std::vector<std::int32_t>& labels);

/// Size of a file in MiB.
double file_mb(const std::string& path);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

int run_label(const Options& opt, Tracer& tracer, Report& report);
int run_train(const Options& opt, Tracer& tracer, Report& report);
int run_serve_prep(const Options& opt, Report& report);
int run_serve(const Options& opt, Tracer& tracer, Report& report);

}  // namespace perfbench
