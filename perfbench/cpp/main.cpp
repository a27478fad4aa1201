// perfbench: the C++ half of the repository benchmark. run.py builds this,
// gives it memory-backed files, and turns its output into metrics:
//
//   perfbench <label|train|serve_prep|serve_small|serve_bulk>
//             --seed N --seconds S --trace 0|1 --files a,b,...
//
// It prints one JSON object on stdout: the spans it recorded, its counters,
// and the attempted/failed tally of its output checks. Exit code 0 means the
// run completed (check failures are reported, not fatal); anything else is
// a crash.

#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "dataset/generator.hpp"
#include "workload/sampler.hpp"

namespace perfbench {

std::size_t Tracer::open(const char* name, int case_id, std::int64_t request) {
  Span s;
  s.name = name;
  s.case_id = case_id;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.request = request;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  // Read the clock last, so the bookkeeping above is outside the interval.
  spans_.back().start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  open_.pop_back();
}

void Tracer::absorb(const Tracer& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  spans_.reserve(spans_.size() + other.spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

std::array<std::unique_ptr<airch::CaseStudy>, kCases> make_studies() {
  return {airch::make_case_study(airch::CaseId::kArrayDataflow),
          airch::make_case_study(airch::CaseId::kBufferSizing),
          airch::make_case_study(airch::CaseId::kScheduling)};
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t request_seed(std::uint64_t seed, int client, std::uint64_t index) {
  return airch::point_stream_seed(seed, (static_cast<std::uint64_t>(client) << 40) | index);
}

std::vector<std::vector<std::int64_t>> make_queries(int case_id, std::size_t count,
                                                    std::uint64_t seed) {
  airch::Rng rng(seed);
  const airch::LogUniformGemmSampler sampler;
  const airch::Case1Config c1;
  const airch::Case2Config c2;
  std::vector<std::vector<std::int64_t>> out(count);
  for (auto& q : out) {
    if (case_id == 1) {
      const airch::GemmWorkload w = sampler.sample(rng);
      q = {rng.uniform_int(c1.budget_min_exp, c1.budget_max_exp), w.m, w.n, w.k};
    } else if (case_id == 2) {
      const airch::GemmWorkload w = sampler.sample(rng);
      const std::int64_t side = std::int64_t{1} << rng.uniform_int(2, c2.array_macs_max_exp / 2);
      q = {rng.uniform_int(c2.limit_min_kb, c2.limit_max_kb),
           w.m,
           w.n,
           w.k,
           side,
           side,
           rng.uniform_int(0, 2),
           rng.uniform_int(c2.bw_min, c2.bw_max)};
    } else {
      for (int a = 0; a < 4; ++a) {
        const airch::GemmWorkload w = sampler.sample(rng);
        q.insert(q.end(), {w.m, w.n, w.k});
      }
    }
  }
  return out;
}

std::uint64_t label_digest(const std::vector<std::int32_t>& labels) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  for (const std::int32_t l : labels) fold(static_cast<std::uint32_t>(l));
  fold(labels.size());
  return h;
}

double file_mb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_json(const Tracer& tracer, const Report& report, std::ostream& os) {
  // Span rows: [name, case, start_ns, end_ns, parent, request].
  os << "{\"spans\":[";
  bool first = true;
  for (const Span& s : tracer.spans()) {
    os << (first ? "" : ",") << '[' << json_string(s.name) << ',' << s.case_id << ','
       << s.start_ns << ',' << s.end_ns << ',' << s.parent << ',' << s.request << ']';
    first = false;
  }
  os << "],\"counters\":{";
  first = true;
  os.precision(17);
  for (const auto& [name, value] : report.counters) {
    os << (first ? "" : ",") << json_string(name) << ':' << value;
    first = false;
  }
  os << "},\"attempted\":" << report.attempted << ",\"failed\":" << report.failed
     << ",\"errors\":[";
  first = true;
  for (const auto& e : report.errors) {
    os << (first ? "" : ",") << json_string(e);
    first = false;
  }
  os << "]}\n";
}

Options parse(int argc, char** argv) {
  if (argc < 2 || (argc - 2) % 2 != 0) {
    throw std::invalid_argument("usage: perfbench <workload> [--flag value]...");
  }
  Options opt;
  opt.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--files") {
      std::istringstream is(value);
      for (std::string f; std::getline(is, f, ',');) opt.files.push_back(f);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options opt = parse(argc, argv);
    Tracer tracer(opt.trace, Clock::now());
    Report report;
    int rc = 0;
    if (opt.workload == "label") {
      rc = run_label(opt, tracer, report);
    } else if (opt.workload == "train") {
      rc = run_train(opt, tracer, report);
    } else if (opt.workload == "serve_prep") {
      rc = run_serve_prep(opt, report);
    } else if (opt.workload == "serve_small" || opt.workload == "serve_bulk") {
      rc = run_serve(opt, tracer, report);
    } else {
      throw std::invalid_argument("unknown workload " + opt.workload);
    }
    write_json(tracer, report, std::cout);
    std::cout.flush();
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
