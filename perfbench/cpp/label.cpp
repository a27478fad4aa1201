// label: the calls `generate_dataset --snapshot --format binary` makes, for
// all three case studies. Each job runs
//
//   cold pass  fresh studies: generate_range over the seeded point stream,
//              write_binary_dataset, save_cache_snapshot
//   warm pass  fresh studies: load_cache_snapshot, relabel the same points
//              (every probe a hit), read_binary_dataset
//
// Files (--files): three dataset files, then three snapshot files.
// Checks: the warm labels and the read-back file equal the cold pass; every
// later job's cold labels equal the first job's; the warm pass misses
// nothing; and a seeded sample of points relabelled by the naive searches of
// search/exhaustive.hpp matches.

#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "dataset/binary_io.hpp"
#include "dataset/generator.hpp"
#include "search/exhaustive.hpp"

namespace perfbench {
namespace {

using airch::CaseStudy;
using airch::Dataset;

/// Points per case, sized so each case takes a similar share of the cold pass.
constexpr std::array<std::size_t, kCases> kPoints = {200000, 50000, 20000};
/// Points per case relabelled by the naive searches after the timed jobs.
constexpr std::size_t kExhaustiveSample = 2000;

bool same_points(const Dataset& a, const Dataset& b) {
  if (a.size() != b.size() || a.num_classes() != b.num_classes() ||
      a.feature_names() != b.feature_names()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].features != b[i].features) return false;
  }
  return true;
}

/// The label the conventional simulate-and-search optimizer picks for `p`.
int exhaustive_label(const CaseStudy& study, const airch::DataPoint& p) {
  if (const auto* s1 = dynamic_cast<const airch::ArrayDataflowStudy*>(&study)) {
    const airch::Case1Features f = airch::decode_case1(p.features);
    return airch::ArrayDataflowSearch(s1->space(), s1->simulator())
        .best(f.workload, f.budget_exp)
        .label;
  }
  if (const auto* s2 = dynamic_cast<const airch::BufferSizingStudy*>(&study)) {
    const airch::Case2Features f = airch::decode_case2(p.features);
    return airch::BufferSearch(s2->space(), s2->simulator())
        .best(f.workload, f.array, f.bandwidth, f.limit_kb)
        .label;
  }
  const auto& s3 = dynamic_cast<const airch::SchedulingStudy&>(study);
  return s3.search().best(airch::decode_case3(p.features)).label;
}

}  // namespace

int run_label(const Options& opt, Tracer& tracer, Report& report) {
  if (opt.files.size() != 2 * kCases) throw std::invalid_argument("label needs 6 files");
  const auto data_file = [&](int c) { return opt.files[static_cast<std::size_t>(c)]; };
  const auto snap_file = [&](int c) { return opt.files[static_cast<std::size_t>(kCases + c)]; };

  std::array<Dataset, kCases> first;  // the first job's cold labels
  double items = 0;
  const Clock::time_point start = Clock::now();
  for (std::int64_t job = 0; job == 0 || seconds_since(start) < opt.seconds; ++job) {
    std::array<std::unique_ptr<CaseStudy>, kCases> cold, warm;
    {
      auto s = tracer.e2e("setup", 0, job);
      cold = make_studies();
    }
    {
      auto s = tracer.e2e("setup", 0, job);
      warm = make_studies();
    }
    std::array<Dataset, kCases> cold_ds, warm_ds, read_ds;
    {
      auto j = tracer.e2e("job", 0, job);
      for (int c = 0; c < kCases; ++c) {
        const auto n = kPoints[static_cast<std::size_t>(c)];
        auto& ds = cold_ds[static_cast<std::size_t>(c)];
        {
          auto s = tracer.layer("dataset.generate_cold", c + 1, job);
          ds = cold[static_cast<std::size_t>(c)]->generate_range(0, n, opt.seed);
        }
        {
          auto s = tracer.layer("dataset.write", c + 1, job);
          airch::write_binary_dataset(ds, data_file(c));
        }
        {
          auto s = tracer.layer("search.snapshot_save", c + 1, job);
          (void)cold[static_cast<std::size_t>(c)]->save_cache_snapshot(snap_file(c));
        }
      }
      for (int c = 0; c < kCases; ++c) {
        const auto n = kPoints[static_cast<std::size_t>(c)];
        const auto& study = *warm[static_cast<std::size_t>(c)];
        {
          auto s = tracer.layer("search.snapshot_load", c + 1, job);
          (void)study.load_cache_snapshot(snap_file(c));
        }
        {
          auto s = tracer.layer("dataset.generate_warm", c + 1, job);
          warm_ds[static_cast<std::size_t>(c)] = study.generate_range(0, n, opt.seed);
        }
        {
          auto s = tracer.layer("dataset.read", c + 1, job);
          read_ds[static_cast<std::size_t>(c)] = airch::read_binary_dataset(data_file(c));
        }
      }
    }

    for (int c = 0; c < kCases; ++c) {
      const auto i = static_cast<std::size_t>(c);
      const std::string tag = " (case " + std::to_string(c + 1) + ", job " +
                              std::to_string(job) + ")";
      const airch::CacheStats cs = cold[i]->cache_stats();
      const airch::CacheStats ws = warm[i]->cache_stats();
      const double probes = static_cast<double>(ws.hits + ws.misses);
      const std::string k = ".case" + std::to_string(c + 1);
      report.counters["search.cold_misses" + k] = static_cast<double>(cs.misses);
      report.counters["search.warm_hit_ratio" + k] =
          probes > 0 ? static_cast<double>(ws.hits) / probes : 0.0;
      report.counters["search.snapshot_mb" + k] = file_mb(snap_file(c));
      report.check(same_points(warm_ds[i], cold_ds[i]), "warm labels differ from cold" + tag);
      report.check(same_points(read_ds[i], cold_ds[i]), "read-back dataset differs" + tag);
      report.check(ws.misses == 0, "warm pass missed the restored cache" + tag);
      if (job == 0) {
        first[i] = std::move(cold_ds[i]);
      } else {
        report.check(same_points(cold_ds[i], first[i]), "cold labels changed between jobs" + tag);
      }
      items += 2.0 * static_cast<double>(kPoints[i]);
    }
  }
  report.counters["items"] = items;
  report.counters["peak_rss_mb"] = peak_rss_mb();  // before the checks below

  // Relabel a seeded sample with the naive searches (bound by the simulator).
  const auto studies = make_studies();
  airch::Rng rng(opt.seed ^ 0x5EED5A3B1EULL);
  for (int c = 0; c < kCases; ++c) {
    const auto& ds = first[static_cast<std::size_t>(c)];
    for (std::size_t k = 0; k < kExhaustiveSample; ++k) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ds.size()) - 1));
      int label = -1;
      {
        auto s = tracer.layer("search.exhaustive", c + 1, static_cast<std::int64_t>(idx));
        label = exhaustive_label(*studies[static_cast<std::size_t>(c)], ds[idx]);
      }
      report.check(label == ds[idx].label,
                   "exhaustive search disagrees (case " + std::to_string(c + 1) + ", point " +
                       std::to_string(idx) + ")");
    }
  }
  return 0;
}

}  // namespace perfbench
