// The paper's motivating claim (Fig. 1): a trained recommender answers a
// design query in constant time, versus the conventional flow's
// simulate-and-search pass over the whole output space. This
// google-benchmark binary measures both paths:
//
//   BM_SearchCase1  — exhaustive search over 459 array/dataflow configs
//   BM_SearchCase2  — exhaustive search over 1000 buffer configs
//   BM_SearchCase3  — exhaustive search over 1944 schedules
//   BM_InferCase1/3 — one AIrchitect inference (constant, workload-independent)
//
// Expected shape: inference latency is flat across workloads and output
// spaces; search latency scales with the space size.

#include <benchmark/benchmark.h>

#include <iostream>

#include "core/recommender.hpp"
#include "search/exhaustive.hpp"
#include "workload/sampler.hpp"

using namespace airch;

namespace {

GemmWorkload workload_for(std::int64_t i) {
  Rng rng(static_cast<std::uint64_t>(i) + 1);
  return LogUniformGemmSampler{}.sample(rng);
}

void BM_SearchCase1(benchmark::State& state) {
  const ArrayDataflowSpace space(18);
  const Simulator sim;
  const ArrayDataflowSearch search(space, sim);
  const GemmWorkload w = workload_for(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.best(w, 18).label);
  }
}
BENCHMARK(BM_SearchCase1)->Arg(1)->Arg(2)->Arg(3);

void BM_SearchCase2(benchmark::State& state) {
  const BufferSizeSpace space;
  const Simulator sim;
  const BufferSearch search(space, sim);
  const GemmWorkload w = workload_for(state.range(0));
  const ArrayConfig a{32, 32, Dataflow::kWeightStationary};
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.best(w, a, 10, 1000).label);
  }
}
BENCHMARK(BM_SearchCase2)->Arg(1)->Arg(2);

void BM_SearchCase3(benchmark::State& state) {
  const ScheduleSpace space(4);
  const Simulator sim;
  const ScheduleSearch search(space, default_scheduled_arrays(), sim);
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  const auto workloads = LogUniformGemmSampler{}.sample_many(rng, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.best(workloads).label);
  }
}
BENCHMARK(BM_SearchCase3)->Arg(1)->Arg(2);

// Shared tiny recommender: the point is inference latency, not accuracy,
// so a minimal training run keeps benchmark startup fast.
const Recommender& case1_recommender() {
  static const Recommender rec = [] {
    static const ArrayDataflowStudy study;
    Recommender::TrainOptions opts;
    opts.dataset_size = 2000;
    opts.epochs = 2;
    return Recommender::train(study, opts);
  }();
  return rec;
}

const Recommender& case3_recommender() {
  static const Recommender rec = [] {
    static const SchedulingStudy study;
    Recommender::TrainOptions opts;
    opts.dataset_size = 500;
    opts.epochs = 2;
    return Recommender::train(study, opts);
  }();
  return rec;
}

void BM_InferCase1(benchmark::State& state) {
  const Recommender& rec = case1_recommender();
  const GemmWorkload w = workload_for(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.recommend_array(w, 18).rows);
  }
}
BENCHMARK(BM_InferCase1)->Arg(1)->Arg(2)->Arg(3);

// Batched serving: recommend_batch answers N queries in ONE packed
// forward pass. Per-query cost should fall with batch size as the matmul
// kernel amortizes the per-call network overhead (items_per_second is the
// comparable per-query rate). Batches of 2, 4 and 8 straddle the kernel's
// switch from its streaming path to the register-tiled one; 4 and 64 are
// the perfbench serve request sizes.
void BM_InferBatched(benchmark::State& state) {
  const Recommender& rec = case1_recommender();
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  LogUniformGemmSampler sampler;
  std::vector<std::vector<std::int64_t>> queries(batch);
  for (auto& q : queries) {
    const GemmWorkload w = sampler.sample(rng);
    q = {18, w.m, w.n, w.k};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.recommend_batch(queries).front());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_InferBatched)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64)->Arg(256);

void BM_InferCase3(benchmark::State& state) {
  const Recommender& rec = case3_recommender();
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  const auto workloads = LogUniformGemmSampler{}.sample_many(rng, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.recommend_schedule(workloads).workload_of[0]);
  }
}
BENCHMARK(BM_InferCase3)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::cout
      << "\nInterpretation note: this reproduction's cost model is ANALYTICAL\n"
         "(tens of ns per config), so exhaustive search over a few hundred\n"
         "configs can rival one NN inference in wall-clock. The paper's cost\n"
         "model is SCALE-Sim (~ms-seconds per config): scale the BM_Search*\n"
         "rows by ~1e5-1e8 to model that regime — per-query evaluation counts\n"
         "(459 / 1000 / 1944 vs 0) are the substrate-independent comparison;\n"
         "see bench_optimizer_comparison and EXPERIMENTS.md.\n";
  return 0;
}
