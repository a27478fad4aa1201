// Offline training: fit an AIrchitect recommender on a generated dataset
// (CSV from generate_dataset, or freshly generated) and save the model
// for constant-time inference elsewhere.
//
//   ./train_recommender --case=1 --dataset=case1.csv --out=case1.airch
//   ./train_recommender --case=1 --points=100000 --out=case1.airch

#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/recommender.hpp"

int main(int argc, char** argv) {
  using namespace airch;
  ArgParser args("train_recommender", "train + save an AIrchitect recommender");
  args.flag_i64("case", 1, "case study: 1 = array/dataflow, 2 = buffers, 3 = scheduling", 1, 3);
  args.flag_str("dataset", "", "input dataset CSV (empty = generate fresh data)");
  // Two points are the fewest whose 90% training split is not empty.
  args.flag_i64("points", 50000, "dataset size when generating fresh data", 2, 100000000);
  args.flag_i64("epochs", 15, "training epochs", 1, 1000);
  args.flag_i64("seed", 42, "RNG seed");
  args.flag_str("out", "recommender.airch", "output model path");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "train_recommender: " << e.what() << "\n";
    return 1;
  }

  const auto study = make_case_study(static_cast<CaseId>(args.i64("case")));
  Recommender::TrainOptions options;
  options.seed = static_cast<std::uint64_t>(args.i64("seed"));
  options.epochs = static_cast<int>(args.i64("epochs"));
  try {
    Dataset data = args.str("dataset").empty()
                       ? study->generate(static_cast<std::size_t>(args.i64("points")),
                                         options.seed)
                       : Dataset::load_csv(args.str("dataset"), study->num_classes());
    std::cout << case_name(study->id()) << ": training on " << data.size() << " points...\n";

    // Recommender::fit shuffles, splits off a validation set, fits and
    // keeps the last epoch's validation accuracy, which the file stores.
    const Recommender rec = Recommender::fit(*study, std::move(data), options);
    AsciiTable t({"epoch", "train loss", "train acc", "val acc"});
    for (const auto& e : rec.report().history) {
      t.add_row({std::to_string(e.epoch), AsciiTable::fmt(e.train_loss, 3),
                 AsciiTable::fmt(100.0 * e.train_accuracy, 1) + "%",
                 AsciiTable::fmt(100.0 * e.val_accuracy, 1) + "%"});
    }
    t.print(std::cout);

    rec.save(args.str("out"));
  } catch (const std::exception& e) {
    std::cerr << "train_recommender: " << e.what() << "\n";
    return 1;
  }
  std::cout << "saved model to " << args.str("out") << '\n';
  return 0;
}
