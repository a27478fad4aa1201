#include <gtest/gtest.h>

#include <cmath>

#include "ml/optimizer.hpp"
#include "models/neural.hpp"

namespace airch::ml {
namespace {

TEST(ExponentialDecay, FirstEpochIsInitial) {
  const ExponentialDecaySchedule s{0.1, 0.5};
  EXPECT_DOUBLE_EQ(s(1), 0.1);
  EXPECT_DOUBLE_EQ(s(2), 0.05);
  EXPECT_DOUBLE_EQ(s(3), 0.025);
}

TEST(ExponentialDecay, UnitDecayIsConstant) {
  const ExponentialDecaySchedule s{0.01, 1.0};
  EXPECT_DOUBLE_EQ(s(1), 0.01);
  EXPECT_DOUBLE_EQ(s(100), 0.01);
}

TEST(ExponentialDecay, RejectsZeroEpoch) {
  const ExponentialDecaySchedule s{0.1, 0.9};
  EXPECT_THROW(s(0), std::invalid_argument);
}

TEST(Optimizer, LearningRateIsMutable) {
  Adam opt(0.1);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.1);
  opt.set_learning_rate(0.01);
  std::vector<float> w = {1.0f};
  std::vector<float> g = {1.0f};
  std::vector<ParamRef> p = {{w.data(), g.data(), 1}};
  opt.step(p);
  // Bias correction makes Adam's first step ~= lr * sign(grad).
  EXPECT_FLOAT_EQ(w[0], 0.99f);  // the new rate applied
}

}  // namespace
}  // namespace airch::ml

namespace airch {
namespace {

TEST(LrDecayOption, DecaysAcrossFit) {
  // Smoke: lr_decay < 1 must not break training on a simple task and the
  // model must still learn.
  Dataset ds({"a"}, 2);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t a = rng.uniform_int(0, 100);
    ds.add({{a}, a > 50 ? 1 : 0});
  }
  auto [train, val] = ds.split(0.8);
  const FeatureEncoder enc(train);
  NeuralClassifier::Options o;
  o.hidden = {16};
  o.epochs = 25;
  o.learning_rate = 5e-3;
  o.lr_decay = 0.9;
  NeuralClassifier clf("decay", o);
  clf.fit(train, val, enc);
  EXPECT_GT(clf.accuracy(val, enc), 0.9);
}

}  // namespace
}  // namespace airch
