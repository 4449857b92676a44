// End-to-end integration: the full paper pipeline — generate data, perturb,
// mine with reconstruction, and score — at reduced scale. These tests check
// the SHAPE claims of Section 7: DET-GD/RAN-GD stay accurate where
// MASK/C&P degrade, and condition numbers explain why.

#include <gtest/gtest.h>

#include "frapp/core/mechanism.h"
#include "frapp/data/census.h"
#include "frapp/eval/experiment.h"
#include "frapp/mining/rules.h"

namespace frapp {
namespace {

constexpr double kGamma = 19.0;

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatusOr<data::CategoricalTable> t = data::census::MakeDataset(40000, 4242);
    ASSERT_TRUE(t.ok());
    table_ = new data::CategoricalTable(*std::move(t));
    mining::AprioriOptions options;
    options.min_support = 0.02;
    StatusOr<mining::AprioriResult> truth = mining::MineExact(*table_, options);
    ASSERT_TRUE(truth.ok());
    truth_ = new mining::AprioriResult(*std::move(truth));
  }

  static void TearDownTestSuite() {
    delete table_;
    delete truth_;
    table_ = nullptr;
    truth_ = nullptr;
  }

  static data::CategoricalTable* table_;
  static mining::AprioriResult* truth_;
};

data::CategoricalTable* PipelineTest::table_ = nullptr;
mining::AprioriResult* PipelineTest::truth_ = nullptr;

TEST_F(PipelineTest, ExactMiningFindsLongItemsets) {
  // The CENSUS stand-in must produce frequent itemsets up to length >= 5
  // (the paper's Table 3 reaches length 6 at full scale).
  EXPECT_GE(truth_->MaxLength(), 5u);
  EXPECT_EQ(truth_->OfLength(1).size(), 19u);
  EXPECT_GT(truth_->OfLength(3).size(), 50u);
}

TEST_F(PipelineTest, DetGdAccurateAtShortLengths) {
  StatusOr<std::unique_ptr<core::DetGdMechanism>> m =
      core::DetGdMechanism::Create(table_->schema(), kGamma);
  ASSERT_TRUE(m.ok());
  eval::ExperimentConfig config;
  config.perturb_seed = 1;
  StatusOr<eval::MechanismRun> run = eval::RunMechanism(**m, *table_, *truth_, config);
  ASSERT_TRUE(run.ok());

  // Singletons: the large majority is identified. (Itemsets sitting on the
  // 2% threshold are inherent coin flips at condition number ~112, so the
  // bound is not zero.)
  ASSERT_FALSE(run->accuracy.empty());
  const eval::LengthAccuracy& l1 = run->accuracy[0];
  EXPECT_EQ(l1.length, 1u);
  EXPECT_LT(l1.sigma_minus, 30.0);
  EXPECT_LT(l1.sigma_plus, 30.0);
  EXPECT_GT(l1.correct, 13u);  // >= 14 of the 19 true singletons
}

TEST_F(PipelineTest, RanGdTracksDetGdClosely) {
  // Paper Section 7: RAN-GD's accuracy is only marginally below DET-GD's.
  const double x = 1.0 / (kGamma + 1999.0);
  StatusOr<std::unique_ptr<core::DetGdMechanism>> det =
      core::DetGdMechanism::Create(table_->schema(), kGamma);
  StatusOr<std::unique_ptr<core::RanGdMechanism>> ran =
      core::RanGdMechanism::Create(table_->schema(), kGamma, kGamma * x / 2.0);
  ASSERT_TRUE(det.ok() && ran.ok());

  eval::ExperimentConfig config;
  config.perturb_seed = 2;
  StatusOr<eval::MechanismRun> det_run =
      eval::RunMechanism(**det, *table_, *truth_, config);
  StatusOr<eval::MechanismRun> ran_run =
      eval::RunMechanism(**ran, *table_, *truth_, config);
  ASSERT_TRUE(det_run.ok() && ran_run.ok());

  const eval::LengthAccuracy det_total = eval::OverallAccuracy(det_run->accuracy);
  const eval::LengthAccuracy ran_total = eval::OverallAccuracy(ran_run->accuracy);
  // Identity errors within 20 percentage points of each other overall.
  EXPECT_NEAR(ran_total.sigma_minus, det_total.sigma_minus, 20.0);
}

TEST_F(PipelineTest, MaskDegradesAtLongLengths) {
  // Paper: MASK finds no itemsets beyond ~length 4 on CENSUS -> sigma- hits
  // 100% while DET-GD still finds a large share.
  StatusOr<std::unique_ptr<core::MaskMechanism>> mask =
      core::MaskMechanism::Create(table_->schema(), kGamma);
  StatusOr<std::unique_ptr<core::DetGdMechanism>> det =
      core::DetGdMechanism::Create(table_->schema(), kGamma);
  ASSERT_TRUE(mask.ok() && det.ok());

  eval::ExperimentConfig config;
  config.perturb_seed = 3;
  StatusOr<eval::MechanismRun> mask_run =
      eval::RunMechanism(**mask, *table_, *truth_, config);
  StatusOr<eval::MechanismRun> det_run =
      eval::RunMechanism(**det, *table_, *truth_, config);
  ASSERT_TRUE(mask_run.ok() && det_run.ok());

  const size_t long_len = std::min<size_t>(truth_->MaxLength(), 5);
  ASSERT_GE(long_len, 4u);
  const auto correct_at = [&](const eval::MechanismRun& run, size_t len) {
    for (const auto& acc : run.accuracy) {
      if (acc.length == len) return acc.correct;
    }
    return size_t{0};
  };
  // MASK correctly recovers (almost) none of the long itemsets...
  const size_t mask_correct = correct_at(*mask_run, long_len);
  EXPECT_LE(mask_correct, truth_->OfLength(long_len).size() / 4);
  // ...while DET-GD recovers strictly (and substantially) more.
  const size_t det_correct = correct_at(*det_run, long_len);
  EXPECT_GT(det_correct, 2 * mask_correct);
  EXPECT_GT(det_correct, truth_->OfLength(long_len).size() / 4);
}

TEST_F(PipelineTest, ConditionNumbersExplainTheAccuracyOrdering) {
  data::CategoricalSchema schema = table_->schema();
  StatusOr<std::unique_ptr<core::DetGdMechanism>> det =
      core::DetGdMechanism::Create(schema, kGamma);
  StatusOr<std::unique_ptr<core::MaskMechanism>> mask =
      core::MaskMechanism::Create(schema, kGamma);
  StatusOr<std::unique_ptr<core::CutPasteMechanism>> cp =
      core::CutPasteMechanism::Create(schema, 3, 0.494);
  ASSERT_TRUE(det.ok() && mask.ok() && cp.ok());
  for (size_t k = 3; k <= 6; ++k) {
    StatusOr<double> d = (*det)->ConditionNumberForLength(k);
    StatusOr<double> m = (*mask)->ConditionNumberForLength(k);
    StatusOr<double> c = (*cp)->ConditionNumberForLength(k);
    ASSERT_TRUE(d.ok() && m.ok() && c.ok());
    EXPECT_LT(*d, *m) << "k=" << k;
    EXPECT_LT(*d, *c) << "k=" << k;
  }
}

TEST_F(PipelineTest, RulesFromReconstructedSupportsAreSane) {
  StatusOr<std::unique_ptr<core::DetGdMechanism>> m =
      core::DetGdMechanism::Create(table_->schema(), kGamma);
  ASSERT_TRUE(m.ok());
  eval::ExperimentConfig config;
  config.perturb_seed = 5;
  StatusOr<eval::MechanismRun> run = eval::RunMechanism(**m, *table_, *truth_, config);
  ASSERT_TRUE(run.ok());

  std::vector<mining::AssociationRule> rules = mining::GenerateRules(run->mined, 0.7);
  EXPECT_FALSE(rules.empty());
  for (const auto& rule : rules) {
    EXPECT_GE(rule.confidence, 0.7);
    EXPECT_FALSE(rule.antecedent.empty());
    EXPECT_FALSE(rule.consequent.empty());
  }
}

TEST_F(PipelineTest, PerturbationIsDeterministicGivenSeed) {
  StatusOr<std::unique_ptr<core::DetGdMechanism>> m1 =
      core::DetGdMechanism::Create(table_->schema(), kGamma);
  StatusOr<std::unique_ptr<core::DetGdMechanism>> m2 =
      core::DetGdMechanism::Create(table_->schema(), kGamma);
  ASSERT_TRUE(m1.ok() && m2.ok());
  const data::ShardView whole = data::ShardView::Whole(*table_);
  StatusOr<data::CategoricalTable> p1 = (*m1)->PerturbShard(whole, 77, 1);
  StatusOr<data::CategoricalTable> p2 = (*m2)->PerturbShard(whole, 77, 1);
  ASSERT_TRUE(p1.ok() && p2.ok());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(p1->Row(i), p2->Row(i));
  }
}

}  // namespace
}  // namespace frapp
