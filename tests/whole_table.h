// Test helper for the one mechanism contract on an in-memory table: the
// whole table is one shard at global row 0, perturbed with PerturbShard* and
// read back through the mechanism's count-source estimator over a one-shard
// index — the path `frapp perturb` + `frapp mine --in` takes.

#ifndef FRAPP_TESTS_WHOLE_TABLE_H_
#define FRAPP_TESTS_WHOLE_TABLE_H_

#include <memory>

#include "frapp/common/statusor.h"
#include "frapp/core/mechanism.h"
#include "frapp/data/pattern_count_source.h"
#include "frapp/data/sharded_boolean_vertical_index.h"
#include "frapp/data/sharded_table.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/sharded_vertical_index.h"

namespace frapp {
namespace test {

/// Perturbs all of `table` with `seed` and returns the mechanism's
/// reconstructing estimator over the perturbed counts.
inline StatusOr<std::unique_ptr<mining::SupportEstimator>> WholeTableEstimator(
    core::Mechanism& mechanism, const data::CategoricalTable& table,
    uint64_t seed) {
  const data::ShardView whole = data::ShardView::Whole(table);
  if (mechanism.shard_kind() == core::Mechanism::ShardKind::kBoolean) {
    FRAPP_ASSIGN_OR_RETURN(data::BooleanTable perturbed,
                           mechanism.PerturbBooleanShard(whole, seed, 1));
    return mechanism.MakeBooleanCountSourceEstimator(
        std::make_shared<data::LocalPatternCountSource>(
            data::ShardedBooleanVerticalIndex::Build(perturbed, 1)));
  }
  FRAPP_ASSIGN_OR_RETURN(data::CategoricalTable perturbed,
                         mechanism.PerturbShard(whole, seed, 1));
  return mechanism.MakeCountSourceEstimator(
      std::make_shared<mining::LocalSupportCountSource>(
          mining::ShardedVerticalIndex::Build(perturbed, 1)));
}

}  // namespace test
}  // namespace frapp

#endif  // FRAPP_TESTS_WHOLE_TABLE_H_
