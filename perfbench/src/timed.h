// Timing decorators: wrap the library's public interfaces so the traced run
// can attribute time to each layer without touching the library. Each one
// forwards every call unchanged, so results are bit-identical to the
// undecorated objects.

#ifndef PERFBENCH_TIMED_H_
#define PERFBENCH_TIMED_H_

#include <memory>
#include <utility>
#include <vector>

#include "frapp/data/pattern_count_source.h"
#include "frapp/dist/transport.h"
#include "frapp/mining/apriori.h"
#include "frapp/mining/count_source.h"
#include "frapp/pipeline/table_source.h"
#include "trace.h"

namespace perfbench {

/// TableSource decorator: spans each NextShard as data.read. Optionally owns
/// the wrapped source, and optionally clips the stream to global rows
/// [begin, end) (shards are chunk-aligned; `begin` and `end` must be too).
class TimedSource : public frapp::pipeline::TableSource {
 public:
  explicit TimedSource(frapp::pipeline::TableSource* inner) : inner_(inner) {}
  explicit TimedSource(std::unique_ptr<frapp::pipeline::TableSource> owned)
      : inner_(owned.get()), owned_(std::move(owned)) {}

  /// Restricts the stream to [begin, end) (a window of a longer file).
  void Clip(size_t begin, size_t end) {
    begin_ = begin;
    end_ = end;
  }

  const frapp::data::CategoricalSchema& schema() const override {
    return inner_->schema();
  }
  frapp::StatusOr<bool> NextShard(frapp::pipeline::PulledShard* out) override {
    ScopedSpan span(Stage::kDataRead);
    while (true) {
      frapp::pipeline::PulledShard shard;
      frapp::StatusOr<bool> more = inner_->NextShard(&shard);
      if (!more.ok() || !*more) return more;
      const size_t g = shard.view.global_begin;
      if (g >= end_) return false;
      if (g < begin_) continue;
      *out = std::move(shard);
      return true;
    }
  }
  frapp::Status SkipToRow(size_t row) override { return inner_->SkipToRow(row); }
  std::optional<size_t> TotalRows() const override {
    return end_ == SIZE_MAX ? inner_->TotalRows() : std::optional<size_t>();
  }

 private:
  frapp::pipeline::TableSource* inner_;
  std::unique_ptr<frapp::pipeline::TableSource> owned_;
  size_t begin_ = 0;
  size_t end_ = SIZE_MAX;
};

/// Categorical count source decorator: each CountSupports is a
/// mining.count span tagged with the itemset length.
class TimedCountSource : public frapp::mining::SupportCountSource {
 public:
  explicit TimedCountSource(
      std::shared_ptr<frapp::mining::SupportCountSource> inner)
      : inner_(std::move(inner)) {}
  size_t num_rows() const override { return inner_->num_rows(); }
  frapp::StatusOr<std::vector<uint64_t>> CountSupports(
      const std::vector<frapp::mining::Itemset>& itemsets) override {
    ScopedSpan span(Stage::kCount, itemsets.empty() ? 0 : itemsets[0].size(),
                    itemsets.size());
    return inner_->CountSupports(itemsets);
  }

 private:
  std::shared_ptr<frapp::mining::SupportCountSource> inner_;
};

/// Boolean pattern-count source decorator (MASK, C&P).
class TimedPatternSource : public frapp::data::PatternCountSource {
 public:
  explicit TimedPatternSource(
      std::shared_ptr<frapp::data::PatternCountSource> inner)
      : inner_(std::move(inner)) {}
  size_t num_rows() const override { return inner_->num_rows(); }
  size_t num_bits() const override { return inner_->num_bits(); }
  frapp::StatusOr<std::vector<int64_t>> PatternCounts(
      const std::vector<size_t>& positions) override {
    ScopedSpan span(Stage::kCount, positions.size(), 1);
    return inner_->PatternCounts(positions);
  }
  frapp::StatusOr<std::vector<std::vector<int64_t>>> PatternCountsBatch(
      const std::vector<std::vector<size_t>>& candidates) override {
    ScopedSpan span(Stage::kCount, candidates.empty() ? 0 : candidates[0].size(),
                    candidates.size());
    return inner_->PatternCountsBatch(candidates);
  }

 private:
  std::shared_ptr<frapp::data::PatternCountSource> inner_;
};

/// Estimator decorator: each EstimateSupports is a core.estimate span (its
/// self time, once the count spans inside it are subtracted, is the
/// reconstruction).
class TimedEstimator : public frapp::mining::SupportEstimator {
 public:
  explicit TimedEstimator(frapp::mining::SupportEstimator* inner)
      : inner_(inner) {}
  frapp::StatusOr<double> EstimateSupport(
      const frapp::mining::Itemset& itemset) override {
    ScopedSpan span(Stage::kEstimate, itemset.size(), 1);
    return inner_->EstimateSupport(itemset);
  }
  frapp::StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<frapp::mining::Itemset>& itemsets) override {
    ScopedSpan span(Stage::kEstimate, itemsets.empty() ? 0 : itemsets[0].size(),
                    itemsets.size());
    return inner_->EstimateSupports(itemsets);
  }

 private:
  frapp::mining::SupportEstimator* inner_;
};

/// Transport decorator: spans each Send (items = frame bytes) and each
/// Receive wait. The coordinator talks to its workers concurrently from
/// pool threads, so these spans are detached: they measure time spent on
/// the wire without being subtracted from the count round that waits.
class TimedTransport : public frapp::dist::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<frapp::dist::Transport> inner)
      : inner_(std::move(inner)) {}
  frapp::Status Send(const frapp::dist::Message& message) override {
    const int64_t id =
        GlobalTracer().Begin(Stage::kDistSend, 0, message.WireSize(), true);
    frapp::Status status = inner_->Send(message);
    GlobalTracer().End(id);
    return status;
  }
  frapp::StatusOr<frapp::dist::Message> Receive() override {
    const int64_t id = GlobalTracer().Begin(Stage::kDistRecv, 0, 0, true);
    frapp::StatusOr<frapp::dist::Message> message = inner_->Receive();
    GlobalTracer().End(id);
    return message;
  }
  void SetReceiveTimeoutMillis(uint64_t ms) override {
    inner_->SetReceiveTimeoutMillis(ms);
  }
  void SetSendTimeoutMillis(uint64_t ms) override {
    inner_->SetSendTimeoutMillis(ms);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<frapp::dist::Transport> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_H_
