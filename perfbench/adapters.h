// Benchmark-owned pass-through adapters, registered in the index-spec
// grammar so the benchmark can wrap any layer boundary of a stack
// without changing program code:
//
//   Span(<layer>):<spec>   times sampled calls into <spec> and charges
//                          them to <layer> (engine, storage, tiered,
//                          core), e.g. the traced durable stack is
//                          Span(engine):Sharded4:Span(storage):
//                          Durable(d,fsync=none):Span(core):Chameleon
//   Fault(drop|corrupt):<spec>
//                          drops, or corrupts the payload of, exactly
//                          one insert; used to show that the oracle
//                          checker reports failed operations
#ifndef PERFBENCH_ADAPTERS_H_
#define PERFBENCH_ADAPTERS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/api/kv_index.h"

namespace perfbench {

using chameleon::Key;
using chameleon::KeyValue;
using chameleon::KvIndex;
using chameleon::Value;

/// Layer boundaries a Span adapter can stand on, outermost first.
enum class Layer : uint8_t { kEngine, kStorage, kTiered, kCore };
inline constexpr size_t kNumLayers = 4;
std::string_view LayerName(Layer layer);

/// Span durations of the one sampled operation the calling thread is
/// running. Spans of one operation nest strictly (each layer calls only
/// the layer below it on the same thread), so a layer's self time is
/// its summed span minus the summed span of the next layer down.
struct OpTrace {
  bool active = false;
  std::array<uint64_t, kNumLayers> ticks{};  // CycleClock ticks
  std::array<uint32_t, kNumLayers> calls{};
};

/// The calling thread's trace slot. A client sets `active` around a
/// sampled operation and folds the spans when the call returns.
OpTrace& ThreadTrace();

/// Forwards every KvIndex call to an inner index.
class ForwardingIndex : public KvIndex {
 public:
  explicit ForwardingIndex(std::unique_ptr<KvIndex> inner)
      : inner_(std::move(inner)) {}

  void BulkLoad(std::span<const KeyValue> data) override {
    inner_->BulkLoad(data);
  }
  bool Lookup(Key key, Value* value) const override {
    return inner_->Lookup(key, value);
  }
  void LookupBatch(std::span<const Key> keys, Value* values,
                   bool* found) const override {
    inner_->LookupBatch(keys, values, found);
  }
  bool Insert(Key key, Value value) override {
    return inner_->Insert(key, value);
  }
  bool Erase(Key key) override { return inner_->Erase(key); }
  size_t RangeScan(Key lo, Key hi,
                   std::vector<KeyValue>* out) const override {
    return inner_->RangeScan(lo, hi, out);
  }
  size_t size() const override { return inner_->size(); }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  chameleon::IndexStats Stats() const override { return inner_->Stats(); }
  std::string_view Name() const override { return inner_->Name(); }
  chameleon::obs::Heatmap HeatmapSnapshot() const override {
    return inner_->HeatmapSnapshot();
  }
  bool Recover() override { return inner_->Recover(); }
  bool SupportsConcurrentWrites() const override {
    return inner_->SupportsConcurrentWrites();
  }
  bool EnableConcurrentWrites() override {
    return inner_->EnableConcurrentWrites();
  }
  chameleon::obs::Heatmap WriteContentionSnapshot() const override {
    return inner_->WriteContentionSnapshot();
  }

  KvIndex& inner() { return *inner_; }
  const KvIndex& inner() const { return *inner_; }

 protected:
  std::unique_ptr<KvIndex> inner_;
};

/// Times the calls of sampled operations (ThreadTrace().active) into
/// the thread's OpTrace, and every BulkLoad. Unsampled calls pay one
/// thread-local flag test.
class SpanIndex final : public ForwardingIndex {
 public:
  SpanIndex(std::unique_ptr<KvIndex> inner, Layer layer);
  ~SpanIndex() override;
  SpanIndex(const SpanIndex&) = delete;
  SpanIndex& operator=(const SpanIndex&) = delete;

  void BulkLoad(std::span<const KeyValue> data) override;
  bool Lookup(Key key, Value* value) const override;
  bool Insert(Key key, Value value) override;
  bool Erase(Key key) override;
  size_t RangeScan(Key lo, Key hi,
                   std::vector<KeyValue>* out) const override;

  Layer layer() const { return layer_; }
  /// Sampled calls that passed through this instance.
  uint64_t sampled_calls() const {
    return sampled_calls_.load(std::memory_order_relaxed);
  }
  /// Nanoseconds the last BulkLoad through this instance took.
  double build_ns() const { return build_ns_; }

 private:
  template <typename Fn>
  auto Timed(Fn&& fn) const;

  Layer layer_;
  mutable std::atomic<uint64_t> sampled_calls_{0};
  double build_ns_ = 0.0;
};

/// Every SpanIndex currently alive, in construction order (shards of a
/// Sharded stack appear once each). Stable while no stack is built or
/// destroyed.
std::vector<const SpanIndex*> LiveSpans();

/// Drops or corrupts exactly one insert: the `nth` Insert call (counted
/// across threads) is acknowledged without being applied (drop), or
/// applied with a flipped payload (corrupt).
class FaultIndex final : public ForwardingIndex {
 public:
  enum class Kind { kDrop, kCorrupt };
  FaultIndex(std::unique_ptr<KvIndex> inner, Kind kind, uint64_t nth)
      : ForwardingIndex(std::move(inner)), kind_(kind), nth_(nth) {}

  bool Insert(Key key, Value value) override;

 private:
  Kind kind_;
  uint64_t nth_;
  std::atomic<uint64_t> inserts_{0};
};

/// Registers "Span" and "Fault" in the index-spec decorator registry.
void RegisterBenchAdapters();

/// Strips Span and Fault adapters off the top of a stack.
KvIndex* Unwrap(KvIndex* index);

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTERS_H_
