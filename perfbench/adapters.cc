#include "perfbench/adapters.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "src/api/index_spec.h"
#include "src/obs/phase_timer.h"

namespace perfbench {

using chameleon::obs::CycleClock;

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kEngine: return "engine";
    case Layer::kStorage: return "storage";
    case Layer::kTiered: return "tiered";
    case Layer::kCore: return "core";
  }
  return "unknown";
}

OpTrace& ThreadTrace() {
  static thread_local OpTrace trace;
  return trace;
}

namespace {

std::mutex g_spans_mu;
std::vector<const SpanIndex*>& Spans() {
  static std::vector<const SpanIndex*> spans;
  return spans;
}

}  // namespace

SpanIndex::SpanIndex(std::unique_ptr<KvIndex> inner, Layer layer)
    : ForwardingIndex(std::move(inner)), layer_(layer) {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  Spans().push_back(this);
}

SpanIndex::~SpanIndex() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  std::erase(Spans(), this);
}

std::vector<const SpanIndex*> LiveSpans() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  return Spans();
}

template <typename Fn>
auto SpanIndex::Timed(Fn&& fn) const {
  OpTrace& trace = ThreadTrace();
  if (!trace.active) return fn();
  const uint64_t start = CycleClock::Now();
  auto result = fn();
  const size_t l = static_cast<size_t>(layer_);
  trace.ticks[l] += CycleClock::Now() - start;
  ++trace.calls[l];
  sampled_calls_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void SpanIndex::BulkLoad(std::span<const KeyValue> data) {
  const uint64_t start = CycleClock::Now();
  inner_->BulkLoad(data);
  build_ns_ =
      static_cast<double>(CycleClock::ToNanos(CycleClock::Now() - start));
}

bool SpanIndex::Lookup(Key key, Value* value) const {
  return Timed([&] { return inner_->Lookup(key, value); });
}

bool SpanIndex::Insert(Key key, Value value) {
  return Timed([&] { return inner_->Insert(key, value); });
}

bool SpanIndex::Erase(Key key) {
  return Timed([&] { return inner_->Erase(key); });
}

size_t SpanIndex::RangeScan(Key lo, Key hi, std::vector<KeyValue>* out) const {
  return Timed([&] { return inner_->RangeScan(lo, hi, out); });
}

bool FaultIndex::Insert(Key key, Value value) {
  const uint64_t n = inserts_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n == nth_) {
    if (kind_ == Kind::kDrop) return true;
    value ^= 0x5A5A5A5A5A5A5A5AULL;
  }
  return inner_->Insert(key, value);
}

namespace {

using chameleon::SpecBuildContext;
using chameleon::SpecError;
using chameleon::SpecNode;

// Both adapters take exactly one positional argument.
bool OneArg(const SpecNode& node, std::string_view usage, std::string* arg,
            SpecError* error) {
  if (node.options.size() != 1 || !node.options[0].key.empty()) {
    error->pos = node.pos;
    error->message = std::string("expected ") + std::string(usage);
    return false;
  }
  *arg = node.options[0].value;
  return true;
}

std::unique_ptr<KvIndex> BuildSpan(const SpecNode& node,
                                   const SpecBuildContext& ctx,
                                   SpecError* error) {
  constexpr std::string_view kUsage =
      "Span(engine|storage|tiered|core):<spec>";
  std::string arg;
  if (!OneArg(node, kUsage, &arg, error)) return nullptr;
  Layer layer = Layer::kCore;
  bool known = false;
  for (size_t i = 0; i < kNumLayers; ++i) {
    if (arg == LayerName(static_cast<Layer>(i))) {
      layer = static_cast<Layer>(i);
      known = true;
    }
  }
  if (!known) {
    error->pos = node.options[0].pos;
    error->message = "unknown layer '" + arg + "'; expected " +
                     std::string(kUsage);
    return nullptr;
  }
  std::unique_ptr<KvIndex> inner =
      chameleon::BuildIndexSpec(*node.inner, ctx, error);
  if (inner == nullptr) return nullptr;
  return std::make_unique<SpanIndex>(std::move(inner), layer);
}

// The fault hits the 1000th insert: late enough that the stack is
// serving traffic, early enough that every workload reaches it.
constexpr uint64_t kFaultNth = 1000;

std::unique_ptr<KvIndex> BuildFault(const SpecNode& node,
                                    const SpecBuildContext& ctx,
                                    SpecError* error) {
  constexpr std::string_view kUsage = "Fault(drop|corrupt):<spec>";
  std::string arg;
  if (!OneArg(node, kUsage, &arg, error)) return nullptr;
  if (arg != "drop" && arg != "corrupt") {
    error->pos = node.options[0].pos;
    error->message = "unknown fault '" + arg + "'; expected " +
                     std::string(kUsage);
    return nullptr;
  }
  std::unique_ptr<KvIndex> inner =
      chameleon::BuildIndexSpec(*node.inner, ctx, error);
  if (inner == nullptr) return nullptr;
  return std::make_unique<FaultIndex>(
      std::move(inner),
      arg == "drop" ? FaultIndex::Kind::kDrop : FaultIndex::Kind::kCorrupt,
      kFaultNth);
}

}  // namespace

void RegisterBenchAdapters() {
  chameleon::RegisterIndexDecorator(
      "Span", chameleon::DecoratorInfo{
                  BuildSpan, /*wants_count=*/false,
                  "Span(engine|storage|tiered|core):<spec>   benchmark "
                  "tracing adapter"});
  chameleon::RegisterIndexDecorator(
      "Fault", chameleon::DecoratorInfo{
                   BuildFault, /*wants_count=*/false,
                   "Fault(drop|corrupt):<spec>   benchmark fault injection"});
}

KvIndex* Unwrap(KvIndex* index) {
  while (auto* fwd = dynamic_cast<ForwardingIndex*>(index)) {
    index = &fwd->inner();
  }
  return index;
}

}  // namespace perfbench
