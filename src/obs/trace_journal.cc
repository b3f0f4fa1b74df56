#include "src/obs/trace_journal.h"

#include <cstdio>
#include <thread>

#include "src/util/timer.h"

namespace chameleon::obs {

std::string_view TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kRetrainPass: return "retrain_pass";
    case TraceEventType::kUnitRebuilt: return "unit_rebuilt";
    case TraceEventType::kRetrainDenied: return "retrain_denied";
    case TraceEventType::kFullRebuild: return "full_rebuild";
    case TraceEventType::kLeafExpansion: return "leaf_expansion";
    case TraceEventType::kCheckpoint: return "checkpoint";
    case TraceEventType::kRecovery: return "recovery";
  }
  return "unknown";
}

TraceJournal& TraceJournal::Get() noexcept {
  static TraceJournal journal;
  return journal;
}

void TraceJournal::Append(TraceEventType type, uint64_t a,
                          uint64_t b) noexcept {
  if (!enabled()) return;
  const uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[idx & kMask];
  // Claim the slot first, so a concurrent Snapshot never pairs the new
  // payload with the old sequence number and two writers a ring apart
  // never interleave their payloads. The payload stores release the
  // claim to any reader that sees one of them.
  uint64_t cur = slot.seq.load(std::memory_order_relaxed);
  do {
    while (cur == kWriting) {
      std::this_thread::yield();
      cur = slot.seq.load(std::memory_order_relaxed);
    }
  } while (!slot.seq.compare_exchange_weak(cur, kWriting,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed));
  slot.ts_ns.store(NowNanos(), std::memory_order_release);
  slot.type.store(static_cast<uint32_t>(type), std::memory_order_release);
  slot.a.store(a, std::memory_order_release);
  slot.b.store(b, std::memory_order_release);
  slot.seq.store(idx + 1, std::memory_order_release);
}

size_t TraceJournal::size() const noexcept {
  const uint64_t appended = head_.load(std::memory_order_relaxed);
  return appended < kCapacity ? static_cast<size_t>(appended) : kCapacity;
}

std::vector<TraceEvent> TraceJournal::Snapshot() const {
  const uint64_t end = head_.load(std::memory_order_acquire);
  const uint64_t begin = end > kCapacity ? end - kCapacity : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t i = begin; i < end; ++i) {
    const Slot& slot = slots_[i & kMask];
    if (slot.seq.load(std::memory_order_acquire) != i + 1) continue;
    TraceEvent ev;
    ev.ts_ns = slot.ts_ns.load(std::memory_order_acquire);
    ev.type = static_cast<TraceEventType>(
        slot.type.load(std::memory_order_acquire));
    ev.a = slot.a.load(std::memory_order_acquire);
    ev.b = slot.b.load(std::memory_order_acquire);
    // A writer that claimed the slot after the first load is visible
    // here once any of its payload stores was.
    if (slot.seq.load(std::memory_order_relaxed) != i + 1) continue;
    out.push_back(ev);
  }
  return out;
}

bool TraceJournal::DumpJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const TraceEvent& ev : Snapshot()) {
    const std::string_view name = TraceEventTypeName(ev.type);
    std::fprintf(f,
                 "{\"ts_ns\": %lld, \"type\": \"%.*s\", \"a\": %llu, "
                 "\"b\": %llu}\n",
                 static_cast<long long>(ev.ts_ns),
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(ev.a),
                 static_cast<unsigned long long>(ev.b));
  }
  const bool ok = std::fclose(f) == 0;
  return ok;
}

void TraceJournal::Clear() noexcept {
  head_.store(0, std::memory_order_relaxed);
  for (Slot& slot : slots_) {
    slot.seq.store(0, std::memory_order_relaxed);
  }
}

}  // namespace chameleon::obs
