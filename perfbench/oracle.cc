#include "perfbench/oracle.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <limits>

namespace perfbench {

using chameleon::OpTypeName;
using chameleon::PayloadFor;

namespace {

// Only the first few mismatches are described on stderr; the count is
// what the result reports.
std::atomic<int> g_reports{0};

void Report(const char* what, const Operation& op, const OpResult& r) {
  if (g_reports.fetch_add(1, std::memory_order_relaxed) >= 10) return;
  std::fprintf(stderr,
               "oracle: %s: %s key=%" PRIu64 " returned ok=%u a=%" PRIu64
               " n=%u\n",
               what, std::string(OpTypeName(op.type)).c_str(), op.key,
               unsigned{r.ok}, r.a, r.n);
}

constexpr uint8_t kMayBeAbsent = 1;  // erased or updated in this round
constexpr uint8_t kMayAppear = 2;    // inserted or updated in this round

}  // namespace

Oracle::Oracle(std::span<const KeyValue> loaded, bool scans)
    : parts_(kPartitions), scans_(scans) {
  for (auto& part : parts_) part.reserve(loaded.size() / kPartitions * 2);
  for (const KeyValue& kv : loaded) parts_[PartitionOf(kv.key)][kv.key] = kv.value;
  if (scans_) {
    sorted_.reserve(loaded.size());
    for (const KeyValue& kv : loaded) sorted_.push_back(kv.key);
  }
}

size_t Oracle::PartitionOf(Key key) {
  uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % kPartitions;
}

size_t Oracle::size() const {
  size_t n = 0;
  for (const auto& part : parts_) n += part.size();
  return n;
}

uint64_t Oracle::CheckPartition(size_t p, const Round& round) {
  auto& model = parts_[p];
  uint64_t failed = 0;
  for (size_t i = 0; i < round.ops.size(); ++i) {
    const Operation& op = round.ops[i];
    if (op.type == OpType::kScan || PartitionOf(op.key) != p) continue;
    const OpResult& r = round.results[i];
    bool good = true;
    switch (op.type) {
      case OpType::kLookup: {
        const auto it = model.find(op.key);
        good = it == model.end() ? r.ok == 0
                                 : r.ok == 1 && r.a == it->second;
        break;
      }
      case OpType::kInsert: {
        const bool fresh = model.try_emplace(op.key, op.value).second;
        good = r.ok == static_cast<uint8_t>(fresh);
        break;
      }
      case OpType::kErase:
        good = r.ok == static_cast<uint8_t>(model.erase(op.key) > 0);
        break;
      case OpType::kUpdate: {
        // Erase then insert: the erase finds the key iff the model has
        // it, and the insert always succeeds.
        const bool present = model.contains(op.key);
        good = r.ok == static_cast<uint8_t>(present | 2);
        model[op.key] = op.value;
        break;
      }
      case OpType::kScan:
        break;
    }
    if (!good) {
      ++failed;
      Report("result differs from the model", op, r);
    }
  }
  return failed;
}

uint64_t Oracle::CheckScans(size_t stripe, const Round& round,
                            const std::vector<Client>& clients) const {
  uint64_t failed = 0;
  auto flags = [&](Key k) -> uint8_t {
    const auto it = written_.find(k);
    return it == written_.end() ? 0 : it->second;
  };
  for (size_t i = stripe; i < round.ops.size(); i += kPartitions) {
    const Operation& op = round.ops[i];
    if (op.type != OpType::kScan) continue;
    const OpResult& r = round.results[i];
    const Key lo = op.key;
    const Key hi = static_cast<Key>(op.value);
    const KeyValue* out = clients[r.client].arena.data() + r.a;
    // Every returned pair is in range, ascending, carries the payload
    // every write of the stream stores (PayloadFor), and was present at
    // some point of the round. Every key present throughout the round
    // and inside the range is returned.
    bool good = true;
    auto it = std::lower_bound(sorted_.begin(), sorted_.end(), lo);
    for (uint32_t j = 0; j < r.n && good; ++j) {
      const KeyValue& kv = out[j];
      if (kv.key < lo || kv.key > hi || (j > 0 && kv.key <= out[j - 1].key) ||
          kv.value != PayloadFor(kv.key)) {
        good = false;
        break;
      }
      for (; it != sorted_.end() && *it < kv.key; ++it) {
        if ((flags(*it) & kMayBeAbsent) == 0) good = false;
      }
      if (it != sorted_.end() && *it == kv.key) {
        ++it;
      } else if ((flags(kv.key) & kMayAppear) == 0) {
        good = false;
      }
    }
    for (; good && it != sorted_.end() && *it <= hi; ++it) {
      if ((flags(*it) & kMayBeAbsent) == 0) good = false;
    }
    if (!good) {
      ++failed;
      Report("scan misses a key, returns a stray one or is misordered", op, r);
    }
  }
  return failed;
}

void Oracle::AdvanceSorted() {
  std::vector<Key> added;
  std::vector<Key> removed;
  for (const auto& [key, f] : written_) {
    const bool was = std::binary_search(sorted_.begin(), sorted_.end(), key);
    const bool now = parts_[PartitionOf(key)].contains(key);
    if (was && !now) removed.push_back(key);
    if (!was && now) added.push_back(key);
  }
  if (!removed.empty()) {
    std::sort(removed.begin(), removed.end());
    std::erase_if(sorted_, [&](Key k) {
      return std::binary_search(removed.begin(), removed.end(), k);
    });
  }
  if (!added.empty()) {
    std::sort(added.begin(), added.end());
    const size_t mid = sorted_.size();
    sorted_.insert(sorted_.end(), added.begin(), added.end());
    std::inplace_merge(sorted_.begin(), sorted_.begin() + mid, sorted_.end());
  }
}

uint64_t Oracle::CheckRound(const Round& round,
                            const std::vector<Client>& clients, Crew* crew) {
  std::vector<uint64_t> failed(kPartitions, 0);
  crew->Run(kPartitions,
            [&](size_t p) { failed[p] = CheckPartition(p, round); });
  if (scans_) {
    written_.clear();
    for (const Operation& op : round.ops) {
      uint8_t f = 0;
      if (op.type == OpType::kInsert) f = kMayAppear;
      if (op.type == OpType::kErase) f = kMayBeAbsent;
      if (op.type == OpType::kUpdate) f = kMayAppear | kMayBeAbsent;
      if (f != 0) written_[op.key] |= f;
    }
    crew->Run(kPartitions, [&](size_t s) {
      failed[s] += CheckScans(s, round, clients);
    });
    AdvanceSorted();
  }
  uint64_t total = 0;
  for (const uint64_t f : failed) total += f;
  return total;
}

uint64_t Oracle::CheckContents(std::span<const KeyValue> contents) const {
  uint64_t bad = 0;
  size_t matched = 0;
  for (size_t i = 0; i < contents.size(); ++i) {
    const KeyValue& kv = contents[i];
    const auto& part = parts_[PartitionOf(kv.key)];
    const auto it = part.find(kv.key);
    if (it == part.end() || it->second != kv.value ||
        (i > 0 && kv.key <= contents[i - 1].key)) {
      ++bad;
    } else {
      ++matched;
    }
  }
  const uint64_t missing = size() - matched;
  if (bad + missing > 0) {
    std::fprintf(stderr,
                 "oracle: contents differ from the model: %" PRIu64
                 " stray or wrong pairs, %" PRIu64 " keys missing\n",
                 bad, missing);
  }
  return bad + missing;
}

std::vector<KeyValue> DumpContents(const KvIndex& index) {
  std::vector<KeyValue> out;
  out.reserve(index.size());
  index.RangeScan(0, std::numeric_limits<Key>::max(), &out);
  return out;
}

}  // namespace perfbench
