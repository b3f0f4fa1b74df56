// The benchmark's correctness oracle: a model of the key-value contents
// built from the bulk-load data and the generated operation stream,
// never from the program's answers. Every operation a client ran is
// checked against the result a serial execution of the stream gives;
// scans, which race with writers on other clients, are checked for the
// properties that hold under any interleaving.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "perfbench/runner.h"

namespace perfbench {

class Oracle {
 public:
  /// The model is split into `Oracle::kPartitions` hash partitions so
  /// rounds are checked in parallel. `scans` keeps the sorted key list
  /// that scan checks need.
  Oracle(std::span<const KeyValue> loaded, bool scans);

  static constexpr size_t kPartitions = 4;

  /// Checks one executed round and applies it to the model; `crew`
  /// runs the partitions in parallel. Returns the number of operations
  /// whose result disagrees with the model.
  uint64_t CheckRound(const Round& round, const std::vector<Client>& clients,
                      Crew* crew);

  /// Compares a full ascending dump of an index with the model.
  /// Returns the number of keys missing, extra or with a wrong payload.
  uint64_t CheckContents(std::span<const KeyValue> contents) const;

  size_t size() const;

 private:
  static size_t PartitionOf(Key key);
  uint64_t CheckPartition(size_t p, const Round& round);
  uint64_t CheckScans(size_t stripe, const Round& round,
                      const std::vector<Client>& clients) const;
  void AdvanceSorted();

  std::vector<std::unordered_map<Key, Value>> parts_;
  bool scans_;
  // Keys present at the start of the current round, ascending (kept
  // only when the workload scans).
  std::vector<Key> sorted_;
  // Keys the current round writes: erase/update targets may be absent
  // for a while during the round, inserted keys may or may not show.
  std::unordered_map<Key, uint8_t> written_;
};

/// Dumps every pair of `index` in key order.
std::vector<KeyValue> DumpContents(const KvIndex& index);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
