// Closed-loop client execution in rounds. A round is a generated slice
// of the workload's operation stream; its operations are assigned to
// client threads by key ownership (every operation on one key runs on
// one client, in stream order), executed, and their results recorded
// for the oracle, which checks them outside the timed phase.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/adapters.h"
#include "src/workload/op.h"

namespace perfbench {

using chameleon::kNumOpTypes;
using chameleon::Operation;
using chameleon::OpType;

/// A fixed set of threads that runs one job at a time, so rounds reuse
/// the same client threads instead of spawning new ones.
class Crew {
 public:
  explicit Crew(size_t threads);
  ~Crew();
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Runs fn(i) for every i < n (n <= threads), one per thread, and
  /// returns when all have finished.
  void Run(size_t n, const std::function<void(size_t)>& fn);

 private:
  void Main(size_t i);

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* job_ = nullptr;
  size_t job_width_ = 0;
  uint64_t generation_ = 0;
  size_t running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// What one operation returned. Lookup: ok = found, a = payload.
/// Insert/Erase: ok. Update (erase then insert): ok bit 0 = erase,
/// bit 1 = insert. Scan: a = offset of the result in the client's
/// arena, n = pairs returned, client = the arena's owner.
struct OpResult {
  uint64_t a = 0;
  uint32_t n = 0;
  uint8_t ok = 0;
  uint8_t client = 0;
};

/// One latency sample: an operation timed individually.
struct Sample {
  uint64_t ticks;
  OpType type;
};

/// Span totals of the sampled operations, by the type of the operation
/// the client issued. `client_ticks` is the client's own timing of the
/// same operations, the outermost span.
struct TraceTotals {
  std::array<std::array<uint64_t, kNumLayers>, kNumOpTypes> ticks{};
  std::array<std::array<uint64_t, kNumLayers>, kNumOpTypes> calls{};
  std::array<uint64_t, kNumOpTypes> client_ticks{};
  std::array<uint64_t, kNumOpTypes> ops{};
  uint64_t scan_keys = 0;

  void Add(const TraceTotals& other);
};

/// Per-client state that persists across rounds.
struct Client {
  std::vector<KeyValue> arena;         // this round's scan results
  std::vector<Sample> samples;         // whole run
  TraceTotals trace;                   // whole run (traced runs only)
  uint64_t issued = 0;                 // ops issued, for sampling
  uint64_t busy_ticks = 0;             // this round: first op to last
};

struct Round {
  std::vector<Operation> ops;
  std::vector<OpResult> results;
  std::vector<std::vector<uint32_t>> mine;  // op indices per client
};

/// Assigns the round's operations to `clients` clients by key
/// ownership (fills round->mine).
void Assign(Round* round, size_t clients);

/// Times one operation in every `kSampleEvery` a client issues; the
/// rest run with no clock read.
inline constexpr uint64_t kSampleEvery = 16;

/// Runs rounds of operations against one index with a fixed number of
/// closed-loop clients.
class Runner {
 public:
  Runner(KvIndex* index, size_t clients, bool trace, Crew* crew);

  /// Executes an assigned round. Returns its throughput in ops/s: the
  /// sum over clients of the ops each ran divided by the time it took
  /// from its first op to its last. Summing per-client rates keeps the
  /// wait at the end-of-round barrier, which only the benchmark has,
  /// out of the figure: a client the host preempts loses its own time,
  /// not everyone's.
  double Execute(Round* round);

  const std::vector<Client>& clients() const { return clients_; }
  /// Drops the latency samples and trace totals gathered so far.
  void ResetMeasurements();

 private:
  void RunClient(size_t c, Round* round);

  KvIndex* index_;
  bool trace_;
  Crew* crew_;
  std::vector<Client> clients_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
