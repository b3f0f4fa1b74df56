// perfbench: the repository benchmark. Drives a ChameleonIndex serving
// stack through one named workload for a fixed measured time, checks
// every operation against the oracle, and prints one JSON object as the
// last line of stdout:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--fault drop|corrupt]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// wraps every layer boundary in a Span adapter and prints the per-layer
// metrics. README.md describes the workloads and metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/adapters.h"
#include "perfbench/oracle.h"
#include "perfbench/runner.h"
#include "src/api/index_factory.h"
#include "src/core/chameleon_index.h"
#include "src/data/dataset.h"
#include "src/engine/sharded_index.h"
#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"
#include "src/storage/durable_index.h"
#include "src/util/thread_pool.h"
#include "src/workload/op_source.h"
#include "src/workload/workload.h"
#include "src/workload/workload_spec.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using chameleon::DatasetKind;
using chameleon::obs::Counter;
using chameleon::obs::CycleClock;
using chameleon::obs::WritePhase;

enum class StackKind { kPlain, kDurableSharded, kTiered };

struct Workload {
  const char* name;
  DatasetKind dataset;
  size_t keys;
  const char* ops;  // workload-grammar spec (src/workload/workload_spec.h)
  StackKind stack;
  size_t clients;
  size_t round_ops;  // ops generated, executed and checked per round
  // Measured work per second of --seconds, in Mops: about the rate the
  // workload ran at on the reference host, doubled for the one-client
  // tiered load so its few writes give enough latency samples
  // (README.md).
  double work_mops;
};

// Sizes are chosen so each run fits its time budget and its figures
// stay steady across seeds; README.md gives the reasoning and spreads.
constexpr Workload kWorkloads[] = {
    {"skewed_updates", DatasetKind::kFace, 1'000'000,
     "mixed(w=0.5,dist=zipf)", StackKind::kPlain, 4, 400'000, 4.5},
    {"short_scans", DatasetKind::kOsmc, 1'000'000, "ycsb-e",
     StackKind::kPlain, 4, 100'000, 1.5},
    {"durable_sharded", DatasetKind::kOsmc, 1'000'000, "ycsb-a",
     StackKind::kDurableSharded, 4, 100'000, 1.0},
    {"tiered_small_pool", DatasetKind::kOsmc, 1'000'000, "ycsb-b",
     StackKind::kTiered, 1, 175'000, 0.7},
};

// Set-up and restart are each repeated and their medians reported.
constexpr int kSetupRepeats = 5;
constexpr int kRestartRepeats = 7;
// Rounds run before measuring: the first round also grows the
// benchmark's own buffers.
constexpr size_t kWarmupRounds = 1;
// Ops the durable stack logs after its checkpoint, so recovery replays
// a fixed WAL tail whatever the measured throughput was.
constexpr size_t kDurableTailOps = 100'000;
// The key set is fixed, as a SOSD data file would be; --seed drives the
// operation stream. README.md gives the spread a seeded key set adds.
constexpr uint64_t kDatasetSeed = 42;
// 4 KiB pages hold 255 pairs; the pool holds a quarter of the pages.
constexpr size_t kPairsPerPage = 255;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = -1;
  std::string scratch;
  std::string fault;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir> "
               "[--fault drop|corrupt]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--fault") {
      if (value != "drop" && value != "corrupt") Usage("bad --fault");
      args.fault = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || args.seconds <= 0 || args.trace < 0 ||
      args.scratch.empty()) {
    Usage("--workload, --seconds, --trace and --scratch are required");
  }
  return args;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

size_t PoolFrames(const Workload& w) {
  return w.keys / kPairsPerPage / 4;
}

// The stack spec; `traced` puts a Span adapter on every layer boundary.
std::string StackSpec(const Workload& w, const std::string& dir, bool traced,
                      const std::string& fault) {
  const auto span = [&](const char* layer) {
    return traced ? std::string("Span(") + layer + "):" : std::string();
  };
  std::string spec = fault.empty() ? "" : "Fault(" + fault + "):";
  switch (w.stack) {
    case StackKind::kPlain:
      spec += span("core") + "Chameleon";
      break;
    case StackKind::kDurableSharded:
      spec += span("engine") + "Sharded4:" + span("storage") + "Durable(" +
              dir + ",fsync=none):" + span("core") + "Chameleon";
      break;
    case StackKind::kTiered:
      spec += span("tiered") + "Disk(" + dir +
              ",frames=" + std::to_string(PoolFrames(w)) + "):" +
              span("core") + "Chameleon";
      break;
  }
  return spec;
}

std::unique_ptr<KvIndex> Build(const std::string& spec) {
  std::string error;
  std::unique_ptr<KvIndex> index = chameleon::MakeIndex(spec, &error);
  if (index == nullptr) Die("cannot build '" + spec + "': " + error);
  return index;
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The upper quartile of per-round rates. Other tenants of a shared host
// only ever slow a round down, so the faster rounds are the steadier
// estimate of what the program does; the median moved with whatever
// share of a run the host was busy.
double UpperQuartile(std::vector<double> v);

// Linear-interpolated quantile of an ascending vector.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double UpperQuartile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.75);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// Calls fn on every DurableIndex of a stack.
template <typename Fn>
void ForEachDurable(KvIndex* index, const Fn& fn) {
  index = Unwrap(index);
  if (auto* durable = dynamic_cast<chameleon::DurableIndex*>(index)) {
    fn(*durable);
  } else if (auto* sharded = dynamic_cast<chameleon::ShardedIndex*>(index)) {
    for (size_t i = 0; i < sharded->num_shards(); ++i) {
      ForEachDurable(&sharded->shard(i), fn);
    }
  }
}

struct Counters {
  chameleon::obs::CounterSnapshot at{};
  static Counters Now() {
    return {chameleon::obs::StatsRegistry::Get().Snapshot()};
  }
  double Delta(const Counters& before, Counter c) const {
    const size_t i = static_cast<size_t>(c);
    return static_cast<double>(at[i] - before.at[i]);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_[name] = {value, unit};
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (const auto& [name, e] : entries_) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    out.size() > 1 ? ", " : "", name.c_str(), e.value, e.unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    double value;
    const char* unit;
  };
  std::map<std::string, Entry> entries_;
};

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *found;
  const bool traced = args.trace == 1;

  // One pool thread: BulkLoad's fan-out makes set-up time swing with
  // scheduling (README.md, "How a run works"); the durable stack still
  // builds its four shards in parallel on their own threads.
  chameleon::SetGlobalThreads(1);
  RegisterBenchAdapters();
  CycleClock::ToNanos(1);  // calibrate outside any timed section
  const double ns_per_tick =
      static_cast<double>(CycleClock::ToNanos(uint64_t{1} << 32)) /
      static_cast<double>(uint64_t{1} << 32);

  chameleon::WorkloadDesc desc;
  chameleon::WorkloadSpecError spec_error;
  if (!chameleon::ParseWorkloadSpec(w.ops, &desc, &spec_error)) {
    Die(spec_error.Render());
  }
  const bool scans = desc.family == chameleon::WorkloadDesc::Family::kYcsb &&
                     desc.mix.scan > 0;

  const auto run_start = std::chrono::steady_clock::now();
  const std::vector<Key> keys =
      chameleon::GenerateDataset(w.dataset, w.keys, kDatasetSeed);
  const std::vector<KeyValue> data = chameleon::ToKeyValues(keys);

  const std::string dir = args.scratch + "/" + w.name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir + ": " + ec.message());
  const std::string spec = StackSpec(w, dir, traced, args.fault);

  // Set-up: build the stack and bulk-load it, several times.
  std::vector<double> setup_s;
  std::unique_ptr<KvIndex> index;
  for (int r = 0; r < kSetupRepeats; ++r) {
    index.reset();
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    const auto t0 = std::chrono::steady_clock::now();
    index = Build(spec);
    index->BulkLoad(data);
    setup_s.push_back(Seconds(t0));
  }
  double core_build_ns = 0;
  for (const SpanIndex* s : LiveSpans()) {
    if (s->layer() == Layer::kCore) core_build_ns = std::max(core_build_ns, s->build_ns());
  }
  if (w.clients > 1 && !index->EnableConcurrentWrites()) {
    Die("stack does not support concurrent writers: " + spec);
  }

  const double setup_wall = Seconds(run_start);
  Oracle oracle(data, scans);
  chameleon::WorkloadGenerator gen(keys, args.seed * 0x9E3779B97F4A7C15ULL + 7);
  std::unique_ptr<chameleon::OpSource> source =
      chameleon::MakeOpSource(desc, gen, keys);

  Crew crew(std::max<size_t>(w.clients, Oracle::kPartitions));
  Runner runner(index.get(), w.clients, traced, &crew);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::array<uint64_t, kNumOpTypes> ops_by_type{};

  // Restart: brings a fresh stack back from the durable form
  // kRestartRepeats times and checks the last one against the model.
  std::vector<double> recover_s;
  double disk_bytes = 0;
  double disk_keys = 0;
  double replayed = 0;
  bool restart_ok = true;
  auto restart = [&](const std::function<std::unique_ptr<KvIndex>()>& reopen) {
    std::unique_ptr<KvIndex> restarted;
    for (int r = 0; r < kRestartRepeats; ++r) {
      restarted.reset();
      const Counters pre = Counters::Now();
      const auto t0 = std::chrono::steady_clock::now();
      restarted = reopen();
      recover_s.push_back(Seconds(t0));
      if (r == 0) {
        replayed = Counters::Now().Delta(pre, Counter::kWalReplayedRecords);
      }
    }
    ++attempted;
    restart_ok = oracle.CheckContents(DumpContents(*restarted)) == 0;
    failed += restart_ok ? 0 : 1;
  };

  // Size metrics and, for the in-memory stacks, a restart from a native
  // snapshot, taken once the measured rounds are done.
  double bytes_per_key = 0;
  double core_bytes = 0;
  double core_keys = 0;
  auto take_state = [&] {
    bytes_per_key = Ratio(static_cast<double>(index->SizeBytes()),
                          static_cast<double>(index->size()));
    for (const SpanIndex* s : LiveSpans()) {
      if (s->layer() == Layer::kCore) {
        core_bytes += static_cast<double>(s->SizeBytes());
        core_keys += static_cast<double>(s->size());
      }
    }
    if (w.stack != StackKind::kPlain) return;
    const std::string path = dir + "/chameleon.snap";
    auto* core = dynamic_cast<chameleon::ChameleonIndex*>(Unwrap(index.get()));
    if (core == nullptr || !core->SaveTo(path)) Die("snapshot save failed");
    disk_bytes = static_cast<double>(fs::file_size(path, ec));
    disk_keys = static_cast<double>(oracle.size());
    restart([&]() -> std::unique_ptr<KvIndex> {
      auto fresh = std::make_unique<chameleon::ChameleonIndex>();
      if (!fresh->LoadFrom(path)) Die("snapshot load failed");
      return fresh;
    });
  };

  auto fill = [&](Round* r, size_t n) {
    r->ops = chameleon::Drain(*source, n);
    if (r->ops.size() != n) Die("workload stream ran dry");
    Assign(r, w.clients);
  };
  Round rounds[2];
  Round* cur = &rounds[0];
  Round* next = &rounds[1];
  fill(cur, w.round_ops);

  // A run is a fixed amount of work: --seconds times the workload's
  // work_mops operations, in whole rounds, after warm-up rounds
  // that are executed and checked but not measured. Fixed work keeps
  // the index state at every point of the run independent of how fast
  // the program is. Only Execute is timed; the next round is generated
  // while the last one is checked.
  const size_t measured_rounds = std::max<size_t>(
      1, static_cast<size_t>(std::llround(args.seconds * w.work_mops * 1e6 /
                                          static_cast<double>(w.round_ops))));
  Counters before;
  std::vector<double> round_mops;
  for (size_t r = 0; r < kWarmupRounds + measured_rounds; ++r) {
    if (r == kWarmupRounds) {
      runner.ResetMeasurements();
      before = Counters::Now();
      chameleon::obs::ResetPhaseHistograms();
    }
    const double ops_per_s = runner.Execute(cur);
    if (r >= kWarmupRounds) {
      round_mops.push_back(ops_per_s * 1e-6);
      for (const Operation& op : cur->ops) {
        ++ops_by_type[static_cast<size_t>(op.type)];
      }
    }
    attempted += cur->ops.size();
    const bool more = r + 1 < kWarmupRounds + measured_rounds;
    std::thread generator;
    if (more) generator = std::thread([&] { fill(next, w.round_ops); });
    failed += oracle.CheckRound(*cur, runner.clients(), &crew);
    if (!more) break;
    generator.join();
    std::swap(cur, next);
  }
  const Counters after = Counters::Now();
  take_state();
  const double measured_wall = Seconds(run_start);
  std::vector<double> shard_calls;
  for (const SpanIndex* s : LiveSpans()) {
    if (s->layer() == Layer::kStorage) {
      shard_calls.push_back(static_cast<double>(s->sampled_calls()));
    }
  }
  std::vector<double> shard_keys;
  if (auto* sharded = dynamic_cast<chameleon::ShardedIndex*>(Unwrap(index.get()))) {
    for (size_t i = 0; i < sharded->num_shards(); ++i) {
      shard_keys.push_back(static_cast<double>(sharded->shard(i).size()));
    }
  }
  const double pages_file_bytes =
      w.stack == StackKind::kTiered
          ? static_cast<double>(fs::file_size(dir + "/main.pages", ec))
          : 0.0;
  auto phase_sum_ns = [](WritePhase p) {
    const auto& h = chameleon::obs::PhaseHistogram(p);
    return h.MeanNanos() * static_cast<double>(h.count());
  };
  auto phase_mean_ns = [](WritePhase p) {
    return chameleon::obs::PhaseHistogram(p).MeanNanos();
  };
  const double merge_ns = phase_sum_ns(WritePhase::kMergeScan) +
                          phase_sum_ns(WritePhase::kMergeWrite) +
                          phase_sum_ns(WritePhase::kMergeInstall);
  const double wal_append_ns = phase_mean_ns(WritePhase::kWalAppend);
  const double commit_wait_ns = phase_mean_ns(WritePhase::kGroupCommitWait);
  const double fsync_ns = phase_mean_ns(WritePhase::kFsync);

  // The durable stack checkpoints and logs a fixed tail, so that
  // recovery replays the same amount of WAL in every run.
  if (w.stack == StackKind::kDurableSharded) {
    bool ok = true;
    ForEachDurable(index.get(), [&](chameleon::DurableIndex& d) {
      ok = d.Checkpoint() && ok;
    });
    if (!ok) Die("checkpoint failed");
    Runner tail(index.get(), w.clients, false, &crew);
    fill(cur, kDurableTailOps);
    tail.Execute(cur);
    attempted += cur->ops.size();
    failed += oracle.CheckRound(*cur, tail.clients(), &crew);
  }

  ++attempted;
  const bool final_ok = oracle.CheckContents(DumpContents(*index)) == 0;
  failed += final_ok ? 0 : 1;

  // The durable and tiered stacks restart with Recover() from the
  // directory they leave when closed.
  if (w.stack != StackKind::kPlain) {
    index.reset();  // closes the WAL / merges the delta into the page run
    disk_bytes = static_cast<double>(DirBytes(dir));
    disk_keys = static_cast<double>(oracle.size());
    restart([&] {
      std::unique_ptr<KvIndex> fresh = Build(spec);
      if (!fresh->Recover()) Die("Recover() failed");
      return fresh;
    });
  }
  const double live_keys = static_cast<double>(oracle.size());
  index.reset();
  fs::remove_all(dir, ec);

  // Latency from the sampled operations.
  std::vector<double> read_ns;
  std::vector<double> write_ns;
  TraceTotals tt;
  for (const Client& c : runner.clients()) {
    for (const Sample& s : c.samples) {
      const double ns = static_cast<double>(s.ticks) * ns_per_tick;
      (chameleon::IsWriteOp(s.type) ? write_ns : read_ns).push_back(ns);
    }
    tt.Add(c.trace);
  }
  std::sort(read_ns.begin(), read_ns.end());
  std::sort(write_ns.begin(), write_ns.end());

  Metrics m;
  if (!traced) {
    m.Add("throughput_mops", UpperQuartile(round_mops), "Mops/s");
    m.Add("read_p50_ns", Quantile(read_ns, 0.50), "ns");
    m.Add("read_p99_ns", Quantile(read_ns, 0.99), "ns");
    m.Add("write_p50_ns", Quantile(write_ns, 0.50), "ns");
    m.Add("write_p99_ns", Quantile(write_ns, 0.99), "ns");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("bytes_per_key", bytes_per_key, "B");
    m.Add("recover_s", Median(recover_s), "s");
    m.Add("disk_bytes_per_key", Ratio(disk_bytes, disk_keys), "B");
  } else {
    constexpr size_t kL = static_cast<size_t>(OpType::kLookup);
    constexpr size_t kS = static_cast<size_t>(OpType::kScan);
    const size_t core = static_cast<size_t>(Layer::kCore);
    const size_t engine = static_cast<size_t>(Layer::kEngine);
    const size_t storage = static_cast<size_t>(Layer::kStorage);
    const size_t tiered = static_cast<size_t>(Layer::kTiered);
    const OpType kWrites[] = {OpType::kInsert, OpType::kErase, OpType::kUpdate};
    auto ns = [&](uint64_t ticks) { return static_cast<double>(ticks) * ns_per_tick; };
    // Sum over write op types of a layer's span ticks or calls.
    auto write_ticks = [&](size_t layer) {
      uint64_t s = 0;
      for (OpType t : kWrites) s += tt.ticks[static_cast<size_t>(t)][layer];
      return s;
    };
    auto write_calls = [&](size_t layer) {
      uint64_t s = 0;
      for (OpType t : kWrites) s += tt.calls[static_cast<size_t>(t)][layer];
      return s;
    };
    // The outermost traced layer of this stack.
    const size_t outer = w.stack == StackKind::kDurableSharded ? engine
                         : w.stack == StackKind::kTiered      ? tiered
                                                              : core;
    uint64_t outer_ticks = 0, client_ticks = 0, sampled_ops = 0;
    uint64_t engine_self = 0;
    for (size_t t = 0; t < kNumOpTypes; ++t) {
      outer_ticks += tt.ticks[t][outer];
      client_ticks += tt.client_ticks[t];
      sampled_ops += tt.ops[t];
      if (w.stack == StackKind::kDurableSharded) {
        engine_self += tt.ticks[t][engine] - tt.ticks[t][storage];
      }
    }
    const double d_lookups = after.Delta(before, Counter::kLookups);
    const double d_inserts = after.Delta(before, Counter::kInserts);
    const double d_erases = after.Delta(before, Counter::kErases);
    const double d_appends = after.Delta(before, Counter::kWalAppends);
    const double hits = after.Delta(before, Counter::kTieredPoolHits);
    const double misses = after.Delta(before, Counter::kTieredPoolMisses);
    const double merges = after.Delta(before, Counter::kTieredMerges);
    const double lookups = static_cast<double>(ops_by_type[kL]);
    const double writes = static_cast<double>(
        ops_by_type[static_cast<size_t>(OpType::kInsert)] +
        ops_by_type[static_cast<size_t>(OpType::kErase)] +
        ops_by_type[static_cast<size_t>(OpType::kUpdate)]);
    auto imbalance = [](const std::vector<double>& v) {
      double sum = 0, mx = 0;
      for (double x : v) { sum += x; mx = std::max(mx, x); }
      return sum > 0 ? mx / (sum / static_cast<double>(v.size())) : 0.0;
    };

    m.Add("trace.throughput_mops", UpperQuartile(round_mops), "Mops/s");
    m.Add("trace.sampled_ops", static_cast<double>(sampled_ops), "count");
    m.Add("trace.outer_share", Ratio(static_cast<double>(outer_ticks),
                                     static_cast<double>(client_ticks)), "ratio");
    m.Add("trace.client_self_ns",
          Ratio(ns(client_ticks - outer_ticks), static_cast<double>(sampled_ops)), "ns");
    m.Add("base.lookups", lookups, "count");
    m.Add("base.writes", writes, "count");
    m.Add("base.scans", static_cast<double>(ops_by_type[kS]), "count");

    m.Add("core.lookup_ns", Ratio(ns(tt.ticks[kL][core]),
                                  static_cast<double>(tt.calls[kL][core])), "ns");
    m.Add("core.write_ns", Ratio(ns(write_ticks(core)),
                                 static_cast<double>(write_calls(core))), "ns");
    m.Add("core.scan_ns_per_key", Ratio(ns(tt.ticks[kS][core]),
                                        static_cast<double>(tt.scan_keys)), "ns");
    m.Add("core.scan_keys_per_scan", Ratio(static_cast<double>(tt.scan_keys),
                                           static_cast<double>(tt.ops[kS])), "count");
    m.Add("core.probe_steps_per_lookup",
          Ratio(after.Delta(before, Counter::kEbhProbeSteps), d_lookups), "count");
    m.Add("core.shifts_per_insert",
          Ratio(after.Delta(before, Counter::kEbhShifts), d_inserts), "count");
    m.Add("core.expansions", after.Delta(before, Counter::kEbhExpansions), "count");
    m.Add("core.node_splits", after.Delta(before, Counter::kNodeSplits), "count");
    m.Add("core.lock_waits_per_write",
          Ratio(after.Delta(before, Counter::kIntervalLockWriteWaits),
                d_inserts + d_erases), "count");
    m.Add("core.query_lock_spins_per_lookup",
          Ratio(after.Delta(before, Counter::kQueryLockSpins), d_lookups), "count");
    m.Add("core.lookups", d_lookups, "count");
    m.Add("core.writes", d_inserts + d_erases, "count");
    m.Add("core.build_s", core_build_ns * 1e-9, "s");
    m.Add("core.bytes_per_key", Ratio(core_bytes, core_keys), "B");

    m.Add("engine.self_ns", Ratio(ns(engine_self), static_cast<double>(sampled_ops)), "ns");
    m.Add("engine.shard_imbalance", imbalance(shard_calls), "ratio");
    m.Add("engine.shard_key_imbalance", imbalance(shard_keys), "ratio");

    const bool has_storage = w.stack == StackKind::kDurableSharded;
    m.Add("storage.write_self_ns",
          has_storage ? Ratio(ns(write_ticks(storage) - write_ticks(core)),
                              static_cast<double>(write_calls(storage)))
                      : 0.0, "ns");
    m.Add("storage.wal_append_ns", wal_append_ns, "ns");
    m.Add("storage.commit_wait_ns", commit_wait_ns, "ns");
    m.Add("storage.fsync_ns", fsync_ns, "ns");
    m.Add("storage.wal_appends", d_appends, "count");
    m.Add("storage.wal_bytes_per_write",
          Ratio(after.Delta(before, Counter::kWalBytes), d_appends), "B");
    m.Add("storage.fsyncs_per_write",
          Ratio(after.Delta(before, Counter::kWalFsyncs), d_appends), "count");
    m.Add("storage.replayed_records", replayed, "count");

    const bool has_tiered = w.stack == StackKind::kTiered;
    m.Add("tiered.lookup_self_ns",
          has_tiered ? Ratio(ns(tt.ticks[kL][tiered] - tt.ticks[kL][core]),
                             static_cast<double>(tt.calls[kL][tiered]))
                     : 0.0, "ns");
    m.Add("tiered.write_self_ns",
          has_tiered ? Ratio(ns(write_ticks(tiered) - write_ticks(core)),
                             static_cast<double>(write_calls(tiered)))
                     : 0.0, "ns");
    m.Add("tiered.pool_hit_ratio", Ratio(hits, hits + misses), "ratio");
    m.Add("tiered.pool_accesses", hits + misses, "count");
    m.Add("tiered.page_reads_per_lookup",
          has_tiered ? Ratio(after.Delta(before, Counter::kTieredPageReads), lookups) : 0.0,
          "count");
    m.Add("tiered.evictions_per_lookup",
          has_tiered ? Ratio(after.Delta(before, Counter::kTieredPageEvictions), lookups)
                     : 0.0, "count");
    m.Add("tiered.merges", merges, "count");
    m.Add("tiered.merge_ns", Ratio(merge_ns, merges), "ns");
    m.Add("tiered.file_bytes_per_key", Ratio(pages_file_bytes, live_keys), "B");
  }

  std::fprintf(stderr,
               "perfbench: %s seed=%" PRIu64 " measured rounds=%zu "
               "attempted=%" PRIu64 " failed=%" PRIu64 " spec=%s\n"
               "perfbench: wall clock: set-up done %.2fs, measured phase done "
               "%.2fs, run done %.2fs\n",
               w.name, args.seed, round_mops.size(), attempted, failed,
               spec.c_str(), setup_wall, measured_wall, Seconds(run_start));
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              final_ok && restart_ok ? "true" : "false", attempted, failed,
              m.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
