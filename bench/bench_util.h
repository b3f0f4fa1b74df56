#ifndef CHAMELEON_BENCH_BENCH_UTIL_H_
#define CHAMELEON_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/index_factory.h"
#include "src/api/kv_index.h"
#include "src/data/dataset.h"
#include "src/engine/sharded_index.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/metrics_sampler.h"
#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"
#include "src/obs/trace_journal.h"
#include "src/simd/probe_kernel.h"
#include "src/util/crc32c.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"
#include "src/workload/workload_spec.h"

// Build provenance baked in by the top-level CMakeLists (configure-time
// `git rev-parse`; stale across commits without a reconfigure, which CI
// never does). The fallbacks keep ad-hoc compiles working.
#ifndef CHAMELEON_GIT_SHA
#define CHAMELEON_GIT_SHA "unknown"
#endif
#ifndef CHAMELEON_BUILD_TYPE
#define CHAMELEON_BUILD_TYPE "unknown"
#endif

namespace chameleon::bench {

/// Compiler identification for the JSON "build" block.
inline std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Common options for the figure/table harnesses. Every binary accepts:
///   --scale=N      base dataset cardinality (default 200'000; the paper
///                  uses 200M — results scale in shape, not absolutes)
///   --ops=N        operations per measurement (default 100'000)
///   --seed=N       RNG seed
///   --json=PATH    write a machine-readable result blob (throughput,
///                  latency percentiles, counter snapshot) to PATH
///   --trace=PATH   dump the obs::TraceJournal as JSONL to PATH (benches
///                  that enable the journal; see bench_fig14_retraining)
///   --threads=N    thread-pool width for construction/retraining (0 =
///                  CHAMELEON_THREADS env or hardware concurrency)
///   --batch=N      issue kLookup runs through LookupBatch in groups of
///                  N (1 = per-key Lookup; benches that replay)
///   --spec=STACK   deployment adapter stack wrapped around every index
///                  the bench sweeps, as a ':'-separated adapter chain
///                  (the swept index name is appended as the leaf):
///                  --spec='Sharded4' or
///                  --spec='Sharded2:Durable(/tmp/d,fsync=everyN)'.
///                  Parsed and canonicalized up front; a bad stack
///                  prints the spec grammar and exits.
///   --shards=N     sugar for prepending "Sharded<N>" to --spec (1 =
///                  the plain stack, bit-identical to the historical
///                  single-index path)
///   --rthreads=R   foreground replay threads (driver layer). Read-only
///                  replays fan out over contiguous chunks; write-bearing
///                  replays use R too (effective write threads =
///                  max(--wthreads, --rthreads)) when the composed stack
///                  supports concurrent writes — the driver partitions
///                  the stream by key ownership so results stay
///                  oracle-equivalent to a serial replay. Stacks that
///                  do not support concurrent writes fail loudly
///                  (RequireConcurrentWritesOrDie) or are skipped by
///                  sweep benches with a notice — never silently
///                  single-threaded.
///   --wthreads=W   explicit write-side thread count for write-bearing
///                  replays (default 1). Effective write threads =
///                  max(W, R); keeping the two flags separate lets a
///                  bench scale its read phases without forcing its
///                  write phases multi-threaded.
///   --warmup=N     leading ops replayed untimed before measurement
///   --series=PATH  run the obs::MetricsSampler for the duration of the
///                  bench and flush its time series (counters, histogram
///                  digests, unit heatmaps — one JSONL line per tick) to
///                  PATH at exit
///   --sample-ms=N  sampler tick period in milliseconds (default 100)
///   --workload=SPEC
///                  override the bench's built-in operation mix with a
///                  workload-grammar spec (src/workload/workload_spec.h):
///                  e.g. --workload='ycsb-a(zipf=0.99)' or
///                  --workload='mixed(w=0.2,dist=hotspot(width=5%,period=1M))'.
///                  Parsed and canonicalized up front (bad specs print
///                  the workload grammar and exit 2); the canonical spec
///                  is echoed in the JSON blob. Benches whose sweep
///                  variable IS the workload (fig09's theta, fig11's
///                  write ratio, fig12's update ratio) replace their
///                  whole sweep with the single requested workload.
///
/// Flag plumbing is table-driven (kFlagTable): adding one entry lands
/// the flag in every harness at once — IsHarnessFlag, Parse, ParseStrip
/// and --help all walk the same table, so a flag can never be parsed in
/// some binaries and silently ignored in others.
struct Options {
  size_t scale = 200'000;
  size_t ops = 100'000;
  uint64_t seed = 42;
  size_t threads = 0;
  size_t batch = 1;
  size_t shards = 1;
  size_t rthreads = 1;
  size_t wthreads = 1;
  size_t warmup = 0;
  size_t sample_ms = 100;
  /// Canonicalized adapter stack every swept index is wrapped in
  /// (includes the --shards sugar); "" = plain indexes.
  std::string spec;
  /// Canonicalized --workload override ("" = the bench's built-in mix).
  std::string workload;
  std::string json_path;
  std::string trace_path;
  std::string series_path;

 private:
  static bool ParseU64(const char* s, unsigned long long* out) {
    char* end = nullptr;
    errno = 0;
    *out = std::strtoull(s, &end, 10);
    return end != s && *end == '\0' && errno == 0;
  }
  template <bool kMinOne>
  static bool ApplySize(const char* v, size_t* field) {
    unsigned long long n = 0;
    if (!ParseU64(v, &n)) return false;
    *field = kMinOne && n == 0 ? 1 : static_cast<size_t>(n);
    return true;
  }

  struct FlagDef {
    const char* prefix;  // "--scale=" — value text follows the '='
    bool (*apply)(Options&, const char* value);
  };
  /// The one flag table every harness shares.
  static std::span<const FlagDef> FlagTable() {
    static constexpr FlagDef kFlagTable[] = {
        {"--scale=",
         [](Options& o, const char* v) { return ApplySize<false>(v, &o.scale); }},
        {"--ops=",
         [](Options& o, const char* v) { return ApplySize<false>(v, &o.ops); }},
        {"--seed=",
         [](Options& o, const char* v) {
           unsigned long long n = 0;
           if (!ParseU64(v, &n)) return false;
           o.seed = n;
           return true;
         }},
        {"--threads=",
         [](Options& o, const char* v) { return ApplySize<false>(v, &o.threads); }},
        {"--batch=",
         [](Options& o, const char* v) { return ApplySize<true>(v, &o.batch); }},
        {"--shards=",
         [](Options& o, const char* v) { return ApplySize<true>(v, &o.shards); }},
        {"--rthreads=",
         [](Options& o, const char* v) { return ApplySize<true>(v, &o.rthreads); }},
        {"--wthreads=",
         [](Options& o, const char* v) { return ApplySize<true>(v, &o.wthreads); }},
        {"--warmup=",
         [](Options& o, const char* v) { return ApplySize<false>(v, &o.warmup); }},
        {"--sample-ms=",
         [](Options& o, const char* v) { return ApplySize<true>(v, &o.sample_ms); }},
        {"--json=",
         [](Options& o, const char* v) { o.json_path = v; return true; }},
        {"--trace=",
         [](Options& o, const char* v) { o.trace_path = v; return true; }},
        {"--series=",
         [](Options& o, const char* v) { o.series_path = v; return true; }},
        {"--spec=",
         [](Options& o, const char* v) { o.spec = v; return true; }},
        {"--workload=",
         [](Options& o, const char* v) { o.workload = v; return true; }},
    };
    return kFlagTable;
  }

 public:
  static bool IsHarnessFlag(const char* arg) {
    for (const FlagDef& flag : FlagTable()) {
      if (std::strncmp(arg, flag.prefix, std::strlen(flag.prefix)) == 0) {
        return true;
      }
    }
    return std::strcmp(arg, "--help") == 0;
  }

  static Options Parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--help") == 0) {
        std::string flags = "options:";
        for (const FlagDef& flag : FlagTable()) {
          flags += " ";
          flags += flag.prefix;
          flags += "...";
        }
        std::printf("%s\n\n%s\n%s", flags.c_str(),
                    IndexSpecGrammarHelp().c_str(),
                    WorkloadGrammarHelp().c_str());
        std::exit(0);
      }
      for (const FlagDef& flag : FlagTable()) {
        const size_t len = std::strlen(flag.prefix);
        if (std::strncmp(argv[i], flag.prefix, len) != 0) continue;
        if (!flag.apply(opt, argv[i] + len)) {
          std::fprintf(stderr, "ERROR: bad value in \"%s\"\n", argv[i]);
          std::exit(2);
        }
        break;
      }
    }
    // --shards=N is sugar for an outermost Sharded<N> adapter; it folds
    // into the unified spec so there is exactly one composition path.
    if (opt.shards > 1) {
      opt.spec = "Sharded" + std::to_string(opt.shards) +
                 (opt.spec.empty() ? "" : ":" + opt.spec);
    }
    if (!opt.spec.empty()) {
      std::string error;
      const std::string canonical = CanonicalAdapterStack(opt.spec, &error);
      if (canonical.empty()) {
        std::fprintf(stderr, "ERROR: bad --spec \"%s\": %s\n%s",
                     opt.spec.c_str(), error.c_str(),
                     IndexSpecGrammarHelp().c_str());
        std::exit(2);
      }
      opt.spec = canonical;
    }
    if (!opt.workload.empty()) {
      WorkloadDesc desc;
      WorkloadSpecError error;
      if (!ParseWorkloadSpec(opt.workload, &desc, &error)) {
        std::fprintf(stderr, "ERROR: bad --workload \"%s\": %s\n%s",
                     opt.workload.c_str(), error.Render().c_str(),
                     WorkloadGrammarHelp().c_str());
        std::exit(2);
      }
      opt.workload = desc.Canonical();
    }
    // Resize the global pool up front, before any index construction.
    if (opt.threads > 0) SetGlobalThreads(opt.threads);
    return opt;
  }

  /// Parse() plus removal of recognized flags from argv, for binaries
  /// that forward the remaining arguments to another flag parser
  /// (bench_tab03_complexity hands them to Google Benchmark).
  static Options ParseStrip(int* argc, char** argv) {
    const Options opt = Parse(*argc, argv);
    int kept = 1;
    for (int i = 1; i < *argc; ++i) {
      if (!IsHarnessFlag(argv[i])) argv[kept++] = argv[i];
    }
    *argc = kept;
    return opt;
  }
};

/// Full spec string for one swept index under the current options: the
/// canonical --spec adapter stack (with the --shards sugar folded in)
/// wrapped around `name`.
inline std::string ComposeSpec(std::string_view name, const Options& opt) {
  return opt.spec.empty() ? std::string(name)
                          : opt.spec + ":" + std::string(name);
}

/// The spec every JSON blob echoes: the canonical adapter stack with a
/// "<index>" placeholder leaf (benches sweep many leaves per run).
inline std::string SpecPattern(const Options& opt) {
  return opt.spec.empty() ? std::string("<index>") : opt.spec + ":<index>";
}

/// The workload descriptor a bench should drive: the canonical
/// --workload override when given, otherwise the bench's built-in
/// default spec. Both paths go through the parser, so a bench's default
/// is guaranteed expressible in the grammar (and the echoed canonical
/// spec always reflects what actually ran).
inline WorkloadDesc ResolveWorkload(const Options& opt,
                                    std::string_view default_spec) {
  const std::string_view spec =
      opt.workload.empty() ? default_spec : std::string_view(opt.workload);
  WorkloadDesc desc;
  WorkloadSpecError error;
  if (!ParseWorkloadSpec(spec, &desc, &error)) {
    std::fprintf(stderr, "ERROR: bad workload spec \"%.*s\": %s\n%s",
                 static_cast<int>(spec.size()), spec.data(),
                 error.Render().c_str(), WorkloadGrammarHelp().c_str());
    std::exit(2);
  }
  return desc;
}

/// MakeIndex that cannot fail silently: on a bad spec, prints the
/// parser's position-accurate error plus the spec grammar and valid
/// base-index names, then exits. Benches use this everywhere so a typo
/// in --index/--spec never turns into a nullptr crash.
inline std::unique_ptr<KvIndex> MakeIndexOrDie(std::string_view spec) {
  std::string error;
  std::unique_ptr<KvIndex> index = MakeIndex(spec, &error);
  if (index == nullptr) {
    std::fprintf(stderr, "ERROR: cannot build index \"%.*s\": %s\n%s",
                 static_cast<int>(spec.size()), spec.data(), error.c_str(),
                 IndexSpecGrammarHelp().c_str());
    std::exit(2);
  }
  return index;
}

/// Creates the index a bench drives for `name` under the current
/// options: `name` wrapped in the --spec adapter stack (which includes
/// the --shards sugar). Dies loudly on an invalid composition.
inline std::unique_ptr<KvIndex> MakeBenchIndex(std::string_view name,
                                               const Options& opt) {
  return MakeIndexOrDie(ComposeSpec(name, opt));
}

/// Replay options for this bench's read-only replays: R = --rthreads
/// driver threads, --batch lookup batching, --warmup untimed lead-in.
inline ReplayOptions ReadReplayOptions(const Options& opt) {
  ReplayOptions ro;
  ro.threads = opt.rthreads;
  ro.batch = opt.batch;
  ro.warmup = opt.warmup;
  return ro;
}

/// Effective driver threads for a write-bearing replay: a mixed stream
/// is replayed on max(--wthreads, --rthreads) threads, so either flag
/// alone scales the whole replay and neither silently caps the other.
inline size_t WriteThreads(const Options& opt) {
  return std::max(opt.wthreads, opt.rthreads);
}

/// Replay options for write-bearing replays: WriteThreads(opt) driver
/// threads (the driver partitions by key ownership and enables the
/// stack's concurrent-write mode when > 1), --batch still applies to
/// lookup runs within each thread's owned stream.
inline ReplayOptions WriteReplayOptions(const Options& opt) {
  ReplayOptions ro;
  ro.threads = WriteThreads(opt);
  ro.batch = opt.batch;
  ro.warmup = opt.warmup;
  return ro;
}

/// True when a multi-threaded write-bearing replay was requested but
/// `index` cannot take concurrent writers. Sweep benches (fig11, fig13)
/// use this per swept index: unsupported stacks are skipped with a
/// printed notice so the supported rows still run under the requested
/// threading — and the run fails loudly only if *nothing* supported it.
inline bool LacksConcurrentWrites(const KvIndex& index, const Options& opt) {
  return WriteThreads(opt) > 1 && !index.SupportsConcurrentWrites();
}

/// Capability gate for single-stack tools: fails loudly (exit 2) when a
/// multi-threaded write-bearing replay was requested against a stack
/// that cannot accept concurrent writers. A silently single-threaded
/// run is worse than no run — its numbers look like an R-thread result.
/// Replaces the old hardcoded RejectRthreadsOnWrites name lists: the
/// stack itself is asked (KvIndex::SupportsConcurrentWrites), so new
/// capable indexes work without harness edits and incapable ones can
/// never slip through. Mirrors the fig10 bad --index pattern.
inline void RequireConcurrentWritesOrDie(const KvIndex& index,
                                         const Options& opt, const char* bench,
                                         const char* detail) {
  if (!LacksConcurrentWrites(index, opt)) return;
  std::fprintf(stderr,
               "ERROR: %s replays a write-bearing stream on %zu threads, "
               "but \"%.*s\" does not support concurrent writes\n  %s\n  "
               "Drop --rthreads/--wthreads, or pick a stack whose "
               "SupportsConcurrentWrites() is true (e.g. Chameleon, "
               "including under Durable/Sharded adapters).\n",
               bench, WriteThreads(opt),
               static_cast<int>(index.Name().size()), index.Name().data(),
               detail);
  std::exit(2);
}

/// Replays `ops` against `index` and returns mean ns/op. Lookups verify
/// hits (a miss warns — the workload generator guarantees validity).
/// With `hist` non-null every operation is timed individually into the
/// histogram (the mean then includes ~2 clock reads per op of overhead);
/// with hist == nullptr the whole batch is timed with two clock reads.
///
/// Thin wrapper over the driver layer (src/workload/driver.h) in its
/// single-threaded mode — the replay loop itself is unchanged, so
/// numbers stay comparable with pre-driver BENCH blobs.
inline double ReplayMeanNs(KvIndex* index, const std::vector<Operation>& ops,
                           obs::LatencyHistogram* hist = nullptr) {
  return Replay(index, ops, ReplayOptions{}, hist).MeanNs();
}

/// Mops/s for the same replay.
inline double ReplayThroughputMops(KvIndex* index,
                                   const std::vector<Operation>& ops,
                                   obs::LatencyHistogram* hist = nullptr) {
  const double ns_per_op = ReplayMeanNs(index, ops, hist);
  return ns_per_op > 0.0 ? 1e3 / ns_per_op : 0.0;
}

/// ReplayMeanNs variant that feeds maximal runs of consecutive kLookup
/// operations through KvIndex::LookupBatch in groups of `batch` (inserts
/// and erases still execute one at a time, in order). Thin wrapper over
/// the driver's batched single-threaded mode; see driver.h for the
/// timing symmetry between the two modes.
inline double ReplayMeanNsBatched(KvIndex* index,
                                  const std::vector<Operation>& ops,
                                  size_t batch,
                                  obs::LatencyHistogram* hist = nullptr) {
  ReplayOptions ro;
  ro.batch = batch;
  return Replay(index, ops, ro, hist).MeanNs();
}

inline double ToMiB(size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// --- Machine-readable results (--json=PATH) ---------------------------------

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Collects one bench run's results and writes the `--json=PATH` blob:
///
///   {
///     "bench": "...", "scale": N, "ops": N, "seed": N,
///     "threads": N, "batch": N, "shards": N, "rthreads": N,
///     "spec": "Sharded4:Durable(...):<index>",  // canonical adapter
///                                               // stack per swept index
///     "throughput_mops": X,              // from the latency histogram
///     "latency_ns": {"count","mean","p50","p90","p99","p999","max"},
///     "rows": [ {bench-specific fields}, ... ],
///     "counters": { "<CounterName>": total, ... }   // full registry
///   }
///
/// Successive PRs diff these blobs (collected as BENCH_*.json, see
/// EXPERIMENTS.md) to track perf over time. Usage: construct one report
/// per binary, pass `lat()` to the replay helpers (null when --json is
/// absent, so default runs keep batch timing), AddRow() per table cell,
/// and Write() before exit.
class JsonReport {
 public:
  class Row {
   public:
    Row& Num(std::string_view key, double v) {
      fields_.push_back({std::string(key), true, v, {}});
      return *this;
    }
    Row& Str(std::string_view key, std::string_view v) {
      fields_.push_back({std::string(key), false, 0.0, std::string(v)});
      return *this;
    }

   private:
    friend class JsonReport;
    struct Field {
      std::string key;
      bool is_num;
      double num;
      std::string str;
    };
    std::vector<Field> fields_;
  };

  JsonReport(std::string_view bench, const Options& opt)
      : bench_(bench), opt_(opt) {
    if (!opt_.series_path.empty()) {
      obs::SamplerOptions so;
      so.interval = std::chrono::milliseconds(opt_.sample_ms);
      sampler_ = std::make_unique<obs::MetricsSampler>(so);
      // Calibrate the cycle clock up front so the first phase span of
      // the measured run never pays the ~2ms calibration spin.
      obs::CycleClock::ToNanos(0);
      sampler_->Start();
    }
  }

  bool enabled() const { return !opt_.json_path.empty(); }

  /// Histogram to feed measured per-op latencies into; null when --json
  /// was not requested (callers pass it straight to ReplayMeanNs).
  obs::LatencyHistogram* lat() { return enabled() ? &lat_ : nullptr; }
  obs::LatencyHistogram& histogram() { return lat_; }

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Flushes telemetry sinks (sampler series, trace journal) and writes
  /// the blob to --json=PATH (a no-op without that flag). Returns false
  /// and warns on I/O error. Telemetry flushing lives here — the one
  /// call every harness already makes — so --series and --trace can
  /// never drift out of a binary the way DumpTraceIfRequested once did
  /// (PR 6 found 13 of 16 harnesses parsing --trace but never dumping).
  bool Write() {
    FinishTelemetry();
    if (!enabled()) return true;
    FILE* f = std::fopen(opt_.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "WARNING: cannot write --json=%s\n",
                   opt_.json_path.c_str());
      return false;
    }
    const double mean = lat_.MeanNanos();
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"scale\": %zu,\n"
                 "  \"ops\": %zu,\n"
                 "  \"seed\": %llu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"batch\": %zu,\n"
                 "  \"shards\": %zu,\n"
                 "  \"rthreads\": %zu,\n"
                 "  \"wthreads\": %zu,\n"
                 "  \"sample_ms\": %zu,\n"
                 "  \"spec\": \"%s\",\n",
                 JsonEscape(bench_).c_str(), opt_.scale, opt_.ops,
                 static_cast<unsigned long long>(opt_.seed),
                 GlobalPool().num_threads(), opt_.batch, opt_.shards,
                 opt_.rthreads, opt_.wthreads, opt_.sample_ms,
                 JsonEscape(SpecPattern(opt_)).c_str());
    // Canonical workload spec (set by benches through SetWorkload, or
    // from --workload): fully self-describing — every default filled in
    // — so a blob can be reproduced without knowing the harness's
    // built-in mix.
    if (!workload_.empty()) {
      std::fprintf(f, "  \"workload\": \"%s\",\n",
                   JsonEscape(workload_).c_str());
    }
    // Build provenance: every perf blob is attributable to an exact
    // source revision, compiler, and instrumentation state. simd_kernel
    // and crc32c record the probe-kernel tier and checksum path the run
    // actually dispatched to (cpuid + CHAMELEON_SIMD_LEVEL at runtime,
    // not just what was compiled in) — perf diffs across hosts are
    // meaningless without them.
    std::fprintf(f,
                 "  \"build\": {\"git_sha\": \"%s\", \"compiler\": \"%s\", "
                 "\"build_type\": \"%s\", \"seed\": %llu, \"no_stats\": %s, "
                 "\"simd_kernel\": \"%s\", \"crc32c\": \"%s\"},\n",
                 JsonEscape(CHAMELEON_GIT_SHA).c_str(),
                 JsonEscape(CompilerString()).c_str(),
                 JsonEscape(CHAMELEON_BUILD_TYPE).c_str(),
                 static_cast<unsigned long long>(opt_.seed),
#ifdef CHAMELEON_NO_STATS
                 "true",
#else
                 "false",
#endif
                 JsonEscape(simd::SimdLevelName(simd::ActiveSimdLevel()))
                     .c_str(),
                 Crc32cImplementation());
    std::fprintf(f, "  \"throughput_mops\": %.6g,\n",
                 mean > 0.0 ? 1e3 / mean : 0.0);
    std::fprintf(f,
                 "  \"latency_ns\": {\"count\": %llu, \"mean\": %.6g, "
                 "\"p50\": %.6g, \"p90\": %.6g, \"p99\": %.6g, "
                 "\"p999\": %.6g, \"max\": %.6g},\n",
                 static_cast<unsigned long long>(lat_.count()), mean,
                 lat_.PercentileNanos(50), lat_.PercentileNanos(90),
                 lat_.PercentileNanos(99), lat_.PercentileNanos(99.9),
                 lat_.MaxNanos());
    std::fprintf(f, "  \"rows\": [");
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n    {", r == 0 ? "" : ",");
      const auto& fields = rows_[r].fields_;
      for (size_t i = 0; i < fields.size(); ++i) {
        const auto& field = fields[i];
        if (field.is_num) {
          std::fprintf(f, "%s\"%s\": %.6g", i == 0 ? "" : ", ",
                       JsonEscape(field.key).c_str(), field.num);
        } else {
          std::fprintf(f, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                       JsonEscape(field.key).c_str(),
                       JsonEscape(field.str).c_str());
        }
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "%s],\n", rows_.empty() ? "" : "\n  ");
    const obs::CounterSnapshot snap = obs::StatsRegistry::Get().Snapshot();
    std::fprintf(f, "  \"counters\": {");
    for (size_t i = 0; i < obs::kNumCounters; ++i) {
      const std::string_view name =
          obs::CounterName(static_cast<obs::Counter>(i));
      std::fprintf(f, "%s\n    \"%.*s\": %llu", i == 0 ? "" : ",",
                   static_cast<int>(name.size()), name.data(),
                   static_cast<unsigned long long>(snap[i]));
    }
    std::fprintf(f, "\n  }\n}\n");
    const bool ok = std::fclose(f) == 0;
    if (ok) std::fprintf(stderr, "wrote %s\n", opt_.json_path.c_str());
    return ok;
  }

  /// Stops the sampler and flushes --series, then dumps the trace
  /// journal to --trace=PATH (or, with --json=PATH and an enabled
  /// journal, to PATH + ".trace.jsonl"). Idempotent; Write() calls it,
  /// so no harness needs its own telemetry epilogue.
  void FinishTelemetry() {
    if (telemetry_done_) return;
    telemetry_done_ = true;
    if (sampler_ != nullptr) {
      sampler_->Stop();
      if (sampler_->WriteJsonl(opt_.series_path)) {
        std::fprintf(stderr, "wrote %s (%zu ticks)\n",
                     opt_.series_path.c_str(), sampler_->total_ticks());
      } else {
        std::fprintf(stderr, "WARNING: cannot write --series=%s\n",
                     opt_.series_path.c_str());
      }
    }
    std::string trace_path = opt_.trace_path;
    if (trace_path.empty() && !opt_.json_path.empty() &&
        obs::TraceJournal::Get().enabled()) {
      trace_path = opt_.json_path + ".trace.jsonl";
    }
    if (trace_path.empty()) return;
    if (obs::TraceJournal::Get().DumpJsonl(trace_path)) {
      std::fprintf(stderr, "wrote %s (%zu events)\n", trace_path.c_str(),
                   obs::TraceJournal::Get().size());
    } else {
      std::fprintf(stderr, "WARNING: cannot write trace %s\n",
                   trace_path.c_str());
    }
  }

  /// The live sampler (null without --series); exposed so benches can
  /// embed series-derived rows if they want to.
  obs::MetricsSampler* sampler() { return sampler_.get(); }

  /// Records the canonical workload spec this run actually drove (the
  /// blob echoes it as "workload"). Benches call this with
  /// ResolveWorkload(...).Canonical(); sweep benches that run many
  /// workloads per blob set the sweep's template instead and put the
  /// per-row canonical spec in each row.
  void SetWorkload(std::string canonical) { workload_ = std::move(canonical); }

 private:
  std::string bench_;
  Options opt_;
  std::string workload_;
  obs::LatencyHistogram lat_;
  std::vector<Row> rows_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
  bool telemetry_done_ = false;
};

}  // namespace chameleon::bench

#endif  // CHAMELEON_BENCH_BENCH_UTIL_H_
