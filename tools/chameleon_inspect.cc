// chameleon_inspect: build (or compose via --spec) an index over a
// synthetic dataset, replay a workload against it, and dump structure,
// counters, and the per-unit access heatmap as one JSON document.
//
// The operational companion to --series: a bench run's series JSONL
// shows *when* heat concentrated; this tool shows *where* — which
// h-level unit key ranges are hot, with absolute read/write counts.
//
// Usage:
//   chameleon_inspect [harness flags] [--index=NAME] [--dataset=NAME]
//                     [--sigma=S] [--zipf=T] [--mix=W] [--top=K]
//                     [--out=PATH] [--prom] [--kernels]
//
//   --index=NAME   leaf index to build (default Chameleon); the shared
//                  --spec/--shards adapter stack wraps it like any bench
//   --dataset=NAME UDEN | OSMC | LOGN | FACE (default UDEN)
//   --sigma=S      use the Fig. 9 clustered-skew generator with cluster
//                  sigma S instead of --dataset
//   --zipf=T       zipf theta for the read workload (default 0.9 —
//                  skewed enough that the hot range is visible)
//   --mix=W        write ratio; 0 = read-only replay (default 0)
//                  (--zipf/--mix are sugar for --workload='read(zipf=T)'
//                  / 'mixed(w=W)'; the shared --workload=SPEC flag
//                  accepts any workload-grammar spec — ycsb-a..f,
//                  drifting hotspots, insdel — and overrides both)
//   --top=K        hottest units listed individually (default 8)
//   --out=PATH     write the JSON there instead of stdout
//   --prom         also print the Prometheus rendering of the metrics
//                  registry to stderr after the replay
//   --tiered       require a Disk(...) layer in the composed stack and
//                  fail (exit 2) when there is none. The "tiered" JSON
//                  block itself is emitted automatically whenever the
//                  stack pages its leaves to disk — the flag only turns
//                  "silently not tiered" into a loud error for scripts
//                  that specifically probe the disk tier.
//   --kernels      print CPU features, the SIMD probe-kernel tiers this
//                  build+host can run, the dispatched tier, and the
//                  kernel selected per operation, plus the CRC-32C
//                  path ("sse4.2" or "portable") (JSON), then exit.
//                  Honors CHAMELEON_SIMD_LEVEL, so it shows exactly
//                  what a bench run under the same env would use.
//
// Shared harness flags (--scale, --ops, --seed, --spec, --series, ...)
// all apply; --scale sizes the dataset and --ops the replay.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/data/skew.h"
#include "src/tiered/tiered_index.h"
#include "src/util/crc32c.h"

using namespace chameleon;
using namespace chameleon::bench;

namespace {

struct InspectFlags {
  std::string index = "Chameleon";
  std::string dataset = "UDEN";
  double sigma = 0.0;  // > 0 selects GenerateClusteredSkew
  double zipf = 0.9;
  double mix = 0.0;
  size_t top = 8;
  std::string out;
  bool prom = false;
  bool kernels = false;
  bool tiered = false;
};

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && errno == 0;
}

InspectFlags ParseInspectFlags(int argc, char** argv) {
  InspectFlags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (std::strncmp(arg, "--index=", 8) == 0) {
      f.index = arg + 8;
    } else if (std::strncmp(arg, "--dataset=", 10) == 0) {
      f.dataset = arg + 10;
    } else if (std::strncmp(arg, "--sigma=", 8) == 0) {
      ok = ParseDouble(arg + 8, &f.sigma) && f.sigma > 0.0;
    } else if (std::strncmp(arg, "--zipf=", 7) == 0) {
      ok = ParseDouble(arg + 7, &f.zipf) && f.zipf >= 0.0;
    } else if (std::strncmp(arg, "--mix=", 6) == 0) {
      ok = ParseDouble(arg + 6, &f.mix) && f.mix >= 0.0 && f.mix <= 1.0;
    } else if (std::strncmp(arg, "--top=", 6) == 0) {
      char* end = nullptr;
      f.top = std::strtoull(arg + 6, &end, 10);
      ok = end != arg + 6 && *end == '\0';
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      f.out = arg + 6;
    } else if (std::strcmp(arg, "--prom") == 0) {
      f.prom = true;
    } else if (std::strcmp(arg, "--kernels") == 0) {
      f.kernels = true;
    } else if (std::strcmp(arg, "--tiered") == 0) {
      f.tiered = true;
    } else if (!Options::IsHarnessFlag(arg)) {
      std::fprintf(stderr, "ERROR: unknown flag \"%s\"\n", arg);
      std::exit(2);
    }
    if (!ok) {
      std::fprintf(stderr, "ERROR: bad value in \"%s\"\n", arg);
      std::exit(2);
    }
  }
  return f;
}

std::vector<Key> MakeKeys(const InspectFlags& f, const Options& opt) {
  if (f.sigma > 0.0) {
    return GenerateClusteredSkew(opt.scale, f.sigma, opt.seed);
  }
  for (DatasetKind kind : kAllDatasets) {
    if (f.dataset == DatasetName(kind)) {
      return GenerateDataset(kind, opt.scale, opt.seed);
    }
  }
  std::fprintf(stderr,
               "ERROR: unknown --dataset \"%s\" (UDEN, OSMC, LOGN, FACE)\n",
               f.dataset.c_str());
  std::exit(2);
}

void PrintUnitJson(FILE* out, const obs::UnitHeat& u, size_t index) {
  std::fprintf(out,
               "{\"unit\": %zu, \"lo\": %llu, \"hi\": %llu, "
               "\"reads\": %llu, \"writes\": %llu, \"heat\": %llu}",
               index, static_cast<unsigned long long>(u.lo),
               static_cast<unsigned long long>(u.hi),
               static_cast<unsigned long long>(u.reads),
               static_cast<unsigned long long>(u.writes),
               static_cast<unsigned long long>(u.heat()));
}

// --kernels: the operational answer to "which probe kernel will this
// host actually run?". Dumps the cpuid feature set, the tiers present
// in this build AND supported by this CPU, the dispatched tier (after
// any CHAMELEON_SIMD_LEVEL override), and the kernel each EbhLeaf
// operation resolves to — range_collect can differ from the tier name
// (SSE2 has no unsigned 64-bit compare, so its table borrows the
// scalar range kernel) — and the checksum path every page, WAL record
// and snapshot is verified with.
void PrintKernels() {
  const simd::ProbeKernels& k = simd::ActiveKernels();
  std::printf("{\n  \"cpu_features\": \"%s\",\n",
              JsonEscape(simd::CpuFeatureString()).c_str());
  std::printf("  \"available_levels\": [");
  const std::vector<simd::SimdLevel> levels = simd::AvailableSimdLevels();
  for (size_t i = 0; i < levels.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                std::string(simd::SimdLevelName(levels[i])).c_str());
  }
  std::printf("],\n");
  std::printf("  \"active_level\": \"%s\",\n", k.name);
  std::printf(
      "  \"kernels\": {\"find_in_window\": \"%s\", \"find_nearest\": "
      "\"%s\", \"range_collect\": \"%s\"},\n",
      k.name, k.name, k.range_name);
  std::printf("  \"crc32c\": \"%s\",\n", Crc32cImplementation());
  std::printf("  \"simd_build\": %s\n}\n",
#ifdef CHAMELEON_SIMD_ENABLED
              "true"
#else
              "false"
#endif
  );
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::Parse(argc, argv);
  const InspectFlags flags = ParseInspectFlags(argc, argv);
  if (flags.kernels) {
    PrintKernels();
    return 0;
  }
  // The report powers --series/--trace/--json plumbing; the inspect
  // JSON below is separate and always emitted.
  JsonReport report("chameleon_inspect", opt);

  const std::vector<Key> keys = MakeKeys(flags, opt);
  const std::vector<KeyValue> data = ToKeyValues(keys);
  std::unique_ptr<KvIndex> index = MakeBenchIndex(flags.index, opt);
  // --tiered is a probe of the disk tier; running it against a stack
  // with no Disk(...) layer would silently report nothing. Same idiom
  // as the --mix / --rthreads capability rejection: hard loud error.
  if (flags.tiered) {
    TieredStatsBlock probe;
    if (!CollectTieredStats(index.get(), &probe)) {
      std::fprintf(stderr,
                   "ERROR: --tiered requires a Disk(...) layer, but spec "
                   "\"%s\" has none\n",
                   ComposeSpec(flags.index, opt).c_str());
      std::exit(2);
    }
  }
  // The replayed workload: --workload=SPEC wins; otherwise the legacy
  // --mix/--zipf sugar compiles to the equivalent spec ("mixed(w=W)" /
  // "read(zipf=T)"), so both paths produce the same descriptor — and
  // bit-identical streams to the pre-grammar tool.
  WorkloadDesc workload;
  if (!opt.workload.empty()) {
    workload = ResolveWorkload(opt, "read");
  } else if (flags.mix > 0.0) {
    workload.family = WorkloadDesc::Family::kMixed;
    workload.write_ratio = flags.mix;
  } else {
    workload.family = WorkloadDesc::Family::kRead;
    if (flags.zipf > 0.0) {
      workload.dist.kind = DistDesc::Kind::kZipf;
      workload.dist.theta = flags.zipf;
    }
  }
  // With a write-bearing workload, honoring a multi-threaded request
  // needs concurrent-write support from this exact composed stack.
  // Single-stack tool: no row to skip to, so an unsupported stack is a
  // hard loud error, not a silent R=1 run.
  if (workload.has_writes()) {
    RequireConcurrentWritesOrDie(*index, opt, "chameleon_inspect",
                                 "the workload makes the replay "
                                 "write-bearing");
  }
  index->BulkLoad(data);

  const std::vector<Operation> ops =
      MaterializeWorkload(workload, keys, opt.seed + 1, opt.ops);
  const ReplayOptions ro =
      workload.has_writes() ? WriteReplayOptions(opt) : ReadReplayOptions(opt);
  const ReplayResult result = Replay(index.get(), ops, ro, report.lat());

  const obs::Heatmap heat = index->HeatmapSnapshot();
  const obs::Heatmap hottest = obs::TopKHottest(heat, flags.top);
  const size_t hot_index = obs::HottestUnit(heat);

  FILE* out = stdout;
  if (!flags.out.empty()) {
    out = std::fopen(flags.out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "ERROR: cannot write --out=%s\n",
                   flags.out.c_str());
      return 1;
    }
  }

  const IndexStats stats = index->Stats();
  std::fprintf(out,
               "{\n"
               "  \"spec\": \"%s\",\n"
               "  \"workload\": \"%s\",\n"
               "  \"dataset\": \"%s\",\n"
               "  \"sigma\": %.6g,\n"
               "  \"lsn\": %.6g,\n"
               "  \"scale\": %zu,\n"
               "  \"ops\": %zu,\n"
               "  \"seed\": %llu,\n"
               "  \"zipf\": %.6g,\n"
               "  \"mix\": %.6g,\n"
               "  \"mean_ns\": %.6g,\n",
               JsonEscape(ComposeSpec(flags.index, opt)).c_str(),
               JsonEscape(workload.Canonical()).c_str(),
               flags.sigma > 0.0 ? "clustered" : flags.dataset.c_str(),
               flags.sigma, LocalSkewness(keys), opt.scale, opt.ops,
               static_cast<unsigned long long>(opt.seed), flags.zipf,
               flags.mix, result.MeanNs());
  std::fprintf(out,
               "  \"size\": %zu,\n"
               "  \"size_bytes\": %zu,\n"
               "  \"structure\": {\"max_height\": %d, \"avg_height\": %.6g, "
               "\"max_error\": %.6g, \"avg_error\": %.6g, "
               "\"num_nodes\": %zu},\n",
               index->size(), index->SizeBytes(), stats.max_height,
               stats.avg_height, stats.max_error, stats.avg_error,
               stats.num_nodes);
  std::fprintf(out,
               "  \"build\": {\"git_sha\": \"%s\", \"build_type\": \"%s\", "
               "\"seed\": %llu, \"no_stats\": %s, \"simd_kernel\": \"%s\"},\n",
               JsonEscape(CHAMELEON_GIT_SHA).c_str(),
               JsonEscape(CHAMELEON_BUILD_TYPE).c_str(),
               static_cast<unsigned long long>(opt.seed),
#ifdef CHAMELEON_NO_STATS
               "true",
#else
               "false",
#endif
               JsonEscape(simd::SimdLevelName(simd::ActiveSimdLevel()))
                   .c_str());

  std::fprintf(out, "  \"num_units\": %zu,\n", heat.size());
  std::fprintf(out, "  \"hottest_unit\": ");
  if (hot_index < heat.size()) {
    PrintUnitJson(out, heat[hot_index], hot_index);
  } else {
    std::fprintf(out, "null");
  }
  std::fprintf(out, ",\n  \"top_units\": [");
  for (size_t i = 0; i < hottest.size(); ++i) {
    std::fprintf(out, "%s\n    ", i == 0 ? "" : ",");
    PrintUnitJson(out, hottest[i], i);
  }
  std::fprintf(out, "%s],\n", hottest.empty() ? "" : "\n  ");
  std::fprintf(out, "  \"heatmap\": %s,\n", obs::HeatmapJson(heat).c_str());

  // Writer-lock contention map: per-unit writer-lock spin counts
  // accumulated during the replay (all zeros unless the stack ran in
  // multi-writer mode and writers actually collided). Top-K only — the
  // full map is the "heatmap" field's shape with different weights.
  const obs::Heatmap contention =
      obs::TopKHottest(index->WriteContentionSnapshot(), flags.top);
  std::fprintf(out, "  \"write_contention\": %s,\n",
               obs::HeatmapJson(contention).c_str());

  // Disk tier, when the stack has one: pool geometry and hit rate, the
  // delta/tombstone backlog, and the merge count — summed across every
  // tiered layer (per-shard layers under Sharded). Snapshot taken after
  // the replay so it reflects the workload just run.
  TieredStatsBlock tiered;
  if (CollectTieredStats(index.get(), &tiered)) {
    std::fprintf(out,
                 "  \"tiered\": {\"layers\": %zu, \"frames\": %zu, "
                 "\"page_size\": %zu, \"pages\": %llu, "
                 "\"disk_entries\": %llu, \"delta_entries\": %zu, "
                 "\"tombstones\": %zu, \"merges\": %llu,\n"
                 "    \"pool\": {\"hits\": %llu, \"misses\": %llu, "
                 "\"hit_rate\": %.6g, \"evictions\": %llu, "
                 "\"page_reads\": %llu, \"page_writes\": %llu}},\n",
                 tiered.layers, tiered.frames, tiered.page_size,
                 static_cast<unsigned long long>(tiered.pages),
                 static_cast<unsigned long long>(tiered.disk_entries),
                 tiered.delta_entries, tiered.tombstones,
                 static_cast<unsigned long long>(tiered.merges),
                 static_cast<unsigned long long>(tiered.pool.hits),
                 static_cast<unsigned long long>(tiered.pool.misses),
                 tiered.pool.HitRate(),
                 static_cast<unsigned long long>(tiered.pool.evictions),
                 static_cast<unsigned long long>(tiered.pool.page_reads),
                 static_cast<unsigned long long>(tiered.pool.page_writes));
  }

  const obs::CounterSnapshot snap = obs::StatsRegistry::Get().Snapshot();
  std::fprintf(out, "  \"counters\": {");
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    const std::string_view name =
        obs::CounterName(static_cast<obs::Counter>(i));
    std::fprintf(out, "%s\n    \"%.*s\": %llu", i == 0 ? "" : ",",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(snap[i]));
  }
  std::fprintf(out, "\n  }\n}\n");
  if (out != stdout) {
    std::fclose(out);
    std::fprintf(stderr, "wrote %s\n", flags.out.c_str());
  }

  if (flags.prom) {
    const std::string prom = obs::MetricsSampler::RenderProm();
    std::fputs(prom.c_str(), stderr);
  }
  report.Write();
  return 0;
}
