#ifndef CHAMELEON_OBS_HEATMAP_H_
#define CHAMELEON_OBS_HEATMAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/common.h"

namespace chameleon::obs {

/// One h-level unit's access-heat entry: the unit's key interval
/// [lo, hi) plus sampled read/write hit counts. Counts are *estimates*:
/// instrumentation sites record 1-in-2^HeatSampler::kShift operations
/// and add kWeight per sample, so totals are unbiased but quantized to
/// kWeight. Under CHAMELEON_NO_STATS no hits are ever recorded and all
/// heatmaps are zero/empty.
struct UnitHeat {
  Key lo = 0;
  Key hi = 0;  // exclusive upper bound
  uint64_t reads = 0;
  uint64_t writes = 0;

  uint64_t heat() const { return reads + writes; }
};

/// A point-in-time heat snapshot: one UnitHeat per h-level unit, in key
/// order (the index's unit order). Adapters concatenate inner heatmaps
/// in shard order, which preserves key order.
using Heatmap = std::vector<UnitHeat>;

/// Per-thread sampling gate for heat instrumentation: Tick() returns
/// true with probability 1/kWeight, drawn from a per-thread xorshift64
/// generator (fixed seed), and callers then add kWeight to the unit's
/// counter — a few register ops per operation, one relaxed fetch_add
/// per sample. This keeps the heat overhead on the lookup hot path well
/// under the 5% telemetry budget (DESIGN.md §11) while totals stay
/// unbiased in expectation. The draw is random rather than every
/// kWeight-th call because call sites share the generator: with a
/// counter, a layer whose operation ticks twice (a Disk lookup ticks
/// in its delta and again per page read) locks each site to a fixed
/// phase, and one of them never samples.
class HeatSampler {
 public:
  static constexpr uint32_t kShift = 3;
  static constexpr uint64_t kWeight = uint64_t{1} << kShift;

  static bool Tick() noexcept {
    thread_local uint64_t state = 0x9E3779B97F4A7C15ULL;
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return (state >> (64 - kShift)) == 0;
  }
};

/// Index of the entry with the highest reads+writes; Heatmap::size()
/// ("npos") when the map is empty or entirely cold.
size_t HottestUnit(const Heatmap& map);

/// The k hottest non-cold entries, hottest first (ties keep key order).
Heatmap TopKHottest(const Heatmap& map, size_t k);

/// Element-wise `cur - prev` with saturating subtraction, matched
/// positionally on interval identity: entries whose [lo, hi) moved
/// (a full rebuild re-partitioned the units, resetting counters) are
/// reported with their absolute `cur` counts. Used by the sampler to
/// turn monotonic unit counters into per-tick activity.
Heatmap HeatmapDelta(const Heatmap& cur, const Heatmap& prev);

/// Renders `map` as a compact JSON array:
///   [{"lo":1,"hi":100,"reads":80,"writes":0}, ...]
std::string HeatmapJson(const Heatmap& map);

}  // namespace chameleon::obs

// Heat instrumentation macro. `cell` is a std::atomic<uint64_t> counter
// (a Unit's heat_reads/heat_writes); under CHAMELEON_NO_STATS it
// compiles away entirely.
#ifndef CHAMELEON_NO_STATS
#define CHAMELEON_HEAT_HIT(cell)                                      \
  do {                                                                \
    if (::chameleon::obs::HeatSampler::Tick()) {                      \
      (cell).fetch_add(::chameleon::obs::HeatSampler::kWeight,        \
                       std::memory_order_relaxed);                    \
    }                                                                 \
  } while (0)
#else
#define CHAMELEON_HEAT_HIT(cell) ((void)0)
#endif

#endif  // CHAMELEON_OBS_HEATMAP_H_
