#include "src/core/serialize.h"

#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/obs/stats.h"
#include "src/util/io.h"

namespace chameleon {
namespace {

constexpr uint32_t kMagic = 0x4348414D;  // "CHAM"
constexpr uint32_t kVersion = 1;

// All writes/reads are raw little-endian PODs (the library targets one
// architecture family; cross-endian portability is out of scope).
template <typename T>
bool WriteVal(std::FILE* f, const T& v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool ReadVal(std::FILE* f, T* v) {
  return std::fread(v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool WriteVec(std::FILE* f, const std::vector<T>& v) {
  const uint64_t n = v.size();
  if (!WriteVal(f, n)) return false;
  return n == 0 || std::fwrite(v.data(), sizeof(T), n, f) == n;
}

template <typename T>
bool ReadVec(std::FILE* f, std::vector<T>* v) {
  uint64_t n = 0;
  if (!ReadVal(f, &n)) return false;
  v->resize(n);
  return n == 0 || std::fread(v->data(), sizeof(T), n, f) == n;
}

}  // namespace

bool SaveIndex(const ChameleonIndex& index, const std::string& path) {
  return index.SaveTo(path);
}

bool LoadIndex(ChameleonIndex* index, const std::string& path) {
  return index->LoadFrom(path);
}

// --- member implementations (access to the private structure) ---------------

bool ChameleonIndex::SaveTo(const std::string& path) const {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return false;
  const bool ok = SaveTo(f.get());
  // A write error can first show up when close flushes the buffer.
  return std::fclose(f.release()) == 0 && ok;
}

bool ChameleonIndex::SaveTo(std::FILE* fp) const {
  // Guard against the documented footgun: the structure walk below is
  // unlocked, so a live retraining thread swapping a subtree mid-save
  // would tear the stream. Pause it (draining any in-flight pass) for
  // the duration; a stopped retrainer makes this a no-op. Foreground
  // writers remain the caller's responsibility (DurableIndex holds its
  // write mutex around checkpoints).
  // locks_enabled_ is also true in multi-writer mode without a live
  // retrainer; the pause/drain handshake is a cheap no-op then.
  const bool retrainer_live =
      locks_enabled_.load(std::memory_order_acquire);
  if (retrainer_live) {
    PauseRetrainerForSave();
    CHAMELEON_STAT_INC(kSaveRetrainerPauses);
  }
  const bool ok = SaveToLocked(fp);
  if (retrainer_live) ResumeRetrainerAfterSave();
  return ok;
}

bool ChameleonIndex::SaveToLocked(std::FILE* fp) const {
  bool ok = WriteVal(fp, kMagic) && WriteVal(fp, kVersion) &&
            WriteVal(fp, config_.tau) && WriteVal(fp, config_.alpha) &&
            WriteVal(fp, static_cast<uint32_t>(h_)) && WriteVal(fp, mk_) &&
            WriteVal(fp, Mk_) && WriteVal(fp, static_cast<uint64_t>(size_));

  // DARE parameters (so retraining after load uses the same frame plan).
  ok = ok && WriteVal(fp, static_cast<uint64_t>(dare_params_.root_fanout));
  ok = ok && WriteVal(fp, static_cast<uint64_t>(dare_params_.matrix.size()));
  for (const auto& row : dare_params_.matrix) {
    ok = ok && WriteVec(fp, row);
  }

  // Frame tree.
  struct FrameWriter {
    std::FILE* fp;
    bool ok = true;
    void Walk(const FrameNode& node) {
      ok = ok && WriteVal(fp, node.lk) && WriteVal(fp, node.uk) &&
           WriteVal(fp, node.slope);
      const uint8_t is_units = node.children.empty() ? 1 : 0;
      ok = ok && WriteVal(fp, is_units);
      if (is_units) {
        ok = ok && WriteVal(fp, static_cast<uint64_t>(node.unit_begin)) &&
             WriteVal(fp, static_cast<uint64_t>(node.unit_fanout));
        return;
      }
      ok = ok && WriteVal(fp, static_cast<uint64_t>(node.children.size()));
      for (const FrameNode& c : node.children) Walk(c);
    }
  } frame_writer{fp};
  if (ok) frame_writer.Walk(frame_root_);
  ok = ok && frame_writer.ok;

  // Units and their subtrees.
  struct SubWriter {
    std::FILE* fp;
    bool ok = true;
    void Walk(const SubNode& node) {
      ok = ok && WriteVal(fp, node.lk) && WriteVal(fp, node.uk) &&
           WriteVal(fp, node.slope);
      const uint8_t is_leaf = node.is_leaf() ? 1 : 0;
      ok = ok && WriteVal(fp, is_leaf);
      if (is_leaf) {
        const EbhLeaf& leaf = *node.leaf;
        ok = ok && WriteVal(fp, leaf.lk()) && WriteVal(fp, leaf.uk()) &&
             WriteVal(fp, leaf.tau()) && WriteVal(fp, leaf.alpha()) &&
             WriteVal(fp, static_cast<uint64_t>(leaf.conflict_degree())) &&
             WriteVal(fp, static_cast<uint64_t>(leaf.num_keys())) &&
             WriteVec(fp, leaf.raw_keys()) && WriteVec(fp, leaf.raw_values());
        return;
      }
      ok = ok && WriteVal(fp, static_cast<uint64_t>(node.children.size()));
      for (const SubNode& c : node.children) Walk(c);
    }
  } sub_writer{fp};
  ok = ok && WriteVal(fp, static_cast<uint64_t>(units_.size()));
  for (const auto& unit : units_) {
    ok = ok && WriteVal(fp, unit->lk) && WriteVal(fp, unit->uk) &&
         WriteVal(fp, static_cast<uint64_t>(unit->built_keys));
    if (ok) sub_writer.Walk(unit->root);
    ok = ok && sub_writer.ok;
  }
  return ok;
}

bool ChameleonIndex::LoadFrom(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return false;
  return LoadFrom(f.get());
}

bool ChameleonIndex::LoadFrom(std::FILE* fp) {
  uint32_t magic = 0, version = 0;
  if (!ReadVal(fp, &magic) || !ReadVal(fp, &version) || magic != kMagic ||
      version != kVersion) {
    return false;
  }
  uint32_t h = 0;
  uint64_t size = 0;
  double tau = 0, alpha = 0;
  if (!(ReadVal(fp, &tau) && ReadVal(fp, &alpha) && ReadVal(fp, &h) &&
        ReadVal(fp, &mk_) && ReadVal(fp, &Mk_) && ReadVal(fp, &size))) {
    return false;
  }
  config_.tau = tau;
  config_.alpha = alpha;
  h_ = static_cast<int>(h);
  size_ = size;

  uint64_t root_fanout = 0, rows = 0;
  if (!ReadVal(fp, &root_fanout) || !ReadVal(fp, &rows)) return false;
  dare_params_.root_fanout = root_fanout;
  dare_params_.matrix.resize(rows);
  for (auto& row : dare_params_.matrix) {
    if (!ReadVec(fp, &row)) return false;
  }

  struct FrameReader {
    std::FILE* fp;
    bool ok = true;
    void Walk(FrameNode* node) {
      uint8_t is_units = 0;
      ok = ok && ReadVal(fp, &node->lk) && ReadVal(fp, &node->uk) &&
           ReadVal(fp, &node->slope) && ReadVal(fp, &is_units);
      if (!ok) return;
      if (is_units) {
        uint64_t begin = 0, fanout = 0;
        ok = ok && ReadVal(fp, &begin) && ReadVal(fp, &fanout);
        node->unit_begin = begin;
        node->unit_fanout = fanout;
        node->children.clear();
        return;
      }
      uint64_t n = 0;
      ok = ok && ReadVal(fp, &n);
      if (!ok) return;
      node->children.assign(n, FrameNode{});
      for (FrameNode& c : node->children) {
        Walk(&c);
        if (!ok) return;
      }
    }
  } frame_reader{fp};
  frame_root_ = FrameNode{};
  frame_reader.Walk(&frame_root_);
  if (!frame_reader.ok) return false;

  struct SubReader {
    std::FILE* fp;
    bool ok = true;
    void Walk(SubNode* node) {
      uint8_t is_leaf = 0;
      ok = ok && ReadVal(fp, &node->lk) && ReadVal(fp, &node->uk) &&
           ReadVal(fp, &node->slope) && ReadVal(fp, &is_leaf);
      if (!ok) return;
      if (is_leaf) {
        Key lk = 0, uk = 0;
        double tau = 0, alpha = 0;
        uint64_t cd = 0, num_keys = 0;
        std::vector<Key> keys;
        std::vector<Value> values;
        ok = ok && ReadVal(fp, &lk) && ReadVal(fp, &uk) &&
             ReadVal(fp, &tau) && ReadVal(fp, &alpha) && ReadVal(fp, &cd) &&
             ReadVal(fp, &num_keys) && ReadVec(fp, &keys) &&
             ReadVec(fp, &values);
        if (!ok || keys.size() != values.size()) {
          ok = false;
          return;
        }
        node->leaf = EbhLeaf::FromRaw(lk, uk, tau, alpha, cd, num_keys,
                                      std::move(keys), std::move(values));
        node->children.clear();
        return;
      }
      uint64_t n = 0;
      ok = ok && ReadVal(fp, &n);
      if (!ok) return;
      node->leaf.reset();
      node->children.assign(n, SubNode{});
      for (SubNode& c : node->children) {
        Walk(&c);
        if (!ok) return;
      }
    }
  } sub_reader{fp};

  uint64_t num_units = 0;
  if (!ReadVal(fp, &num_units)) return false;
  // Exclude the sampler's HeatmapSnapshot while units_ is replaced,
  // same as BuildFrame (recovery can run with a sampler attached).
  std::lock_guard<std::mutex> heat_guard(heatmap_mu_);
  units_.clear();
  units_.reserve(num_units);
  for (uint64_t i = 0; i < num_units; ++i) {
    auto unit = std::make_unique<Unit>();
    uint64_t built = 0;
    if (!(ReadVal(fp, &unit->lk) && ReadVal(fp, &unit->uk) &&
          ReadVal(fp, &built))) {
      return false;
    }
    unit->built_keys = built;
    sub_reader.Walk(&unit->root);
    if (!sub_reader.ok) return false;
    units_.push_back(std::move(unit));
  }

  built_size_ = size_;
  updates_since_build_ = 0;
  total_full_rebuilds_ = 0;
  total_retrains_.store(0);
  return true;
}

}  // namespace chameleon
