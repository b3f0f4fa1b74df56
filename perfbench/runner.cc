#include "perfbench/runner.h"

#include <algorithm>
#include <unordered_map>

#include "src/obs/phase_timer.h"

namespace perfbench {

using chameleon::obs::CycleClock;

Crew::Crew(size_t threads) {
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { Main(i); });
  }
}

Crew::~Crew() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Crew::Run(size_t n, const std::function<void(size_t)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  job_width_ = n;
  running_ = threads_.size();
  ++generation_;
  start_cv_.notify_all();
  done_cv_.wait(lock, [this] { return running_ == 0; });
  job_ = nullptr;
}

void Crew::Main(size_t i) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::function<void(size_t)>* job = job_;
    const bool mine = i < job_width_;
    lock.unlock();
    if (mine) (*job)(i);
    lock.lock();
    if (--running_ == 0) done_cv_.notify_all();
  }
}

void TraceTotals::Add(const TraceTotals& other) {
  for (size_t t = 0; t < kNumOpTypes; ++t) {
    for (size_t l = 0; l < kNumLayers; ++l) {
      ticks[t][l] += other.ticks[t][l];
      calls[t][l] += other.calls[t][l];
    }
    client_ticks[t] += other.client_ticks[t];
    ops[t] += other.ops[t];
  }
  scan_keys += other.scan_keys;
}

Runner::Runner(KvIndex* index, size_t clients, bool trace, Crew* crew)
    : index_(index), trace_(trace), crew_(crew), clients_(clients) {}

void Assign(Round* round, size_t clients) {
  // Greedy ownership: a key seen for the first time in this round goes
  // to the least-loaded client, and every later op on it follows. Hot
  // keys show up early, so zipf traffic still spreads evenly; per-key
  // stream order is kept, which makes every op's expected result the
  // one a serial execution of the stream gives.
  std::vector<size_t> load(clients, 0);
  std::unordered_map<Key, uint8_t> owner;
  owner.reserve(round->ops.size());
  round->mine.assign(clients, {});
  auto least_loaded = [&] {
    return static_cast<uint8_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
  };
  for (size_t i = 0; i < round->ops.size(); ++i) {
    const Operation& op = round->ops[i];
    uint8_t c;
    if (op.type == OpType::kScan || clients == 1) {
      c = least_loaded();
    } else {
      auto [it, fresh] = owner.try_emplace(op.key, 0);
      if (fresh) it->second = least_loaded();
      c = it->second;
    }
    ++load[c];
    round->mine[c].push_back(static_cast<uint32_t>(i));
  }
}

double Runner::Execute(Round* round) {
  round->results.assign(round->ops.size(), OpResult{});
  for (Client& c : clients_) c.arena.clear();
  crew_->Run(clients_.size(), [&](size_t c) { RunClient(c, round); });
  double ops_per_s = 0;
  for (size_t c = 0; c < clients_.size(); ++c) {
    const double secs =
        static_cast<double>(CycleClock::ToNanos(clients_[c].busy_ticks)) * 1e-9;
    if (secs > 0) ops_per_s += static_cast<double>(round->mine[c].size()) / secs;
  }
  return ops_per_s;
}

void Runner::ResetMeasurements() {
  for (Client& c : clients_) {
    c.samples.clear();
    c.trace = TraceTotals{};
  }
}

void Runner::RunClient(size_t c, Round* round) {
  Client& client = clients_[c];
  KvIndex* index = index_;
  OpTrace& trace = ThreadTrace();
  const uint64_t begin = CycleClock::Now();
  for (const uint32_t i : round->mine[c]) {
    const Operation& op = round->ops[i];
    OpResult& r = round->results[i];
    const bool sampled = ++client.issued % kSampleEvery == 0;
    uint64_t start = 0;
    if (sampled) {
      if (trace_) trace = OpTrace{.active = true};
      start = CycleClock::Now();
    }
    switch (op.type) {
      case OpType::kLookup: {
        Value v = 0;
        r.ok = index->Lookup(op.key, &v);
        r.a = v;
        break;
      }
      case OpType::kInsert:
        r.ok = index->Insert(op.key, op.value);
        break;
      case OpType::kErase:
        r.ok = index->Erase(op.key);
        break;
      case OpType::kUpdate: {
        const bool erased = index->Erase(op.key);
        const bool inserted = index->Insert(op.key, op.value);
        r.ok = static_cast<uint8_t>(erased | (inserted << 1));
        break;
      }
      case OpType::kScan:
        r.a = client.arena.size();
        r.n = static_cast<uint32_t>(
            index->RangeScan(op.key, static_cast<Key>(op.value),
                             &client.arena));
        r.client = static_cast<uint8_t>(c);
        break;
    }
    if (sampled) {
      const uint64_t ticks = CycleClock::Now() - start;
      client.samples.push_back({ticks, op.type});
      if (trace_) {
        const size_t t = static_cast<size_t>(op.type);
        for (size_t l = 0; l < kNumLayers; ++l) {
          client.trace.ticks[t][l] += trace.ticks[l];
          client.trace.calls[t][l] += trace.calls[l];
        }
        client.trace.client_ticks[t] += ticks;
        ++client.trace.ops[t];
        if (op.type == OpType::kScan) client.trace.scan_keys += r.n;
        trace.active = false;
      }
    }
  }
  client.busy_ticks = CycleClock::Now() - begin;
}

}  // namespace perfbench
