#include "blockdev/qdepth_probe.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace raefs {
namespace {

// Sampled reads; the fastest one is the device's single-read latency.
// Scheduler noise on a loaded host only ever makes a read slower, so the
// minimum of a few is a robust estimate.
constexpr uint32_t kProbeReads = 4;

// Below this single-read latency the device is latency-free (an in-memory
// store): there is no IO wait to overlap, so concurrency buys nothing.
// Well clear of both device classes: a MemBlockDevice read takes ~1 us
// (a few under sanitizers), a TimedBlockDevice read sleeps >= 50 us.
constexpr uint64_t kLatencyFreeNs = 10000;

// Depth of every device with real access latency: the recovery pools'
// cap, where their measured scaling ends (BENCH_recovery.json).
constexpr uint32_t kMaxAutoWorkers = 8;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Deterministic sample spread across the device (a large odd stride mod
/// block_count visits distinct blocks without clustering).
BlockNo sample_block(const BlockDevice* dev, uint64_t i) {
  uint64_t count = dev->block_count();
  return count == 0 ? 0 : (i * 2654435761ull) % count;
}

}  // namespace

QdepthProbeResult probe_queue_depth(BlockDevice* dev) {
  QdepthProbeResult result;
  if (dev == nullptr || dev->block_count() == 0) return result;

  std::vector<uint8_t> buf(kBlockSize);
  uint64_t fastest = UINT64_MAX;
  for (uint32_t i = 0; i < kProbeReads; ++i) {
    const uint64_t t0 = now_ns();
    (void)dev->read_block(sample_block(dev, i), buf);
    fastest = std::min(fastest, now_ns() - t0);
  }
  result.single_read_ns = fastest;
  if (fastest >= kLatencyFreeNs) result.effective_depth = kMaxAutoWorkers;
  return result;
}

namespace {
std::mutex g_cache_mu;
std::unordered_map<const BlockDevice*, QdepthProbeResult>& cache() {
  static auto* c =
      new std::unordered_map<const BlockDevice*, QdepthProbeResult>();
  return *c;
}
}  // namespace

QdepthProbeResult cached_queue_depth(BlockDevice* dev) {
  {
    std::lock_guard<std::mutex> lk(g_cache_mu);
    auto it = cache().find(dev);
    if (it != cache().end()) return it->second;
  }
  QdepthProbeResult r = probe_queue_depth(dev);
  std::lock_guard<std::mutex> lk(g_cache_mu);
  return cache().try_emplace(dev, r).first->second;
}

void clear_queue_depth_cache() {
  std::lock_guard<std::mutex> lk(g_cache_mu);
  cache().clear();
}

uint32_t resolve_workers(uint32_t knob, BlockDevice* dev) {
  if (knob != 0) return knob;
  return cached_queue_depth(dev).effective_depth;
}

}  // namespace raefs
