// Device queue-depth probe: the measurement behind `workers = 0` (auto).
//
// The parallel recovery phases (journal replay, shadow replay, fsck, and
// the download phase's bulk install) scale with the device's ability to
// overlap concurrent IO, not with host core count: on real storage
// recovery is IO-bound, and the worker pools buy wall-clock time only
// while there are IO waits to overlap. The probe therefore asks one
// question of the device: does a read cost real time? It times a few
// sampled reads and keeps the fastest. A device below a latency-free
// threshold (a bare MemBlockDevice) gets depth 1 -- there is no wait to
// overlap, so auto picks the serial reference path. Any other device
// gets the pools' cap of 8.
//
// There is no concurrency ladder. The devices this repository has either
// have no per-read latency or overlap IO without limit (TimedBlockDevice
// sleeps outside any lock), so a timed ladder of concurrent batches could
// only measure the host's scheduler -- on a loaded VM it resolved
// anything from 1 to 16 for the same device.
//
// Results are cached per device instance so one mount probes at most
// once; tests reset the cache between devices that reuse an address.
#pragma once

#include <cstdint>

#include "blockdev/block_device.h"

namespace raefs {

struct QdepthProbeResult {
  uint32_t effective_depth = 1;  // 1 (latency-free) or 8
  uint64_t single_read_ns = 0;   // fastest of the probe's reads
};

/// Time a few sampled reads of the device (real wall-clock time; the
/// device is only read) and derive its effective depth from the fastest.
QdepthProbeResult probe_queue_depth(BlockDevice* dev);

/// probe_queue_depth memoized per device instance (one probe per mount,
/// shared by every phase that resolves an auto knob).
QdepthProbeResult cached_queue_depth(BlockDevice* dev);

/// Drop all cached probe results (tests; device addresses get reused).
void clear_queue_depth_cache();

/// Resolve a worker-count knob: a nonzero knob is explicit and returned
/// as-is; 0 means auto -- the device's cached probed depth, 1 or 8.
uint32_t resolve_workers(uint32_t knob, BlockDevice* dev);

}  // namespace raefs
