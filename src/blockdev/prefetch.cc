#include "blockdev/prefetch.h"

#include <algorithm>
#include <cstring>

namespace raefs {

PrefetchedDevice::PrefetchedDevice(BlockDevice* inner, uint32_t workers)
    : inner_(inner), pool_(workers) {}

void PrefetchedDevice::fetch(std::span<const BlockNo> blocks) {
  std::vector<BlockNo> todo;
  todo.reserve(blocks.size());
  for (BlockNo b : blocks) {
    if (b < inner_->block_count() && !held_.count(b)) todo.push_back(b);
  }
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  const uint64_t n = todo.size();
  if (n == 0) return;

  // One buffer per fetch; each worker reads one contiguous run of it (a
  // task per block would have every worker queue on the pool's lock after
  // each read). Only successful reads are entered into held_.
  uint8_t* buf =
      arenas_.emplace_back(std::make_unique_for_overwrite<uint8_t[]>(
                               n * kBlockSize))
          .get();
  const uint64_t runs = std::min<uint64_t>(std::max(pool_.workers(), 1u), n);
  std::vector<uint8_t> ok(n, 0);
  pool_.run(runs, [&](uint64_t r) {
    for (uint64_t i = n * r / runs; i < n * (r + 1) / runs; ++i) {
      std::span<uint8_t> out(buf + i * kBlockSize, kBlockSize);
      ok[i] = inner_->read_block(todo[i], out).ok() ? 1 : 0;
    }
  });
  for (uint64_t i = 0; i < n; ++i) {
    if (ok[i]) held_.emplace(todo[i], buf + i * kBlockSize);
  }
}

const uint8_t* PrefetchedDevice::find(BlockNo block) const {
  auto it = held_.find(block);
  return it == held_.end() ? nullptr : it->second;
}

Status PrefetchedDevice::read_block(BlockNo block, std::span<uint8_t> out) {
  if (const uint8_t* data = find(block)) {
    if (out.size() != kBlockSize) return Errno::kInval;
    std::memcpy(out.data(), data, kBlockSize);
    return Status::Ok();
  }
  return inner_->read_block(block, out);
}

Status PrefetchedDevice::write_block(BlockNo, std::span<const uint8_t>) {
  return Errno::kRoFs;
}

Status PrefetchedDevice::flush() { return Errno::kRoFs; }

std::unique_ptr<PrefetchedDevice> prefetch(BlockDevice* dev,
                                           std::span<const BlockNo> blocks,
                                           uint32_t workers) {
  auto snap = std::make_unique<PrefetchedDevice>(dev, workers);
  snap->fetch(blocks);
  return snap;
}

Status write_blocks(BlockDevice* dev, std::span<const BlockWrite> writes,
                    uint32_t workers) {
  const uint64_t n = writes.size();
  const uint64_t slices = std::min<uint64_t>(std::max(workers, 1u), n);
  if (slices == 0) return Status::Ok();
  std::vector<Errno> errors(slices, Errno::kOk);
  WorkerPool pool(static_cast<uint32_t>(slices));  // inline at one slice
  pool.run(slices, [&](uint64_t s) {
    for (uint64_t i = n * s / slices; i < n * (s + 1) / slices; ++i) {
      Status st = dev->write_block(writes[i].block, writes[i].data);
      if (!st.ok()) {
        errors[s] = st.error();
        return;
      }
    }
  });
  for (Errno e : errors) {
    if (e != Errno::kOk) return e;
  }
  return Status::Ok();
}

}  // namespace raefs
