// In-memory spans for the traced run: one around every Vfs call (recorded
// by the client through CallObserver) and one around every read_block /
// write_block / flush (recorded by TracedDevice). Each thread appends to
// its own buffer, so recording takes no lock after a thread's first span.
// A device span's parent is the Vfs call open on the same thread; spans
// from threads with no open call (async write-back, recovery workers) have
// parent 0 and count as background.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blockdev/block_device.h"
#include "format/layout.h"
#include "workload.h"

namespace perfbench {

/// Device regions of the on-disk layout (format/layout.h).
enum class Region : uint8_t {
  kSuperblock = 0,
  kBitmaps,
  kInodeTable,
  kJournal,
  kData,
  kNone,  // flush
};
inline constexpr int kRegions = 5;

inline const char* region_name(Region r) {
  static const char* const kNames[] = {"superblock", "bitmaps", "inode_table",
                                       "journal", "data", "none"};
  return kNames[static_cast<int>(r)];
}

enum class DevOp : uint8_t { kRead = 0, kWrite, kFlush };
inline constexpr int kDevOps = 3;

inline const char* devop_name(DevOp op) {
  static const char* const kNames[] = {"read_block", "write_block", "flush"};
  return kNames[static_cast<int>(op)];
}

struct Span {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t id = 0;      // Vfs spans: the call id; device spans: 0
  uint64_t parent = 0;  // device spans: the open Vfs call (0 = background)
  uint32_t tid = 0;
  bool device = false;
  uint8_t op = 0;       // Kind for Vfs spans, DevOp for device spans
  Region region = Region::kNone;
};

class SpanRecorder final : public CallObserver {
 public:
  SpanRecorder() : generation_(next_generation().fetch_add(1) + 1) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  uint64_t open_call() override {
    uint64_t id = next_call_.fetch_add(1, std::memory_order_relaxed) + 1;
    tls().open_call = id;
    return id;
  }

  void close_call(uint64_t id, Kind kind, uint64_t t0, uint64_t t1) override {
    Tls& t = tls();
    t.open_call = 0;
    if (!enabled()) return;
    Span s;
    s.start = t0;
    s.end = t1;
    s.id = id;
    s.op = static_cast<uint8_t>(kind);
    push(t, s);
  }

  void device(DevOp op, Region region, uint64_t t0, uint64_t t1) {
    Tls& t = tls();
    Span s;
    s.start = t0;
    s.end = t1;
    s.parent = t.open_call;
    s.device = true;
    s.op = static_cast<uint8_t>(op);
    s.region = region;
    push(t, s);
  }

  /// Every span recorded so far. Call only while no thread records.
  std::vector<Span> collect() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> all;
    for (const auto& b : bufs_) {
      for (Span s : b->spans) {
        s.tid = b->tid;
        all.push_back(s);
      }
    }
    return all;
  }

 private:
  struct Buf {
    uint32_t tid = 0;
    std::vector<Span> spans;
  };
  struct Tls {
    uint64_t generation = 0;
    Buf* buf = nullptr;
    uint64_t open_call = 0;
  };

  static std::atomic<uint64_t>& next_generation() {
    static std::atomic<uint64_t> g{0};
    return g;
  }

  /// This thread's state for this recorder, registering a buffer on the
  /// thread's first use (recorders are told apart by generation, so a
  /// recorder at a reused address never sees a stale buffer).
  Tls& tls() {
    thread_local Tls t;
    if (t.generation != generation_) {
      auto buf = std::make_unique<Buf>();
      std::lock_guard<std::mutex> lk(mu_);
      buf->tid = static_cast<uint32_t>(bufs_.size());
      t.buf = buf.get();
      t.generation = generation_;
      t.open_call = 0;
      bufs_.push_back(std::move(buf));
    }
    return t;
  }

  static void push(Tls& t, const Span& s) { t.buf->spans.push_back(s); }

  const uint64_t generation_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_call_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buf>> bufs_;
};

/// Pass-through BlockDevice that records a span per IO while its recorder
/// is enabled, tagged with the layout region the block falls in.
class TracedDevice final : public raefs::BlockDevice {
 public:
  TracedDevice(raefs::BlockDevice* inner, const raefs::Geometry& geo,
               SpanRecorder* rec)
      : inner_(inner), geo_(geo), rec_(rec) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }

  raefs::Status read_block(raefs::BlockNo block,
                           std::span<uint8_t> out) override {
    if (!rec_->enabled()) return inner_->read_block(block, out);
    uint64_t t0 = now_ns();
    raefs::Status st = inner_->read_block(block, out);
    rec_->device(DevOp::kRead, region(block), t0, now_ns());
    return st;
  }
  raefs::Status write_block(raefs::BlockNo block,
                            std::span<const uint8_t> data) override {
    if (!rec_->enabled()) return inner_->write_block(block, data);
    uint64_t t0 = now_ns();
    raefs::Status st = inner_->write_block(block, data);
    rec_->device(DevOp::kWrite, region(block), t0, now_ns());
    return st;
  }
  raefs::Status flush() override {
    if (!rec_->enabled()) return inner_->flush();
    uint64_t t0 = now_ns();
    raefs::Status st = inner_->flush();
    rec_->device(DevOp::kFlush, Region::kNone, t0, now_ns());
    return st;
  }
  const raefs::DeviceStats& stats() const override { return inner_->stats(); }

 private:
  Region region(raefs::BlockNo b) const {
    if (b == 0) return Region::kSuperblock;
    if (b < geo_.inode_table_start) return Region::kBitmaps;
    if (b < geo_.journal_start) return Region::kInodeTable;
    if (b < geo_.data_start) return Region::kJournal;
    return Region::kData;
  }

  raefs::BlockDevice* inner_;
  raefs::Geometry geo_;
  SpanRecorder* rec_;
};

}  // namespace perfbench
