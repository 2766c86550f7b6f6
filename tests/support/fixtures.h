// Shared fixtures: one-call device + mkfs + mount setups.
#pragma once

#include <memory>

#include "basefs/base_fs.h"
#include "blockdev/mem_device.h"
#include "common/clock.h"
#include "common/warn.h"

namespace raefs {
namespace testing_support {

struct TestFsOptions {
  uint64_t total_blocks = 4096;
  uint64_t inode_count = 512;
  uint64_t journal_blocks = 128;
  BaseFsOptions base;
  bool with_clock = true;
  LatencyModel latency = LatencyModel::none();
};

struct TestFs {
  SimClockPtr clock;
  std::unique_ptr<MemBlockDevice> device;
  std::unique_ptr<BaseFs> fs;
};

/// Fresh device, mkfs'ed and mounted. Aborts the test process on setup
/// failure (fixtures must not fail silently).
inline TestFs make_test_fs(const TestFsOptions& opts = {},
                           BugRegistry* bugs = nullptr,
                           WarnSink* warns = nullptr) {
  TestFs t;
  if (opts.with_clock) t.clock = make_clock();
  t.device = std::make_unique<MemBlockDevice>(opts.total_blocks, t.clock,
                                              opts.latency);
  MkfsOptions mkfs;
  mkfs.total_blocks = opts.total_blocks;
  mkfs.inode_count = opts.inode_count;
  mkfs.journal_blocks = opts.journal_blocks;
  auto formatted = BaseFs::mkfs(t.device.get(), mkfs);
  if (!formatted.ok()) std::abort();
  auto mounted = BaseFs::mount(t.device.get(), opts.base, t.clock, bugs, warns);
  if (!mounted.ok()) std::abort();
  t.fs = std::move(mounted).value();
  return t;
}

/// Device-only variant (caller mounts / runs supervisors).
inline TestFs make_test_device(const TestFsOptions& opts = {}) {
  TestFs t;
  if (opts.with_clock) t.clock = make_clock();
  t.device = std::make_unique<MemBlockDevice>(opts.total_blocks, t.clock,
                                              opts.latency);
  MkfsOptions mkfs;
  mkfs.total_blocks = opts.total_blocks;
  mkfs.inode_count = opts.inode_count;
  mkfs.journal_blocks = opts.journal_blocks;
  if (!BaseFs::mkfs(t.device.get(), mkfs).ok()) std::abort();
  return t;
}

inline std::vector<uint8_t> pattern_bytes(size_t n, uint8_t seed = 7) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 131);
  }
  return out;
}

}  // namespace testing_support
}  // namespace raefs
