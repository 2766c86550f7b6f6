// CrashRestartSupervisor -- the status-quo baseline the paper argues
// against (§1: "the best approach is simply to crash and recover from
// known on-disk state, and suffer the resulting loss of availability").
//
// On any trapped panic it simulates a machine crash: the device's volatile
// write cache is lost, the whole "OS" reboots (a large simulated cost),
// the journal is replayed, and the filesystem remounts. The in-flight
// operation fails with EIO, and every operation the application already
// saw succeed whose effects had not been flushed is silently lost --
// both are counted, for contrast with RAE's zero app-visible failures.
#pragma once

#include <memory>
#include <mutex>

#include "basefs/base_fs.h"
#include "blockdev/mem_device.h"
#include "common/stats.h"
#include "common/warn.h"

namespace raefs {

struct CrashRestartOptions {
  BaseFsOptions base;
  /// Simulated cost of a full machine reboot + remount (OS boot, fsck,
  /// service restart). Orders of magnitude above a contained reboot.
  Nanos machine_restart_cost = 5 * kSecond;
};

struct CrashRestartStats {
  uint64_t crashes = 0;
  uint64_t app_visible_failures = 0;  // in-flight ops failed with EIO
  uint64_t lost_acked_ops = 0;        // acked ops whose effects vanished
  Nanos total_downtime = 0;
  LatencyHistogram restart_time;
};

class CrashRestartSupervisor {
 public:
  static Result<std::unique_ptr<CrashRestartSupervisor>> start(
      MemBlockDevice* dev, const CrashRestartOptions& opts, SimClockPtr clock,
      BugRegistry* bugs);

  // Application-facing API (same shape as RaeSupervisor).
  Result<Ino> lookup(std::string_view path);
  Result<Ino> create(std::string_view path, uint16_t mode);
  Result<Ino> mkdir(std::string_view path, uint16_t mode);
  Status unlink(std::string_view path);
  Status rmdir(std::string_view path);
  Status rename(std::string_view src, std::string_view dst);
  Status link(std::string_view existing, std::string_view newpath);
  Result<Ino> symlink(std::string_view linkpath, std::string_view target);
  Result<std::string> readlink(std::string_view path);
  Result<std::vector<DirEntry>> readdir(std::string_view path);
  Result<StatResult> stat(std::string_view path);
  Result<StatResult> stat_ino(Ino ino);
  Result<std::vector<uint8_t>> read(Ino ino, uint64_t gen, FileOff off,
                                    uint64_t len);
  Result<uint64_t> write(Ino ino, uint64_t gen, FileOff off,
                         std::span<const uint8_t> data);
  Status truncate(Ino ino, uint64_t gen, uint64_t new_size);
  Status fsync(Ino ino);
  Status sync();

  Status shutdown();

  const CrashRestartStats& stats() const { return stats_; }
  BaseFsStats base_stats() const { return base_ ? base_->stats() : BaseFsStats{}; }

 private:
  CrashRestartSupervisor(MemBlockDevice* dev, const CrashRestartOptions& opts,
                         SimClockPtr clock, BugRegistry* bugs);
  Status mount_base();
  void machine_crash();

  template <typename T>
  Result<T> run(const std::function<Result<T>(BaseFs&)>& fn, bool mutates);

  MemBlockDevice* dev_;
  CrashRestartOptions opts_;
  SimClockPtr clock_;
  BugRegistry* bugs_;
  WarnSink warns_;  // WARNs are logged and ignored: stock kernel behaviour

  std::mutex mu_;
  std::unique_ptr<BaseFs> base_;
  CrashRestartStats stats_;
  Seq issued_ = 0;   // acked mutating ops since mount
  Seq durable_ = 0;  // of those, how many are on disk
  bool shutdown_ = false;
};

}  // namespace raefs
