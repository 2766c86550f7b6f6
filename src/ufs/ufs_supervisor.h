// UfsSupervisor -- RAE along the microkernel path (paper §4.2).
//
// The base filesystem runs as a separate server process over shared-
// memory storage. Contained reboot is "effortless": when a bug kills the
// server, the supervisor reaps the corpse, replays the journal on the
// surviving shared store, runs the shadow over the recorded op sequence,
// writes the recovered metadata directly into the store (the supervisor
// owns it -- no download interface needed), and forks a fresh server.
// Applications talking through this supervisor never see the crash.
//
// Contrast with RaeSupervisor (the kernel path): there the "process
// boundary" is simulated by destroying/rebuilding the BaseFs instance and
// the hand-off goes through BaseFs::install_blocks; here the isolation is
// a real OS process and the paper's question -- which path is less
// effort? -- gets a measurable answer (bench_recovery, EXPERIMENTS.md).
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "common/stats.h"
#include "faults/bug_registry.h"
#include "format/inode.h"
#include "oplog/op_log.h"
#include "rae/executor.h"
#include "ufs/shm_device.h"

namespace raefs {

struct UfsOptions {
  ShadowConfig shadow;
  /// Simulated cost of forking a fresh server (≪ a kernel micro-reboot).
  Nanos respawn_cost = 500 * kMicro;
  uint32_t shadow_retries = 2;
};

struct UfsStats {
  uint64_t recoveries = 0;
  uint64_t failed_recoveries = 0;
  uint64_t server_crashes = 0;  // child deaths observed
  uint64_t respawns = 0;
  uint64_t ops_replayed_total = 0;
  Nanos total_downtime = 0;
  LatencyHistogram recovery_time;
  std::string last_failure;
};

class UfsSupervisor {
 public:
  /// `dev` must already be mkfs'ed. Spawns the first server process.
  static Result<std::unique_ptr<UfsSupervisor>> start(ShmBlockDevice* dev,
                                                      const UfsOptions& opts,
                                                      SimClockPtr clock,
                                                      BugRegistry* bugs);
  ~UfsSupervisor();

  UfsSupervisor(const UfsSupervisor&) = delete;
  UfsSupervisor& operator=(const UfsSupervisor&) = delete;

  // Application-facing API (same shape as the other supervisors).
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

  const UfsStats& stats() const { return stats_; }
  OpLogStats oplog_stats() const { return oplog_.stats(); }
  bool offline() const { return offline_; }
  const std::string& offline_reason() const { return stats_.last_failure; }

 private:
  UfsSupervisor(ShmBlockDevice* dev, const UfsOptions& opts, SimClockPtr clock,
                BugRegistry* bugs);

  Status spawn_server();
  void reap_server();

  /// Send one op; on child death run recovery (and answer from the
  /// shadow's in-flight result). `record` = log this op for replay.
  Result<OpOutcome> rpc(OpRequest req, bool record);

  Result<OpOutcome> recover_and_answer(Seq inflight_seq);
  Status run_recovery(const std::vector<OpRecord>& log,
                      ShadowOutcome* outcome);

  ShmBlockDevice* dev_;
  UfsOptions opts_;
  SimClockPtr clock_;
  BugRegistry* bugs_;
  Geometry geo_;
  InProcessShadowExecutor shadow_exec_;

  std::mutex mu_;
  int to_child_ = -1;
  int from_child_ = -1;
  pid_t child_ = -1;
  OpLog oplog_;
  UfsStats stats_;
  bool offline_ = false;
  bool shutdown_ = false;
};

}  // namespace raefs
