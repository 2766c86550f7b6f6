// RaeSupervisor -- the RAE runtime (paper §3.2).
//
// Sits between the application-facing VFS and the base filesystem:
//   - records every mutating operation (and its outcome) in the OpLog,
//     truncating records once the base reports their effects durable;
//   - traps runtime errors: FsPanicError from the base (BUG()/oops class),
//     WARN escalation per policy, and validate-on-sync failures (which
//     also surface as panics);
//   - on error, performs the contained reboot (destroy the base instance,
//     discarding all its in-memory state; mount a fresh one, whose journal
//     replay reaches the trusted on-disk state S0), runs the shadow over
//     the recorded sequence, downloads the shadow's metadata into that
//     rebooted base, delivers the in-flight operation's result to the
//     caller, and resumes -- the application never observes the bug;
//   - if the shadow itself refuses (corrupt/crafted image, fatal
//     discrepancy), takes the filesystem offline cleanly (every subsequent
//     operation fails with EIO) instead of crashing the machine.
//
// Concurrency: the supervisor serializes operations with a single lock.
// Recording requires a total order of mutations (paper §3.2: the trace
// "records the order that operations were handled"); this reproduction
// trades the base's internal parallelism for that order. Run BaseFs bare
// for multi-threaded common-case numbers (bench_common_case).
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "basefs/base_fs.h"
#include "blockdev/block_device.h"
#include "common/stats.h"
#include "common/warn.h"
#include "oplog/op_log.h"
#include "rae/executor.h"

namespace raefs {

struct RaeOptions {
  BaseFsOptions base;
  ShadowConfig shadow;

  /// WARN_ON handling: the kernel continues after WARNs; RAE may treat
  /// them as detected errors worth recovering from.
  enum class WarnPolicy : uint8_t {
    kIgnore = 0,          // continue (stock kernel behaviour)
    kRecoverImmediately,  // any WARN triggers recovery
    kRecoverAfterN,       // recovery once `warn_threshold` WARNs accumulate
  };
  WarnPolicy warn_policy = WarnPolicy::kRecoverImmediately;
  uint32_t warn_threshold = 3;

  /// Run the shadow in a forked process (true) or in-process (false).
  bool fork_shadow = false;

  /// Simulated fixed cost of the contained reboot (discarding state,
  /// journal replay bookkeeping, remount) beyond the device IO it does.
  Nanos contained_reboot_cost = 2 * kMilli;

  /// Simulated CPU cost charged once per recovery phase (detection
  /// bookkeeping, containment, hand-off, resume). Keeps every phase of the
  /// detect -> resume timeline visibly nonzero even on a device with no
  /// latency model, so phase breakdowns are always meaningful.
  Nanos phase_bookkeeping_cost = 10 * kMicro;

  /// Transient-fault tolerance (§3.1): how many times to re-run the
  /// shadow when it refuses, before declaring the recovery failed. A
  /// transient device EIO during replay disappears on retry; a corrupt
  /// image refuses identically every time.
  uint32_t shadow_retries = 2;

  // --- recovery parallelism & verification (docs/RECOVERY.md) ----------

  /// Worker threads for the reboot phase's journal replay, which the
  /// rebooted base's mount performs. Replay is batched latest-wins per
  /// target block and the writes partitioned by block range, so any worker
  /// count produces a byte-identical image; 1 keeps the serial reference
  /// path. 0 = auto: derive the count from the device's probed effective
  /// queue depth (blockdev/qdepth_probe.h), measured once per device and
  /// recorded in the incident report.
  uint32_t journal_replay_workers = 1;

  /// Worker threads for post-recovery fsck (the verify phase below and
  /// any supervisor-driven checks). Parallelism only reads ahead; findings
  /// are byte-identical to a serial run. 1 keeps the serial path; 0 =
  /// auto (probed queue depth, as above). The shadow replay's read-ahead
  /// fan-out is `shadow.replay_workers` (also 0 = auto), built in this
  /// process by run_shadow (rae/executor.h) in either executor mode; the
  /// bulk install's worker count is `base.install_workers`.
  uint32_t fsck_workers = 1;

  /// After the download phase, snapshot the device, replay the journal on
  /// the snapshot and run a strict fsck over it before re-admitting
  /// operations; any fatal finding fails the recovery (offline) rather
  /// than resuming on a state the checker rejects. Requires a
  /// SnapshotCapable device (skipped, with a flight-recorder note,
  /// otherwise). Adds a verify phase to the downtime breakdown.
  bool verify_after_recovery = false;

  /// Bound on op-log memory. When live records exceed this, the
  /// supervisor forces a sync so the durable watermark advances and the
  /// log truncates -- recording stays practical no matter how rarely the
  /// application syncs (0 = unbounded).
  size_t max_oplog_bytes = 64ull << 20;

  /// When non-empty, every recovery rewrites this file with the full
  /// incident log as JSON (obs/incident.h), so the forensic artifact
  /// survives the process. `raefs` points it at `<image>.incidents.json`.
  std::string incident_path;
};

struct RaeStats {
  uint64_t recoveries = 0;
  uint64_t failed_recoveries = 0;
  uint64_t shadow_retries = 0;  // transient shadow refusals retried
  uint64_t recovery_io_retries = 0;  // replay/download phases re-run
  uint64_t download_retries = 0;  // download-phase installs re-attempted
  // Effective queue depth from the mount-time probe; 0 until some worker
  // knob set to 0 (= auto) forces a probe.
  uint32_t autotuned_qdepth = 0;
  uint64_t panics_trapped = 0;
  uint64_t warn_recoveries = 0;
  uint64_t ops_replayed_total = 0;
  uint64_t discrepancies_total = 0;
  uint64_t scrubs = 0;
  uint64_t scrub_discrepancies = 0;
  uint64_t forced_syncs = 0;  // op-log memory cap reached
  Nanos total_downtime = 0;
  LatencyHistogram recovery_time;
  std::string last_failure;

  // Cumulative simulated time per recovery phase (paper Figure 3's
  // breakdown: detect -> contain -> reboot -> replay -> download ->
  // [verify ->] resume). Sums to total_downtime for successfully
  // completed recoveries.
  Nanos detect_ns = 0;
  Nanos contain_ns = 0;
  Nanos reboot_ns = 0;
  Nanos replay_ns = 0;
  Nanos download_ns = 0;
  Nanos verify_ns = 0;  // 0 unless verify_after_recovery
  Nanos resume_ns = 0;
};

class RaeSupervisor {
 public:
  /// Mount `dev` (already mkfs'ed) under RAE supervision.
  static Result<std::unique_ptr<RaeSupervisor>> start(BlockDevice* dev,
                                                      const RaeOptions& opts,
                                                      SimClockPtr clock,
                                                      BugRegistry* bugs);
  ~RaeSupervisor();

  RaeSupervisor(const RaeSupervisor&) = delete;
  RaeSupervisor& operator=(const RaeSupervisor&) = delete;

  // --- application-facing API (mirrors BaseFs) --------------------------
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

  /// Clean shutdown: commit, checkpoint, mark clean. The supervisor is
  /// unusable afterwards. A panic in the final sync (validate-on-sync) is
  /// recovered like a trapped sync, then the recovered base is unmounted
  /// once; kIo if that fails too.
  Status shutdown();

  /// Online scrub (paper §4.3's testing phase, as a runtime feature):
  /// snapshot the device, replay the journal on the snapshot, run the
  /// shadow over the current op log in constrained mode, and report any
  /// base/shadow outcome discrepancies. With `deep`, additionally
  /// materialize the shadow's reconstruction on the snapshot and compare
  /// ESSENTIAL STATE (names, sizes, nlink, full file contents) against
  /// the live base -- the only detector for silent data corruption,
  /// which metadata validation, fsck and outcome cross-checks all miss.
  /// Requires a SnapshotCapable device; kNotSup otherwise. Operations
  /// are blocked for the duration.
  Result<ShadowOutcome> scrub(bool deep = false);

  // --- introspection ------------------------------------------------------
  const RaeStats& stats() const { return stats_; }
  OpLogStats oplog_stats() const { return oplog_.stats(); }
  BaseFsStats base_stats() const;
  const WarnSink& warn_sink() const { return warns_; }
  bool offline() const { return offline_; }
  /// Why the supervisor went offline (empty if it has not).
  const std::string& offline_reason() const { return stats_.last_failure; }

 private:
  RaeSupervisor(BlockDevice* dev, const RaeOptions& opts, SimClockPtr clock,
                BugRegistry* bugs);

  /// Mount a fresh base over `dev_` and hook it up. `replay_workers` goes to
  /// the mount's journal replay (the contained reboot passes the resolved
  /// journal_replay_workers; start() keeps the serial path).
  Status mount_base(uint32_t replay_workers = 1);
  void hook_base();

  /// Full recovery pipeline. `inflight_seq` identifies the op whose
  /// execution raised the error (0 = none, e.g. WARN-triggered recovery).
  /// On success returns the shadow outcome so callers can extract the
  /// in-flight result. On failure the supervisor is offline.
  Result<ShadowOutcome> recover(const FaultSite& site, Seq inflight_seq);

  /// Re-issue an in-flight sync after hand-off (paper §3.3). One retry;
  /// if it panics again a second recovery runs with an empty log.
  Status retry_sync_after_recovery();

  /// All mutating ops funnel through here (their scalar results all fit
  /// in a uint64_t: new ino, bytes written, or 0).
  Result<uint64_t> run_mutation_u64(
      OpRequest req, const std::function<Result<uint64_t>(BaseFs&)>& fn);
  template <typename T>
  Result<T> run_read(OpRequest probe,
                     const std::function<Result<T>(BaseFs&)>& fn,
                     const std::function<Result<T>(const OpOutcome&)>&
                         from_shadow);
  void maybe_recover_for_warns();

  BlockDevice* dev_;
  RaeOptions opts_;
  SimClockPtr clock_;
  BugRegistry* bugs_;
  WarnSink warns_;
  std::unique_ptr<ShadowExecutor> executor_;

  std::mutex mu_;  // serializes all operations and recovery
  std::unique_ptr<BaseFs> base_;
  OpLog oplog_;
  RaeStats stats_;
  bool offline_ = false;
  bool shutdown_ = false;

  // Exports RaeStats + op-log occupancy into the global metrics registry.
  // Deliberately does NOT take mu_ (snapshot holds the registry lock and
  // mount paths register collectors while holding mu_); sampled values may
  // be a moment stale, never dangling.
  obs::MetricsRegistry::CollectorHandle obs_collector_;
};

}  // namespace raefs
