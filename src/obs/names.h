// Canonical observability names.
//
// Every metric and trace span in the system is named here, once. All
// registration/instrumentation sites use these constants, which makes the
// namespace greppable and lets tools/doc_lint.sh enforce that every name
// is documented in docs/OBSERVABILITY.md (the doc cannot silently rot).
//
// Naming convention: `<component>.<subsystem>.<what>`, lower_snake within
// segments, `_ns` suffix for simulated-nanosecond quantities. Component
// prefixes: basefs, journal, blockdev, rae, shadow, vfs, crashrestart.
#pragma once

namespace raefs {
namespace obs {

// --- metrics: base filesystem + caches -------------------------------------
inline constexpr const char* kMBaseOps = "basefs.ops";
inline constexpr const char* kMBaseCommits = "basefs.commits";
inline constexpr const char* kMBaseCheckpoints = "basefs.checkpoints";
inline constexpr const char* kMBaseJournalReplays = "basefs.journal.replays";
inline constexpr const char* kMBaseCacheHits = "basefs.cache.hits";
inline constexpr const char* kMBaseCacheMisses = "basefs.cache.misses";
inline constexpr const char* kMBaseCacheCowClones = "basefs.cache.cow_clones";
inline constexpr const char* kMBaseCacheBytesCopied =
    "basefs.cache.bytes_copied";
inline constexpr const char* kMBaseDentryHits = "basefs.dentry.hits";
inline constexpr const char* kMBaseDentryMisses = "basefs.dentry.misses";
inline constexpr const char* kMBaseInodeCacheHits = "basefs.inode_cache.hits";
inline constexpr const char* kMBaseInodeCacheMisses =
    "basefs.inode_cache.misses";
inline constexpr const char* kMBaseExtentWalks = "basefs.extent.walks";
inline constexpr const char* kMBaseExtentHintHits = "basefs.extent.hint_hits";
inline constexpr const char* kMBaseFreeBlocks = "basefs.free_blocks";    // gauge
inline constexpr const char* kMBaseFreeInodes = "basefs.free_inodes";    // gauge
inline constexpr const char* kMBaseCommitGroupOps =
    "basefs.commit.group_ops";                                      // histogram
inline constexpr const char* kMBaseCommitWaitNs =
    "basefs.commit_wait_ns";                                        // histogram

// --- metrics: journal -------------------------------------------------------
inline constexpr const char* kMJournalCommits = "journal.commits";
inline constexpr const char* kMJournalBlocksWritten = "journal.blocks_written";
inline constexpr const char* kMJournalCheckpoints = "journal.checkpoints";
inline constexpr const char* kMJournalCommitLatencyNs =
    "journal.commit_latency_ns";                                    // histogram

// --- metrics: block layer ---------------------------------------------------
inline constexpr const char* kMBlockdevWrites = "blockdev.writes";
inline constexpr const char* kMBlockdevWritevBatches = "blockdev.writev_batches";
inline constexpr const char* kMBlockdevInflight = "blockdev.inflight";  // gauge

// --- metrics: RAE supervisor ------------------------------------------------
inline constexpr const char* kMRaeRecoveries = "rae.recoveries";
inline constexpr const char* kMRaeRecoveriesFailed = "rae.recoveries_failed";
inline constexpr const char* kMRaePanicsTrapped = "rae.panics_trapped";
inline constexpr const char* kMRaeWarnRecoveries = "rae.warn_recoveries";
inline constexpr const char* kMRaeShadowRetries = "rae.shadow_retries";
inline constexpr const char* kMRaeOpsReplayed = "rae.ops_replayed";
inline constexpr const char* kMRaeDiscrepancies = "rae.discrepancies";
inline constexpr const char* kMRaeScrubs = "rae.scrubs";
inline constexpr const char* kMRaeScrubDiscrepancies =
    "rae.scrub_discrepancies";
inline constexpr const char* kMRaeForcedSyncs = "rae.forced_syncs";
inline constexpr const char* kMRaeDowntimeNs = "rae.downtime_ns";
inline constexpr const char* kMRaeOplogLiveRecords =
    "rae.oplog.live_records";                                           // gauge
inline constexpr const char* kMRaeOplogLiveBytes = "rae.oplog.live_bytes";  // gauge
inline constexpr const char* kMRaeRecoveryDetectNs = "rae.recovery.detect_ns";
inline constexpr const char* kMRaeRecoveryContainNs = "rae.recovery.contain_ns";
inline constexpr const char* kMRaeRecoveryRebootNs = "rae.recovery.reboot_ns";
inline constexpr const char* kMRaeRecoveryReplayNs = "rae.recovery.replay_ns";
inline constexpr const char* kMRaeRecoveryDownloadNs =
    "rae.recovery.download_ns";
inline constexpr const char* kMRaeRecoveryResumeNs = "rae.recovery.resume_ns";
inline constexpr const char* kMRaeRecoveryVerifyNs = "rae.recovery.verify_ns";
// Download-phase IO retries: full journal-replay + install re-runs after a
// failed install attempt (each one re-mounts the base from scratch).
inline constexpr const char* kMRaeDownloadRetries = "rae.download.retries";
// Effective device queue depth measured by the mount-time probe (gauge;
// only exported when at least one worker knob is set to 0 = auto).
inline constexpr const char* kMRaeAutotuneQdepth = "rae.autotune.qdepth";
inline constexpr const char* kMRaeRecoveryTimeNs =
    "rae.recovery.time_ns";                                         // histogram

// --- metrics: observability internals ---------------------------------------
inline constexpr const char* kMObsSlowOps = "obs.slow_ops";
inline constexpr const char* kMObsIncidents = "obs.incidents";

// --- trace spans ------------------------------------------------------------
inline constexpr const char* kSpanVfsOpen = "vfs.open";
inline constexpr const char* kSpanVfsRead = "vfs.read";
inline constexpr const char* kSpanVfsWrite = "vfs.write";
inline constexpr const char* kSpanBaseRead = "basefs.read";
inline constexpr const char* kSpanBaseWrite = "basefs.write";
inline constexpr const char* kSpanBaseLockWait = "basefs.lock_wait";
inline constexpr const char* kSpanBaseCommitWait = "basefs.commit_wait";
inline constexpr const char* kSpanBaseCommit = "basefs.commit";
inline constexpr const char* kSpanBaseCheckpoint = "basefs.checkpoint";
inline constexpr const char* kSpanJournalCommit = "journal.commit";
inline constexpr const char* kSpanJournalGroupCommit = "journal.group_commit";
inline constexpr const char* kSpanJournalReplay = "journal.replay";
inline constexpr const char* kSpanJournalReplayApply = "journal.replay.apply";
inline constexpr const char* kSpanBaseInstallApply = "basefs.install.apply";
inline constexpr const char* kSpanBlockdevWriteback = "blockdev.writeback";
inline constexpr const char* kSpanShadowReplay = "shadow.replay";
inline constexpr const char* kSpanShadowReplayPrefetch =
    "shadow.replay.prefetch";
inline constexpr const char* kSpanFsckScan = "fsck.scan";
inline constexpr const char* kSpanFsckReconcile = "fsck.reconcile";
inline constexpr const char* kSpanRecovery = "rae.recovery";
inline constexpr const char* kSpanRecoveryDetect = "rae.recovery.detect";
inline constexpr const char* kSpanRecoveryContain = "rae.recovery.contain";
inline constexpr const char* kSpanRecoveryReboot = "rae.recovery.reboot";
inline constexpr const char* kSpanRecoveryReplay = "rae.recovery.replay";
inline constexpr const char* kSpanRecoveryDownload = "rae.recovery.download";
inline constexpr const char* kSpanRecoveryDownloadAttempt =
    "rae.recovery.download.attempt";
inline constexpr const char* kSpanRecoveryVerify = "rae.recovery.verify";
inline constexpr const char* kSpanRecoveryResume = "rae.recovery.resume";
inline constexpr const char* kSpanScrub = "rae.scrub";
inline constexpr const char* kSpanCrashRestart = "crashrestart.restart";

}  // namespace obs
}  // namespace raefs
