#include "rae/supervisor.h"

#include <fstream>

#include "blockdev/qdepth_probe.h"
#include "common/log.h"
#include "fsck/fsck.h"
#include "journal/journal.h"
#include "obs/flight_recorder.h"
#include "obs/incident.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "oplog/payload.h"
#include "rae/state_compare.h"

namespace raefs {
namespace {

/// Transient-fault tolerance for the recovery pipeline's own IO: how many
/// times to re-run the reboot's mount (journal replay included) and the
/// metadata download when they fail with a device error, before declaring
/// the recovery failed. Both are idempotent -- replay reapplies the same
/// committed transactions and the download installs the same shadow
/// blocks -- so re-running the phase after a transient EIO is safe.
constexpr uint32_t kRecoveryIoRetries = 2;

/// Flight-recorder tail for an incident report: the last `limit` events,
/// formatted like FlightRecorder::dump lines (one string each).
std::vector<std::string> flight_tail_lines(size_t limit) {
  std::vector<obs::FlightEvent> events = obs::flight().snapshot();
  size_t begin = events.size() > limit ? events.size() - limit : 0;
  std::vector<std::string> out;
  out.reserve(events.size() - begin);
  for (size_t i = begin; i < events.size(); ++i) {
    const obs::FlightEvent& ev = events[i];
    std::string line = "t=" + format_nanos(ev.t) + " [" +
                       obs::to_string(ev.component) + "] " + ev.kind;
    if (ev.detail[0] != '\0') {
      line += " ";
      line += ev.detail;
    }
    if (ev.a != 0 || ev.b != 0 || ev.c != 0) {
      line += " a=" + std::to_string(ev.a) + " b=" + std::to_string(ev.b) +
              " c=" + std::to_string(ev.c);
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// Persist the full incident log next to the image (best effort: a write
/// failure must never turn a successful recovery into an error).
void write_incidents_file(const std::string& path) {
  if (path.empty()) return;
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    RAEFS_LOG_WARN("rae") << "cannot write incident file " << path;
    return;
  }
  f << obs::incidents().to_json();
}

}  // namespace

// ---------------------------------------------------------------------------
// lifecycle
// ---------------------------------------------------------------------------

RaeSupervisor::RaeSupervisor(BlockDevice* dev, const RaeOptions& opts,
                             SimClockPtr clock, BugRegistry* bugs)
    : dev_(dev),
      opts_(opts),
      clock_(std::move(clock)),
      bugs_(bugs),
      executor_(make_executor(opts.fork_shadow)) {}

Result<std::unique_ptr<RaeSupervisor>> RaeSupervisor::start(
    BlockDevice* dev, const RaeOptions& opts, SimClockPtr clock,
    BugRegistry* bugs) {
  std::unique_ptr<RaeSupervisor> sup(
      new RaeSupervisor(dev, opts, std::move(clock), bugs));
  RAEFS_TRY_VOID(sup->mount_base());
  RaeSupervisor* raw = sup.get();
  sup->obs_collector_ = obs::metrics().register_collector(
      [raw](obs::MetricsSink& sink) {
        const RaeStats& s = raw->stats_;
        sink.counter(obs::kMRaeRecoveries, s.recoveries);
        sink.counter(obs::kMRaeRecoveriesFailed, s.failed_recoveries);
        sink.counter(obs::kMRaePanicsTrapped, s.panics_trapped);
        sink.counter(obs::kMRaeWarnRecoveries, s.warn_recoveries);
        sink.counter(obs::kMRaeShadowRetries, s.shadow_retries);
        sink.counter(obs::kMRaeOpsReplayed, s.ops_replayed_total);
        sink.counter(obs::kMRaeDiscrepancies, s.discrepancies_total);
        sink.counter(obs::kMRaeScrubs, s.scrubs);
        sink.counter(obs::kMRaeScrubDiscrepancies, s.scrub_discrepancies);
        sink.counter(obs::kMRaeForcedSyncs, s.forced_syncs);
        sink.counter(obs::kMRaeDownloadRetries, s.download_retries);
        if (s.autotuned_qdepth != 0) {
          sink.gauge(obs::kMRaeAutotuneQdepth,
                     static_cast<int64_t>(s.autotuned_qdepth));
        }
        sink.counter(obs::kMRaeDowntimeNs, s.total_downtime);
        sink.counter(obs::kMRaeRecoveryDetectNs, s.detect_ns);
        sink.counter(obs::kMRaeRecoveryContainNs, s.contain_ns);
        sink.counter(obs::kMRaeRecoveryRebootNs, s.reboot_ns);
        sink.counter(obs::kMRaeRecoveryReplayNs, s.replay_ns);
        sink.counter(obs::kMRaeRecoveryDownloadNs, s.download_ns);
        sink.counter(obs::kMRaeRecoveryVerifyNs, s.verify_ns);
        sink.counter(obs::kMRaeRecoveryResumeNs, s.resume_ns);
        sink.histogram(obs::kMRaeRecoveryTimeNs, s.recovery_time);
        OpLogStats ol = raw->oplog_stats();
        sink.gauge(obs::kMRaeOplogLiveRecords,
                   static_cast<int64_t>(ol.live_records));
        sink.gauge(obs::kMRaeOplogLiveBytes,
                   static_cast<int64_t>(ol.live_bytes));
      });
  return sup;
}

RaeSupervisor::~RaeSupervisor() = default;

Status RaeSupervisor::mount_base(uint32_t replay_workers) {
  RAEFS_TRY(base_, BaseFs::mount(dev_, opts_.base, clock_, bugs_, &warns_,
                                 replay_workers));
  hook_base();
  return Status::Ok();
}

void RaeSupervisor::hook_base() {
  base_->set_durable_callback(
      [this](Seq seq) { oplog_.truncate_durable(seq); });
}

Status RaeSupervisor::shutdown() {
  std::lock_guard<std::mutex> lk(mu_);
  if (shutdown_) return Errno::kInval;
  shutdown_ = true;
  if (offline_ || !base_) return Status::Ok();
  try {
    return base_->unmount();
  } catch (const FsPanicError& e) {
    // Validate-on-sync can trip in unmount's final sync: recover as a
    // trapped sync would, then unmount the recovered base once.
    ++stats_.panics_trapped;
    auto rec = recover(e.site(), 0);
    if (!rec.ok() || !base_) return Errno::kIo;
    try {
      return base_->unmount();
    } catch (const FsPanicError& e2) {
      stats_.last_failure =
          std::string("unmount re-panicked after recovery: ") + e2.what();
      offline_ = true;
      return Errno::kIo;
    }
  }
}

BaseFsStats RaeSupervisor::base_stats() const {
  return base_ ? base_->stats() : BaseFsStats{};
}

Result<ShadowOutcome> RaeSupervisor::scrub(bool deep) {
  // The lock is held throughout: the snapshot, the op-log capture, and
  // (for deep mode) the comparison against the live base must all see one
  // consistent moment. Shallow scrubs are short; deep scrubs block
  // operations for the duration -- a maintenance trade-off.
  obs::OpScope op;
  std::lock_guard<std::mutex> lk(mu_);
  if (offline_ || shutdown_ || !base_) return Errno::kIo;
  auto* capable = dynamic_cast<SnapshotCapable*>(dev_);
  if (capable == nullptr) return Errno::kNotSup;
  obs::TraceSpan span(obs::kSpanScrub, clock_.get());
  std::unique_ptr<BlockDevice> snap = capable->snapshot();
  std::vector<OpRecord> log = oplog_.snapshot();
  Geometry geo = base_->geometry();

  if (!Journal::replay(snap.get(), geo).ok()) return Errno::kIo;
  ShadowOutcome outcome =
      run_shadow(*executor_, snap.get(), log, opts_.shadow, clock_);

  if (outcome.ok && deep) {
    // Materialize the shadow's reconstruction on the scratch snapshot and
    // compare ESSENTIAL STATE (content included) against the live base:
    // catches silent data corruption nothing else can see.
    bool applied = true;
    for (const auto& ib : outcome.dirty) {
      if (!snap->write_block(ib.block, ib.data).ok()) applied = false;
    }
    if (applied && snap->flush().ok()) {
      auto reference = BaseFs::mount(snap.get(), BaseFsOptions{});
      if (reference.ok()) {
        auto diff = state_compare::diff_essential_state(*reference.value(),
                                                        *base_);
        if (!diff.empty()) {
          outcome.discrepancies.push_back(
              Discrepancy{0, "deep-scrub state divergence:\n" + diff});
        }
      }
    }
  }

  for (const auto& d : outcome.discrepancies) {
    RAEFS_LOG_WARN("rae") << "scrub discrepancy: " << d.description;
  }
  ++stats_.scrubs;
  stats_.scrub_discrepancies += outcome.discrepancies.size();
  obs::flight().record(obs::Component::kRae, "scrub", deep ? "deep" : "shallow",
                       clock_ ? clock_->now() : 0, outcome.ops_replayed,
                       outcome.discrepancies.size());
  return outcome;
}

// ---------------------------------------------------------------------------
// recovery pipeline
// ---------------------------------------------------------------------------

Result<ShadowOutcome> RaeSupervisor::recover(const FaultSite& site,
                                             Seq inflight_seq) {
  Nanos t0 = clock_ ? clock_->now() : 0;
  ++stats_.recoveries;
  RAEFS_LOG_INFO("rae") << "recovery triggered by " << site.function << ": "
                        << site.detail;
  obs::flight().record(obs::Component::kRae, "recover.begin", site.function,
                       t0, stats_.recoveries);
  obs::TraceSpan rspan(obs::kSpanRecovery, clock_.get());

  // One forensic artifact per recovery. The flight tail is captured NOW,
  // before the pipeline's own events: the interesting history is what led
  // up to the trip.
  obs::Incident inc;
  inc.t_begin = t0;
  inc.bug_id = site.bug_id;
  inc.trigger_function = site.function;
  inc.trigger_detail = site.detail;
  inc.failed_op_seq = inflight_seq;
  inc.op_id = obs::tls_op_context().op_id;
  inc.tid = static_cast<uint32_t>(this_thread_log_id());
  inc.flight_tail = flight_tail_lines(16);

  auto now = [&]() -> Nanos { return clock_ ? clock_->now() : 0; };
  auto charge_phase = [&] {
    if (clock_ && opts_.phase_bookkeeping_cost) {
      clock_->advance(opts_.phase_bookkeeping_cost);
    }
  };
  // Each phase is one scoped span (child of the recovery span), its
  // duration accumulated into the RaeStats per-phase fields -- which the
  // collector exports as the rae.recovery.*_ns counters (accumulating
  // them here as owned counters too would double-count in snapshots) --
  // and into this recovery's incident report.
  Nanos phase_begin = t0;
  auto end_phase = [&](Nanos RaeStats::*field, Nanos obs::Incident::*ifield) {
    Nanos d = now() - phase_begin;
    stats_.*field += d;
    inc.*ifield += d;
    phase_begin = now();
  };

  auto file_incident = [&] {
    inc.t_end = now();
    inc.forced_syncs = stats_.forced_syncs;
    obs::incidents().append(inc);
    write_incidents_file(opts_.incident_path);
  };

  // An offline supervisor holds no base instance: a failure after the
  // reboot drops the base it mounted.
  auto fail = [&](std::string why) -> Errno {
    ++stats_.failed_recoveries;
    stats_.last_failure = std::move(why);
    offline_ = true;
    base_.reset();
    if (clock_) {
      Nanos dt = clock_->now() - t0;
      stats_.total_downtime += dt;
      inc.downtime_ns = dt;
    }
    RAEFS_LOG_ERROR("rae") << "recovery FAILED, filesystem offline: "
                           << stats_.last_failure;
    obs::flight().record(obs::Component::kRae, "recover.fail",
                         stats_.last_failure, now());
    obs::flight().dump_now("recovery failed: " + stats_.last_failure);
    inc.ok = false;
    inc.failure = stats_.last_failure;
    file_incident();
    return Errno::kCorrupt;
  };

  // Detect: the error has been trapped; classify and account for it
  // before touching any state.
  {
    obs::TraceSpan ps(obs::kSpanRecoveryDetect, clock_.get(), rspan.id());
    charge_phase();
  }
  end_phase(&RaeStats::detect_ns, &obs::Incident::detect_ns);

  // Contain: discard every byte of the base's in-memory state -- all of
  // it is untrusted after the error.
  Geometry geo = base_ ? base_->geometry() : Geometry{};
  {
    obs::TraceSpan ps(obs::kSpanRecoveryContain, clock_.get(), rspan.id());
    base_.reset();
    charge_phase();
  }
  end_phase(&RaeStats::contain_ns, &obs::Incident::contain_ns);

  // Resolve the `0 = auto` worker knobs once per recovery from the
  // device's probed effective queue depth (cached per device, so only the
  // first auto recovery pays the probe). The chosen counts go into the
  // incident report so a forensic reader can see what the autotuner did.
  const bool any_auto =
      opts_.journal_replay_workers == 0 || opts_.fsck_workers == 0 ||
      opts_.shadow.replay_workers == 0 || opts_.base.install_workers == 0;
  if (any_auto) {
    stats_.autotuned_qdepth = cached_queue_depth(dev_).effective_depth;
  }
  const uint32_t replay_workers =
      resolve_workers(opts_.journal_replay_workers, dev_);
  const uint32_t fsck_workers = resolve_workers(opts_.fsck_workers, dev_);
  ShadowConfig shadow_cfg = opts_.shadow;
  shadow_cfg.replay_workers = resolve_workers(shadow_cfg.replay_workers, dev_);
  inc.autotuned_qdepth = stats_.autotuned_qdepth;
  inc.journal_replay_workers = replay_workers;
  inc.fsck_workers = fsck_workers;
  inc.shadow_replay_workers = shadow_cfg.replay_workers;
  inc.install_workers = resolve_workers(opts_.base.install_workers, dev_);

  // Reboot: pay the contained-reboot cost and mount a fresh base from the
  // on-disk image. The crashed instance left the superblock mounted, so
  // the mount replays the journal -- with the resolved worker count, its
  // one replay per reboot -- and the new base starts at the trusted
  // on-disk state S0.
  {
    obs::TraceSpan ps(obs::kSpanRecoveryReboot, clock_.get(), rspan.id());
    if (clock_) clock_->advance(opts_.contained_reboot_cost);
    if (geo.total_blocks == 0) {
      end_phase(&RaeStats::reboot_ns, &obs::Incident::reboot_ns);
      return fail("no geometry available");
    }
    // The mount is idempotent (replay reapplies the same transactions); a
    // transient device error anywhere in it vanishes on a re-run, so don't
    // take the filesystem offline for one EIO.
    Status mounted = mount_base(replay_workers);
    for (uint32_t attempt = 0; !mounted.ok() && attempt < kRecoveryIoRetries;
         ++attempt) {
      ++stats_.recovery_io_retries;
      RAEFS_LOG_WARN("rae") << "reboot mount attempt " << attempt + 1
                            << " failed; retrying";
      mounted = mount_base(replay_workers);
    }
    if (!mounted.ok()) {
      end_phase(&RaeStats::reboot_ns, &obs::Incident::reboot_ns);
      return fail("contained reboot: mount failed");
    }
  }
  end_phase(&RaeStats::reboot_ns, &obs::Incident::reboot_ns);

  // Replay: run the shadow over the recorded operation sequence. The
  // rebooted base sits idle meanwhile: beyond S0 it has written only its
  // superblock's state and mount count, and it has no IO in flight (a
  // forked shadow starts beside it). A refusal is retried a configurable
  // number of times: transient device faults during replay vanish on
  // retry, while genuine image corruption refuses identically every
  // attempt (§3.1 fault model).
  auto log = oplog_.snapshot();
  ShadowOutcome outcome;
  {
    obs::TraceSpan ps(obs::kSpanRecoveryReplay, clock_.get(), rspan.id());
    for (uint32_t attempt = 0; attempt <= opts_.shadow_retries; ++attempt) {
      if (attempt > 0) {
        ++stats_.shadow_retries;
        ++inc.shadow_retries;
      }
      outcome = run_shadow(*executor_, dev_, log, shadow_cfg, clock_);
      if (outcome.ok) break;
      RAEFS_LOG_WARN("rae") << "shadow attempt " << attempt + 1
                            << " refused: " << outcome.failure;
    }
    charge_phase();
  }
  stats_.ops_replayed_total += outcome.ops_replayed;
  stats_.discrepancies_total += outcome.discrepancies.size();
  inc.ops_replayed = outcome.ops_replayed;
  inc.discrepancies = outcome.discrepancies.size();
  for (const auto& d : outcome.discrepancies) {
    RAEFS_LOG_WARN("rae") << "shadow discrepancy: " << d.description;
  }
  end_phase(&RaeStats::replay_ns, &obs::Incident::replay_ns);
  if (!outcome.ok) return fail("shadow refused: " + outcome.failure);

  // Download: install the shadow's metadata into the base the reboot
  // mounted (hand-off).
  {
    obs::TraceSpan ps(obs::kSpanRecoveryDownload, clock_.get(), rspan.id());
    // The download is idempotent (it installs the same shadow blocks), so
    // a transient IO error mid-install is survivable: drop the base and
    // mount it again -- that mount's journal replay applies or discards
    // the interrupted install transaction -- and install again. A base
    // panic is NOT retried -- the shadow output deterministically trips an
    // invariant and would panic identically every attempt.
    Status downloaded = Errno::kIo;
    for (uint32_t attempt = 0; attempt <= kRecoveryIoRetries; ++attempt) {
      // Each attempt gets its own child span so a trace of a flaky device
      // shows every re-run (and what it cost), not one opaque phase.
      obs::TraceSpan as(obs::kSpanRecoveryDownloadAttempt, clock_.get(),
                        ps.id());
      if (attempt > 0) {
        ++stats_.recovery_io_retries;
        ++stats_.download_retries;
        ++inc.download_retries;
        RAEFS_LOG_WARN("rae")
            << "metadata download attempt " << attempt
            << " failed; remounting and retrying";
        base_.reset();
        Status mounted = mount_base(replay_workers);
        if (!mounted.ok()) {
          downloaded = mounted;
          continue;
        }
      }
      try {
        downloaded = base_->install_blocks(outcome.dirty);
      } catch (const FsPanicError& e) {
        end_phase(&RaeStats::download_ns, &obs::Incident::download_ns);
        return fail(std::string("base panicked absorbing shadow output: ") +
                    e.what());
      }
      if (downloaded.ok()) break;
    }
    if (!downloaded.ok()) {
      end_phase(&RaeStats::download_ns, &obs::Incident::download_ns);
      return fail("metadata download failed");
    }
    charge_phase();
  }
  end_phase(&RaeStats::download_ns, &obs::Incident::download_ns);

  // Verify (optional): prove the recovered on-disk state is consistent
  // before re-admitting operations. The check runs on a journal-replayed
  // snapshot -- the state a crash right now would recover to -- so the
  // live base and journal stay untouched. A fatal fsck finding means the
  // recovery produced a state the checker rejects: going offline beats
  // resuming on it.
  if (opts_.verify_after_recovery) {
    obs::TraceSpan ps(obs::kSpanRecoveryVerify, clock_.get(), rspan.id());
    auto* capable = dynamic_cast<SnapshotCapable*>(dev_);
    if (capable == nullptr) {
      obs::flight().record(obs::Component::kRae, "verify.skipped",
                           "device not snapshot-capable", now());
    } else {
      std::unique_ptr<BlockDevice> snap = capable->snapshot();
      auto replayed = Journal::replay(snap.get(), geo, replay_workers);
      if (!replayed.ok()) {
        end_phase(&RaeStats::verify_ns, &obs::Incident::verify_ns);
        return fail("post-recovery verify: journal replay on snapshot "
                    "failed");
      }
      FsckOptions fo;
      fo.level = FsckLevel::kStrict;
      fo.workers = fsck_workers;
      auto report = fsck(snap.get(), fo);
      if (!report.ok()) {
        end_phase(&RaeStats::verify_ns, &obs::Incident::verify_ns);
        return fail("post-recovery verify: fsck errored");
      }
      if (!report.value().consistent()) {
        end_phase(&RaeStats::verify_ns, &obs::Incident::verify_ns);
        return fail("post-recovery verify: fsck found fatal "
                    "inconsistencies: " +
                    report.value().summary());
      }
      obs::flight().record(obs::Component::kRae, "verify.ok", "", now(),
                           report.value().inodes_in_use,
                           report.value().blocks_claimed);
    }
    charge_phase();
  }
  end_phase(&RaeStats::verify_ns, &obs::Incident::verify_ns);

  // Resume: close the gap and re-admit operations.
  {
    obs::TraceSpan ps(obs::kSpanRecoveryResume, clock_.get(), rspan.id());
    // The recovered state is durable; the gap is closed.
    oplog_.clear();
    warns_.clear();

    // Re-issue any in-flight sync (paper §3.3).
    if (!outcome.inflight_retry_syncs.empty()) {
      Status synced = retry_sync_after_recovery();
      if (!synced.ok()) {
        end_phase(&RaeStats::resume_ns, &obs::Incident::resume_ns);
        return fail("post-recovery sync retry failed");
      }
    }
    charge_phase();
  }
  end_phase(&RaeStats::resume_ns, &obs::Incident::resume_ns);

  if (clock_) {
    Nanos dt = clock_->now() - t0;
    stats_.total_downtime += dt;
    stats_.recovery_time.record(dt);
    inc.downtime_ns = dt;
  }
  obs::flight().record(obs::Component::kRae, "recover.end", site.function,
                       now(), outcome.ops_replayed,
                       outcome.discrepancies.size());
  obs::flight().dump_now("recovery completed");
  inc.ok = true;
  file_incident();
  return outcome;
}

Status RaeSupervisor::retry_sync_after_recovery() {
  try {
    return base_->sync();
  } catch (const FsPanicError& e) {
    ++stats_.panics_trapped;
    // One nested recovery (the op log is empty now), then a final retry.
    auto rec = recover(e.site(), 0);
    if (!rec.ok()) return Errno::kIo;
    try {
      return base_->sync();
    } catch (const FsPanicError& e2) {
      stats_.last_failure =
          std::string("sync re-panicked after recovery: ") + e2.what();
      offline_ = true;
      return Errno::kIo;
    }
  }
}

void RaeSupervisor::maybe_recover_for_warns() {
  if (opts_.warn_policy == RaeOptions::WarnPolicy::kIgnore) return;
  uint64_t count = warns_.count();
  if (count == 0) return;
  bool trigger =
      opts_.warn_policy == RaeOptions::WarnPolicy::kRecoverImmediately ||
      count >= opts_.warn_threshold;
  if (!trigger) return;
  ++stats_.warn_recoveries;
  auto events = warns_.events();
  FaultSite site = events.empty() ? FaultSite{"warn", "escalation", -1}
                                  : events.back().site;
  obs::flight().record(obs::Component::kRae, "warn_escalation", site.function,
                       clock_ ? clock_->now() : 0, count);
  (void)recover(site, 0);
}

// ---------------------------------------------------------------------------
// operation plumbing
// ---------------------------------------------------------------------------

namespace {

/// Pack a base-filesystem result into the recorded outcome, by op kind.
OpOutcome pack_outcome(OpKind kind, Errno err, uint64_t value) {
  OpOutcome out;
  out.err = err;
  if (err != Errno::kOk) return out;
  switch (kind) {
    case OpKind::kCreate:
    case OpKind::kMkdir:
    case OpKind::kSymlink:
      out.assigned_ino = value;
      break;
    case OpKind::kWrite:
      out.result_len = value;
      break;
    default:
      break;
  }
  return out;
}

}  // namespace

Result<uint64_t> RaeSupervisor::run_mutation_u64(
    OpRequest req, const std::function<Result<uint64_t>(BaseFs&)>& fn) {
  // Operation boundary when the supervisor is driven directly (tests,
  // workloads); under a Vfs the scope inherits the id minted above, so
  // one application call stays one operation.
  obs::OpScope op;
  std::lock_guard<std::mutex> lk(mu_);
  if (offline_ || shutdown_) return Errno::kIo;
  OpKind kind = req.kind;
  req.stamp = clock_ ? clock_->now() : 0;
  if (clock_) {
    // Recording cost: allocate the record + copy the write payload. Tiny
    // next to device IO, but honestly accounted (bench_recording_overhead
    // measures exactly this).
    clock_->advance(100 + static_cast<Nanos>(req.data.size()) / 8);
  }
  obs::flight().record(obs::Component::kRae, to_string(req.kind), req.path,
                       req.stamp, req.ino, static_cast<uint64_t>(req.offset),
                       req.data.empty() ? req.len : req.data.size());
  Seq seq = oplog_.append_started(std::move(req));
  base_->set_current_op_seq(seq);
  try {
    Result<uint64_t> result = fn(*base_);
    oplog_.complete(seq, pack_outcome(kind, result.ok() ? Errno::kOk
                                                        : result.error(),
                                      result.ok() ? result.value() : 0));
    if (op_is_sync(kind) && result.ok()) {
      // A successful sync made everything before it durable, including
      // records the durable callback's watermark missed (its own seq).
      oplog_.truncate_durable(seq);
    } else if (opts_.max_oplog_bytes > 0 &&
               oplog_.stats().live_bytes > opts_.max_oplog_bytes) {
      // Bound recording memory: force the gap closed (the app never asked
      // for this sync, so its failure is not the app's problem -- a panic
      // here flows through the normal recovery path on the next op).
      ++stats_.forced_syncs;
      try {
        if (base_->sync().ok()) oplog_.truncate_durable(seq);
      } catch (const FsPanicError& e) {
        ++stats_.panics_trapped;
        (void)recover(e.site(), 0);
      }
    }
    maybe_recover_for_warns();
    return result;
  } catch (const FsPanicError& e) {
    ++stats_.panics_trapped;
    auto rec = recover(e.site(), seq);
    if (!rec.ok()) return Errno::kIo;
    if (op_is_sync(kind)) {
      // recover() already re-issued the sync (inflight_retry_syncs).
      return uint64_t{0};
    }
    for (const auto& [s, out] : rec.value().inflight_results) {
      if (s != seq) continue;
      if (out.err != Errno::kOk) return out.err;
      switch (kind) {
        case OpKind::kCreate:
        case OpKind::kMkdir:
        case OpKind::kSymlink:
          return out.assigned_ino;
        case OpKind::kWrite:
          return out.result_len;
        default:
          return uint64_t{0};
      }
    }
    // The shadow produced no result for the in-flight op: refuse rather
    // than guess.
    return Errno::kIo;
  }
}

// ---------------------------------------------------------------------------
// mutating operations
// ---------------------------------------------------------------------------

Result<Ino> RaeSupervisor::create(std::string_view path, uint16_t mode) {
  OpRequest req;
  req.kind = OpKind::kCreate;
  req.path = std::string(path);
  req.mode = mode;
  RAEFS_TRY(uint64_t ino, run_mutation_u64(std::move(req), [&](BaseFs& fs) {
              return fs.create(path, mode);
            }));
  return Ino{ino};
}

Result<Ino> RaeSupervisor::mkdir(std::string_view path, uint16_t mode) {
  OpRequest req;
  req.kind = OpKind::kMkdir;
  req.path = std::string(path);
  req.mode = mode;
  RAEFS_TRY(uint64_t ino, run_mutation_u64(std::move(req), [&](BaseFs& fs) {
              return fs.mkdir(path, mode);
            }));
  return Ino{ino};
}

Result<Ino> RaeSupervisor::symlink(std::string_view linkpath,
                                   std::string_view target) {
  OpRequest req;
  req.kind = OpKind::kSymlink;
  req.path = std::string(linkpath);
  req.path2 = std::string(target);
  RAEFS_TRY(uint64_t ino, run_mutation_u64(std::move(req), [&](BaseFs& fs) {
              return fs.symlink(linkpath, target);
            }));
  return Ino{ino};
}

namespace {
Result<uint64_t> as_u64(Status st) {
  if (!st.ok()) return st.error();
  return uint64_t{0};
}
}  // namespace

Status RaeSupervisor::unlink(std::string_view path) {
  OpRequest req;
  req.kind = OpKind::kUnlink;
  req.path = std::string(path);
  RAEFS_TRY_VOID(run_mutation_u64(std::move(req), [&](BaseFs& fs) {
    return as_u64(fs.unlink(path));
  }));
  return Status::Ok();
}

Status RaeSupervisor::rmdir(std::string_view path) {
  OpRequest req;
  req.kind = OpKind::kRmdir;
  req.path = std::string(path);
  RAEFS_TRY_VOID(run_mutation_u64(std::move(req), [&](BaseFs& fs) {
    return as_u64(fs.rmdir(path));
  }));
  return Status::Ok();
}

Status RaeSupervisor::rename(std::string_view src, std::string_view dst) {
  OpRequest req;
  req.kind = OpKind::kRename;
  req.path = std::string(src);
  req.path2 = std::string(dst);
  RAEFS_TRY_VOID(run_mutation_u64(std::move(req), [&](BaseFs& fs) {
    return as_u64(fs.rename(src, dst));
  }));
  return Status::Ok();
}

Status RaeSupervisor::link(std::string_view existing,
                           std::string_view newpath) {
  OpRequest req;
  req.kind = OpKind::kLink;
  req.path = std::string(existing);
  req.path2 = std::string(newpath);
  RAEFS_TRY_VOID(run_mutation_u64(std::move(req), [&](BaseFs& fs) {
    return as_u64(fs.link(existing, newpath));
  }));
  return Status::Ok();
}

Result<uint64_t> RaeSupervisor::write(Ino ino, uint64_t gen, FileOff off,
                                      std::span<const uint8_t> data) {
  OpRequest req;
  req.kind = OpKind::kWrite;
  req.ino = ino;
  req.gen = gen;
  req.offset = off;
  req.data.assign(data.begin(), data.end());
  return run_mutation_u64(std::move(req), [&](BaseFs& fs) {
    return fs.write(ino, gen, off, data);
  });
}

Status RaeSupervisor::truncate(Ino ino, uint64_t gen, uint64_t new_size) {
  OpRequest req;
  req.kind = OpKind::kTruncate;
  req.ino = ino;
  req.gen = gen;
  req.len = new_size;
  RAEFS_TRY_VOID(run_mutation_u64(std::move(req), [&](BaseFs& fs) {
    return as_u64(fs.truncate(ino, gen, new_size));
  }));
  return Status::Ok();
}

Status RaeSupervisor::fsync(Ino ino) {
  OpRequest req;
  req.kind = OpKind::kFsync;
  req.ino = ino;
  RAEFS_TRY_VOID(run_mutation_u64(std::move(req), [&](BaseFs& fs) {
    return as_u64(fs.fsync(ino));
  }));
  return Status::Ok();
}

Status RaeSupervisor::sync() {
  OpRequest req;
  req.kind = OpKind::kSync;
  RAEFS_TRY_VOID(run_mutation_u64(std::move(req), [&](BaseFs& fs) {
    return as_u64(fs.sync());
  }));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// read operations
// ---------------------------------------------------------------------------

// Reads are not recorded (they widen no app/disk gap). When one triggers
// an error, a synthetic in-flight record is appended to the shadow's input
// so the shadow executes it autonomously -- the base never re-runs the
// trigger (error avoidance for read-path deterministic bugs).
template <typename T>
Result<T> RaeSupervisor::run_read(
    OpRequest probe, const std::function<Result<T>(BaseFs&)>& fn,
    const std::function<Result<T>(const OpOutcome&)>& from_shadow) {
  obs::OpScope op;
  std::lock_guard<std::mutex> lk(mu_);
  if (offline_ || shutdown_) return Errno::kIo;
  try {
    Result<T> result = fn(*base_);
    maybe_recover_for_warns();
    return result;
  } catch (const FsPanicError& e) {
    ++stats_.panics_trapped;
    probe.stamp = clock_ ? clock_->now() : 0;
    obs::flight().record(obs::Component::kRae, to_string(probe.kind),
                         probe.path, probe.stamp, probe.ino,
                         static_cast<uint64_t>(probe.offset), probe.len);
    Seq seq = oplog_.append_started(std::move(probe));
    auto rec = recover(e.site(), seq);
    if (!rec.ok()) return Errno::kIo;
    for (const auto& [s, out] : rec.value().inflight_results) {
      if (s == seq) return from_shadow(out);
    }
    return Errno::kIo;
  }
}

Result<Ino> RaeSupervisor::lookup(std::string_view path) {
  OpRequest probe;
  probe.kind = OpKind::kLookup;
  probe.path = std::string(path);
  return run_read<Ino>(
      std::move(probe), [&](BaseFs& fs) { return fs.lookup(path); },
      [](const OpOutcome& out) -> Result<Ino> {
        if (out.err != Errno::kOk) return out.err;
        return out.assigned_ino;
      });
}

Result<std::string> RaeSupervisor::readlink(std::string_view path) {
  OpRequest probe;
  probe.kind = OpKind::kReadlink;
  probe.path = std::string(path);
  return run_read<std::string>(
      std::move(probe), [&](BaseFs& fs) { return fs.readlink(path); },
      [](const OpOutcome& out) -> Result<std::string> {
        if (out.err != Errno::kOk) return out.err;
        return std::string(out.payload.begin(), out.payload.end());
      });
}

Result<std::vector<DirEntry>> RaeSupervisor::readdir(std::string_view path) {
  OpRequest probe;
  probe.kind = OpKind::kReaddir;
  probe.path = std::string(path);
  return run_read<std::vector<DirEntry>>(
      std::move(probe), [&](BaseFs& fs) { return fs.readdir(path); },
      [](const OpOutcome& out) -> Result<std::vector<DirEntry>> {
        if (out.err != Errno::kOk) return out.err;
        return decode_dirents(out.payload);
      });
}

namespace {
Result<StatResult> stat_from_outcome(const OpOutcome& out) {
  if (out.err != Errno::kOk) return out.err;
  RAEFS_TRY(StatPayload st, decode_stat(out.payload));
  return StatResult{st.ino, st.type, st.size, st.nlink, st.mode,
                    st.generation};
}
}  // namespace

Result<StatResult> RaeSupervisor::stat(std::string_view path) {
  OpRequest probe;
  probe.kind = OpKind::kStat;
  probe.path = std::string(path);
  return run_read<StatResult>(
      std::move(probe), [&](BaseFs& fs) { return fs.stat(path); },
      stat_from_outcome);
}

Result<StatResult> RaeSupervisor::stat_ino(Ino ino) {
  OpRequest probe;
  probe.kind = OpKind::kStat;
  probe.ino = ino;
  return run_read<StatResult>(
      std::move(probe), [&](BaseFs& fs) { return fs.stat_ino(ino); },
      stat_from_outcome);
}

Result<std::vector<uint8_t>> RaeSupervisor::read(Ino ino, uint64_t gen,
                                                 FileOff off, uint64_t len) {
  OpRequest probe;
  probe.kind = OpKind::kRead;
  probe.ino = ino;
  probe.gen = gen;
  probe.offset = off;
  probe.len = len;
  return run_read<std::vector<uint8_t>>(
      std::move(probe),
      [&](BaseFs& fs) { return fs.read(ino, gen, off, len); },
      [](const OpOutcome& out) -> Result<std::vector<uint8_t>> {
        if (out.err != Errno::kOk) return out.err;
        return out.payload;
      });
}

}  // namespace raefs
