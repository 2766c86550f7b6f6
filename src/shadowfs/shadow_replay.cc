#include "shadowfs/shadow_replay.h"

#include <sstream>

#include "common/panic.h"
#include "oplog/payload.h"

namespace raefs {

namespace {

/// Apply one request to a ShadowFs. `forced_ino` carries the base's
/// recorded allocation decision in constrained mode (kInvalidIno =
/// autonomous).
OpOutcome shadow_apply_op(ShadowFs& fs, const OpRequest& req,
                          Ino forced_ino) {
  OpOutcome out;
  switch (req.kind) {
    case OpKind::kCreate: {
      auto r = fs.create(req.path, req.mode, req.stamp, forced_ino);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.assigned_ino = r.value();
      break;
    }
    case OpKind::kMkdir: {
      auto r = fs.mkdir(req.path, req.mode, req.stamp, forced_ino);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.assigned_ino = r.value();
      break;
    }
    case OpKind::kSymlink: {
      auto r = fs.symlink(req.path, req.path2, req.stamp, forced_ino);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.assigned_ino = r.value();
      break;
    }
    case OpKind::kUnlink:
      out.err = fs.unlink(req.path, req.stamp).error();
      break;
    case OpKind::kRmdir:
      out.err = fs.rmdir(req.path, req.stamp).error();
      break;
    case OpKind::kRename:
      out.err = fs.rename(req.path, req.path2, req.stamp).error();
      break;
    case OpKind::kLink:
      out.err = fs.link(req.path, req.path2, req.stamp).error();
      break;
    case OpKind::kWrite: {
      auto r = fs.write(req.ino, req.gen, req.offset, req.data, req.stamp);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.result_len = r.value();
      break;
    }
    case OpKind::kTruncate:
      out.err = fs.truncate(req.ino, req.gen, req.len, req.stamp).error();
      break;
    // Read-class ops reach the shadow only as the in-flight (autonomous)
    // operation: the error-triggering op may itself be a read, and the
    // base must not re-execute it (error avoidance). Results travel back
    // in the payload.
    case OpKind::kLookup: {
      auto r = fs.lookup(req.path);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.assigned_ino = r.value();
      break;
    }
    case OpKind::kRead: {
      auto r = fs.read(req.ino, req.gen, req.offset, req.len);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) {
        out.result_len = r.value().size();
        out.payload = std::move(r).value();
      }
      break;
    }
    case OpKind::kReaddir: {
      auto r = fs.readdir(req.path);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.payload = encode_dirents(r.value());
      break;
    }
    case OpKind::kStat: {
      auto r = req.path.empty() ? fs.stat_ino(req.ino) : fs.stat(req.path);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) {
        const StatResult& st = r.value();
        out.payload = encode_stat(StatPayload{st.ino, st.type, st.size,
                                              st.nlink, st.mode,
                                              st.generation});
      }
      break;
    }
    case OpKind::kReadlink: {
      auto r = fs.readlink(req.path);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) {
        out.payload.assign(r.value().begin(), r.value().end());
      }
      break;
    }
    default:
      out.err = Errno::kNotSup;
      break;
  }
  return out;
}

std::string describe_mismatch(const OpRecord& rec, const OpOutcome& replayed) {
  std::ostringstream os;
  os << "op " << rec.seq << " (" << rec.req.describe() << "): base {err="
     << to_string(rec.out.err) << " ino=" << rec.out.assigned_ino
     << " len=" << rec.out.result_len << "} vs shadow {err="
     << to_string(replayed.err) << " ino=" << replayed.assigned_ino
     << " len=" << replayed.result_len << "}";
  return os.str();
}

/// Constrained-mode cross-check: does the shadow's re-execution outcome
/// match what the application was shown?
bool outcomes_agree(const OpRecord& rec, const OpOutcome& replayed) {
  if (rec.out.err != replayed.err) return false;
  if (rec.out.err != Errno::kOk) return true;  // both failed identically
  if (rec.out.assigned_ino != replayed.assigned_ino) return false;
  if (rec.req.kind == OpKind::kWrite &&
      rec.out.result_len != replayed.result_len) {
    return false;
  }
  return true;
}

}  // namespace

ShadowOutcome shadow_execute(BlockDevice* dev,
                             const std::vector<OpRecord>& log,
                             const ShadowConfig& config, SimClockPtr clock) {
  ShadowOutcome outcome;
  Nanos start = clock ? clock->now() : 0;
  ShadowFs fs(dev, config.checks, clock);
  try {
    fs.open();

    for (const OpRecord& rec : log) {
      if (op_is_sync(rec.req.kind)) {
        if (!rec.completed) outcome.inflight_retry_syncs.push_back(rec.seq);
        ++outcome.ops_skipped_sync;
        continue;
      }
      // Completed reads widen no gap and are never recorded; one may
      // appear only as the in-flight (error-triggering) operation.
      if (rec.completed && !op_mutates(rec.req.kind)) continue;

      if (rec.completed) {
        // Constrained mode.
        if (rec.out.err != Errno::kOk) {
          // The base returned an error the application has seen: the op
          // had (by API contract) no effect; omit it (paper §3.2).
          ++outcome.ops_skipped_errored;
          continue;
        }
        OpOutcome replayed =
            shadow_apply_op(fs, rec.req, rec.out.assigned_ino);
        ++outcome.ops_replayed;
        if (!outcomes_agree(rec, replayed)) {
          outcome.discrepancies.push_back(
              Discrepancy{rec.seq, describe_mismatch(rec, replayed)});
          if (!config.continue_on_discrepancy) {
            outcome.failure = "fatal discrepancy: " +
                              outcome.discrepancies.back().description;
            break;
          }
        }
      } else {
        // Autonomous mode: own policy decisions; result delivered to the
        // application by the supervisor.
        OpOutcome replayed = shadow_apply_op(fs, rec.req, kInvalidIno);
        ++outcome.ops_replayed;
        outcome.inflight_results.emplace_back(rec.seq, replayed);
      }
    }

    if (outcome.failure.empty()) {
      outcome.dirty = fs.seal();
      outcome.ok = true;
    }
  } catch (const ShadowCheckError& e) {
    outcome.failure = e.what();
  }
  // A refusal reports what it cost too: a fork-mode parent charges its
  // clock with sim_time_used.
  outcome.device_reads = fs.device_reads();
  outcome.checks = fs.checks_performed();
  outcome.sim_time_used = clock ? clock->now() - start : 0;
  return outcome;
}

}  // namespace raefs
