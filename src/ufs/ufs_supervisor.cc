#include "ufs/ufs_supervisor.h"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "common/log.h"
#include "format/superblock.h"
#include "journal/journal.h"
#include "oplog/payload.h"
#include "ufs/ufs_proto.h"
#include "ufs/ufs_server.h"

namespace raefs {

UfsSupervisor::UfsSupervisor(ShmBlockDevice* dev, const UfsOptions& opts,
                             SimClockPtr clock, BugRegistry* bugs)
    : dev_(dev), opts_(opts), clock_(std::move(clock)), bugs_(bugs) {}

Result<std::unique_ptr<UfsSupervisor>> UfsSupervisor::start(
    ShmBlockDevice* dev, const UfsOptions& opts, SimClockPtr clock,
    BugRegistry* bugs) {
  std::vector<uint8_t> sb_block(kBlockSize);
  RAEFS_TRY_VOID(dev->read_block(0, sb_block));
  RAEFS_TRY(Superblock sb, Superblock::decode(sb_block));
  RAEFS_TRY(Geometry geo, sb.geometry());

  std::unique_ptr<UfsSupervisor> sup(
      new UfsSupervisor(dev, opts, std::move(clock), bugs));
  sup->geo_ = geo;
  RAEFS_TRY_VOID(sup->spawn_server());
  return sup;
}

UfsSupervisor::~UfsSupervisor() {
  if (child_ > 0) {
    ::kill(child_, SIGKILL);
    reap_server();
  }
}

Status UfsSupervisor::spawn_server() {
  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) != 0) return Errno::kIo;
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return Errno::kIo;
  }

  pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    return Errno::kIo;
  }
  if (pid == 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    ufs::run_server(dev_, to_child[0], from_child[1], bugs_);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  to_child_ = to_child[1];
  from_child_ = from_child[0];
  child_ = pid;
  ++stats_.respawns;
  return Status::Ok();
}

void UfsSupervisor::reap_server() {
  if (to_child_ >= 0) ::close(to_child_);
  if (from_child_ >= 0) ::close(from_child_);
  to_child_ = -1;
  from_child_ = -1;
  if (child_ > 0) {
    int status = 0;
    (void)::waitpid(child_, &status, 0);
    child_ = -1;
  }
}

Status UfsSupervisor::run_recovery(const std::vector<OpRecord>& log,
                                   ShadowOutcome* outcome) {
  // 1. The dead server's memory is gone (that is the point); the shared
  //    store survives. Reach S0 via journal replay.
  if (!Journal::replay(dev_, geo_).ok()) return Errno::kIo;

  // 2. Shadow replay (in the supervisor's process), with retries.
  for (uint32_t attempt = 0; attempt <= opts_.shadow_retries; ++attempt) {
    *outcome = run_shadow(shadow_exec_, dev_, log, opts_.shadow, clock_);
    if (outcome->ok) break;
    RAEFS_LOG_WARN("ufs") << "shadow attempt " << attempt + 1
                          << " refused: " << outcome->failure;
  }
  stats_.ops_replayed_total += outcome->ops_replayed;
  if (!outcome->ok) return Errno::kCorrupt;

  // 3. Microkernel hand-off: the supervisor owns the store, so the
  //    shadow's dirty set is written straight in -- no download RPC.
  for (const auto& ib : outcome->dirty) {
    RAEFS_TRY_VOID(dev_->write_block(ib.block, ib.data));
  }
  RAEFS_TRY_VOID(dev_->flush());

  // 4. Fork a fresh server ("effortless contained reboot").
  if (clock_) clock_->advance(opts_.respawn_cost);
  RAEFS_TRY_VOID(spawn_server());
  oplog_.clear();
  return Status::Ok();
}

Result<OpOutcome> UfsSupervisor::recover_and_answer(Seq inflight_seq) {
  Nanos t0 = clock_ ? clock_->now() : 0;
  ++stats_.recoveries;
  ++stats_.server_crashes;
  reap_server();

  auto log = oplog_.snapshot();
  ShadowOutcome outcome;
  Status recovered = run_recovery(log, &outcome);
  if (!recovered.ok()) {
    ++stats_.failed_recoveries;
    stats_.last_failure = outcome.failure.empty() ? "recovery failed"
                                                  : outcome.failure;
    offline_ = true;
    if (clock_) stats_.total_downtime += clock_->now() - t0;
    RAEFS_LOG_ERROR("ufs") << "recovery FAILED, filesystem offline: "
                           << stats_.last_failure;
    return Errno::kIo;
  }
  if (clock_) {
    Nanos dt = clock_->now() - t0;
    stats_.total_downtime += dt;
    stats_.recovery_time.record(dt);
  }

  // Answer the in-flight op from the shadow's autonomous result; an
  // in-flight sync is re-issued against the fresh server instead.
  for (Seq retry : outcome.inflight_retry_syncs) {
    if (retry != inflight_seq) continue;
    OpRequest sync_req;
    sync_req.kind = OpKind::kSync;
    if (!ufs::send_message(to_child_,
                           ufs::encode_frame(
                               ufs::Frame{ufs::FrameKind::kOp, sync_req}))) {
      return Errno::kIo;
    }
    std::vector<uint8_t> buf;
    if (!ufs::recv_message(from_child_, &buf)) return Errno::kIo;
    return ufs::decode_response(buf);
  }
  for (const auto& [seq, out] : outcome.inflight_results) {
    if (seq == inflight_seq) return out;
  }
  return Errno::kIo;
}

Result<OpOutcome> UfsSupervisor::rpc(OpRequest req, bool record) {
  std::lock_guard<std::mutex> lk(mu_);
  if (offline_ || shutdown_) return Errno::kIo;
  req.stamp = clock_ ? clock_->now() : 0;
  OpKind kind = req.kind;

  Seq seq = 0;
  if (record) {
    seq = oplog_.append_started(req);
  }

  bool sent = ufs::send_message(
      to_child_, ufs::encode_frame(ufs::Frame{ufs::FrameKind::kOp, req}));
  std::vector<uint8_t> buf;
  if (!sent || !ufs::recv_message(from_child_, &buf)) {
    // The server died executing this op: microkernel fault isolation in
    // action. Reads were not recorded; give the shadow a synthetic
    // in-flight record so it executes the trigger autonomously.
    if (!record) seq = oplog_.append_started(req);
    return recover_and_answer(seq);
  }

  auto outcome = ufs::decode_response(buf);
  if (!outcome.ok()) return Errno::kIo;
  if (record) {
    oplog_.complete(seq, outcome.value());
    if (op_is_sync(kind) && outcome.value().err == Errno::kOk) {
      oplog_.truncate_durable(seq);
    }
  }
  return outcome;
}

// --- public API -------------------------------------------------------------

namespace {
Result<Ino> as_ino(Result<OpOutcome> out) {
  RAEFS_TRY(OpOutcome o, std::move(out));
  if (o.err != Errno::kOk) return o.err;
  return o.assigned_ino;
}
Status as_status(Result<OpOutcome> out) {
  RAEFS_TRY(OpOutcome o, std::move(out));
  return Status(o.err);
}
}  // namespace

Result<Ino> UfsSupervisor::lookup(std::string_view path) {
  OpRequest req;
  req.kind = OpKind::kLookup;
  req.path = std::string(path);
  return as_ino(rpc(std::move(req), /*record=*/false));
}

Result<Ino> UfsSupervisor::create(std::string_view path, uint16_t mode) {
  OpRequest req;
  req.kind = OpKind::kCreate;
  req.path = std::string(path);
  req.mode = mode;
  return as_ino(rpc(std::move(req), /*record=*/true));
}

Result<Ino> UfsSupervisor::mkdir(std::string_view path, uint16_t mode) {
  OpRequest req;
  req.kind = OpKind::kMkdir;
  req.path = std::string(path);
  req.mode = mode;
  return as_ino(rpc(std::move(req), /*record=*/true));
}

Status UfsSupervisor::unlink(std::string_view path) {
  OpRequest req;
  req.kind = OpKind::kUnlink;
  req.path = std::string(path);
  return as_status(rpc(std::move(req), /*record=*/true));
}

Status UfsSupervisor::rmdir(std::string_view path) {
  OpRequest req;
  req.kind = OpKind::kRmdir;
  req.path = std::string(path);
  return as_status(rpc(std::move(req), /*record=*/true));
}

Status UfsSupervisor::rename(std::string_view src, std::string_view dst) {
  OpRequest req;
  req.kind = OpKind::kRename;
  req.path = std::string(src);
  req.path2 = std::string(dst);
  return as_status(rpc(std::move(req), /*record=*/true));
}

Status UfsSupervisor::link(std::string_view existing,
                           std::string_view newpath) {
  OpRequest req;
  req.kind = OpKind::kLink;
  req.path = std::string(existing);
  req.path2 = std::string(newpath);
  return as_status(rpc(std::move(req), /*record=*/true));
}

Result<Ino> UfsSupervisor::symlink(std::string_view linkpath,
                                   std::string_view target) {
  OpRequest req;
  req.kind = OpKind::kSymlink;
  req.path = std::string(linkpath);
  req.path2 = std::string(target);
  return as_ino(rpc(std::move(req), /*record=*/true));
}

Result<std::string> UfsSupervisor::readlink(std::string_view path) {
  OpRequest req;
  req.kind = OpKind::kReadlink;
  req.path = std::string(path);
  RAEFS_TRY(OpOutcome out, rpc(std::move(req), /*record=*/false));
  if (out.err != Errno::kOk) return out.err;
  return std::string(out.payload.begin(), out.payload.end());
}

Result<std::vector<DirEntry>> UfsSupervisor::readdir(std::string_view path) {
  OpRequest req;
  req.kind = OpKind::kReaddir;
  req.path = std::string(path);
  RAEFS_TRY(OpOutcome out, rpc(std::move(req), /*record=*/false));
  if (out.err != Errno::kOk) return out.err;
  return decode_dirents(out.payload);
}

namespace {
Result<StatResult> as_stat(Result<OpOutcome> out) {
  RAEFS_TRY(OpOutcome o, std::move(out));
  if (o.err != Errno::kOk) return o.err;
  RAEFS_TRY(StatPayload st, decode_stat(o.payload));
  return StatResult{st.ino, st.type, st.size, st.nlink, st.mode,
                    st.generation};
}
}  // namespace

Result<StatResult> UfsSupervisor::stat(std::string_view path) {
  OpRequest req;
  req.kind = OpKind::kStat;
  req.path = std::string(path);
  return as_stat(rpc(std::move(req), /*record=*/false));
}

Result<StatResult> UfsSupervisor::stat_ino(Ino ino) {
  OpRequest req;
  req.kind = OpKind::kStat;
  req.ino = ino;
  return as_stat(rpc(std::move(req), /*record=*/false));
}

Result<std::vector<uint8_t>> UfsSupervisor::read(Ino ino, uint64_t gen,
                                                 FileOff off, uint64_t len) {
  OpRequest req;
  req.kind = OpKind::kRead;
  req.ino = ino;
  req.gen = gen;
  req.offset = off;
  req.len = len;
  RAEFS_TRY(OpOutcome out, rpc(std::move(req), /*record=*/false));
  if (out.err != Errno::kOk) return out.err;
  return out.payload;
}

Result<uint64_t> UfsSupervisor::write(Ino ino, uint64_t gen, FileOff off,
                                      std::span<const uint8_t> data) {
  OpRequest req;
  req.kind = OpKind::kWrite;
  req.ino = ino;
  req.gen = gen;
  req.offset = off;
  req.data.assign(data.begin(), data.end());
  RAEFS_TRY(OpOutcome out, rpc(std::move(req), /*record=*/true));
  if (out.err != Errno::kOk) return out.err;
  return out.result_len;
}

Status UfsSupervisor::truncate(Ino ino, uint64_t gen, uint64_t new_size) {
  OpRequest req;
  req.kind = OpKind::kTruncate;
  req.ino = ino;
  req.gen = gen;
  req.len = new_size;
  return as_status(rpc(std::move(req), /*record=*/true));
}

Status UfsSupervisor::fsync(Ino ino) {
  OpRequest req;
  req.kind = OpKind::kFsync;
  req.ino = ino;
  return as_status(rpc(std::move(req), /*record=*/true));
}

Status UfsSupervisor::sync() {
  OpRequest req;
  req.kind = OpKind::kSync;
  return as_status(rpc(std::move(req), /*record=*/true));
}

Status UfsSupervisor::shutdown() {
  std::lock_guard<std::mutex> lk(mu_);
  if (shutdown_) return Errno::kInval;
  shutdown_ = true;
  if (offline_ || child_ <= 0) {
    reap_server();
    return Status::Ok();
  }
  ufs::Frame frame;
  frame.kind = ufs::FrameKind::kShutdown;
  Status result = Errno::kIo;
  if (ufs::send_message(to_child_, ufs::encode_frame(frame))) {
    std::vector<uint8_t> buf;
    if (ufs::recv_message(from_child_, &buf)) {
      auto out = ufs::decode_response(buf);
      if (out.ok()) result = Status(out.value().err);
    }
  }
  reap_server();
  return result;
}

}  // namespace raefs
