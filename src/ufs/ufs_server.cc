#include "ufs/ufs_server.h"

#include <unistd.h>

#include "basefs/base_fs.h"
#include "common/warn.h"
#include "oplog/payload.h"
#include "ufs/ufs_proto.h"

namespace raefs {
namespace ufs {

namespace {

/// Execute one request against the mounted base. Panics propagate.
OpOutcome execute(BaseFs& fs, const OpRequest& req) {
  OpOutcome out;
  switch (req.kind) {
    case OpKind::kLookup: {
      auto r = fs.lookup(req.path);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.assigned_ino = r.value();
      break;
    }
    case OpKind::kCreate: {
      auto r = fs.create(req.path, req.mode);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.assigned_ino = r.value();
      break;
    }
    case OpKind::kMkdir: {
      auto r = fs.mkdir(req.path, req.mode);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.assigned_ino = r.value();
      break;
    }
    case OpKind::kSymlink: {
      auto r = fs.symlink(req.path, req.path2);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.assigned_ino = r.value();
      break;
    }
    case OpKind::kUnlink:
      out.err = fs.unlink(req.path).error();
      break;
    case OpKind::kRmdir:
      out.err = fs.rmdir(req.path).error();
      break;
    case OpKind::kRename:
      out.err = fs.rename(req.path, req.path2).error();
      break;
    case OpKind::kLink:
      out.err = fs.link(req.path, req.path2).error();
      break;
    case OpKind::kReadlink: {
      auto r = fs.readlink(req.path);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.payload.assign(r.value().begin(), r.value().end());
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
    case OpKind::kRead: {
      auto r = fs.read(req.ino, req.gen, req.offset, req.len);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) {
        out.result_len = r.value().size();
        out.payload = std::move(r).value();
      }
      break;
    }
    case OpKind::kWrite: {
      auto r = fs.write(req.ino, req.gen, req.offset, req.data);
      out.err = r.ok() ? Errno::kOk : r.error();
      if (r.ok()) out.result_len = r.value();
      break;
    }
    case OpKind::kTruncate:
      out.err = fs.truncate(req.ino, req.gen, req.len).error();
      break;
    case OpKind::kFsync:
      out.err = fs.fsync(req.ino).error();
      break;
    case OpKind::kSync:
      out.err = fs.sync().error();
      break;
  }
  return out;
}

}  // namespace

void run_server(BlockDevice* dev, int req_fd, int resp_fd,
                BugRegistry* bugs) {
  WarnSink warns;  // microkernel server: WARNs logged locally, ignored
  auto mounted = BaseFs::mount(dev, BaseFsOptions{}, nullptr, bugs, &warns);
  if (!mounted.ok()) ::_exit(kServerExitMountFailed);
  auto& fs = *mounted.value();

  std::vector<uint8_t> buf;
  for (;;) {
    if (!recv_message(req_fd, &buf)) ::_exit(kServerExitClean);
    auto frame = decode_frame(buf);
    if (!frame.ok()) ::_exit(kServerExitClean);

    if (frame.value().kind == FrameKind::kShutdown) {
      OpOutcome out;
      out.err = fs.unmount().error();
      (void)send_message(resp_fd, encode_response(out));
      ::_exit(kServerExitClean);
    }

    OpOutcome out;
    try {
      out = execute(fs, frame.value().req);
    } catch (const FsPanicError&) {
      // The microkernel story: the bug kills THIS process and nothing
      // else. No reply -- the supervisor sees the pipe close.
      ::_exit(kServerExitPanic);
    }
    if (!send_message(resp_fd, encode_response(out))) {
      ::_exit(kServerExitClean);
    }
  }
}

}  // namespace ufs
}  // namespace raefs
