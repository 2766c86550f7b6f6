// Seeded op-stream generator and result model for the perfbench workloads.
//
// Every input the benchmark feeds the filesystem comes from here: the
// prepopulated tree, each client's call stream, the file contents, and the
// fault schedule. Nothing is taken from src/workload, so a change to the
// program cannot change the inputs.
//
// A Client owns one application's view: its files, their expected bytes,
// and the open descriptors. step() picks the next call from the seeded RNG
// and the model alone (never from a filesystem result), times the Vfs call,
// checks the result against the model and then applies it to the model.
// Replaying a client with the same seed through another stack therefore
// issues the identical call sequence.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "vfs/vfs.h"

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return next() % n; }
  uint64_t range(uint64_t lo, uint64_t hi) { return lo + below(hi - lo + 1); }

 private:
  uint64_t s_;
};

/// The application calls the workloads issue.
enum class Kind : uint8_t {
  kPread,
  kStat,
  kReaddir,
  kPwrite,
  kCreate,
  kUnlink,
  kRename,
  kFsync,
  kSync,
};
inline constexpr int kKinds = 9;

/// Latency classes of the end-to-end metrics.
enum class Cls : uint8_t { kRead = 0, kWrite = 1, kSync = 2 };
inline constexpr int kClasses = 3;

inline Cls class_of(Kind k) {
  switch (k) {
    case Kind::kPread:
    case Kind::kStat:
    case Kind::kReaddir:
      return Cls::kRead;
    case Kind::kFsync:
    case Kind::kSync:
      return Cls::kSync;
    default:
      return Cls::kWrite;
  }
}

inline const char* kind_name(Kind k) {
  static const char* const kNames[kKinds] = {
      "pread", "stat", "readdir", "pwrite", "create",
      "unlink", "rename", "fsync", "sync"};
  return kNames[static_cast<int>(k)];
}

inline const char* class_name(Cls c) {
  static const char* const kNames[kClasses] = {"read", "write", "sync"};
  return kNames[static_cast<int>(c)];
}

/// Name suffix that the injected crash bug matches on create.
inline constexpr const char* kFaultMarker = "-FAULT";

/// Everything that shapes one client's call stream.
struct Mix {
  bool varmail = false;  // mail-spool cycle instead of the fileserver mix
  // fileserver tree (per client)
  uint32_t dirs = 16;
  uint32_t files_per_dir = 24;
  uint32_t min_file = 16 * 1024;
  uint32_t max_file = 112 * 1024;
  uint32_t max_io = 16 * 1024;
  uint32_t churn_cap = 128;  // live files created during the run, at most
  // varmail spool (per client)
  uint32_t messages = 32;
  uint32_t min_message = 1024;
  uint32_t max_message = 16 * 1024;
  uint32_t read_chunk = 4096;  // a whole-message read is a loop of preads
  // Durability and faults, counted in calls since the last sync.
  uint64_t sync_every = 0;   // 0 = no periodic sync
  uint64_t fault_after = 0;  // 0 = no injected faults
};

/// One executed call, as the client loop sees it.
struct Call {
  Kind kind = Kind::kSync;
  bool ok = true;         // no error result and no model mismatch
  bool marker = false;    // the create that carries the fault marker
  uint64_t t0 = 0;        // wall-clock bounds of the Vfs call
  uint64_t t1 = 0;
  uint64_t app_bytes = 0;  // payload bytes written by the call
  raefs::Errno err = raefs::Errno::kOk;
};

/// Hooks a traced run uses to bracket each Vfs call (see spans.h).
class CallObserver {
 public:
  virtual ~CallObserver() = default;
  virtual uint64_t open_call() = 0;
  virtual void close_call(uint64_t id, Kind kind, uint64_t t0,
                          uint64_t t1) = 0;
};

class Client {
 public:
  Client(const Mix& mix, uint64_t seed, uint32_t index)
      : mix_(mix),
        rng_(seed * 0x100000001b3ull + index + 1),
        data_seed_(seed ^ (0xda7aull << 32) ^ index),
        prefix_("/c" + std::to_string(index)) {}

  void set_observer(CallObserver* obs) { obs_ = obs; }
  void set_schedule(uint64_t sync_every, uint64_t fault_after) {
    mix_.sync_every = sync_every;
    mix_.fault_after = fault_after;
    since_sync_ = 0;
  }

  /// Build this client's initial tree (untimed set-up). Returns false if
  /// any call failed.
  template <class FsT>
  bool populate(raefs::Vfs<FsT>& vfs) {
    bool ok = true;
    if (mix_.varmail) {
      dir_names_.resize(1);
      ok &= vfs.mkdir(dir_path(0)).ok();
      for (uint32_t i = 0; i < mix_.messages; ++i) {
        size_t f = new_file(0, false);
        ok &= open_create(vfs, f);
        ok &= write_at(vfs, f, 0, rng_.range(mix_.min_message,
                                             mix_.max_message));
        spool_.push_back(files_[f].id);
      }
    } else {
      dir_names_.resize(mix_.dirs);
      for (uint32_t d = 0; d < mix_.dirs; ++d) {
        ok &= vfs.mkdir(dir_path(d)).ok();
      }
      for (uint32_t d = 0; d < mix_.dirs; ++d) {
        for (uint32_t i = 0; i < mix_.files_per_dir; ++i) {
          size_t f = new_file(d, false);
          ok &= open_create(vfs, f);
          ok &= write_at(vfs, f, 0, rng_.range(mix_.min_file, mix_.max_file));
        }
        if (d % 4 == 3) ok &= vfs.sync().ok();
      }
    }
    ok &= vfs.sync().ok();
    return ok;
  }

  /// Issue the next call of the stream.
  template <class FsT>
  Call step(raefs::Vfs<FsT>& vfs) {
    Call c;
    if (mix_.sync_every != 0 && since_sync_ >= mix_.sync_every) {
      c = do_sync(vfs);
    } else if (mix_.varmail) {
      c = varmail_step(vfs);
    } else {
      c = fileserver_step(vfs);
    }
    since_sync_ = c.kind == Kind::kSync ? 0 : since_sync_ + 1;
    return c;
  }

  /// Compare the filesystem's tree with the model: every directory's
  /// names, and every file's size and bytes. Returns the number of
  /// mismatches; `checks` counts the comparisons made.
  template <class Fs>
  uint64_t verify(Fs& fs, uint64_t* checks) const {
    uint64_t bad = 0;
    for (size_t d = 0; d < dir_names_.size(); ++d) {
      ++*checks;
      auto listed = fs.readdir(dir_path(d));
      if (!listed.ok() || !same_names(listed.value(), dir_names_[d])) ++bad;
    }
    for (const File& f : files_) {
      ++*checks;
      auto st = fs.stat(path_of(f));
      if (!st.ok() || st.value().size != f.data.size()) {
        ++bad;
        continue;
      }
      auto got = fs.read(st.value().ino, st.value().generation, 0,
                         f.data.size());
      if (!got.ok() || got.value() != f.data) ++bad;
    }
    return bad;
  }

 private:
  struct File {
    uint64_t id = 0;
    uint32_t dir = 0;
    std::string name;
    raefs::Fd fd = raefs::kInvalidFd;
    bool churn = false;
    std::vector<uint8_t> data;
  };

  std::string dir_path(uint32_t d) const {
    return mix_.varmail ? prefix_ + "spool" : prefix_ + "d" + std::to_string(d);
  }
  std::string path_of(const File& f) const {
    return dir_path(f.dir) + "/" + f.name;
  }

  size_t new_file(uint32_t dir, bool churn, bool marker = false) {
    File f;
    f.id = next_id_++;
    f.dir = dir;
    f.name = (churn ? "n" : "f") + std::to_string(f.id) +
             (marker ? kFaultMarker : "");
    f.churn = churn;
    dir_names_[dir].insert(f.name);
    files_.push_back(std::move(f));
    return files_.size() - 1;
  }

  size_t find(uint64_t id) const {
    for (size_t i = 0; i < files_.size(); ++i) {
      if (files_[i].id == id) return i;
    }
    return files_.size();
  }

  void remove_file(size_t f) {
    dir_names_[files_[f].dir].erase(files_[f].name);
    files_[f] = std::move(files_.back());
    files_.pop_back();
  }

  /// Content of a write: derived from the seed, the file, and the write's
  /// own sequence number, so every write changes the bytes it covers.
  void fill(std::vector<uint8_t>* buf, uint64_t file_id, uint64_t len) {
    buf->resize(len);
    Rng r(data_seed_ ^ (file_id << 20) ^ (++writes_ * 0x9e3779b97f4a7c15ull));
    for (uint64_t i = 0; i < len; i += 8) {
      uint64_t v = r.next();
      std::memcpy(buf->data() + i, &v, std::min<uint64_t>(8, len - i));
    }
  }

  template <class F>
  auto timed(Call* c, F&& fn) {
    uint64_t id = obs_ ? obs_->open_call() : 0;
    c->t0 = now_ns();
    auto r = fn();
    c->t1 = now_ns();
    if (obs_) obs_->close_call(id, c->kind, c->t0, c->t1);
    if (!r.ok()) {
      c->ok = false;
      c->err = r.error();
    }
    return r;
  }

  // -- untimed set-up helpers ---------------------------------------------
  template <class FsT>
  bool open_create(raefs::Vfs<FsT>& vfs, size_t f) {
    auto fd = vfs.open(path_of(files_[f]), raefs::kCreate | raefs::kRdWr);
    files_[f].fd = fd.ok() ? fd.value() : raefs::kInvalidFd;
    return fd.ok();
  }
  template <class FsT>
  bool write_at(raefs::Vfs<FsT>& vfs, size_t f, uint64_t off, uint64_t len) {
    File& file = files_[f];
    fill(&buf_, file.id, len);
    auto n = vfs.pwrite(file.fd, off, buf_);
    apply_write(&file, off);
    return n.ok() && n.value() == len;
  }

  void apply_write(File* f, uint64_t off) {
    if (f->data.size() < off + buf_.size()) f->data.resize(off + buf_.size());
    std::memcpy(f->data.data() + off, buf_.data(), buf_.size());
  }

  // -- timed calls ---------------------------------------------------------
  template <class FsT>
  Call do_sync(raefs::Vfs<FsT>& vfs) {
    Call c;
    c.kind = Kind::kSync;
    (void)timed(&c, [&] { return vfs.sync(); });
    faulted_ = false;
    return c;
  }

  template <class FsT>
  Call do_pwrite(raefs::Vfs<FsT>& vfs, size_t f, uint64_t off, uint64_t len) {
    Call c;
    c.kind = Kind::kPwrite;
    File& file = files_[f];
    fill(&buf_, file.id, len);
    auto n = timed(&c, [&] { return vfs.pwrite(file.fd, off, buf_); });
    if (n.ok() && n.value() != len) c.ok = false;
    c.app_bytes = len;
    apply_write(&file, off);
    return c;
  }

  template <class FsT>
  Call do_pread(raefs::Vfs<FsT>& vfs, size_t f, uint64_t off, uint64_t len) {
    Call c;
    c.kind = Kind::kPread;
    const File& file = files_[f];
    auto got = timed(&c, [&] { return vfs.pread(file.fd, off, len); });
    if (got.ok() &&
        (got.value().size() != len ||
         !std::equal(got.value().begin(), got.value().end(),
                     file.data.begin() + static_cast<ptrdiff_t>(off)))) {
      c.ok = false;
    }
    return c;
  }

  template <class FsT>
  Call do_create(raefs::Vfs<FsT>& vfs, size_t f) {
    Call c;
    c.kind = Kind::kCreate;
    c.marker = files_[f].name.find(kFaultMarker) != std::string::npos;
    auto fd = timed(&c, [&] {
      return vfs.open(path_of(files_[f]), raefs::kCreate | raefs::kRdWr);
    });
    files_[f].fd = fd.ok() ? fd.value() : raefs::kInvalidFd;
    return c;
  }

  template <class FsT>
  Call do_unlink(raefs::Vfs<FsT>& vfs, size_t f) {
    Call c;
    c.kind = Kind::kUnlink;
    (void)vfs.close(files_[f].fd);
    std::string path = path_of(files_[f]);
    (void)timed(&c, [&] { return vfs.unlink(path); });
    remove_file(f);
    return c;
  }

  template <class FsT>
  Call do_fsync(raefs::Vfs<FsT>& vfs, size_t f) {
    Call c;
    c.kind = Kind::kFsync;
    (void)timed(&c, [&] { return vfs.fsync(files_[f].fd); });
    return c;
  }

  size_t pick_file() { return rng_.below(files_.size()); }

  /// Fileserver: the create's fill, a periodic sync, the scheduled fault,
  /// or one call drawn from the mix. Every create is followed by its fill
  /// pwrite, so drawing 18 pwrite, 30 pread, 12 create, 10 unlink, 8
  /// readdir, 8 stat and 2 rename out of 88 yields, per 100 calls, 30
  /// pwrite, 30 pread, 12 create, 10 unlink, 8 readdir, 8 stat, 2 rename.
  /// Creates and unlinks touch only files made during the run, capped at
  /// churn_cap, so the prepopulated tree keeps its size.
  template <class FsT>
  Call fileserver_step(raefs::Vfs<FsT>& vfs) {
    if (pending_fill_ != 0) {
      size_t f = find(pending_fill_);
      pending_fill_ = 0;
      return do_pwrite(vfs, f, 0, rng_.range(1, mix_.max_io));
    }
    // The scheduled fault: the first call at least fault_after calls past
    // the last sync is a create carrying the marker.
    bool marker = mix_.fault_after != 0 && !faulted_ &&
                  since_sync_ >= mix_.fault_after;
    faulted_ |= marker;
    uint64_t roll = marker ? 48 : rng_.below(88);
    if (roll < 18) {
      size_t f = pick_file();
      uint64_t size = files_[f].data.size();
      uint64_t len = rng_.range(1, std::min<uint64_t>(mix_.max_io, size));
      return do_pwrite(vfs, f, rng_.below(size - len + 1), len);
    }
    if (roll < 48) {
      size_t f = pick_file();
      uint64_t size = files_[f].data.size();
      uint64_t len = rng_.range(1, std::min<uint64_t>(mix_.max_io, size));
      return do_pread(vfs, f, rng_.below(size - len + 1), len);
    }
    if (roll < 60 && churn_ >= mix_.churn_cap && !marker) roll = 60;
    if (roll >= 60 && roll < 70 && churn_ == 0) roll = 48;
    if (roll < 60) {
      size_t f = new_file(static_cast<uint32_t>(rng_.below(mix_.dirs)), true,
                          marker);
      ++churn_;
      pending_fill_ = files_[f].id;
      return do_create(vfs, f);
    }
    if (roll < 70) {
      size_t f = pick_file();
      while (!files_[f].churn) f = pick_file();
      --churn_;
      return do_unlink(vfs, f);
    }
    if (roll < 78) {
      Call c;
      c.kind = Kind::kReaddir;
      uint32_t d = static_cast<uint32_t>(rng_.below(mix_.dirs));
      auto got = timed(&c, [&] { return vfs.readdir(dir_path(d)); });
      if (got.ok() && !same_names(got.value(), dir_names_[d])) c.ok = false;
      return c;
    }
    if (roll < 86) {
      Call c;
      c.kind = Kind::kStat;
      const File& file = files_[pick_file()];
      auto got = timed(&c, [&] { return vfs.stat(path_of(file)); });
      if (got.ok() && (got.value().size != file.data.size() ||
                       got.value().type != raefs::FileType::kRegular)) {
        c.ok = false;
      }
      return c;
    }
    Call c;
    c.kind = Kind::kRename;
    File& file = files_[pick_file()];
    std::string from = path_of(file);
    uint32_t to_dir = static_cast<uint32_t>(rng_.below(mix_.dirs));
    std::string to_name = "r" + std::to_string(next_id_++);
    (void)timed(&c, [&] {
      return vfs.rename(from, dir_path(to_dir) + "/" + to_name);
    });
    dir_names_[file.dir].erase(file.name);
    file.dir = to_dir;
    file.name = to_name;
    dir_names_[to_dir].insert(to_name);
    return c;
  }

  /// Varmail: unlink the oldest message; create, write and fsync a new
  /// one; read one whole, read_chunk bytes per pread as a reader with a
  /// page-sized buffer does; append to another and fsync it. When faults
  /// are scheduled, the first create at least fault_after calls past the
  /// last sync carries the marker.
  template <class FsT>
  Call varmail_step(raefs::Vfs<FsT>& vfs) {
    uint32_t phase = phase_;
    if (phase != 4) phase_ = (phase_ + 1) % 7;
    switch (phase) {
      case 0: {
        size_t f = find(spool_.front());
        spool_.pop_front();
        return do_unlink(vfs, f);
      }
      case 1: {
        bool marker = mix_.fault_after != 0 && !faulted_ &&
                      since_sync_ >= mix_.fault_after;
        faulted_ |= marker;
        size_t f = new_file(0, true, marker);
        spool_.push_back(files_[f].id);
        return do_create(vfs, f);
      }
      case 2:
        return do_pwrite(vfs, find(spool_.back()), 0,
                         rng_.range(mix_.min_message, mix_.max_message));
      case 3:
        return do_fsync(vfs, find(spool_.back()));
      case 4: {
        if (read_off_ == 0) read_target_ = files_[pick_file()].id;
        size_t f = find(read_target_);
        uint64_t size = files_[f].data.size();
        uint64_t len = std::min<uint64_t>(mix_.read_chunk, size - read_off_);
        Call c = do_pread(vfs, f, read_off_, len);
        read_off_ += len;
        if (read_off_ >= size) {
          read_off_ = 0;
          phase_ = 5;
        }
        return c;
      }
      case 5: {
        append_target_ = files_[pick_file()].id;
        size_t f = find(append_target_);
        return do_pwrite(vfs, f, files_[f].data.size(),
                         rng_.range(1, mix_.max_io));
      }
      default:
        return do_fsync(vfs, find(append_target_));
    }
  }

  static bool same_names(const std::vector<raefs::DirEntry>& listed,
                         const std::set<std::string>& want) {
    size_t seen = 0;
    for (const auto& e : listed) {
      if (e.name == "." || e.name == "..") continue;
      if (want.count(e.name) == 0) return false;
      ++seen;
    }
    return seen == want.size();
  }

  Mix mix_;
  Rng rng_;
  uint64_t data_seed_;
  std::string prefix_;
  CallObserver* obs_ = nullptr;

  std::vector<File> files_;
  std::vector<std::set<std::string>> dir_names_;
  std::deque<uint64_t> spool_;  // varmail messages, oldest first
  std::vector<uint8_t> buf_;
  uint64_t next_id_ = 1;
  uint64_t writes_ = 0;
  uint64_t pending_fill_ = 0;   // fileserver: file whose fill is next
  uint64_t append_target_ = 0;  // varmail: file appended this cycle
  uint64_t read_target_ = 0;    // varmail: file read whole this cycle
  uint64_t read_off_ = 0;       // varmail: next offset of that read
  uint32_t churn_ = 0;
  uint32_t phase_ = 0;          // varmail: step of the cycle
  uint64_t since_sync_ = 0;
  bool faulted_ = false;  // a marker was issued since the last sync
};

}  // namespace perfbench
