// perfbench: wall-clock benchmark of the application-facing
// Vfs<RaeSupervisor> stack.
//
//   perfbench --workload fileserver|varmail|recovery --seed N --seconds S
//             --trace 0|1 [--spans-dir DIR]
//
// --trace 0 sets the stack up three times (setup_s is the median), runs
// closed-loop clients for S seconds with nothing added but a timestamp
// pair around each call, runs the fault probe, then shuts down and
// verifies the image. --trace 1 repeats that untraced run for the
// tracing-overhead comparison, then runs the same op streams traced: once
// supervised and once through bare Vfs<BaseFs>, each over a TracedDevice.
// The per-layer metrics come from those spans and from the supervisor's
// public introspection calls. The last stdout line is the result JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <type_traits>
#include <unordered_map>

#include "basefs/base_fs.h"
#include "blockdev/mem_device.h"
#include "blockdev/qdepth_probe.h"
#include "blockdev/timed_device.h"
#include "faults/bug_registry.h"
#include "fsck/fsck.h"
#include "obs/incident.h"
#include "rae/supervisor.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

using raefs::BaseFs;
using raefs::RaeSupervisor;

constexpr int kInjectedBugId = 9001;
constexpr int kSetups = 5;  // set-ups per --trace 0 run; setup_s is the median
// Fault schedule, in calls: a sync every kFaultSyncEvery, and a marked
// create kFaultAfter calls past each sync, so every recovery replays a log
// of about the same length.
constexpr uint64_t kFaultSyncEvery = 400;
constexpr uint64_t kFaultAfter = 350;

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

struct Spec {
  std::string name;
  // Clients take turns on one thread. Concurrent client threads on a
  // shared host measured the scheduler more than the filesystem.
  uint32_t clients = 1;
  Mix mix;                    // includes the window's sync and fault schedule
  uint64_t warmup_calls = 0;  // per client, after set-up, untimed, no faults
  bool timed_device = false;  // TimedBlockDevice at RealLatency defaults
  bool auto_workers = false;  // every recovery worker knob at 0 = auto
  // Faults injected after the window (on the fault schedule), for workloads
  // whose window has none.
  uint32_t probe_faults = 0;
  raefs::MkfsOptions mkfs{16384, 4096, 1024};  // 64 MiB image, 4 MiB journal
};

bool make_spec(const std::string& name, Spec* s) {
  s->name = name;
  if (name == "fileserver") {
    s->mix.sync_every = 1000;
    s->warmup_calls = 40000;
    s->probe_faults = 41;
    return true;
  }
  if (name == "varmail") {
    s->clients = 4;
    s->mix.varmail = true;
    s->warmup_calls = 7500;
    s->probe_faults = 41;
    s->mkfs = {8192, 2048, 256};
    return true;
  }
  if (name == "recovery") {
    // A tree that fits the block cache: after each contained reboot the
    // cache refills quickly, so the recovery stalls are what the device
    // latency shows up in.
    s->mix.dirs = 8;
    s->mix.files_per_dir = 12;
    s->mix.max_file = 48 * 1024;
    s->mix.churn_cap = 64;
    s->mix.sync_every = kFaultSyncEvery;
    s->mix.fault_after = kFaultAfter;
    // Each cycle journals one install transaction and one sync commit;
    // with the 1024-block journal their sum sat at the checkpoint
    // threshold, so whether syncs checkpointed depended on the seed.
    s->mkfs.journal_blocks = 2048;
    s->warmup_calls = 1000;
    s->timed_device = true;
    s->auto_workers = true;
    return true;
  }
  return false;
}

raefs::RaeOptions rae_options(const Spec& s) {
  raefs::RaeOptions o;
  if (s.auto_workers) {
    o.journal_replay_workers = 0;
    o.fsck_workers = 0;
    o.shadow.replay_workers = 0;
    o.base.install_workers = 0;
  }
  return o;
}

raefs::BugSpec injected_bug() {
  raefs::BugSpec b;
  b.id = kInjectedBugId;
  b.description = "perfbench: crash on create of a marked name";
  b.consequence = raefs::BugConsequence::kCrash;
  b.determinism = raefs::BugDeterminism::kDeterministic;
  b.trigger = [](const raefs::BugContext& c) {
    return c.site == "basefs.create.entry" &&
           c.path.find(kFaultMarker) != std::string_view::npos;
  };
  return b;
}

// ---------------------------------------------------------------------------
// one mounted stack
// ---------------------------------------------------------------------------

template <class FsT>
inline constexpr bool kSupervised = std::is_same_v<FsT, RaeSupervisor>;

template <class FsT>
struct Stack {
  std::unique_ptr<raefs::MemBlockDevice> mem;
  std::unique_ptr<raefs::TimedBlockDevice> timed;
  std::unique_ptr<TracedDevice> traced;
  raefs::BlockDevice* dev = nullptr;  // what the filesystem mounts
  raefs::BugRegistry bugs;
  std::unique_ptr<FsT> fs;
  std::unique_ptr<raefs::Vfs<FsT>> vfs;
  std::vector<Client> clients;
  uint32_t probed_workers = 0;  // resolve_workers(0, dev) at set-up
  uint64_t setup_failures = 0;
};

/// mkfs, mount, the queue-depth probe, and every client's tree; returns
/// null only if the stack could not be built at all.
template <class FsT>
std::unique_ptr<Stack<FsT>> set_up(const Spec& spec, uint64_t seed,
                                   SpanRecorder* rec) {
  auto st = std::make_unique<Stack<FsT>>();
  st->mem = std::make_unique<raefs::MemBlockDevice>(spec.mkfs.total_blocks);
  if (!BaseFs::mkfs(st->mem.get(), spec.mkfs).ok()) return nullptr;
  st->dev = st->mem.get();
  if (spec.timed_device) {
    st->timed = std::make_unique<raefs::TimedBlockDevice>(
        st->dev, raefs::RealLatency{});
    st->dev = st->timed.get();
  }
  if (rec != nullptr) {
    auto geo = raefs::compute_geometry(spec.mkfs.total_blocks,
                                       spec.mkfs.inode_count,
                                       spec.mkfs.journal_blocks);
    if (!geo.ok()) return nullptr;
    st->traced = std::make_unique<TracedDevice>(st->dev, geo.value(), rec);
    st->dev = st->traced.get();
  }
  raefs::RaeOptions opts = rae_options(spec);
  if constexpr (kSupervised<FsT>) {
    st->bugs.install(injected_bug());
    auto sup = RaeSupervisor::start(st->dev, opts, nullptr, &st->bugs);
    if (!sup.ok()) return nullptr;
    st->fs = std::move(sup).value();
  } else {
    auto base = BaseFs::mount(st->dev, opts.base);
    if (!base.ok()) return nullptr;
    st->fs = std::move(base).value();
  }
  // The queue-depth probe runs here, on the device object the supervisor
  // holds; the result is cached per device, so no recovery pays for it.
  raefs::clear_queue_depth_cache();
  if (spec.auto_workers) {
    st->probed_workers = raefs::resolve_workers(0, st->dev);
  }
  st->vfs = std::make_unique<raefs::Vfs<FsT>>(st->fs.get());
  Mix warm = spec.mix;
  warm.fault_after = 0;
  for (uint32_t i = 0; i < spec.clients; ++i) {
    st->clients.emplace_back(warm, seed, i);
    if (!st->clients.back().populate(*st->vfs)) ++st->setup_failures;
  }
  if (rec != nullptr) {
    for (Client& c : st->clients) c.set_observer(rec);
  }
  return st;
}

/// Run each client's stream until the caches hold a steady state (the
/// dentry cache, the largest, fills with the names creates and renames
/// make), then arm the window's schedule from a synced start.
template <class FsT>
void warm_up(Stack<FsT>& st, const Spec& spec) {
  for (Client& c : st.clients) {
    for (uint64_t n = 0; n < spec.warmup_calls; ++n) {
      if (!c.step(*st.vfs).ok) ++st.setup_failures;
    }
    c.set_schedule(spec.mix.sync_every, spec.mix.fault_after);
  }
  if (!st.vfs->sync().ok()) ++st.setup_failures;
}

// ---------------------------------------------------------------------------
// running a phase
// ---------------------------------------------------------------------------

constexpr int kBins = 10;  // throughput windows per timed phase

struct Stall {
  uint64_t t0 = 0;
  uint64_t t1 = 0;
};

/// What one client did in one phase.
struct Tally {
  std::vector<uint64_t> lat[kClasses];  // ns; calls that tripped no fault
  std::vector<Stall> stalls;            // calls that tripped the injected bug
  uint64_t calls = 0;
  uint64_t failed = 0;
  uint64_t organic = 0;  // recoveries the injected bug did not cause
  uint64_t app_bytes = 0;
  uint64_t syncs = 0;
  uint64_t markers = 0;
  uint64_t last_end = 0;
  uint64_t bins[kBins] = {};
  std::vector<raefs::obs::Incident> incidents;
  // traced supervised phases only
  double oplog_records_sum = 0;
  uint64_t oplog_bytes_max = 0;
};

/// BaseFsStats summed across the base instances a phase ran on: every
/// contained reboot mounts a fresh instance whose counters start at 0.
struct BaseTotals {
  raefs::BaseFsStats sum;
  raefs::BaseFsStats begin;
  raefs::BaseFsStats last;

  void rebooted() {
    add(last, begin);
    begin = raefs::BaseFsStats{};
  }
  void finish() { add(last, begin); }

 private:
  void add(const raefs::BaseFsStats& a, const raefs::BaseFsStats& b) {
    sum.ops += a.ops - b.ops;
    sum.commits += a.commits - b.commits;
    sum.checkpoints += a.checkpoints - b.checkpoints;
    sum.block_cache_hits += a.block_cache_hits - b.block_cache_hits;
    sum.block_cache_misses += a.block_cache_misses - b.block_cache_misses;
    sum.block_cache_bytes_copied +=
        a.block_cache_bytes_copied - b.block_cache_bytes_copied;
    sum.dentry_hits += a.dentry_hits - b.dentry_hits;
    sum.dentry_misses += a.dentry_misses - b.dentry_misses;
    sum.inode_cache_hits += a.inode_cache_hits - b.inode_cache_hits;
    sum.inode_cache_misses += a.inode_cache_misses - b.inode_cache_misses;
    sum.extent_walks += a.extent_walks - b.extent_walks;
    sum.extent_hint_hits += a.extent_hint_hits - b.extent_hint_hits;
  }
};

struct PhaseOpts {
  double seconds = 0;               // 0 = no deadline
  std::vector<uint64_t> limits;     // per-client call counts (empty = none)
  uint32_t stop_after_markers = 0;  // probe: stop once this many issued
  bool poll_layers = false;         // traced: oplog/base stats after calls
};

struct Phase {
  std::vector<Tally> tally;
  uint64_t t_start = 0;
  uint64_t t_end = 0;
  uint64_t dev_writes = 0;  // device blocks written during the phase
  raefs::RaeStats rae_begin, rae_end;
  BaseTotals base;

  uint64_t sum(uint64_t Tally::*field) const {
    uint64_t n = 0;
    for (const Tally& t : tally) n += t.*field;
    return n;
  }
  double seconds() const {
    return static_cast<double>(t_end - t_start) * 1e-9;
  }
  std::vector<uint64_t> lat(Cls c) const {
    std::vector<uint64_t> all;
    for (const Tally& t : tally) {
      const auto& v = t.lat[static_cast<int>(c)];
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
  std::vector<Stall> stalls() const {
    std::vector<Stall> all;
    for (const Tally& t : tally) {
      all.insert(all.end(), t.stalls.begin(), t.stalls.end());
    }
    return all;
  }
};

/// Issue calls from the clients in `which`, one at a time and in turn,
/// until the deadline, every client's call count, or the probe's marker
/// count. One thread issues every call, so each recovery belongs to the
/// call that just returned, and base counters can be followed call by call.
template <class FsT>
Phase run_phase(Stack<FsT>& st, const PhaseOpts& po,
                const std::vector<uint32_t>& which) {
  Phase ph;
  ph.tally.resize(st.clients.size());
  uint64_t recoveries = 0;
  if constexpr (kSupervised<FsT>) {
    ph.rae_begin = st.fs->stats();
    ph.base.begin = st.fs->base_stats();
    ph.base.last = ph.base.begin;
    recoveries = ph.rae_begin.recoveries;
  }
  raefs::obs::incidents().clear();
  const uint64_t w0 = st.mem->stats().writes.load();
  const uint64_t planned = static_cast<uint64_t>(po.seconds * 1e9);
  uint64_t markers = 0;
  ph.t_start = now_ns();
  const uint64_t deadline = planned != 0 ? ph.t_start + planned : 0;
  // `done` counts the clients passed over in a row for having made their
  // calls; once it covers them all, the phase is over.
  for (size_t k = 0, done = 0; done < which.size();
       k = (k + 1) % which.size()) {
    if (deadline != 0 && now_ns() >= deadline) break;
    if (po.stop_after_markers != 0 && markers >= po.stop_after_markers) break;
    const uint32_t i = which[k];
    Tally& t = ph.tally[i];
    if (!po.limits.empty() && t.calls >= po.limits[i]) {
      ++done;
      continue;
    }
    done = 0;
    Call c = st.clients[i].step(*st.vfs);
    ++t.calls;
    t.last_end = c.t1;
    if (c.marker) {
      ++t.markers;
      ++markers;
    }
    bool tripped = false;
    if constexpr (kSupervised<FsT>) {
      uint64_t r = st.fs->stats().recoveries;
      if (r != recoveries) {
        auto incs = raefs::obs::incidents().snapshot();
        tripped = c.marker && r - recoveries == 1 && !incs.empty() &&
                  incs.back().bug_id == kInjectedBugId && incs.back().ok;
        if (!incs.empty()) t.incidents.push_back(incs.back());
        if (!tripped) {
          t.organic += r - recoveries;
          c.ok = false;
        }
        recoveries = r;
        ph.base.rebooted();
      } else if (c.marker) {
        c.ok = false;  // an injected fault that did not trip
      }
      if (po.poll_layers) {
        ph.base.last = st.fs->base_stats();
        raefs::OpLogStats ol = st.fs->oplog_stats();
        t.oplog_records_sum += static_cast<double>(ol.live_records);
        t.oplog_bytes_max =
            std::max<uint64_t>(t.oplog_bytes_max, ol.live_bytes);
      }
    }
    if (!c.ok) {
      ++t.failed;
      if (t.failed <= 5) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", kind_name(c.kind),
                     c.err == raefs::Errno::kOk ? "result differs from model"
                                                : raefs::to_string(c.err));
      }
    }
    if (tripped) {
      t.stalls.push_back({c.t0, c.t1});
    } else if (!c.marker) {
      t.lat[static_cast<int>(class_of(c.kind))].push_back(c.t1 - c.t0);
    }
    t.app_bytes += c.app_bytes;
    if (class_of(c.kind) == Cls::kSync) ++t.syncs;
    if (planned != 0 && c.t1 > ph.t_start) {
      uint64_t b = (c.t1 - ph.t_start) * kBins / planned;
      ++t.bins[std::min<uint64_t>(b, kBins - 1)];
    }
  }
  ph.t_end = ph.t_start;
  for (const Tally& t : ph.tally) ph.t_end = std::max(ph.t_end, t.last_end);
  ph.dev_writes = st.mem->stats().writes.load() - w0;
  if constexpr (kSupervised<FsT>) {
    ph.rae_end = st.fs->stats();
    // Untraced phases read the base counters at the ends only; after a
    // contained reboot they cover the instance running at the end.
    if (!po.poll_layers) ph.base.last = st.fs->base_stats();
    ph.base.finish();
  }
  return ph;
}

std::vector<uint32_t> all_clients(const Spec& s) {
  std::vector<uint32_t> v(s.clients);
  for (uint32_t i = 0; i < s.clients; ++i) v[i] = i;
  return v;
}

// ---------------------------------------------------------------------------
// shutdown and verification
// ---------------------------------------------------------------------------

struct Verdict {
  uint64_t attempted = 0;  // the shutdown plus every read-back comparison
  uint64_t failed = 0;
  bool fsck_clean = false;
};

/// Shut down (a failure or a throw is a failed call), strict-fsck the
/// image, then mount it bare and compare every directory and file with
/// the clients' models.
template <class FsT>
Verdict shut_down_and_verify(Stack<FsT>& st) {
  Verdict v;
  ++v.attempted;
  try {
    raefs::Status s = raefs::Status::Ok();
    if constexpr (kSupervised<FsT>) {
      s = st.fs->shutdown();
    } else {
      s = st.fs->unmount();
    }
    if (!s.ok()) {
      ++v.failed;
      std::fprintf(stderr, "perfbench: shutdown failed: %s\n",
                   raefs::to_string(s.error()));
    }
  } catch (const std::exception& e) {
    ++v.failed;
    std::fprintf(stderr, "perfbench: shutdown threw: %s\n", e.what());
  }
  st.vfs.reset();
  st.fs.reset();

  raefs::FsckOptions fo;
  fo.level = raefs::FsckLevel::kStrict;
  auto report = raefs::fsck(st.mem.get(), fo);
  v.fsck_clean = report.ok() && report.value().clean();
  if (!v.fsck_clean) {
    std::fprintf(stderr, "perfbench: fsck: %s\n",
                 report.ok() ? report.value().summary().c_str() : "errored");
  }

  auto base = BaseFs::mount(st.mem.get(), raefs::BaseFsOptions{});
  if (!base.ok()) {
    ++v.attempted;
    ++v.failed;
    return v;
  }
  for (const Client& c : st.clients) {
    uint64_t bad = c.verify(*base.value(), &v.attempted);
    v.failed += bad;
    if (bad != 0) {
      std::fprintf(stderr, "perfbench: read-back: %llu mismatches\n",
                   static_cast<unsigned long long>(bad));
    }
  }
  (void)base.value()->unmount();
  return v;
}

// ---------------------------------------------------------------------------
// whole runs
// ---------------------------------------------------------------------------

struct Run {
  std::vector<double> setup_s;
  double warmup_s = 0;
  Phase window;
  Phase probe;
  Verdict verdict;
  uint64_t setup_failures = 0;
  uint32_t probed_workers = 0;
  uint64_t discrepancies = 0;
  bool built = false;
  bool expect_trips = true;  // supervised: every injected fault recovers

  uint64_t attempted() const {
    return window.sum(&Tally::calls) + probe.sum(&Tally::calls) +
           verdict.attempted;
  }
  uint64_t failed() const {
    return setup_failures + window.sum(&Tally::failed) +
           probe.sum(&Tally::failed) + verdict.failed + discrepancies;
  }
  uint64_t faults() const {
    return window.sum(&Tally::markers) + probe.sum(&Tally::markers);
  }
  std::vector<Stall> stalls() const {
    std::vector<Stall> all = window.stalls();
    std::vector<Stall> more = probe.stalls();
    all.insert(all.end(), more.begin(), more.end());
    return all;
  }
  std::vector<raefs::obs::Incident> incidents() const {
    std::vector<raefs::obs::Incident> all;
    for (const Phase* p : {&window, &probe}) {
      for (const Tally& t : p->tally) {
        all.insert(all.end(), t.incidents.begin(), t.incidents.end());
      }
    }
    return all;
  }
  /// Injected faults each yielded exactly one recovery, nothing else
  /// recovered, the shadow agreed, and the image verified.
  bool correct() const {
    return built && failed() == 0 && verdict.fsck_clean &&
           (!expect_trips || stalls().size() == faults());
  }
};

/// A supervised run: `setups` set-ups (all but the last torn down), the
/// timed window, the fault probe, then shutdown and verification.
Run run_supervised(const Spec& spec, uint64_t seed, double seconds,
                   int setups, SpanRecorder* rec) {
  Run run;
  std::unique_ptr<Stack<RaeSupervisor>> st;
  for (int k = 0; k < setups; ++k) {
    st.reset();
    uint64_t t0 = now_ns();
    st = set_up<RaeSupervisor>(spec, seed, rec);
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (!st) return run;
  }
  run.built = true;
  uint64_t t0 = now_ns();
  warm_up(*st, spec);
  run.warmup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  run.setup_failures = st->setup_failures;
  run.probed_workers = st->probed_workers;
  if (rec) rec->set_enabled(true);
  PhaseOpts wo;
  wo.seconds = seconds;
  wo.poll_layers = rec != nullptr;
  run.window = run_phase(*st, wo, all_clients(spec));
  if (spec.probe_faults != 0) {
    Client& c0 = st->clients[0];
    c0.set_schedule(kFaultSyncEvery, kFaultAfter);
    PhaseOpts po;
    po.stop_after_markers = spec.probe_faults;
    run.probe = run_phase(*st, po, {0});
  }
  if (rec) rec->set_enabled(false);
  run.discrepancies = st->fs->stats().discrepancies_total;
  run.verdict = shut_down_and_verify(*st);
  return run;
}

/// The traced run's bare replay: the same set-up and the same number of
/// calls per client as the supervised window, through Vfs<BaseFs>.
Run run_bare(const Spec& spec, uint64_t seed, const Phase& window,
             SpanRecorder* rec) {
  Run run;
  run.expect_trips = false;
  auto st = set_up<BaseFs>(spec, seed, rec);
  if (!st) return run;
  run.built = true;
  warm_up(*st, spec);
  run.setup_failures = st->setup_failures;
  PhaseOpts po;
  for (const Tally& t : window.tally) po.limits.push_back(t.calls);
  rec->set_enabled(true);
  run.window = run_phase(*st, po, all_clients(spec));
  rec->set_enabled(false);
  run.verdict = shut_down_and_verify(*st);
  return run;
}

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

__attribute__((format(printf, 1, 2))) std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Pct {
  double value = 0;  // in the samples' unit
  size_t n = 0;
  double q = 0;      // percentile actually reported (rank / n)
  bool supported = false;  // at least ten samples beyond it
};

/// Nearest-rank percentile. A tail (q > 0.5) is capped at the highest rank
/// that leaves ten samples beyond it, but never below the median.
Pct percentile(std::vector<uint64_t> v, double q) {
  Pct p;
  p.n = v.size();
  if (v.empty()) return p;
  size_t n = v.size();
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  idx = idx == 0 ? 0 : std::min(idx - 1, n - 1);
  if (q > 0.5) {
    size_t median = (n - 1) / 2;
    if (n >= 11) idx = std::min(idx, n - 11);
    idx = std::max(idx, median);
  }
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx),
                   v.end());
  p.value = static_cast<double>(v[idx]);
  p.q = static_cast<double>(idx + 1) / static_cast<double>(n);
  p.supported = n - 1 - idx >= 10;
  return p;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double peak_rss_mib() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Human-readable line on stdout, ahead of the result.
  static void note(const std::string& line) {
    std::printf("# %s\n", line.c_str());
  }
  void print_table() const {
    for (const Metric& m : metrics_) {
      std::printf("# %-40s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  void print_result(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

/// The end-to-end numbers of one supervised run.
struct EndToEnd {
  double ops_per_s = 0;
  Pct lat[kClasses][2];  // p50, p99 in ns
  Pct stall;             // p50 in ns
  double write_amp = 0;
};

EndToEnd end_to_end(const Run& run, const Spec& spec) {
  EndToEnd e;
  e.ops_per_s = ratio(static_cast<double>(run.window.sum(&Tally::calls)),
                      run.window.seconds());
  for (int c = 0; c < kClasses; ++c) {
    std::vector<uint64_t> lat = run.window.lat(static_cast<Cls>(c));
    e.lat[c][0] = percentile(lat, 0.50);
    e.lat[c][1] = percentile(std::move(lat), 0.99);
  }
  std::vector<uint64_t> stalls;
  const Phase& faulted = spec.probe_faults != 0 ? run.probe : run.window;
  for (const Stall& s : faulted.stalls()) stalls.push_back(s.t1 - s.t0);
  e.stall = percentile(std::move(stalls), 0.50);
  e.write_amp = ratio(static_cast<double>(run.window.dev_writes) *
                          raefs::kBlockSize,
                      static_cast<double>(run.window.sum(&Tally::app_bytes)));
  return e;
}

void add_end_to_end(Report* r, const EndToEnd& e, const Run& run) {
  r->add("ops_per_s", e.ops_per_s, "calls/s");
  static const char* const kPctName[2] = {"p50", "p99"};
  for (int c = 0; c < kClasses; ++c) {
    for (int k = 0; k < 2; ++k) {
      r->add(fmt("%s_%s_us", class_name(static_cast<Cls>(c)), kPctName[k]),
             e.lat[c][k].value * 1e-3, "us");
    }
  }
  r->add("recovery_stall_p50_ms", e.stall.value * 1e-6, "ms");
  r->add("write_amp", e.write_amp, "bytes/byte");
  r->add("setup_s", median(run.setup_s), "s");
  r->add("peak_rss_mb", peak_rss_mib(), "MiB");
}

/// Sample counts, percentile ranks, throughput flatness, worker counts.
void describe(const char* label, const Run& run, const EndToEnd& e,
              const Spec& spec) {
  std::string s = fmt("%s: %llu calls in %.3f s, failed %llu of %llu", label,
                      static_cast<unsigned long long>(
                          run.window.sum(&Tally::calls)),
                      run.window.seconds(),
                      static_cast<unsigned long long>(run.failed()),
                      static_cast<unsigned long long>(run.attempted()));
  Report::note(s);
  for (int c = 0; c < kClasses; ++c) {
    Report::note(fmt("%s: %s n=%zu p50 supported=%d, tail at p%.2f "
                     "supported=%d",
                     label, class_name(static_cast<Cls>(c)), e.lat[c][0].n,
                     e.lat[c][0].supported, e.lat[c][1].q * 100,
                     e.lat[c][1].supported));
  }
  Report::note(fmt("%s: recovery stalls n=%zu (%s) supported=%d, faults "
                   "%llu, organic recoveries %llu, discrepancies %llu",
                   label, e.stall.n,
                   spec.probe_faults ? "fault probe after the window"
                                     : "in the window",
                   e.stall.supported,
                   static_cast<unsigned long long>(run.faults()),
                   static_cast<unsigned long long>(
                       run.window.sum(&Tally::organic) +
                       run.probe.sum(&Tally::organic)),
                   static_cast<unsigned long long>(run.discrepancies)));
  uint64_t bins[kBins] = {};
  for (const Tally& t : run.window.tally) {
    for (int b = 0; b < kBins; ++b) bins[b] += t.bins[b];
  }
  std::string b = label + std::string(": calls per tenth of the window:");
  for (uint64_t v : bins) b += " " + std::to_string(v);
  double head = static_cast<double>(bins[0] + bins[1] + bins[2]);
  double tail = static_cast<double>(bins[7] + bins[8] + bins[9]);
  double drift = ratio(tail, head) - 1;
  b += fmt(" (last/first three tenths %+.1f%%)", drift * 100);
  Report::note(b);
  if (std::fabs(drift) > 0.15) {
    std::fprintf(stderr, "perfbench: warning: %s throughput drifted %+.1f%% "
                 "across the window\n", label, drift * 100);
  }
  std::string setups = label + std::string(": set-up s:");
  for (double v : run.setup_s) setups += fmt(" %.3f", v);
  Report::note(setups + fmt("; warm-up %.3f s", run.warmup_s));
  if (spec.auto_workers) {
    // Resolved counts: set-up probe, then journal/shadow/install per
    // recovery. A recovery that resolves differently is flagged.
    std::string counts;
    std::set<std::string> qdepths;
    bool same = true;
    for (const auto& inc : run.incidents()) {
      std::string one = fmt("%u/%u/%u", inc.journal_replay_workers,
                            inc.shadow_replay_workers, inc.install_workers);
      if (counts.empty()) counts = one;
      same &= one == counts;
      qdepths.insert(std::to_string(inc.autotuned_qdepth));
    }
    std::string q;
    for (const auto& d : qdepths) q += (q.empty() ? "" : ",") + d;
    Report::note(fmt("%s: workers %u set-up, %s journal/shadow/install%s "
                     "(qdepth %s)",
                     label, run.probed_workers,
                     counts.empty() ? "none" : counts.c_str(),
                     same ? "" : " DIFFERS between recoveries", q.c_str()));
    if (!same) {
      std::fprintf(stderr, "perfbench: warning: %s recoveries resolved "
                   "different worker counts\n", label);
    }
  }
}

// ---------------------------------------------------------------------------
// per-layer metrics of the traced run
// ---------------------------------------------------------------------------

bool in(const Span& s, uint64_t t0, uint64_t t1) {
  return s.start >= t0 && s.end <= t1;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 uint64_t origin) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  f << "name\tstart_ns\tend_ns\ttid\tcall_id\tparent\tregion\n";
  for (const Span& s : spans) {
    const char* name = s.device ? devop_name(static_cast<DevOp>(s.op))
                                : kind_name(static_cast<Kind>(s.op));
    f << name << '\t' << static_cast<int64_t>(s.start - origin) << '\t'
      << static_cast<int64_t>(s.end - origin) << '\t'
      << s.tid << '\t' << s.id << '\t' << s.parent << '\t'
      << (s.device ? region_name(s.region) : "") << '\n';
  }
}

void add_per_layer(Report* r, const Spec& spec, const EndToEnd& p,
                   const EndToEnd& t, const Run& traced,
                   const std::vector<Span>& sup_spans, const Run& bare,
                   const std::vector<Span>& bare_spans) {
  const Phase& w = traced.window;
  const double calls = static_cast<double>(w.sum(&Tally::calls));
  const double syncs = static_cast<double>(w.sum(&Tally::syncs));

  // rae: supervised minus bare median latency, same op stream.
  for (int c = 0; c < kClasses; ++c) {
    Cls cls = static_cast<Cls>(c);
    double sup = percentile(w.lat(cls), 0.5).value;
    double bar = percentile(bare.window.lat(cls), 0.5).value;
    r->add(fmt("rae.overhead_us.%s", class_name(cls)), (sup - bar) * 1e-3,
           "us");
  }
  double recs = 0;
  uint64_t bytes_max = 0;
  for (const Tally& t : w.tally) {
    recs += t.oplog_records_sum;
    bytes_max = std::max(bytes_max, t.oplog_bytes_max);
  }
  r->add("oplog.live_records.mean", ratio(recs, calls), "records");
  r->add("oplog.live_bytes.max", static_cast<double>(bytes_max), "bytes");
  r->add("rae.forced_syncs",
         static_cast<double>(w.rae_end.forced_syncs - w.rae_begin.forced_syncs),
         "count");

  // basefs self time, from the bare replay: call minus its device spans.
  std::unordered_map<uint64_t, uint64_t> dev_in_call;
  for (const Span& s : bare_spans) {
    if (s.device && s.parent != 0) dev_in_call[s.parent] += s.end - s.start;
  }
  std::vector<uint64_t> self[kClasses];
  for (const Span& s : bare_spans) {
    if (s.device || !in(s, bare.window.t_start, bare.window.t_end)) continue;
    uint64_t d = s.end - s.start;
    auto it = dev_in_call.find(s.id);
    uint64_t dev = it == dev_in_call.end() ? 0 : std::min(it->second, d);
    self[static_cast<int>(class_of(static_cast<Kind>(s.op)))].push_back(d -
                                                                         dev);
  }
  for (int c = 0; c < kClasses; ++c) {
    r->add(fmt("basefs.self_us.%s", class_name(static_cast<Cls>(c))),
           percentile(std::move(self[c]), 0.5).value * 1e-3, "us");
  }

  const raefs::BaseFsStats& b = w.base.sum;
  auto hit = [](uint64_t h, uint64_t m) {
    return ratio(static_cast<double>(h), static_cast<double>(h + m));
  };
  r->add("basefs.syncs_per_commit", ratio(syncs, b.commits), "syncs/commit");
  r->add("basefs.checkpoints_per_kop",
         ratio(static_cast<double>(b.checkpoints) * 1000, calls), "per_kcall");
  r->add("basefs.extent_hint_ratio",
         ratio(static_cast<double>(b.extent_hint_hits),
               static_cast<double>(b.extent_walks)),
         "ratio");
  r->add("cache.block_hit_ratio",
         hit(b.block_cache_hits, b.block_cache_misses), "ratio");
  r->add("cache.dentry_hit_ratio", hit(b.dentry_hits, b.dentry_misses),
         "ratio");
  r->add("cache.inode_hit_ratio",
         hit(b.inode_cache_hits, b.inode_cache_misses), "ratio");
  r->add("cache.cow_bytes_per_op",
         ratio(static_cast<double>(b.block_cache_bytes_copied), calls),
         "bytes/call");

  // Device spans of the supervised window, by operation and region.
  uint64_t count[kDevOps][kRegions + 1] = {};
  std::vector<uint64_t> dur[kDevOps];
  for (const Span& s : sup_spans) {
    if (!s.device || !in(s, w.t_start, w.t_end)) continue;
    ++count[s.op][static_cast<int>(s.region)];
    dur[s.op].push_back(s.end - s.start);
  }
  auto total = [&](DevOp op) {
    uint64_t n = 0;
    for (int g = 0; g <= kRegions; ++g) n += count[static_cast<int>(op)][g];
    return static_cast<double>(n);
  };
  const int kJ = static_cast<int>(Region::kJournal);
  const int kR = static_cast<int>(DevOp::kRead);
  const int kW = static_cast<int>(DevOp::kWrite);
  r->add("journal.writes_per_commit",
         ratio(static_cast<double>(count[kW][kJ]), b.commits), "blocks/commit");
  r->add("journal.reads_per_checkpoint",
         ratio(static_cast<double>(count[kR][kJ]), b.checkpoints),
         "blocks/ckpt");
  r->add("blockdev.reads_per_op", ratio(total(DevOp::kRead), calls),
         "blocks/call");
  r->add("blockdev.writes_per_op", ratio(total(DevOp::kWrite), calls),
         "blocks/call");
  for (int g = 0; g < kRegions; ++g) {
    r->add(fmt("blockdev.writes.%s", region_name(static_cast<Region>(g))),
           ratio(static_cast<double>(count[kW][g]), total(DevOp::kWrite)),
           "share");
  }
  r->add("blockdev.flushes_per_sync", ratio(total(DevOp::kFlush), syncs),
         "flushes/sync");
  static const char* const kShort[kDevOps] = {"read", "write", "flush"};
  for (int op = 0; op < kDevOps; ++op) {
    Pct p50 = percentile(dur[op], 0.5);
    Pct p99 = percentile(std::move(dur[op]), 0.99);
    r->add(fmt("blockdev.call_us.%s.p50", kShort[op]), p50.value * 1e-3, "us");
    r->add(fmt("blockdev.call_us.%s.p99", kShort[op]), p99.value * 1e-3, "us");
  }

  // Recovery: every stall of the traced run (window and probe), with the
  // device IO of any thread that falls inside it.
  std::vector<Stall> stalls = traced.stalls();
  std::vector<const Span*> dev;
  for (const Span& s : sup_spans) {
    if (s.device) dev.push_back(&s);
  }
  std::sort(dev.begin(), dev.end(),
            [](const Span* a, const Span* c) { return a->start < c->start; });
  uint64_t io[5] = {};  // reads journal/other, writes journal/home, flushes
  double io_ns = 0, stall_ns = 0;
  for (const Stall& st : stalls) {
    stall_ns += static_cast<double>(st.t1 - st.t0);
    auto it = std::lower_bound(
        dev.begin(), dev.end(), st.t0,
        [](const Span* s, uint64_t t) { return s->start < t; });
    for (; it != dev.end() && (*it)->start <= st.t1; ++it) {
      const Span& s = **it;
      if (s.end > st.t1) continue;
      io_ns += static_cast<double>(s.end - s.start);
      bool journal = s.region == Region::kJournal;
      switch (static_cast<DevOp>(s.op)) {
        case DevOp::kRead: ++io[journal ? 0 : 1]; break;
        case DevOp::kWrite: ++io[journal ? 2 : 3]; break;
        case DevOp::kFlush: ++io[4]; break;
      }
    }
  }
  const raefs::RaeStats& r0 = w.rae_begin;
  const raefs::RaeStats& r1 =
      spec.probe_faults != 0 ? traced.probe.rae_end : w.rae_end;
  double n_rec = static_cast<double>(r1.recoveries - r0.recoveries);
  r->add("recovery.count", n_rec, "count");
  r->add("recovery.organic_trips",
         static_cast<double>(w.sum(&Tally::organic) +
                             traced.probe.sum(&Tally::organic)),
         "count");
  r->add("shadow.ops_replayed_per_recovery",
         ratio(static_cast<double>(r1.ops_replayed_total -
                                   r0.ops_replayed_total),
               n_rec),
         "ops/recovery");
  r->add("shadow.discrepancies",
         static_cast<double>(r1.discrepancies_total - r0.discrepancies_total),
         "count");
  static const char* const kIo[5] = {"reads.journal", "reads.other",
                                     "writes.journal", "writes.home",
                                     "flushes"};
  double n_stalls = static_cast<double>(stalls.size());
  for (int k = 0; k < 5; ++k) {
    r->add(fmt("recovery.%s", kIo[k]),
           ratio(static_cast<double>(io[k]), n_stalls), "per_recovery");
  }
  r->add("recovery.io_overlap", ratio(io_ns, stall_ns), "ratio");
  auto incs = traced.incidents();
  const raefs::obs::Incident none;
  const raefs::obs::Incident& inc = incs.empty() ? none : incs.front();
  r->add("recovery.workers.journal_replay", inc.journal_replay_workers,
         "workers");
  r->add("recovery.workers.shadow_replay", inc.shadow_replay_workers,
         "workers");
  r->add("recovery.workers.install", inc.install_workers, "workers");
  r->add("recovery.qdepth", inc.autotuned_qdepth, "depth");

  // Tracing overhead: the traced run against the untraced one.
  r->add("trace.ops_per_s_ratio", ratio(t.ops_per_s, p.ops_per_s), "ratio");
  for (int c = 0; c < kClasses; ++c) {
    r->add(fmt("trace.%s_p50_ratio", class_name(static_cast<Cls>(c))),
           ratio(t.lat[c][0].value, p.lat[c][0].value), "ratio");
  }
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fileserver|varmail|recovery "
               "--seed N --seconds S --trace 0|1 [--spans-dir DIR]\n");
  return 2;
}

int run_main(int argc, char** argv) {
  std::string workload, spans_dir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (k == "--spans-dir") {
      spans_dir = v;
    } else {
      return usage();
    }
  }
  Spec spec;
  if (!make_spec(workload, &spec) || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  Report report;
  if (trace == 0) {
    Run run = run_supervised(spec, seed, seconds, kSetups, nullptr);
    if (!run.built) {
      std::fprintf(stderr, "perfbench: could not build the stack\n");
      return 1;
    }
    EndToEnd e = end_to_end(run, spec);
    add_end_to_end(&report, e, run);
    describe("untraced", run, e, spec);
    report.print_table();
    report.print_result(run.correct(), run.attempted(), run.failed());
    return 0;
  }

  Run plain = run_supervised(spec, seed, seconds, 1, nullptr);
  SpanRecorder sup_rec;
  Run traced = run_supervised(spec, seed, seconds, 1, &sup_rec);
  std::vector<Span> sup_spans = sup_rec.collect();
  if (!plain.built || !traced.built) {
    std::fprintf(stderr, "perfbench: could not build the stack\n");
    return 1;
  }
  SpanRecorder bare_rec;
  Run bare = run_bare(spec, seed, traced.window, &bare_rec);
  std::vector<Span> bare_spans = bare_rec.collect();
  if (!bare.built) {
    std::fprintf(stderr, "perfbench: could not build the bare stack\n");
    return 1;
  }
  EndToEnd pe = end_to_end(plain, spec);
  EndToEnd te = end_to_end(traced, spec);
  describe("untraced", plain, pe, spec);
  describe("traced", traced, te, spec);
  Report e2e_plain, e2e_traced;
  add_end_to_end(&e2e_plain, pe, plain);
  add_end_to_end(&e2e_traced, te, traced);
  Report::note("end-to-end, untraced run:");
  e2e_plain.print_table();
  Report::note("end-to-end, traced run:");
  e2e_traced.print_table();
  Report::note(fmt("bare replay: %llu calls in %.3f s, failed %llu",
                   static_cast<unsigned long long>(
                       bare.window.sum(&Tally::calls)),
                   bare.window.seconds(),
                   static_cast<unsigned long long>(bare.failed())));
  add_per_layer(&report, spec, pe, te, traced, sup_spans, bare, bare_spans);
  Report::note("per-layer, traced run:");
  report.print_table();
  if (!spans_dir.empty()) {
    std::string base = spans_dir + "/" + spec.name;
    write_spans(base + "-supervised.tsv", sup_spans, traced.window.t_start);
    write_spans(base + "-bare.tsv", bare_spans, bare.window.t_start);
    Report::note("spans written to " + base + "-{supervised,bare}.tsv");
  }
  bool correct = plain.correct() && traced.correct() && bare.correct();
  report.print_result(correct,
                      plain.attempted() + traced.attempted() + bare.attempted(),
                      plain.failed() + traced.failed() + bare.failed());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
