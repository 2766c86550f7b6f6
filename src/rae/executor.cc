#include "rae/executor.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "blockdev/qdepth_probe.h"
#include "format/footprint.h"
#include "obs/flight_recorder.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "rae/wire.h"

namespace raefs {

ShadowOutcome InProcessShadowExecutor::execute(
    BlockDevice* dev, const std::vector<OpRecord>& log,
    const ShadowConfig& config, SimClockPtr clock) {
  // Round-trip the op sequence through the wire format even in-process:
  // the interface the shadow sees is identical in both executors.
  auto encoded = wire::encode_op_records(log);
  auto decoded = wire::decode_op_records(encoded);
  ShadowOutcome outcome;
  if (!decoded.ok()) {
    outcome.ok = false;
    outcome.failure = "op-record wire corruption";
    return outcome;
  }
  return shadow_execute(dev, decoded.value(), config, std::move(clock));
}

namespace {

bool write_all(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::write(fd, data, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool read_all(int fd, uint8_t* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::read(fd, data, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

ShadowOutcome fail(const char* why) {
  ShadowOutcome outcome;
  outcome.ok = false;
  outcome.failure = why;
  return outcome;
}

}  // namespace

ShadowOutcome ForkShadowExecutor::execute(BlockDevice* dev,
                                          const std::vector<OpRecord>& log,
                                          const ShadowConfig& config,
                                          SimClockPtr clock) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) return fail("pipe() failed");

  auto encoded = wire::encode_op_records(log);

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return fail("fork() failed");
  }

  if (pid == 0) {
    // Child: its copy-on-write address space is the isolation boundary.
    // The device snapshot is whatever the parent's memory held at fork();
    // the shadow reads it through a read-only view and writes nothing.
    // Simulated-time note: the device object charges ITS clock, which in
    // the child is a COW copy -- those charges stay in the child. The
    // fresh child clock below captures the shadow's own costs, which is
    // what sim_time_used reports back; fork-mode recovery time therefore
    // undercounts pure device-read latency slightly (a few percent).
    ::close(pipefd[0]);
    auto decoded = wire::decode_op_records(encoded);
    ShadowOutcome outcome;
    if (!decoded.ok()) {
      outcome.ok = false;
      outcome.failure = "op-record wire corruption (child)";
    } else {
      auto child_clock = make_clock();  // fresh clock; delta reported back
      outcome = shadow_execute(dev, decoded.value(), config, child_clock);
    }
    auto bytes = wire::encode_outcome(outcome);
    uint64_t len = bytes.size();
    bool sent =
        write_all(pipefd[1], reinterpret_cast<const uint8_t*>(&len),
                  sizeof(len)) &&
        write_all(pipefd[1], bytes.data(), bytes.size());
    ::close(pipefd[1]);
    ::_exit(sent ? 0 : 1);
  }

  // Parent.
  ::close(pipefd[1]);
  uint64_t len = 0;
  ShadowOutcome outcome;
  if (!read_all(pipefd[0], reinterpret_cast<uint8_t*>(&len), sizeof(len)) ||
      len > (1ull << 31)) {
    outcome = fail("shadow child produced no/oversized output");
  } else {
    std::vector<uint8_t> bytes(len);
    if (!read_all(pipefd[0], bytes.data(), bytes.size())) {
      outcome = fail("shadow child output truncated");
    } else {
      auto decoded = wire::decode_outcome(bytes);
      outcome = decoded.ok() ? std::move(decoded).value()
                             : fail("outcome wire corruption");
    }
  }
  ::close(pipefd[0]);

  int status = 0;
  (void)::waitpid(pid, &status, 0);
  if (outcome.ok && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
    outcome = fail("shadow child crashed");
  }
  if (clock && outcome.sim_time_used > 0) clock->advance(outcome.sim_time_used);
  return outcome;
}

std::unique_ptr<ShadowExecutor> make_executor(bool use_fork) {
  if (use_fork) return std::make_unique<ForkShadowExecutor>();
  return std::make_unique<InProcessShadowExecutor>();
}

ShadowOutcome run_shadow(ShadowExecutor& exec, BlockDevice* dev,
                         const std::vector<OpRecord>& log,
                         const ShadowConfig& config, SimClockPtr clock) {
  auto now = [&]() -> Nanos { return clock ? clock->now() : 0; };
  obs::TraceSpan span(obs::kSpanShadowReplay, clock.get());
  const uint32_t workers = resolve_workers(config.replay_workers, dev);
  std::unique_ptr<PrefetchedDevice> ahead;
  if (workers > 1) {
    obs::TraceSpan ps(obs::kSpanShadowReplayPrefetch, clock.get(), span.id());
    ahead = prefetch_metadata(dev, workers);
    dev = ahead.get();
  }
  obs::flight().record(obs::Component::kShadow, "replay.begin", "", now(),
                       log.size(), workers);
  ShadowOutcome outcome = exec.execute(dev, log, config, clock);
  obs::flight().record(obs::Component::kShadow,
                       outcome.ok ? "replay.end" : "replay.refused",
                       outcome.ok ? "" : std::string_view(outcome.failure),
                       now(), outcome.ops_replayed,
                       outcome.discrepancies.size(), outcome.dirty.size());
  return outcome;
}

}  // namespace raefs
