// Shadow executors: how the supervisor runs the shadow filesystem.
//
// The paper launches the shadow "as a separate userspace process to ensure
// the strong isolation of faults and a clean interface" (§3.2).
// ForkShadowExecutor does exactly that on POSIX: fork() a child whose
// copy-on-write address space holds a frozen snapshot of the device, run
// the replay there, and ship the ShadowOutcome back over a pipe using the
// wire format. InProcessShadowExecutor runs the same replay behind the
// same narrow interface without the process boundary (deterministic, and
// portable to environments without fork()).
#pragma once

#include <memory>

#include "blockdev/block_device.h"
#include "oplog/op.h"
#include "shadowfs/shadow_replay.h"

namespace raefs {

class ShadowExecutor {
 public:
  virtual ~ShadowExecutor() = default;

  /// Run the recovery replay over `dev` (the shadow itself accesses it
  /// read-only). `clock` is advanced by the shadow's simulated time.
  virtual ShadowOutcome execute(BlockDevice* dev,
                                const std::vector<OpRecord>& log,
                                const ShadowConfig& config,
                                SimClockPtr clock) = 0;

  virtual const char* name() const = 0;
};

class InProcessShadowExecutor final : public ShadowExecutor {
 public:
  ShadowOutcome execute(BlockDevice* dev, const std::vector<OpRecord>& log,
                        const ShadowConfig& config,
                        SimClockPtr clock) override;
  const char* name() const override { return "in-process"; }
};

class ForkShadowExecutor final : public ShadowExecutor {
 public:
  ShadowOutcome execute(BlockDevice* dev, const std::vector<OpRecord>& log,
                        const ShadowConfig& config,
                        SimClockPtr clock) override;
  const char* name() const override { return "fork"; }
};

std::unique_ptr<ShadowExecutor> make_executor(bool use_fork);

/// Run the shadow through `exec` in the caller's process, as every
/// supervisor does: opens the `shadow.replay` span, resolves
/// `config.replay_workers` on `dev` (0 = auto) and, above 1, reads the
/// metadata footprint ahead (format/footprint.h) under
/// `shadow.replay.prefetch`, then records the replay.begin and
/// replay.end/replay.refused flight events around `exec.execute` over that
/// device. Spans and events therefore survive a forked shadow, and the
/// shadow itself starts no thread.
ShadowOutcome run_shadow(ShadowExecutor& exec, BlockDevice* dev,
                         const std::vector<OpRecord>& log,
                         const ShadowConfig& config, SimClockPtr clock);

}  // namespace raefs
