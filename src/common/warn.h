// WARN machinery: the base's WARN_ON() analogue.
//
// WarnEvent/WarnSink ~ WARN_ON(): the suggested substitute for BUG() in
// Linux. The base continues after a WARN; the supervisor applies a
// configurable escalation policy. Kept apart from common/panic.h, which the
// shadow includes, because the sink is thread-safe and the shadow's header
// closure carries no thread primitive.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/panic.h"

namespace raefs {

/// One WARN_ON()-style event emitted by the base.
struct WarnEvent {
  FaultSite site;
  uint64_t seq = 0;  // assigned by the sink, monotonic
};

/// Collects WARN events from one base-filesystem instance. Thread-safe.
/// The RAE supervisor inspects the sink to apply its escalation policy.
class WarnSink {
 public:
  /// Record a WARN; returns its sequence number.
  uint64_t warn(FaultSite site);

  /// Number of WARNs recorded so far.
  uint64_t count() const;

  /// Copy of all recorded events (test/diagnostic use).
  std::vector<WarnEvent> events() const;

  /// Drop all recorded events (after a contained reboot).
  void clear();

  /// Optional observer invoked synchronously on each WARN (supervisor hook).
  void set_observer(std::function<void(const WarnEvent&)> cb);

 private:
  mutable std::mutex mu_;
  std::vector<WarnEvent> events_;
  uint64_t next_seq_ = 1;
  std::function<void(const WarnEvent&)> observer_;
};

}  // namespace raefs
