// Panic and invariant-check machinery.
//
// Mirrors the kernel error surface the paper studies:
//  - FsPanicError  ~ BUG()/oops: the base filesystem hit a fatal bug. The
//    RAE supervisor catches this and runs recovery; without RAE it crashes
//    the "machine" (crash-restart baseline).
//  - ShadowCheckError: a runtime check inside the *shadow* failed. The
//    shadow is the robust alternative, so this signals either a hardware
//    fault outside the model or an unrecoverable image; it is never turned
//    into silent continuation.
// The WARN_ON() analogue, WarnSink, is in common/warn.h: it is thread-safe,
// and this header stays free of thread primitives because the shadow
// includes it.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace raefs {

/// Where a panic/WARN originated, for reporting and bug-id matching.
struct FaultSite {
  std::string function;  // e.g. "BaseFs::write"
  std::string detail;    // human-readable message
  int bug_id = -1;       // injected-bug id, or -1 for organic invariant trap
};

/// Fatal error inside the base filesystem (kernel BUG() analogue).
class FsPanicError : public std::runtime_error {
 public:
  explicit FsPanicError(FaultSite site)
      : std::runtime_error("fs panic in " + site.function + ": " + site.detail),
        site_(std::move(site)) {}

  const FaultSite& site() const { return site_; }

 private:
  FaultSite site_;
};

/// A runtime check inside the shadow filesystem failed.
class ShadowCheckError : public std::runtime_error {
 public:
  explicit ShadowCheckError(std::string what_arg)
      : std::runtime_error("shadow check failed: " + std::move(what_arg)) {}
};

/// Raise a base-filesystem panic. Marked noreturn so control flow after a
/// detected fatal bug is explicit.
[[noreturn]] void fs_panic(FaultSite site);

/// Observer invoked synchronously inside fs_panic, before the exception is
/// thrown -- while the faulting state is still live. Used by the obs flight
/// recorder to dump its ring at the moment of detection. At most one hook;
/// it must not throw.
void set_panic_hook(std::function<void(const FaultSite&)> hook);

namespace detail {
[[noreturn]] void shadow_check_fail(const char* expr, const char* file,
                                    int line, const std::string& msg);
}

/// Extensive runtime check used throughout the shadow filesystem. Always
/// enabled (the shadow has no performance budget to protect); failure
/// throws ShadowCheckError.
#define SHADOW_CHECK(cond, msg)                                             \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::raefs::detail::shadow_check_fail(#cond, __FILE__, __LINE__, (msg)); \
    }                                                                       \
  } while (0)

/// Invariant trap in the base filesystem: the organic analogue of BUG_ON.
#define BASE_BUG_ON(cond, func, msg)                                  \
  do {                                                                \
    if (cond) {                                                       \
      ::raefs::fs_panic(::raefs::FaultSite{(func), (msg), -1});       \
    }                                                                 \
  } while (0)

}  // namespace raefs
