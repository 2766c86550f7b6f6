#include "common/panic.h"

#include <mutex>
#include <sstream>

namespace raefs {

namespace {

std::mutex g_panic_hook_mu;
std::function<void(const FaultSite&)> g_panic_hook;

}  // namespace

void set_panic_hook(std::function<void(const FaultSite&)> hook) {
  std::lock_guard<std::mutex> lk(g_panic_hook_mu);
  g_panic_hook = std::move(hook);
}

void fs_panic(FaultSite site) {
  std::function<void(const FaultSite&)> hook;
  {
    std::lock_guard<std::mutex> lk(g_panic_hook_mu);
    hook = g_panic_hook;
  }
  if (hook) hook(site);
  throw FsPanicError(std::move(site));
}

namespace detail {

void shadow_check_fail(const char* expr, const char* file, int line,
                       const std::string& msg) {
  std::ostringstream os;
  os << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " (" << msg << ")";
  throw ShadowCheckError(os.str());
}

}  // namespace detail
}  // namespace raefs
