#include "common/warn.h"

namespace raefs {

uint64_t WarnSink::warn(FaultSite site) {
  WarnEvent ev;
  std::function<void(const WarnEvent&)> observer;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ev.site = std::move(site);
    ev.seq = next_seq_++;
    events_.push_back(ev);
    observer = observer_;
  }
  // Invoke outside the lock: the observer (RAE supervisor) may inspect the
  // sink or trigger recovery.
  if (observer) observer(ev);
  return ev.seq;
}

uint64_t WarnSink::count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.size();
}

std::vector<WarnEvent> WarnSink::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

void WarnSink::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  events_.clear();
}

void WarnSink::set_observer(std::function<void(const WarnEvent&)> cb) {
  std::lock_guard<std::mutex> lk(mu_);
  observer_ = std::move(cb);
}

}  // namespace raefs
