#include "basefs/async_device.h"

#include "obs/metrics.h"
#include "obs/names.h"

namespace raefs {
namespace {

// Global (cross-instance) block-layer metrics; registered once, then each
// update is one relaxed atomic op.
struct BlockdevMetrics {
  obs::Counter& writes = obs::metrics().counter(obs::kMBlockdevWrites);
  obs::Counter& writev_batches =
      obs::metrics().counter(obs::kMBlockdevWritevBatches);
  obs::Gauge& inflight = obs::metrics().gauge(obs::kMBlockdevInflight);
};

BlockdevMetrics& bm() {
  static BlockdevMetrics m;
  return m;
}

}  // namespace

AsyncBlockDevice::AsyncBlockDevice(BlockDevice* inner, int workers)
    : inner_(inner) {
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AsyncBlockDevice::~AsyncBlockDevice() { shutdown(); }

void AsyncBlockDevice::submit_writev(BlockNo first,
                                     std::vector<BlockBufPtr> bufs,
                                     WriteCallback done) {
  if (bufs.empty()) {
    if (done) done(Status::Ok());
    return;
  }
  bm().writev_batches.inc();
  bm().writes.inc(bufs.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;  // dropped; callers should not race shutdown
    queue_.push_back(Request{first, std::move(bufs), std::move(done)});
  }
  bm().inflight.add(1);
  cv_.notify_one();
}

void AsyncBlockDevice::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  drain_cv_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
}

void AsyncBlockDevice::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void AsyncBlockDevice::worker_loop() {
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to do
      req = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }

    Status st = Status::Ok();
    for (size_t i = 0; i < req.bufs.size(); ++i) {
      st = inner_->write_block(req.block + i, *req.bufs[i]);
      if (!st.ok()) break;
    }
    // Release payload references before completion is observable: a
    // drained caller must be able to mutate its buffers without tripping
    // copy-on-write against a request we are still tearing down.
    req.bufs.clear();
    if (req.done) req.done(st);

    bm().inflight.add(-1);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

}  // namespace raefs
