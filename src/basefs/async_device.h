// Asynchronous block layer (the base filesystem's "blk-mq" analogue).
//
// Requests are queued on a submission queue and serviced by worker
// threads; completions run on the worker. The base filesystem's write-back
// path uses this layer (Figure 2, left side: "Block Layer (asynchronous
// IO)"); the shadow never touches it and reads the device synchronously.
//
// A request's completion callback runs before the request stops counting
// as in flight, so once drain() returns every callback of every earlier
// request has run: the group commit reads its data writes' outcome right
// after draining.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "blockdev/block_device.h"

namespace raefs {

class AsyncBlockDevice {
 public:
  using WriteCallback = std::function<void(Status)>;

  /// Start `workers` service threads over `inner`. `inner` must outlive
  /// this object.
  explicit AsyncBlockDevice(BlockDevice* inner, int workers = 2);
  ~AsyncBlockDevice();

  AsyncBlockDevice(const AsyncBlockDevice&) = delete;
  AsyncBlockDevice& operator=(const AsyncBlockDevice&) = delete;

  /// Coalesced write of `bufs.size()` contiguous blocks starting at
  /// `first`. One queue round-trip for the whole extent; `done` runs once
  /// with the first failure (or Ok). Buffers are shared, never copied.
  void submit_writev(BlockNo first, std::vector<BlockBufPtr> bufs,
                     WriteCallback done);

  /// Block until every queued request has completed.
  void drain();

  /// Stop accepting requests, drain, and join workers. Idempotent;
  /// also performed by the destructor.
  void shutdown();

 private:
  struct Request {
    BlockNo block = 0;
    std::vector<BlockBufPtr> bufs;  // blocks block..block+n-1
    WriteCallback done;
  };

  void worker_loop();

  BlockDevice* inner_;
  std::mutex mu_;
  std::condition_variable cv_;        // wakes workers
  std::condition_variable drain_cv_;  // wakes drain()
  std::deque<Request> queue_;
  size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace raefs
