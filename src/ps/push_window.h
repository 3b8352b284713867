#ifndef HETPS_PS_PUSH_WINDOW_H_
#define HETPS_PS_PUSH_WINDOW_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/status.h"

namespace hetps {

/// The bounded push window both worker clients share: at most `window`
/// pushes in flight behind one background sender.
///
/// - Window 0 is synchronous. No thread exists; Push() runs the send on
///   the caller's thread, with the caller's payload (no copy), and
///   returns its status.
/// - Window >= 1: Push() queues the payload and returns, blocking only
///   while `window` pushes are outstanding (window 1 = double
///   buffering). The sender issues pushes in queue order, so the server
///   sees each worker's clocks in order; the clock table and the
///   service's retry dedup both rely on that.
/// - The first failed send latches. Its status names the clock; every
///   later Push() and Drain() returns it and nothing more is queued.
/// - Destruction drains: every queued push is sent.
///
/// `push.inflight` and `push.inflight_peak` gauges land in
/// GlobalMetrics() (window >= 1 only). hidden_seconds() is the
/// sender's busy time minus the time the owner blocked on the window —
/// the push latency the window hid behind compute.
///
/// Push and Drain belong to one owner thread.
template <typename Payload>
class PushWindow {
 public:
  /// Sends one push; runs on the sender thread (window >= 1) or inline on
  /// the owner's (window 0).
  using SendFn = std::function<Status(int clock, const Payload& payload)>;

  PushWindow(int window, SendFn send)
      : window_(window), send_(std::move(send)) {
    HETPS_CHECK(window >= 0) << "negative push window";
    if (window_ >= 1) {
      inflight_gauge_ = GlobalMetrics().gauge("push.inflight");
      inflight_peak_gauge_ = GlobalMetrics().gauge("push.inflight_peak");
      sender_ = std::thread([this] { SenderLoop(); });
    }
  }

  ~PushWindow() {
    if (!sender_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    send_cv_.notify_all();
    sender_.join();  // the sender empties the queue before it exits
  }

  PushWindow(const PushWindow&) = delete;
  PushWindow& operator=(const PushWindow&) = delete;

  int window() const { return window_; }

  /// Window 0: sends `payload` and returns the send's status. Window
  /// >= 1: returns the latched error, else queues a copy of `payload`.
  Status Push(int clock, const Payload& payload) {
    if (window_ == 0) return send_(clock, payload);
    {
      std::unique_lock<std::mutex> lock(mu_);
      BlockLocked(&lock,
                  [this] { return inflight_ < window_ || !error_.ok(); });
      if (!error_.ok()) return error_;
      queue_.emplace_back(clock, payload);
      ++inflight_;
      if (inflight_ > inflight_peak_) {
        inflight_peak_ = inflight_;
        inflight_peak_gauge_->Set(static_cast<double>(inflight_peak_));
      }
      inflight_gauge_->Add(1.0);
    }
    send_cv_.notify_one();
    return Status::OK();
  }

  /// Blocks until every queued push has been sent; returns the latched
  /// error, if any.
  Status Drain() {
    if (window_ == 0) return Status::OK();
    std::unique_lock<std::mutex> lock(mu_);
    BlockLocked(&lock, [this] { return inflight_ == 0; });
    return error_;
  }

  /// Settled after Drain(); 0 at window 0.
  double hidden_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::max(0.0, busy_seconds_ - blocked_seconds_);
  }

 private:
  using Clock = std::chrono::steady_clock;

  static double SecondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  /// Waits on space_cv_ until `ready`, booking the wait as owner-blocked
  /// time. Call with mu_ held.
  template <typename Pred>
  void BlockLocked(std::unique_lock<std::mutex>* lock, Pred ready) {
    if (ready()) return;
    const Clock::time_point start = Clock::now();
    space_cv_.wait(*lock, ready);
    blocked_seconds_ += SecondsSince(start);
  }

  void SenderLoop() {
    for (;;) {
      std::pair<int, Payload> item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        send_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop requested and drained
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      const Clock::time_point start = Clock::now();
      const Status st = send_(item.first, item.second);
      const double seconds = SecondsSince(start);
      {
        std::lock_guard<std::mutex> lock(mu_);
        busy_seconds_ += seconds;
        if (!st.ok() && error_.ok()) {
          error_ = Status(st.code(), "async push of clock " +
                                         std::to_string(item.first) +
                                         " failed: " + st.message());
        }
        --inflight_;
        inflight_gauge_->Add(-1.0);
      }
      space_cv_.notify_all();
    }
  }

  const int window_;
  const SendFn send_;

  // mu_ guards everything below except the thread handle and the gauge
  // pointers, which are set before the sender starts.
  mutable std::mutex mu_;
  std::condition_variable send_cv_;   // wakes the sender (work / stop)
  std::condition_variable space_cv_;  // wakes the owner (slot / drained)
  std::deque<std::pair<int, Payload>> queue_;
  bool stop_ = false;
  int inflight_ = 0;  // queued + currently sending
  int inflight_peak_ = 0;
  Status error_;  // first failed send, latched for good
  double busy_seconds_ = 0.0;     // sender wall time inside send_
  double blocked_seconds_ = 0.0;  // owner wall time waiting on the window
  Gauge* inflight_gauge_ = nullptr;
  Gauge* inflight_peak_gauge_ = nullptr;
  std::thread sender_;
};

}  // namespace hetps

#endif  // HETPS_PS_PUSH_WINDOW_H_
