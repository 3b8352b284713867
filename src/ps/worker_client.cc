#include "ps/worker_client.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "math/kernels.h"
#include "util/logging.h"

namespace hetps {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

WorkerClient::WorkerClient(int worker_id, ParameterServer* ps,
                           bool delta_pull, int push_window)
    : worker_id_(worker_id),
      ps_(ps),
      delta_pull_(delta_pull),
      push_window_(push_window) {
  HETPS_CHECK(ps != nullptr) << "null ParameterServer";
  HETPS_CHECK(worker_id >= 0 && worker_id < ps->num_workers())
      << "worker id out of range";
  HETPS_CHECK(push_window >= 0) << "negative push window";
  if (delta_pull_) {
    cached_tags_.assign(static_cast<size_t>(ps->num_partitions()),
                        kNoCachedTag);
  }
  if (push_window_ >= 1) {
    inflight_gauge_ = ps_->metrics()->gauge("push.inflight");
    inflight_peak_gauge_ = ps_->metrics()->gauge("push.inflight_peak");
    sender_ = std::thread([this] { SenderLoop(); });
  }
}

WorkerClient::~WorkerClient() {
  CancelPrefetch();
  if (sender_.joinable()) {
    // The sender drains the queue before exiting — every accepted push
    // reaches the server even when the trainer tears down mid-window.
    {
      std::lock_guard<std::mutex> lock(send_mu_);
      stop_sender_ = true;
    }
    send_cv_.notify_all();
    sender_.join();
    RefreshHiddenLocked();  // sender joined: no lock needed, none taken
  }
}

void WorkerClient::SenderLoop() {
  for (;;) {
    std::pair<int, SparseVector> item;
    {
      std::unique_lock<std::mutex> lock(send_mu_);
      send_cv_.wait(lock, [this] {
        return stop_sender_ || !send_queue_.empty();
      });
      if (send_queue_.empty()) return;  // stop requested and drained
      item = std::move(send_queue_.front());
      send_queue_.pop_front();
    }
    const Clock::time_point start = Clock::now();
    ps_->Push(worker_id_, item.first, item.second);
    const double dur = SecondsSince(start);
    {
      std::lock_guard<std::mutex> lock(send_mu_);
      async_push_seconds_ += dur;
      --inflight_;
      if (inflight_gauge_ != nullptr) inflight_gauge_->Add(-1.0);
    }
    space_cv_.notify_all();
  }
}

void WorkerClient::RefreshHiddenLocked() {
  breakdown_.push_hidden_seconds =
      std::max(0.0, async_push_seconds_ - owner_blocked_seconds_);
}

void WorkerClient::Flush() {
  if (push_window_ == 0) return;
  std::unique_lock<std::mutex> lock(send_mu_);
  if (inflight_ > 0) {
    const Clock::time_point start = Clock::now();
    space_cv_.wait(lock, [this] { return inflight_ == 0; });
    const double blocked = SecondsSince(start);
    owner_blocked_seconds_ += blocked;
    breakdown_.comm_seconds += blocked;
  }
  RefreshHiddenLocked();
}

void WorkerClient::CancelPrefetch() {
  if (!prefetch_.has_value()) return;
  // The task may be blocked in the SSP admission wait with no push ever
  // coming (e.g. the trainer aborted): raise the cancel flag, wake every
  // clock waiter, then join. WaitUntilCanAdvance re-checks the flag on
  // each wake, so the task returns promptly instead of blocking forever
  // (and can never touch a PS destroyed after this client).
  cancel_prefetch_.store(true, std::memory_order_release);
  ps_->WakeClockWaiters();
  prefetch_->wait();
  prefetch_.reset();
  cancel_prefetch_.store(false, std::memory_order_release);
  prefetch_clock_ = -1;
}

void WorkerClient::Push(int clock, const SparseVector& update) {
  // Overlapping a prefetch for a *later* clock is the intended pipeline
  // (the push may even be what unblocks the prefetch's admission wait).
  // Pushing the prefetched clock itself — or a later one — while the
  // pull is still in flight means the caller's loop lost its ordering.
  HETPS_CHECK(!prefetch_.has_value() || clock < prefetch_clock_)
      << "Push(clock=" << clock << ") racing in-flight prefetch for clock "
      << prefetch_clock_;
  if (push_window_ == 0) {
    // Synchronous path — unchanged: the caller eats the full apply
    // latency before its next clock.
    const Clock::time_point start = Clock::now();
    ps_->Push(worker_id_, clock, update);
    breakdown_.comm_seconds += SecondsSince(start);
    ++breakdown_.clocks_completed;
    ++push_count_;
    return;
  }
  // Pipelined path: hand the update to the sender and return. Only the
  // backpressure block (window full) costs the owner wall time — that
  // is the part of push latency the pipeline failed to hide.
  {
    std::unique_lock<std::mutex> lock(send_mu_);
    if (inflight_ >= push_window_) {
      const Clock::time_point start = Clock::now();
      space_cv_.wait(lock, [this] { return inflight_ < push_window_; });
      const double blocked = SecondsSince(start);
      owner_blocked_seconds_ += blocked;
      breakdown_.comm_seconds += blocked;
    }
    send_queue_.emplace_back(clock, update);
    ++inflight_;
    if (inflight_ > inflight_peak_) {
      inflight_peak_ = inflight_;
      if (inflight_peak_gauge_ != nullptr) {
        inflight_peak_gauge_->Set(static_cast<double>(inflight_peak_));
      }
    }
    if (inflight_gauge_ != nullptr) inflight_gauge_->Add(1.0);
  }
  send_cv_.notify_one();
  ++breakdown_.clocks_completed;
  ++push_count_;
}

bool WorkerClient::MaybePull(int clock, std::vector<double>* replica) {
  if (!ps_->options().sync.NeedsPull(clock, cached_cmin_)) {
    return false;
  }
  PullBlocking(clock + 1, replica);
  return true;
}

int WorkerClient::DoPull(std::vector<double>* replica) {
  if (!delta_pull_) {
    int cmin = 0;
    *replica = ps_->PullFull(worker_id_, &cmin);
    return cmin;
  }
  const DeltaPullResult delta = ps_->PullDelta(worker_id_, cached_tags_);
  ApplyToCache(delta);
  // The trainer gets a mutable copy. Copy-assignment reuses the buffer
  // it already holds, so a steady-state pull allocates no model-sized
  // vector.
  *replica = cache_;
  return delta.cmin;
}

void WorkerClient::ApplyToCache(const DeltaPullResult& result) {
  const Partitioner& part = ps_->partitioner();
  if (cache_.empty()) {
    cache_.assign(static_cast<size_t>(ps_->dim()), 0.0);
  }
  for (const PartitionPull& pp : result.partitions) {
    const int p = pp.partition;
    const size_t slot = static_cast<size_t>(p);
    // Range-based schemes map a partition onto one contiguous global key
    // interval, so whole pieces apply with memcpy / vector kernels at the
    // base offset; hash striding falls back to per-key GlobalIndex.
    int64_t base = 0;
    const bool contiguous = part.ContiguousKeyRange(p, &base);
    switch (pp.encoding) {
      case PartitionPull::Encoding::kUnchanged:
        // Content tag matched: the pristine copy is already current.
        break;
      case PartitionPull::Encoding::kDense:
        if (contiguous) {
          std::memcpy(cache_.data() + base, pp.dense.data(),
                      pp.dense.size() * sizeof(double));
        } else {
          for (size_t local = 0; local < pp.dense.size(); ++local) {
            const int64_t g =
                part.GlobalIndex(p, static_cast<int64_t>(local));
            cache_[static_cast<size_t>(g)] = pp.dense[local];
          }
        }
        break;
      case PartitionPull::Encoding::kSparse: {
        // Whole block in sparse layout: clear the partition's slots,
        // then scatter the nonzeros.
        const int64_t dim_p = part.PartitionDim(p);
        if (contiguous) {
          std::fill(cache_.begin() + base, cache_.begin() + base + dim_p,
                    0.0);
          kernels::ScatterAxpy(1.0, pp.sparse.indices().data(),
                               pp.sparse.values().data(), pp.sparse.nnz(),
                               cache_.data() + base);
        } else {
          for (int64_t local = 0; local < dim_p; ++local) {
            cache_[static_cast<size_t>(part.GlobalIndex(p, local))] = 0.0;
          }
          for (size_t i = 0; i < pp.sparse.nnz(); ++i) {
            const int64_t g = part.GlobalIndex(p, pp.sparse.index(i));
            cache_[static_cast<size_t>(g)] = pp.sparse.value(i);
          }
        }
        break;
      }
      case PartitionPull::Encoding::kSparseDelta: {
        // In-process there is no retry or reordering, so the delta's
        // base must be exactly what we hold; anything else is a server
        // bug (the RPC client handles mismatch by re-pulling instead).
        HETPS_CHECK(pp.base_tag == cached_tags_[slot])
            << "delta base tag mismatch on partition " << p;
        if (contiguous) {
          kernels::ScatterAxpy(1.0, pp.sparse.indices().data(),
                               pp.sparse.values().data(), pp.sparse.nnz(),
                               cache_.data() + base);
        } else {
          for (size_t i = 0; i < pp.sparse.nnz(); ++i) {
            const int64_t g = part.GlobalIndex(p, pp.sparse.index(i));
            cache_[static_cast<size_t>(g)] += pp.sparse.value(i);
          }
        }
        break;
      }
    }
    cached_tags_[slot] = pp.tag;
  }
  pulled_bytes_ += result.bytes_shipped;
  pulled_bytes_full_ += result.bytes_full;
}

void WorkerClient::PullBlocking(int next_clock,
                                std::vector<double>* replica) {
  // A pull on the owner thread while the prefetch task owns the replica
  // cache would race cache_/cached_tags_ — the caller must finish (or
  // never start) the prefetch first.
  HETPS_CHECK(!prefetch_.has_value())
      << "PullBlocking racing in-flight prefetch";
  // Read-your-writes: drain the push window so the refreshed replica
  // reflects this worker's own pushed clocks (and the admission wait
  // below sees the clock table our pushes advanced).
  Flush();
  const Clock::time_point wait_start = Clock::now();
  ps_->WaitUntilCanAdvance(worker_id_, next_clock);
  breakdown_.wait_seconds += SecondsSince(wait_start);
  const Clock::time_point pull_start = Clock::now();
  cached_cmin_ = DoPull(replica);
  breakdown_.comm_seconds += SecondsSince(pull_start);
  ++pull_count_;
}

void WorkerClient::StartPrefetch(int next_clock) {
  HETPS_CHECK(!prefetch_.has_value()) << "prefetch already in flight";
  prefetch_clock_ = next_clock;
  prefetch_ = std::async(std::launch::async, [this, next_clock] {
    const bool admitted = ps_->WaitUntilCanAdvance(worker_id_, next_clock,
                                                   &cancel_prefetch_);
    PrefetchResult result;
    if (!admitted) return result;  // cancelled: invalid result
    result.valid = true;
    result.cmin = DoPull(&result.replica);
    return result;
  });
}

bool WorkerClient::FinishPrefetch(std::vector<double>* replica) {
  if (!prefetch_.has_value()) return false;
  // Only the un-overlapped remainder counts as wait: the async pull ran
  // beside the clock's computation, so the time blocked here is what
  // prefetching could not hide.
  const Clock::time_point start = Clock::now();
  PrefetchResult result = prefetch_->get();
  breakdown_.wait_seconds += SecondsSince(start);
  prefetch_.reset();
  prefetch_clock_ = -1;
  if (!result.valid) return false;
  *replica = std::move(result.replica);
  cached_cmin_ = result.cmin;
  ++pull_count_;
  return true;
}

}  // namespace hetps
