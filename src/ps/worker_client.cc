#include "ps/worker_client.h"

#include <chrono>

#include "util/logging.h"

namespace hetps {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

ParameterServer* CheckedPs(ParameterServer* ps, int worker_id) {
  HETPS_CHECK(ps != nullptr) << "null ParameterServer";
  HETPS_CHECK(worker_id >= 0 && worker_id < ps->num_workers())
      << "worker id out of range";
  return ps;
}

}  // namespace

WorkerClient::WorkerClient(int worker_id, ParameterServer* ps,
                           bool delta_pull, int push_window)
    : worker_id_(worker_id),
      ps_(CheckedPs(ps, worker_id)),
      delta_pull_(delta_pull),
      cache_(ps_->partitioner(), ps_->metrics()),
      window_(push_window, ps_->metrics(),
              [this](int clock, const SparseVector& update) {
                ps_->Push(worker_id_, clock, update);
                return Status::OK();
              }) {}

WorkerClient::~WorkerClient() {
  // window_ drains after this, so every accepted push reaches the
  // server even when the trainer tears down mid-window.
  CancelPrefetch();
}

void WorkerClient::Flush() {
  const Clock::time_point start = Clock::now();
  (void)window_.Drain();  // in-process sends cannot fail
  breakdown_.comm_seconds += SecondsSince(start);
  breakdown_.push_hidden_seconds = window_.hidden_seconds();
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
  // At window 0 the caller eats the full apply latency before its next
  // clock; with a window only a full window blocks it.
  const Clock::time_point start = Clock::now();
  (void)window_.Push(clock, update);
  breakdown_.comm_seconds += SecondsSince(start);
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
  // Without delta_pull no tag is sent (PullDelta pads the empty vector
  // with kNoCachedTag), so every partition ships whole.
  static const std::vector<int64_t> kNoTags;
  const DeltaPullResult delta =
      ps_->PullDelta(worker_id_, delta_pull_ ? cache_.tags() : kNoTags);
  const bool applied = cache_.Apply(delta.partitions);
  // In-process there is no retry or reordering, so a delta's base is
  // exactly what the cache holds; anything else is a server bug (the RPC
  // client handles a mismatch by re-pulling instead).
  HETPS_CHECK(applied) << "delta base tag mismatch on worker "
                       << worker_id_;
  pulled_bytes_ += delta.bytes_shipped;
  pulled_bytes_full_ += delta.bytes_full;
  // The trainer gets a mutable copy. Copy-assignment reuses the buffer
  // it already holds, so a steady-state pull allocates no model-sized
  // vector.
  *replica = cache_.values();
  return delta.cmin;
}

void WorkerClient::PullBlocking(int next_clock,
                                std::vector<double>* replica) {
  // A pull on the owner thread while the prefetch task owns the replica
  // cache would race cache_ — the caller must finish (or never start)
  // the prefetch first.
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
