#include "ps/ps_client.h"

#include <chrono>

#include "util/logging.h"

namespace hetps {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One round trip normally suffices after a base-tag mismatch: the
// mismatched partitions ship whole on the next.
constexpr int kPullAttempts = 3;

}  // namespace

Status PsChannel::ReportClock(int, double) {
  return Status::NotSupported("clock reports go over the bus");
}

PsClient::PsClient(int worker_id, std::unique_ptr<PsChannel> channel,
                   bool delta_pull, int push_window)
    : worker_id_(worker_id),
      channel_(std::move(channel)),
      delta_pull_(delta_pull),
      refresh_us_(GlobalMetrics().histogram("client.replica_refresh_us")),
      full_copies_(GlobalMetrics().counter("client.replica_full_copies")),
      window_(push_window,
              [this](int clock, const PushPieceList& pieces) {
                return channel_->Push(clock, pieces);
              }) {}

PsClient::~PsClient() {
  // window_ drains after this, so every accepted push reaches the
  // server even when the caller tears down mid-window.
  CancelPrefetch();
}

Status PsClient::EnsureLayout() {
  if (cache_.has_value()) return Status::OK();
  Result<ServerLayout> layout = channel_->Layout();
  if (!layout.ok()) return layout.status();
  const Partitioner& partitioner = layout.value().partitioner;
  filter_epsilon_ = layout.value().filter_epsilon;
  no_tags_.assign(static_cast<size_t>(partitioner.num_partitions()),
                  kNoCachedTag);
  cache_.emplace(partitioner);
  return Status::OK();
}

Status PsClient::Push(int clock, const SparseVector& update) {
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
  Status st = EnsureLayout();
  if (st.ok()) {
    Result<PushPieceList> pieces =
        SplitPush(cache_->layout(), filter_epsilon_, update);
    st = pieces.ok() ? window_.Push(clock, pieces.value()) : pieces.status();
  }
  breakdown_.comm_seconds += SecondsSince(start);
  if (!st.ok()) return st;
  ++breakdown_.clocks_completed;
  ++push_count_;
  return Status::OK();
}

Status PsClient::Flush() {
  const Clock::time_point start = Clock::now();
  const Status st = window_.Drain();
  breakdown_.comm_seconds += SecondsSince(start);
  breakdown_.push_hidden_seconds = window_.hidden_seconds();
  return st;
}

Status PsClient::WaitUntilCanAdvance(int next_clock) {
  // The admission decision depends on the clock table this worker's own
  // queued pushes advance, so wait only after they have landed. (This
  // also surfaces a latched async failure, e.g. eviction.)
  HETPS_RETURN_NOT_OK(Flush());
  const Clock::time_point start = Clock::now();
  const Status st = channel_->WaitUntilCanAdvance(next_clock, nullptr);
  breakdown_.wait_seconds += SecondsSince(start);
  return st;
}

Status PsClient::Pull(std::vector<double>* replica, int* cmin,
                      const std::vector<int64_t>* written) {
  for (int attempt = 0; attempt < kPullAttempts; ++attempt) {
    DeltaPullResult pull;
    HETPS_RETURN_NOT_OK(
        channel_->PullDelta(delta_pull_ ? cache_->tags() : no_tags_, &pull));
    pulled_bytes_ += pull.bytes_shipped;
    pulled_bytes_full_ += pull.bytes_full;
    // A delta against state the cache no longer (or never) held — e.g. a
    // checkpoint restore between pulls — is dropped and its tag reset,
    // so the next round trip ships that partition whole. An in-place
    // apply has already written what it changed into the replica.
    if (cache_->Apply(pull.partitions,
                      written != nullptr ? replica : nullptr)) {
      const Clock::time_point start = Clock::now();
      if (written != nullptr) {
        cache_->ResetKeys(*written, replica);
      } else {
        // Copy-assignment reuses the caller's buffer, so a steady-state
        // pull allocates no model-sized vector.
        *replica = cache_->values();
        full_copies_->Increment();
      }
      refresh_us_->RecordInt(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                start)
              .count());
      *cmin = pull.cmin;
      return Status::OK();
    }
  }
  return Status::Internal("delta pull base tags kept mismatching");
}

Status PsClient::PullCached(std::vector<double>* replica, int* cmin,
                            const std::vector<int64_t>* written) {
  // A pull on the owner thread while the prefetch task owns the replica
  // cache would race it: finish (or never start) the prefetch first.
  HETPS_CHECK(!prefetch_.has_value())
      << "PullCached racing in-flight prefetch";
  // Read-your-writes: the pull must observe this worker's own pushes.
  HETPS_RETURN_NOT_OK(Flush());
  const Clock::time_point start = Clock::now();
  int pulled_cmin = 0;
  Status st = EnsureLayout();
  if (st.ok()) {
    const bool in_place = written != nullptr && filled_ != nullptr &&
                          replica->data() == filled_ &&
                          replica->size() == cache_->values().size();
    st = Pull(replica, &pulled_cmin, in_place ? written : nullptr);
  }
  breakdown_.comm_seconds += SecondsSince(start);
  filled_ = st.ok() ? replica->data() : nullptr;
  if (!st.ok()) return st;
  cached_cmin_ = pulled_cmin;
  ++pull_count_;
  if (cmin != nullptr) *cmin = pulled_cmin;
  return Status::OK();
}

Status PsClient::PullBlocking(int next_clock, std::vector<double>* replica) {
  HETPS_RETURN_NOT_OK(WaitUntilCanAdvance(next_clock));
  return PullCached(replica, nullptr);
}

Status PsClient::StartPrefetch(int next_clock) {
  HETPS_CHECK(!prefetch_.has_value()) << "prefetch already in flight";
  // The handshake runs here, on the owner thread: the task only pulls.
  HETPS_RETURN_NOT_OK(EnsureLayout());
  filled_ = nullptr;
  prefetch_clock_ = next_clock;
  prefetch_ = std::async(std::launch::async, [this, next_clock] {
    PrefetchResult result;
    result.status =
        channel_->WaitUntilCanAdvance(next_clock, &cancel_prefetch_);
    if (result.status.ok()) {
      result.status = Pull(&result.replica, &result.cmin, nullptr);
    }
    return result;
  });
  return Status::OK();
}

Status PsClient::FinishPrefetch(std::vector<double>* replica) {
  if (!prefetch_.has_value()) {
    return Status::FailedPrecondition("no prefetch in flight");
  }
  // Only the un-overlapped remainder counts as wait: the task ran beside
  // the clock's computation, so the time blocked here is what prefetching
  // could not hide.
  const Clock::time_point start = Clock::now();
  PrefetchResult result = prefetch_->get();
  breakdown_.wait_seconds += SecondsSince(start);
  prefetch_.reset();
  prefetch_clock_ = -1;
  if (!result.status.ok()) return result.status;
  *replica = std::move(result.replica);
  filled_ = replica->data();
  cached_cmin_ = result.cmin;
  ++pull_count_;
  return Status::OK();
}

void PsClient::CancelPrefetch() {
  if (!prefetch_.has_value()) return;
  // The task may be blocked in the admission wait with no push ever
  // coming (e.g. the caller aborted): raise the cancel flag, wake the
  // waiters, then join. The wait re-checks the flag on every wake, so
  // the task returns promptly and never touches a server torn down after
  // this client.
  cancel_prefetch_.store(true, std::memory_order_release);
  channel_->WakeWaiters();
  prefetch_->wait();
  prefetch_.reset();
  cancel_prefetch_.store(false, std::memory_order_release);
  prefetch_clock_ = -1;
}

Status PsClient::ReportClock(int clock, double seconds) {
  const Clock::time_point start = Clock::now();
  const Status st = channel_->ReportClock(clock, seconds);
  breakdown_.comm_seconds += SecondsSince(start);
  return st;
}

}  // namespace hetps
