#include "ps/worker_client.h"

#include <memory>
#include <string>

#include "util/logging.h"

namespace hetps {
namespace {

class InProcessChannel final : public PsChannel {
 public:
  InProcessChannel(ParameterServer* ps, int worker)
      : ps_(ps), worker_(worker) {}

  Result<ServerLayout> Layout() override {
    return ServerLayout{ps_->partitioner(),
                        ps_->options().update_filter_epsilon};
  }

  Status Push(int clock, const PushPieceList& pieces) override {
    ps_->PushPieces(worker_, clock, pieces);
    return Status::OK();
  }

  Status PullDelta(const std::vector<int64_t>& tags,
                   DeltaPullResult* out) override {
    *out = ps_->PullDelta(worker_, tags);
    return Status::OK();
  }

  Status WaitUntilCanAdvance(int next_clock,
                             const std::atomic<bool>* cancel) override {
    if (ps_->WaitUntilCanAdvance(worker_, next_clock, cancel)) {
      return Status::OK();
    }
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      return Status::Aborted("admission wait cancelled");
    }
    return Status::FailedPrecondition("worker " + std::to_string(worker_) +
                                      " has been evicted");
  }

  void WakeWaiters() override { ps_->WakeClockWaiters(); }

 private:
  ParameterServer* const ps_;
  const int worker_;
};

ParameterServer* CheckedPs(ParameterServer* ps, int worker_id) {
  HETPS_CHECK(ps != nullptr) << "null ParameterServer";
  HETPS_CHECK(worker_id >= 0 && worker_id < ps->num_workers())
      << "worker id out of range";
  return ps;
}

}  // namespace

WorkerClient::WorkerClient(int worker_id, ParameterServer* ps,
                           bool delta_pull, int push_window)
    : PsClient(worker_id,
               std::make_unique<InProcessChannel>(CheckedPs(ps, worker_id),
                                                  worker_id),
               delta_pull, push_window),
      sync_(ps->options().sync) {}

bool WorkerClient::MaybePull(int clock, std::vector<double>* replica) {
  if (!sync_.NeedsPull(clock, cached_cmin())) return false;
  const Status st = PullBlocking(clock + 1, replica);
  HETPS_CHECK(st.ok()) << st.ToString();
  return true;
}

}  // namespace hetps
