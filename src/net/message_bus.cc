#include "net/message_bus.h"

#include <utility>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace hetps {

MessageBus::MessageBus()
    : m_delivered_(GlobalMetrics().counter("bus.delivered")),
      m_fault_dropped_requests_(
          GlobalMetrics().counter("bus.fault.dropped_requests")),
      m_fault_dropped_responses_(
          GlobalMetrics().counter("bus.fault.dropped_responses")),
      m_fault_duplicated_requests_(
          GlobalMetrics().counter("bus.fault.duplicated_requests")),
      m_fault_delayed_requests_(
          GlobalMetrics().counter("bus.fault.delayed_requests")),
      m_inflight_calls_(GlobalMetrics().gauge("bus.inflight_calls")),
      m_rpc_latency_us_(GlobalMetrics().histogram("bus.rpc_latency_us")) {}

MessageBus::~MessageBus() { Shutdown(); }

void MessageBus::Shutdown() {
  // Serialize concurrent Shutdown callers: the promise-failing phase is
  // idempotent under mu_, but std::thread::join must run exactly once.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Fail every in-flight call *before* joining: a caller blocked in
    // Await (even with an infinite timeout) wakes with a well-formed
    // error payload instead of hanging or catching broken_promise.
    for (auto& [id, promise] : pending_) {
      promise.set_value(
          BusReply{Status::Aborted("message bus shut down"), {}});
    }
    pending_.clear();
    m_inflight_calls_->Set(0.0);
    for (auto& [name, ep] : endpoints_) {
      ep->cv.notify_all();
    }
    idle_cv_.notify_all();
  }
  if (joined_) return;
  joined_ = true;
  for (auto& [name, ep] : endpoints_) {
    if (ep->worker.joinable()) ep->worker.join();
  }
}

Status MessageBus::RegisterEndpoint(const std::string& name,
                                    Handler handler) {
  if (!handler) {
    return Status::InvalidArgument("endpoint needs a handler");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("bus is shutting down");
  }
  if (endpoints_.count(name)) {
    return Status::AlreadyExists("endpoint '" + name + "' exists");
  }
  auto ep = std::make_unique<Endpoint>();
  ep->handler = std::move(handler);
  Endpoint* raw = ep.get();
  endpoints_[name] = std::move(ep);
  raw->worker = std::thread([this, raw, name] {
    // Label the service thread's trace track (no-op before the
    // recorder's first Start — naming needs a ring-buffer tid).
    TraceRecorder::Global().NameThisThread("bus:" + name);
    ServiceLoop(raw);
  });
  return Status::OK();
}

void MessageBus::SetFaultPlan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_plan_ = plan;
  fault_rng_ = Rng(plan.seed);
  fault_stats_ = FaultStats();
}

FaultStats MessageBus::fault_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fault_stats_;
}

MessageBus::RequestFaults MessageBus::DecideRequestFaultsLocked() {
  RequestFaults faults;
  if (!fault_plan_.enabled()) return faults;
  if (fault_plan_.drop_request_prob > 0.0 &&
      fault_rng_.NextBernoulli(fault_plan_.drop_request_prob)) {
    faults.drop = true;
    ++fault_stats_.dropped_requests;
    m_fault_dropped_requests_->Increment();
    HETPS_TRACE_INSTANT("bus.fault.drop_request");
    FlightRecorder::Global().Record("fault.drop_request");
    return faults;  // a dropped message cannot also be delayed/duplicated
  }
  if (fault_plan_.duplicate_prob > 0.0 &&
      fault_rng_.NextBernoulli(fault_plan_.duplicate_prob)) {
    faults.duplicate = true;
    ++fault_stats_.duplicated_requests;
    m_fault_duplicated_requests_->Increment();
    HETPS_TRACE_INSTANT("bus.fault.duplicate_request");
    FlightRecorder::Global().Record("fault.duplicate_request");
  }
  if (fault_plan_.delay_prob > 0.0 &&
      fault_rng_.NextBernoulli(fault_plan_.delay_prob)) {
    const int lo = fault_plan_.delay_min_us;
    const int hi = fault_plan_.delay_max_us > lo ? fault_plan_.delay_max_us
                                                 : lo + 1;
    faults.delay_us =
        lo + static_cast<int>(fault_rng_.NextUint64(
                 static_cast<uint64_t>(hi - lo)));
    ++fault_stats_.delayed_requests;
    m_fault_delayed_requests_->Increment();
    HETPS_TRACE_INSTANT1("bus.fault.delay_request", "delay_us",
                         faults.delay_us);
    FlightRecorder::Global().Record("fault.delay_request", /*worker=*/-1,
                                    /*clock=*/-1,
                                    static_cast<double>(faults.delay_us));
  }
  return faults;
}

void MessageBus::DeliverRequest(Envelope envelope,
                                const RequestFaults& faults) {
  if (faults.drop) return;  // lost in transit; stats already counted
  if (faults.delay_us > 0) {
    // Sleep with no lock held: a slow link stalls the sender, not the
    // whole bus. Delivery order across senders may reorder — intended.
    std::this_thread::sleep_for(std::chrono::microseconds(faults.delay_us));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;  // pending entry (if any) was failed by Shutdown
  auto it = endpoints_.find(envelope.to);
  if (it == endpoints_.end()) return;
  const int copies = faults.duplicate ? 2 : 1;
  for (int i = 0; i < copies; ++i) {
    it->second->inbox.push_back(envelope);
    it->second->cv.notify_one();
  }
}

Status MessageBus::Send(const std::string& from, const std::string& to,
                        std::vector<uint8_t> payload) {
  Envelope envelope;
  envelope.from = from;
  envelope.to = to;
  envelope.payload = std::move(payload);
  RequestFaults faults;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("bus is shut down");
    }
    if (endpoints_.find(to) == endpoints_.end()) {
      return Status::NotFound("no endpoint '" + to + "'");
    }
    faults = DecideRequestFaultsLocked();
  }
  DeliverRequest(std::move(envelope), faults);
  return Status::OK();
}

Result<PendingCall> MessageBus::Call(const std::string& from,
                                     const std::string& to,
                                     std::vector<uint8_t> payload,
                                     uint64_t parent_span_id) {
  Envelope envelope;
  envelope.from = from;
  envelope.to = to;
  envelope.trace_id = NextTraceId();
  envelope.parent_span_id = parent_span_id;
  envelope.payload = std::move(payload);
  PendingCall call;
  RequestFaults faults;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("bus is shut down");
    }
    if (endpoints_.find(to) == endpoints_.end()) {
      return Status::NotFound("no endpoint '" + to + "'");
    }
    envelope.correlation_id = next_correlation_++;
    call.correlation_id = envelope.correlation_id;
    call.trace_id = envelope.trace_id;
    auto [pending_it, inserted] =
        pending_.emplace(envelope.correlation_id,
                         std::promise<BusReply>());
    HETPS_CHECK(inserted) << "correlation id collision";
    call.reply = pending_it->second.get_future();
    call.sent_at = std::chrono::steady_clock::now();
    m_inflight_calls_->Set(static_cast<double>(pending_.size()));
    faults = DecideRequestFaultsLocked();
  }
  // The pending entry is registered before any fault/delay handling, so
  // Shutdown racing a delayed delivery still fails the promise and the
  // delivery no-ops afterwards.
  DeliverRequest(std::move(envelope), faults);
  return call;
}

BusReply MessageBus::Await(PendingCall* call,
                           std::chrono::microseconds timeout) {
  if (call == nullptr || !call->reply.valid()) {
    return BusReply{
        Status::InvalidArgument("Await on an empty PendingCall"), {}};
  }
  if (timeout.count() > 0 &&
      call->reply.wait_for(timeout) != std::future_status::ready) {
    // Deadline hit: reap the pending entry so dropped requests/responses
    // do not leak map entries. If the reply (or Shutdown) resolved the
    // promise between wait_for and the lock, the entry is gone and the
    // future below is already ready with that outcome — it wins.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(call->correlation_id);
    if (it != pending_.end()) {
      it->second.set_value(BusReply{
          Status::DeadlineExceeded("no reply within " +
                                   std::to_string(timeout.count()) +
                                   "us"),
          {}});
      pending_.erase(it);
      m_inflight_calls_->Set(static_cast<double>(pending_.size()));
    }
  }
  BusReply reply = call->reply.get();
  if (reply.ok() && call->sent_at.time_since_epoch().count() != 0) {
    m_rpc_latency_us_->RecordInt(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - call->sent_at)
            .count());
  }
  return reply;
}

BusReply MessageBus::BlockingCall(const std::string& from,
                                  const std::string& to,
                                  std::vector<uint8_t> payload,
                                  std::chrono::microseconds timeout) {
  // The client half of the causal stitch: the bus.rpc slice covers the
  // whole round trip, and the flow-start inside it carries the request's
  // trace_id — the server's rpc.handle slice emits the matching finish.
  TraceSpan span("bus.rpc");
  Result<PendingCall> call =
      Call(from, to, std::move(payload), span.span_id());
  if (!call.ok()) return BusReply{call.status(), {}};
  if (span.active()) {
    span.AddArg("trace_id", static_cast<double>(call.value().trace_id));
    TraceRecorder::Global().AppendFlowStart("rpc",
                                            call.value().trace_id);
  }
  return Await(&call.value(), timeout);
}

void MessageBus::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    if (shutdown_) return true;
    for (const auto& [name, ep] : endpoints_) {
      if (!ep->inbox.empty() || ep->busy) return false;
    }
    return true;
  });
}

int64_t MessageBus::delivered_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

size_t MessageBus::pending_call_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

void MessageBus::ServiceLoop(Endpoint* endpoint) {
  for (;;) {
    Envelope envelope;
    {
      std::unique_lock<std::mutex> lock(mu_);
      endpoint->cv.wait(lock, [this, endpoint] {
        return shutdown_ || !endpoint->inbox.empty();
      });
      if (endpoint->inbox.empty()) {
        if (shutdown_) return;  // drained; exit
        continue;
      }
      envelope = std::move(endpoint->inbox.front());
      endpoint->inbox.pop_front();
      endpoint->busy = true;
    }
    std::vector<uint8_t> response;
    {
      HETPS_TRACE_SPAN2("bus.handle", "payload_bytes",
                        envelope.payload.size(), "correlation",
                        envelope.correlation_id);
      response = endpoint->handler(envelope);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++delivered_;
      m_delivered_->Increment();
      endpoint->busy = false;
      if (envelope.correlation_id != 0) {
        // Response-leg fault: the handler ran (side effects applied) but
        // the reply is lost; the caller's Await reaps the entry at its
        // deadline and retries — at-least-once delivery. Every reply
        // draws, whether or not its caller still waits, so a seeded
        // plan's fault sequence does not depend on thread timing.
        const bool drop_response =
            fault_plan_.drop_response_prob > 0.0 &&
            fault_rng_.NextBernoulli(fault_plan_.drop_response_prob);
        if (drop_response) {
          ++fault_stats_.dropped_responses;
          m_fault_dropped_responses_->Increment();
          HETPS_TRACE_INSTANT("bus.fault.drop_response");
          FlightRecorder::Global().Record("fault.drop_response");
        } else if (auto it = pending_.find(envelope.correlation_id);
                   it != pending_.end()) {
          it->second.set_value(BusReply{Status::OK(), std::move(response)});
          pending_.erase(it);
          m_inflight_calls_->Set(static_cast<double>(pending_.size()));
        }
        // else: duplicate request's second reply, a reply racing an
        // Await deadline, or shutdown already failed it — discard.
      }
      idle_cv_.notify_all();
    }
  }
}

}  // namespace hetps
