#ifndef HETPS_PS_WORKER_CLIENT_H_
#define HETPS_PS_WORKER_CLIENT_H_

#include <vector>

#include "core/sync_policy.h"
#include "ps/parameter_server.h"
#include "ps/ps_client.h"

namespace hetps {

/// A PsClient over an in-process ParameterServer (the threaded runtime
/// and the models). Its channel calls the PS directly: pushes go to
/// PushPieces, pulls to PullDelta, and the admission wait blocks on the
/// PS condition variable. pulled_bytes_full() is the server's whole-block
/// bytes. Clock reports and readmission are bus operations and answer
/// NotSupported here. push.inflight* and client.cache_apply_us land in
/// ps->metrics().
class WorkerClient : public PsClient {
 public:
  /// `delta_pull` sends the cached tags with each pull (off = every
  /// partition ships whole). `push_window` bounds the push pipeline:
  /// 0 = synchronous pushes, >= 1 = at most that many in flight.
  WorkerClient(int worker_id, ParameterServer* ps, bool delta_pull = true,
               int push_window = 0);

  /// Algorithm 1 lines 8-9: returns true (and refreshes `*replica`) if the
  /// cached cmin forces a pull before starting `clock + 1`. Blocks while
  /// the SSP constraint denies the next clock. Aborts on a channel error
  /// (an evicted worker), which the in-process callers never expect.
  bool MaybePull(int clock, std::vector<double>* replica);

 private:
  const SyncPolicy sync_;
};

}  // namespace hetps

#endif  // HETPS_PS_WORKER_CLIENT_H_
