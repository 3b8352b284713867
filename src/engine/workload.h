#ifndef HETPS_ENGINE_WORKLOAD_H_
#define HETPS_ENGINE_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "math/sparse_vector.h"

namespace hetps {

/// One worker's per-clock step (Algorithm 1 lines 3-6), the seam the one
/// worker loop (RunWorker) drives: the linear models' LocalWorkerSgd
/// (SgdWorkload), matrix factorization, LDA and k-means. One per worker,
/// called from that worker's thread only.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Runs clock `clock`: updates `*replica` in place and writes the
  /// clock's update into `*update`.
  virtual void RunClock(int clock, std::vector<double>* replica,
                        SparseVector* update) = 0;

  /// The keys the last RunClock wrote into the replica, or null if the
  /// workload names none; every pull then copies the whole model. A
  /// workload names its keys on every clock or on none.
  virtual const std::vector<int64_t>* written_keys() const {
    return nullptr;
  }
};

}  // namespace hetps

#endif  // HETPS_ENGINE_WORKLOAD_H_
