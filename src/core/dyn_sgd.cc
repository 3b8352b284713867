#include "core/dyn_sgd.h"

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "util/logging.h"

namespace hetps {

DynSgdRule::DynSgdRule(Options options) : options_(options) {}

void DynSgdRule::Reset(size_t dim, int num_workers) {
  HETPS_CHECK(num_workers > 0) << "need at least one worker";
  dim_ = dim;
  versions_.clear();
  worker_version_.assign(static_cast<size_t>(num_workers), 0);
  next_version_ = 0;
  staleness_sum_ = 0.0;
  staleness_count_ = 0;
}

void DynSgdRule::OnPush(int worker, int clock, const SparseVector& update,
                        ParamBlock* w) {
  HETPS_CHECK(worker >= 0 &&
              static_cast<size_t>(worker) < worker_version_.size())
      << "worker id out of range";
  // Algorithm 2, Push:
  //   v <- V(m); d <- S(v)
  int64_t v;
  if (options_.version_mode == VersionMode::kClockAligned) {
    // fclock(u) == the clock the update belongs to; all clock-c updates
    // share version c.
    v = clock;
    HETPS_CHECK(versions_.empty() || v >= versions_.begin()->first)
        << "push for already-evicted version " << v;
  } else {
    v = worker_version_[static_cast<size_t>(worker)];
  }
  auto it = versions_.find(v);
  if (it == versions_.end()) {
    if (options_.version_mode == VersionMode::kAlgorithm2) {
      HETPS_CHECK(v == next_version_)
          << "push stamped with unexpected version " << v << " (next is "
          << next_version_ << ")";
    }
    it = versions_.emplace(v, VersionEntry(dim_)).first;
    if (v + 1 > next_version_) next_version_ = v + 1;
  }
  VersionEntry& entry = it->second;
  const double d = static_cast<double>(entry.staleness);

  // Δu = (u − u(PS, v)) / d, applied to both w and u(PS, v):
  //   w        += u/d − u(PS,v)/d           (immediate mode only)
  //   u(PS, v)  = u(PS,v)·(d−1)/d + u/d
  if (options_.mode == ApplyMode::kImmediate) {
    w->AddBlock(entry.summary, -1.0 / d);
    w->Add(update, 1.0 / d);
  }
  entry.summary.Scale((d - 1.0) / d);
  entry.summary.Add(update, 1.0 / d);
  entry.staleness += 1;
  staleness_sum_ += d;
  ++staleness_count_;

  if (options_.compact_every > 0 &&
      ++entry.pushes_since_compact >= options_.compact_every) {
    entry.pushes_since_compact = 0;
    if (options_.filter_epsilon > 0.0) {
      entry.summary.DropSmallEntries(options_.filter_epsilon);
    }
    entry.summary.CompactLayout();
  }

  // V(m) <- V(m) + 1 (clock-aligned: V(m) tracks the worker's finished
  // clock count), then evict fully-passed versions (Algorithm 2 lines
  // 9-11).
  if (options_.version_mode == VersionMode::kClockAligned) {
    worker_version_[static_cast<size_t>(worker)] =
        static_cast<int64_t>(clock) + 1;
  } else {
    worker_version_[static_cast<size_t>(worker)] = v + 1;
  }
  MaybeEvict(w);
}

void DynSgdRule::OnPull(int worker, int cmax) {
  (void)cmax;
  HETPS_CHECK(worker >= 0 &&
              static_cast<size_t>(worker) < worker_version_.size())
      << "worker id out of range";
  if (options_.version_mode == VersionMode::kAlgorithm2) {
    // Algorithm 2 line 18: V(m) <- cmax, "since there are currently cmax
    // versions of global update" — i.e. the number of versions this
    // partition has created: the freshly pulled materialization is a new
    // basis, so the worker's next update starts (or joins) the newest
    // version.
    worker_version_[static_cast<size_t>(worker)] = next_version_;
  }
  // kClockAligned: stamping follows the push's clock; pulls need no
  // bookkeeping.
}

std::vector<double> DynSgdRule::Materialize(const ParamBlock& w) const {
  std::vector<double> out = w.ToDense();
  if (options_.mode == ApplyMode::kDeferred) {
    for (const auto& [v, entry] : versions_) {
      entry.summary.AddTo(&out);
    }
  }
  return out;
}

std::vector<double> DynSgdRule::MaterializeAtVersion(const ParamBlock& w,
                                                     int64_t version) const {
  if (options_.mode == ApplyMode::kImmediate) {
    // Immediate mode cannot rewind w; version snapshots require deferred
    // application (§6).
    return Materialize(w);
  }
  std::vector<double> out = w.ToDense();
  for (const auto& [v, entry] : versions_) {
    if (v >= version) break;
    entry.summary.AddTo(&out);
  }
  return out;
}

void DynSgdRule::GatherMaterialized(const ParamBlock& w,
                                    const int64_t* indices, size_t n,
                                    double* out) const {
  w.Gather(indices, n, out);
  if (options_.mode != ApplyMode::kDeferred || versions_.empty()) return;
  // Same per-key sums as Materialize: w first, then each active version
  // in order (an absent summary entry adds 0.0).
  std::vector<double> part(n);
  for (const auto& [v, entry] : versions_) {
    entry.summary.Gather(indices, n, part.data());
    for (size_t i = 0; i < n; ++i) out[i] += part[i];
  }
}

size_t DynSgdRule::CountNonZeroMaterializedAt(const ParamBlock& w,
                                              const int64_t* indices,
                                              size_t n) const {
  // Only a deferred-mode read with live versions differs from w.
  if (options_.mode != ApplyMode::kDeferred || versions_.empty()) {
    return w.CountNonZeroAt(indices, n);
  }
  std::vector<double> read(n);
  GatherMaterialized(w, indices, n, read.data());
  return static_cast<size_t>(
      std::count_if(read.begin(), read.end(),
                    [](double v) { return std::fabs(v) > 0.0; }));
}

void DynSgdRule::AppendStateKeys(std::vector<int64_t>* keys) const {
  for (const auto& [v, entry] : versions_) {
    const SparseVector sv = entry.summary.ToSparse();
    keys->insert(keys->end(), sv.indices().begin(), sv.indices().end());
  }
}

size_t DynSgdRule::AuxMemoryBytes() const {
  size_t total = worker_version_.size() * sizeof(int64_t) +
                 versions_.size() * (sizeof(int64_t) + sizeof(int));
  for (const auto& [v, entry] : versions_) {
    total += entry.summary.MemoryBytes();
  }
  return total;
}

std::unique_ptr<ConsolidationRule> DynSgdRule::Clone() const {
  return std::make_unique<DynSgdRule>(options_);
}

int DynSgdRule::StalenessOf(int64_t version) const {
  auto it = versions_.find(version);
  return it == versions_.end() ? 0 : it->second.staleness;
}

int64_t DynSgdRule::CompletedVersionCount() const {
  // min V(m) == the eviction floor == the contiguous prefix of versions
  // every worker has contributed to on this partition.
  if (worker_version_.empty()) return 0;
  return *std::min_element(worker_version_.begin(),
                           worker_version_.end());
}

double DynSgdRule::ObservedMeanStaleness() const {
  return staleness_count_ > 0
             ? staleness_sum_ / static_cast<double>(staleness_count_)
             : 1.0;
}

int64_t DynSgdRule::WorkerVersion(int worker) const {
  return worker_version_.at(static_cast<size_t>(worker));
}

Status DynSgdRule::SaveState(std::ostream& os) const {
  os << "dyn-state " << worker_version_.size() << '\n';
  os << std::setprecision(17);
  for (int64_t v : worker_version_) os << v << ' ';
  os << '\n'
     << next_version_ << ' ' << staleness_sum_ << ' ' << staleness_count_
     << '\n';
  os << versions_.size() << '\n';
  for (const auto& [v, entry] : versions_) {
    const SparseVector sv = entry.summary.ToSparse();
    os << v << ' ' << entry.staleness << ' ' << sv.nnz() << '\n';
    for (size_t i = 0; i < sv.nnz(); ++i) {
      os << sv.index(i) << ' ' << sv.value(i) << ' ';
    }
    os << '\n';
  }
  return os ? Status::OK() : Status::IOError("checkpoint write failed");
}

Status DynSgdRule::LoadState(std::istream& is) {
  std::string tag;
  size_t workers = 0;
  if (!(is >> tag >> workers) || tag != "dyn-state") {
    return Status::IOError("bad dyn-state checkpoint tag");
  }
  if (workers != worker_version_.size()) {
    return Status::IOError("dyn-state worker-count mismatch");
  }
  for (auto& v : worker_version_) {
    if (!(is >> v)) return Status::IOError("truncated dyn-state (V)");
  }
  if (!(is >> next_version_ >> staleness_sum_ >> staleness_count_)) {
    return Status::IOError("truncated dyn-state (counters)");
  }
  size_t num_versions = 0;
  if (!(is >> num_versions)) {
    return Status::IOError("truncated dyn-state (version count)");
  }
  versions_.clear();
  for (size_t k = 0; k < num_versions; ++k) {
    int64_t v = 0;
    int staleness = 0;
    size_t nnz = 0;
    if (!(is >> v >> staleness >> nnz)) {
      return Status::IOError("truncated dyn-state (version header)");
    }
    VersionEntry entry(dim_);
    entry.staleness = staleness;
    SparseVector sv;
    for (size_t i = 0; i < nnz; ++i) {
      int64_t idx = 0;
      double value = 0.0;
      if (!(is >> idx >> value)) {
        return Status::IOError("truncated dyn-state (version entries)");
      }
      sv.PushBack(idx, value);
    }
    entry.summary.Add(sv);
    versions_.emplace(v, std::move(entry));
  }
  return Status::OK();
}

void DynSgdRule::MaybeEvict(ParamBlock* w) {
  const int64_t min_v =
      *std::min_element(worker_version_.begin(), worker_version_.end());
  while (!versions_.empty()) {
    auto it = versions_.begin();
    if (it->first >= min_v) break;
    if (options_.mode == ApplyMode::kDeferred) {
      // Fold the expired version into the base parameter (§6: "add the
      // v-th version global update to the global parameter if this
      // version expires").
      w->AddBlock(it->second.summary);
    }
    versions_.erase(it);
  }
}

}  // namespace hetps
