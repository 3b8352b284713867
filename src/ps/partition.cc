#include "ps/partition.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/logging.h"
#include "util/rng.h"

namespace hetps {

const char* PartitionSchemeName(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kRange:
      return "range";
    case PartitionScheme::kHash:
      return "hash";
    case PartitionScheme::kRangeHash:
      return "range-hash";
  }
  return "?";
}

namespace {

/// Equal contiguous ranges: boundary p is dim*p/P.
std::vector<int64_t> EqualCuts(int64_t dim, int num_partitions) {
  std::vector<int64_t> cuts(static_cast<size_t>(num_partitions) + 1);
  for (int p = 0; p <= num_partitions; ++p) {
    cuts[static_cast<size_t>(p)] = dim * p / num_partitions;
  }
  return cuts;
}

}  // namespace

Partitioner::Partitioner(PartitionScheme scheme, int64_t dim,
                         int num_servers, int num_partitions,
                         std::vector<int64_t> cuts)
    : scheme_(scheme),
      dim_(dim),
      num_servers_(num_servers),
      num_partitions_(num_partitions) {
  HETPS_CHECK(dim > 0) << "dim must be positive";
  HETPS_CHECK(num_servers > 0) << "need at least one server";
  HETPS_CHECK(num_partitions >= num_servers)
      << "need at least one partition per server";
  HETPS_CHECK(static_cast<int64_t>(num_partitions) <= dim)
      << "more partitions than keys";

  if (scheme_ != PartitionScheme::kHash) {
    if (cuts.empty()) {
      boundaries_ = EqualCuts(dim_, num_partitions_);
    } else {
      HETPS_CHECK(ValidCuts(cuts, dim_, num_partitions_))
          << "partition cuts must rise strictly from 0 to dim";
      boundaries_ = std::move(cuts);
    }
  }

  server_of_.resize(static_cast<size_t>(num_partitions_));
  switch (scheme_) {
    case PartitionScheme::kRange:
      // Classic range partition: contiguous ranges assigned to servers
      // in order, so server 0 owns the whole low-key block. Skewed key
      // popularity therefore overloads one server — the imbalance the
      // hybrid scheme addresses (§6).
      for (int p = 0; p < num_partitions_; ++p) {
        server_of_[static_cast<size_t>(p)] =
            static_cast<int>(static_cast<int64_t>(p) * num_servers_ /
                             num_partitions_);
      }
      break;
    case PartitionScheme::kRangeHash: {
      // §6: range partition first, then hash partition of the ranges.
      // Ranges are walked in hash order and dealt round-robin, which
      // both randomizes placement (hot ranges spread out) and gives
      // every server the same number of ranges.
      std::vector<int> order(static_cast<size_t>(num_partitions_));
      for (int p = 0; p < num_partitions_; ++p) {
        order[static_cast<size_t>(p)] = p;
      }
      std::sort(order.begin(), order.end(), [](int a, int b) {
        const uint64_t ha = Mix64(static_cast<uint64_t>(a) + 0x9e37);
        const uint64_t hb = Mix64(static_cast<uint64_t>(b) + 0x9e37);
        return ha != hb ? ha < hb : a < b;
      });
      for (int i = 0; i < num_partitions_; ++i) {
        server_of_[static_cast<size_t>(order[static_cast<size_t>(i)])] =
            i % num_servers_;
      }
      break;
    }
    case PartitionScheme::kHash:
      for (int p = 0; p < num_partitions_; ++p) {
        server_of_[static_cast<size_t>(p)] = p % num_servers_;
      }
      break;
  }
}

Partitioner Partitioner::Create(PartitionScheme scheme, int64_t dim,
                                int num_servers, int partitions_per_server,
                                std::vector<int64_t> cuts) {
  return Partitioner(scheme, dim, num_servers,
                     NumPartitions(dim, num_servers, partitions_per_server),
                     std::move(cuts));
}

int Partitioner::NumPartitions(int64_t dim, int num_servers,
                               int partitions_per_server) {
  HETPS_CHECK(partitions_per_server > 0)
      << "partitions_per_server must be positive";
  // In 64 bits: the product of two flag values can overflow an int.
  const int64_t parts =
      std::min(static_cast<int64_t>(num_servers) * partitions_per_server,
               std::max<int64_t>(num_servers, dim));
  return static_cast<int>(parts);
}

std::vector<int64_t> Partitioner::HeldKeyCuts(const std::vector<bool>& held,
                                              int num_partitions) {
  const int64_t dim = static_cast<int64_t>(held.size());
  const int64_t parts = num_partitions;
  HETPS_CHECK(parts > 0 && parts <= dim) << "need 1 <= partitions <= keys";
  const int64_t total = std::count(held.begin(), held.end(), true);
  if (total == 0) return EqualCuts(dim, num_partitions);
  // Boundary p is the key of held key number floor(p*H/P), counted from
  // 0: every key before it leaves at most p*H/P held keys below the cut.
  std::vector<int64_t> cuts(static_cast<size_t>(parts) + 1, dim);
  cuts[0] = 0;
  int64_t seen = 0;  // held keys in [0, k)
  int64_t p = 1;
  for (int64_t k = 0; k < dim && p < parts; ++k) {
    if (!held[static_cast<size_t>(k)]) continue;
    while (p < parts && (seen + 1) * parts > p * total) {
      cuts[static_cast<size_t>(p++)] = k;
    }
    ++seen;
  }
  // Every partition keeps a key: push each cut past the one below it,
  // then pull each back below the one above it. Neither pass moves
  // strictly increasing cuts, such as equal ranges.
  for (int64_t q = 1; q < parts; ++q) {
    const size_t i = static_cast<size_t>(q);
    cuts[i] = std::max(cuts[i], cuts[i - 1] + 1);
  }
  for (int64_t q = parts - 1; q > 0; --q) {
    const size_t i = static_cast<size_t>(q);
    cuts[i] = std::min(cuts[i], cuts[i + 1] - 1);
  }
  return cuts;
}

bool Partitioner::ValidCuts(const std::vector<int64_t>& cuts, int64_t dim,
                            int num_partitions) {
  if (num_partitions <= 0 ||
      cuts.size() != static_cast<size_t>(num_partitions) + 1 ||
      cuts.front() != 0 || cuts.back() != dim) {
    return false;
  }
  for (size_t i = 1; i < cuts.size(); ++i) {
    if (cuts[i] <= cuts[i - 1]) return false;
  }
  return true;
}

int Partitioner::PartitionOf(int64_t key) const {
  HETPS_CHECK(key >= 0 && key < dim_) << "key out of range";
  if (scheme_ == PartitionScheme::kHash) {
    return static_cast<int>(key % num_partitions_);
  }
  auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), key);
  return static_cast<int>(it - boundaries_.begin()) - 1;
}

int Partitioner::ServerOf(int p) const {
  return server_of_.at(static_cast<size_t>(p));
}

int64_t Partitioner::LocalIndex(int64_t key) const {
  if (scheme_ == PartitionScheme::kHash) {
    return key / num_partitions_;
  }
  const int p = PartitionOf(key);
  return key - boundaries_[static_cast<size_t>(p)];
}

int64_t Partitioner::GlobalIndex(int p, int64_t local) const {
  if (scheme_ == PartitionScheme::kHash) {
    return local * num_partitions_ + p;
  }
  return boundaries_[static_cast<size_t>(p)] + local;
}

bool Partitioner::ContiguousKeyRange(int p, int64_t* begin) const {
  HETPS_CHECK(p >= 0 && p < num_partitions_) << "partition out of range";
  HETPS_CHECK(begin != nullptr) << "null begin output";
  if (scheme_ == PartitionScheme::kHash) return false;
  *begin = boundaries_[static_cast<size_t>(p)];
  return true;
}

int64_t Partitioner::PartitionDim(int p) const {
  HETPS_CHECK(p >= 0 && p < num_partitions_) << "partition out of range";
  if (scheme_ == PartitionScheme::kHash) {
    // Keys p, p + P, p + 2P, ...
    return (dim_ - p + num_partitions_ - 1) / num_partitions_;
  }
  return boundaries_[static_cast<size_t>(p) + 1] -
         boundaries_[static_cast<size_t>(p)];
}

std::vector<SparseVector> Partitioner::SplitByPartition(
    const SparseVector& v) const {
  std::vector<SparseVector> parts(static_cast<size_t>(num_partitions_));
  if (v.empty()) return parts;
  // Indices are strictly increasing, so the two ends bound every key.
  HETPS_CHECK(v.index(0) >= 0 && v.index(v.nnz() - 1) < dim_)
      << "key out of range";
  if (scheme_ == PartitionScheme::kHash) {
    // Local indices key/P are increasing within each residue class when
    // keys are increasing, so PushBack order is valid.
    for (size_t i = 0; i < v.nnz(); ++i) {
      const int64_t key = v.index(i);
      const int p = static_cast<int>(key % num_partitions_);
      parts[static_cast<size_t>(p)].PushBack(key / num_partitions_,
                                             v.value(i));
    }
    return parts;
  }
  // Range schemes: each partition's keys are one contiguous run of the
  // sorted update, found with one lower_bound and cut out in bulk.
  const std::vector<int64_t>& idx = v.indices();
  const std::vector<double>& val = v.values();
  auto first = idx.begin();
  for (int p = 0; p < num_partitions_ && first != idx.end(); ++p) {
    const auto last = std::lower_bound(
        first, idx.end(), boundaries_[static_cast<size_t>(p) + 1]);
    if (first == last) continue;
    const int64_t base = boundaries_[static_cast<size_t>(p)];
    std::vector<int64_t> local(first, last);
    for (int64_t& key : local) key -= base;
    parts[static_cast<size_t>(p)] = SparseVector(
        std::move(local),
        std::vector<double>(val.begin() + (first - idx.begin()),
                            val.begin() + (last - idx.begin())));
    first = last;
  }
  return parts;
}

int Partitioner::PartitionsTouched(int64_t begin, int64_t end) const {
  HETPS_CHECK(begin >= 0 && begin <= end && end <= dim_)
      << "bad key interval";
  if (begin == end) return 0;
  if (scheme_ == PartitionScheme::kHash) {
    return static_cast<int>(std::min<int64_t>(end - begin,
                                              num_partitions_));
  }
  return PartitionOf(end - 1) - PartitionOf(begin) + 1;
}

std::vector<int64_t> Partitioner::ServerLoads() const {
  std::vector<int64_t> loads(static_cast<size_t>(num_servers_), 0);
  for (int p = 0; p < num_partitions_; ++p) {
    loads[static_cast<size_t>(ServerOf(p))] += PartitionDim(p);
  }
  return loads;
}

std::string Partitioner::DebugString() const {
  std::ostringstream os;
  os << "Partitioner(" << PartitionSchemeName(scheme_) << ", dim=" << dim_
     << ", servers=" << num_servers_ << ", partitions=" << num_partitions_
     << ")";
  return os.str();
}

}  // namespace hetps
