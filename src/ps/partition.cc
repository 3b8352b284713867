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

Partitioner::Partitioner(PartitionScheme scheme, int64_t dim,
                         int num_servers, int num_partitions)
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
    // Equal contiguous ranges.
    boundaries_.resize(static_cast<size_t>(num_partitions_) + 1);
    for (int p = 0; p <= num_partitions_; ++p) {
      boundaries_[static_cast<size_t>(p)] =
          dim_ * p / num_partitions_;
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
                                int num_servers,
                                int partitions_per_server) {
  HETPS_CHECK(partitions_per_server > 0)
      << "partitions_per_server must be positive";
  // In 64 bits: the product of two flag values can overflow an int.
  const int64_t parts =
      std::min(static_cast<int64_t>(num_servers) * partitions_per_server,
               std::max<int64_t>(num_servers, dim));
  return Partitioner(scheme, dim, num_servers, static_cast<int>(parts));
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
