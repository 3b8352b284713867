#include "data/sharding.h"

#include <algorithm>

#include "util/logging.h"

namespace hetps {

std::vector<DataShard> SplitData(size_t dataset_size, size_t num_workers,
                                 ShardingPolicy policy) {
  HETPS_CHECK(num_workers > 0) << "need at least one worker";
  std::vector<DataShard> shards(num_workers);
  if (dataset_size == 0) return shards;
  switch (policy) {
    case ShardingPolicy::kContiguous: {
      const size_t base = dataset_size / num_workers;
      const size_t extra = dataset_size % num_workers;
      size_t next = 0;
      for (size_t m = 0; m < num_workers; ++m) {
        const size_t count = base + (m < extra ? 1 : 0);
        shards[m].example_indices.reserve(count);
        for (size_t i = 0; i < count; ++i) {
          shards[m].example_indices.push_back(next++);
        }
      }
      HETPS_CHECK(next == dataset_size) << "split did not cover dataset";
      break;
    }
    case ShardingPolicy::kRoundRobin: {
      for (size_t i = 0; i < dataset_size; ++i) {
        shards[i % num_workers].example_indices.push_back(i);
      }
      break;
    }
  }
  return shards;
}

size_t ReassignTail(DataShard* from, DataShard* to, size_t count) {
  count = std::min(count, from->example_indices.size());
  if (count == 0) return 0;
  const size_t keep = from->example_indices.size() - count;
  to->example_indices.insert(to->example_indices.end(),
                             from->example_indices.begin() +
                                 static_cast<std::ptrdiff_t>(keep),
                             from->example_indices.end());
  from->example_indices.resize(keep);
  return count;
}

size_t ReassignAcross(DataShard* from, const std::vector<DataShard*>& to) {
  if (to.empty()) {
    from->example_indices.clear();
    return 0;
  }
  const size_t total = from->example_indices.size();
  const size_t base = total / to.size();
  const size_t extra = total % to.size();
  size_t next = 0;
  for (size_t r = 0; r < to.size(); ++r) {
    const size_t count = base + (r < extra ? 1 : 0);
    to[r]->example_indices.insert(to[r]->example_indices.end(),
                                  from->example_indices.begin() +
                                      static_cast<std::ptrdiff_t>(next),
                                  from->example_indices.begin() +
                                      static_cast<std::ptrdiff_t>(next +
                                                                  count));
    next += count;
  }
  HETPS_CHECK(next == total) << "failover split did not cover shard";
  from->example_indices.clear();
  return total;
}

}  // namespace hetps
