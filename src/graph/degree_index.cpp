// Cold paths of the degree index: reset and the growth of its slot and
// degree ranges. The per-mutation updates live in the header.
#include "graph/degree_index.hpp"

#include <algorithm>

namespace churnet {

void DegreeIndex::reset(std::uint32_t slot_capacity) {
  if (slot_capacity > capacity_) resize_slots(slot_capacity);
  for (Bucket& bucket : buckets_) {
    bucket.members.clear_all();
    bucket.summary.clear_all();
    bucket.count = 0;
  }
  size_ = 0;
  max_ = 0;
  min_ = 0;
}

void DegreeIndex::grow_slots(std::uint32_t slot) {
  // Geometric, like the graph's own slot arrays.
  const std::uint64_t grown =
      std::max<std::uint64_t>(std::uint64_t{slot} + 1,
                              std::uint64_t{capacity_} * 2);
  resize_slots(static_cast<std::uint32_t>(
      std::min<std::uint64_t>(grown, kNoSlot)));
}

void DegreeIndex::grow_buckets(std::uint32_t degree) {
  const std::size_t first_new = buckets_.size();
  buckets_.resize(std::size_t{degree} + 1 + kBucketHeadroom);
  for (std::size_t d = first_new; d < buckets_.size(); ++d) {
    size_bucket(buckets_[d]);
  }
}

void DegreeIndex::resize_slots(std::uint32_t capacity) {
  capacity_ = capacity;
  degree_.resize(capacity_);
  for (Bucket& bucket : buckets_) size_bucket(bucket);
}

void DegreeIndex::size_bucket(Bucket& bucket) const {
  bucket.members.resize(capacity_);
  bucket.summary.resize(bucket.members.word_count());
}

}  // namespace churnet
