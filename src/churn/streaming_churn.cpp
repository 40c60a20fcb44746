#include "churn/streaming_churn.hpp"

#include <utility>

#include "common/assertx.hpp"

namespace churnet {

StreamingChurn::StreamingChurn(std::uint32_t n) : n_(n), ring_(n) {
  CHURNET_EXPECTS(n >= 1);
}

std::uint32_t StreamingChurn::ring_next(std::uint32_t pos) const {
  return pos + 1 == ring_.size() ? 0 : pos + 1;
}

NodeId StreamingChurn::pop_oldest() {
  CHURNET_ASSERT(size_ > 0);
  // Skip the tombstones adversarial removals left at the head.
  NodeId oldest;
  do {
    oldest = ring_[head_];
    head_ = ring_next(head_);
    --span_;
  } while (!oldest.valid());
  --size_;
  return oldest;
}

void StreamingChurn::push_newest(NodeId id) {
  CHURNET_ASSERT(size_ < n_);
  // Only tombstones can fill the span: without them span_ == size_ < n_.
  if (span_ == ring_.size()) compact_ring();
  std::uint32_t tail = head_ + span_;
  if (tail >= ring_.size()) tail -= static_cast<std::uint32_t>(ring_.size());
  ring_[tail] = id;
  ++span_;
  ++size_;
  if (adversary_.has_value()) {
    if (id.slot >= ring_pos_.size()) ring_pos_.resize(id.slot + 1);
    ring_pos_[id.slot] = tail;
  }
}

void StreamingChurn::remove_from_ring(NodeId id) {
  // Adversarial victims are arbitrary ring members: tombstone the entry in
  // place. Age order is untouched and pop_oldest skips the hole.
  CHURNET_ASSERT(id.slot < ring_pos_.size() &&
                 ring_[ring_pos_[id.slot]] == id &&
                 "adversarial victim not in the streaming ring");
  ring_[ring_pos_[id.slot]] = kInvalidNode;
  --size_;
}

void StreamingChurn::compact_ring() {
  // Squeeze the tombstones out in age order. Entries only move toward the
  // head, so each is read before its position is overwritten.
  std::uint32_t read = head_;
  std::uint32_t write = head_;
  for (std::uint32_t i = 0; i < span_; ++i) {
    const NodeId id = ring_[read];
    if (id.valid()) {
      ring_[write] = id;
      ring_pos_[id.slot] = write;
      write = ring_next(write);
    }
    read = ring_next(read);
  }
  span_ = size_;
}

std::optional<NodeId> StreamingChurn::begin_round() {
  CHURNET_EXPECTS(!birth_pending_);
  ++round_;
  birth_pending_ = true;
  if (size_ == n_) return pop_oldest();
  CHURNET_ASSERT(size_ < n_);
  return std::nullopt;
}

void StreamingChurn::record_birth(NodeId id) {
  CHURNET_EXPECTS(birth_pending_);
  CHURNET_EXPECTS(id.valid());
  birth_pending_ = false;
  push_newest(id);
}

ChurnProcess::Step StreamingChurn::next(std::uint64_t alive) {
  (void)alive;  // the schedule is the authority on the population
  Step step;
  if (!birth_pending_) {
    if (size_ == n_ && adversary_.has_value() && adversary_->take_death()) {
      // Adversarial round: a death still happens (the size stays pinned at
      // n), but the victim comes from select_victim() instead of the FIFO
      // head; on_death() removes it from the ring.
      CHURNET_ASSERT(!adversarial_pending_);
      ++round_;
      birth_pending_ = true;
      adversarial_pending_ = true;
      step.time = static_cast<double>(round_);
      step.is_birth = false;
      step.victim = Victim::kAdversarial;
      return step;
    }
    // Round boundary: begin the next round; a full network emits the death
    // of the FIFO head first, otherwise the round is birth-only.
    const std::optional<NodeId> victim = begin_round();
    if (victim.has_value()) {
      step.time = static_cast<double>(round_);
      step.is_birth = false;
      step.victim = Victim::kScheduled;
      step.victim_id = *victim;
      return step;
    }
  }
  // The round's birth; realized by on_birth().
  step.time = static_cast<double>(round_);
  step.is_birth = true;
  return step;
}

void StreamingChurn::on_birth(NodeId id, double time) {
  (void)time;
  record_birth(id);
}

void StreamingChurn::on_death(NodeId id, double time) {
  (void)time;
  if (adversarial_pending_) {
    remove_from_ring(id);
    adversarial_pending_ = false;
  }
  if (adversary_.has_value()) adversary_->on_death(id);
}

NodeId StreamingChurn::select_victim(const GraphReadView& view) {
  CHURNET_EXPECTS(adversary_.has_value());
  CHURNET_EXPECTS(adversarial_pending_);
  return adversary_->select(view);
}

void StreamingChurn::set_adversary(AdversaryConfig config, std::uint64_t seed,
                                   std::string name) {
  CHURNET_EXPECTS(round_ == 0);
  CHURNET_EXPECTS(n_ <= NodeId::kInvalidSlot / 2);
  adversary_.emplace(config, seed);
  name_ = std::move(name);
  // Adversarial deaths tombstone arbitrary entries: twice the capacity
  // means a compaction only after n tombstones, and the slot -> position
  // map finds a victim's entry in O(1).
  ring_.assign(2 * std::size_t{n_}, kInvalidNode);
  ring_pos_.assign(n_, 0);
}

}  // namespace churnet
