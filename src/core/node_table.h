// Open-addressing hash table keyed by NodeId: the one lookup structure of the
// sample -> gather path (sampler de-duplication, SNP/DNP owner gathers and
// feature-cache membership).
//
// Power-of-two capacity at load <= 1/2, linear probing, multiplicative
// (Fibonacci) hashing, and kInvalidNode (-1) as the empty key, so keys must
// be valid node ids (>= 0) — CsrGraph and LoadDataset validate that at the
// boundary. Capacity follows the caller's key bound, never the graph size.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/error.h"
#include "core/types.h"

namespace apt {

class NodeTable {
 public:
  /// Empties the table and sizes it for up to `max_keys` distinct keys. Only
  /// the slots the previous use touched are cleared, so a reused scratch
  /// table costs O(its last use), not O(its largest one).
  void Reset(std::int64_t max_keys) {
    APT_CHECK_GE(max_keys, 0);
    for (std::size_t s : touched_) slots_[s].key = kInvalidNode;
    touched_.clear();
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(2, static_cast<std::size_t>(max_keys) * 2));
    if (capacity > slots_.size()) slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    mask_ = capacity - 1;
    max_keys_ = max_keys;
  }

  /// The id stored for v; if v is absent, stores `next_id` and returns it.
  /// Passing the current key count hands out first-seen local ids: the
  /// caller appends v to its own list exactly when the result == next_id.
  std::int64_t FindOrInsert(NodeId v, std::int64_t next_id) {
    for (std::size_t s = Home(v);; s = (s + 1) & mask_) {
      Slot& slot = slots_[s];
      if (slot.key == v) return slot.id;
      if (slot.key == kInvalidNode) {
        APT_CHECK_LT(static_cast<std::int64_t>(touched_.size()), max_keys_)
            << "NodeTable sized for fewer keys";
        slot = {v, next_id};
        touched_.push_back(s);
        return next_id;
      }
    }
  }

  bool Contains(NodeId v) const {
    for (std::size_t s = Home(v);; s = (s + 1) & mask_) {
      const NodeId key = slots_[s].key;
      if (key == v) return true;
      if (key == kInvalidNode) return false;
    }
  }

 private:
  struct Slot {
    NodeId key = kInvalidNode;
    std::int64_t id = 0;
  };

  std::size_t Home(NodeId v) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  // The default state is an empty two-slot table that holds no keys.
  std::vector<Slot> slots_ = std::vector<Slot>(2);
  std::vector<std::size_t> touched_;
  int shift_ = 63;
  std::size_t mask_ = 1;
  std::int64_t max_keys_ = 0;
};

}  // namespace apt
