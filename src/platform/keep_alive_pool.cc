#include "src/platform/keep_alive_pool.h"

#include <algorithm>
#include <cassert>

namespace trenv {

uint32_t KeepAlivePool::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void KeepAlivePool::HeapPlace(uint32_t pos, Expiry entry) {
  expiry_heap_[pos] = entry;
  slots_[entry.slot].heap_pos = pos;
}

void KeepAlivePool::HeapSiftUp(uint32_t pos) {
  const Expiry entry = expiry_heap_[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / kHeapArity;
    if (!(entry.at < expiry_heap_[parent].at)) {
      break;
    }
    HeapPlace(pos, expiry_heap_[parent]);
    pos = parent;
  }
  HeapPlace(pos, entry);
}

void KeepAlivePool::HeapSiftDown(uint32_t pos) {
  const Expiry entry = expiry_heap_[pos];
  const uint32_t n = static_cast<uint32_t>(expiry_heap_.size());
  while (true) {
    const uint32_t first = kHeapArity * pos + 1;
    if (first >= n) {
      break;
    }
    uint32_t child = first;
    for (uint32_t c = first + 1; c < std::min(first + kHeapArity, n); ++c) {
      if (expiry_heap_[c].at < expiry_heap_[child].at) {
        child = c;
      }
    }
    if (!(expiry_heap_[child].at < entry.at)) {
      break;
    }
    HeapPlace(pos, expiry_heap_[child]);
    pos = child;
  }
  HeapPlace(pos, entry);
}

void KeepAlivePool::HeapPush(SimTime at, uint32_t slot) {
  expiry_heap_.push_back(Expiry{at, slot});
  HeapSiftUp(static_cast<uint32_t>(expiry_heap_.size() - 1));
}

void KeepAlivePool::HeapErase(uint32_t slot) {
  const uint32_t pos = slots_[slot].heap_pos;
  assert(pos < expiry_heap_.size() && expiry_heap_[pos].slot == slot);
  const Expiry last = expiry_heap_.back();
  expiry_heap_.pop_back();
  slots_[slot].heap_pos = kNil;
  if (pos == expiry_heap_.size()) {
    return;  // `slot` was the last entry
  }
  HeapPlace(pos, last);
  if (pos > 0 && last.at < expiry_heap_[(pos - 1) / kHeapArity].at) {
    HeapSiftUp(pos);
  } else {
    HeapSiftDown(pos);
  }
}

std::unique_ptr<FunctionInstance> KeepAlivePool::Detach(uint32_t slot) {
  HeapErase(slot);
  Slot& s = slots_[slot];
  // Global LRU list.
  if (s.lru_prev != kNil) {
    slots_[s.lru_prev].lru_next = s.lru_next;
  } else {
    lru_head_ = s.lru_next;
  }
  if (s.lru_next != kNil) {
    slots_[s.lru_next].lru_prev = s.lru_prev;
  } else {
    lru_tail_ = s.lru_prev;
  }
  // Per-function list.
  FnList& fn = by_function_[s.function];
  if (s.fn_prev != kNil) {
    slots_[s.fn_prev].fn_next = s.fn_next;
  } else {
    fn.head = s.fn_next;
  }
  if (s.fn_next != kNil) {
    slots_[s.fn_next].fn_prev = s.fn_prev;
  } else {
    fn.tail = s.fn_prev;
  }
  --fn.count;
  --size_;
  UnlinkTier(slot);
  --tier_counts_[static_cast<size_t>(s.tier)];
  tier_bytes_[static_cast<size_t>(s.tier)] -= s.footprint_bytes;
  footprint_bytes_ -= s.footprint_bytes;
  std::unique_ptr<FunctionInstance> instance = std::move(s.instance);
  s = Slot{};
  free_slots_.push_back(slot);
  return instance;
}

void KeepAlivePool::Put(std::unique_ptr<FunctionInstance> instance, SimTime now) {
  Put(std::move(instance), now, ttl_);
}

void KeepAlivePool::Put(std::unique_ptr<FunctionInstance> instance, SimTime now,
                        SimDuration ttl) {
  assert(instance != nullptr);
  instance->last_used = now;
  const FunctionId function = instance->function_id();
  const uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.tier = instance->density_tier;
  s.footprint_bytes = instance->footprint_bytes;
  ++tier_counts_[static_cast<size_t>(s.tier)];
  tier_bytes_[static_cast<size_t>(s.tier)] += s.footprint_bytes;
  footprint_bytes_ += s.footprint_bytes;
  if (footprint_bytes_ > peak_footprint_bytes_) {
    peak_footprint_bytes_ = footprint_bytes_;
  }
  s.instance = std::move(instance);
  s.park_seq = next_park_seq_++;
  s.function = function;
  HeapPush(now + ttl, slot);
  // Link at the global MRU position.
  s.lru_prev = lru_tail_;
  s.lru_next = kNil;
  if (lru_tail_ != kNil) {
    slots_[lru_tail_].lru_next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
  LinkTier(slot);
  // Link at the function's MRU position.
  if (by_function_.size() <= function) {
    by_function_.resize(function + 1);
  }
  FnList& fn = by_function_[function];
  s.fn_prev = fn.tail;
  s.fn_next = kNil;
  if (fn.tail != kNil) {
    slots_[fn.tail].fn_next = slot;
  } else {
    fn.head = slot;
  }
  fn.tail = slot;
  ++fn.count;
  ++size_;
  if (size_ > peak_size_) {
    peak_size_ = size_;
  }
}

void KeepAlivePool::Retier(uint32_t slot, DensityTier tier, uint64_t footprint_bytes) {
  Slot& s = slots_[slot];
  UnlinkTier(slot);
  --tier_counts_[static_cast<size_t>(s.tier)];
  tier_bytes_[static_cast<size_t>(s.tier)] -= s.footprint_bytes;
  footprint_bytes_ -= s.footprint_bytes;
  s.tier = tier;
  s.footprint_bytes = footprint_bytes;
  LinkTier(slot);
  ++tier_counts_[static_cast<size_t>(s.tier)];
  tier_bytes_[static_cast<size_t>(s.tier)] += s.footprint_bytes;
  footprint_bytes_ += s.footprint_bytes;
}

std::unique_ptr<FunctionInstance> KeepAlivePool::TakeWarm(FunctionId function) {
  if (function >= by_function_.size() || by_function_[function].tail == kNil) {
    ++warm_misses_;
    return nullptr;
  }
  ++warm_hits_;
  return Detach(by_function_[function].tail);
}

bool KeepAlivePool::EvictLru() {
  if (lru_head_ == kNil) {
    return false;
  }
  evict_(Detach(lru_head_));
  return true;
}

bool KeepAlivePool::EvictFnLru(FunctionId function) {
  if (function >= by_function_.size() || by_function_[function].head == kNil) {
    return false;
  }
  evict_(Detach(by_function_[function].head));
  return true;
}

bool KeepAlivePool::EvictHotLru() {
  const uint32_t head = tier_head_[static_cast<size_t>(DensityTier::kDramHot)];
  if (head == kNil) {
    return false;
  }
  evict_(Detach(head));
  return true;
}

void KeepAlivePool::LinkTier(uint32_t slot) {
  Slot& s = slots_[slot];
  const size_t t = static_cast<size_t>(s.tier);
  s.tier_prev = tier_tail_[t];
  s.tier_next = kNil;
  if (tier_tail_[t] != kNil) {
    slots_[tier_tail_[t]].tier_next = slot;
  } else {
    tier_head_[t] = slot;
  }
  tier_tail_[t] = slot;
}

void KeepAlivePool::UnlinkTier(uint32_t slot) {
  Slot& s = slots_[slot];
  const size_t t = static_cast<size_t>(s.tier);
  if (s.tier_prev != kNil) {
    slots_[s.tier_prev].tier_next = s.tier_next;
  } else {
    tier_head_[t] = s.tier_next;
  }
  if (s.tier_next != kNil) {
    slots_[s.tier_next].tier_prev = s.tier_prev;
  } else {
    tier_tail_[t] = s.tier_prev;
  }
  s.tier_prev = kNil;
  s.tier_next = kNil;
}

size_t KeepAlivePool::ExpireStale(SimTime now) {
  if (expiry_heap_.empty() || expiry_heap_[0].at > now) {
    return 0;
  }
  // Collect every due entry. A heap node that is not due roots a subtree
  // with nothing due, so the walk visits only the due entries and their
  // children. expired_ doubles as the BFS queue of heap positions.
  expired_.clear();
  expired_.push_back(0);
  const size_t n = expiry_heap_.size();
  for (size_t i = 0; i < expired_.size(); ++i) {
    const size_t pos = expired_[i];
    const size_t first = kHeapArity * pos + 1;
    for (size_t child = first; child < std::min(first + kHeapArity, n); ++child) {
      if (expiry_heap_[child].at <= now) {
        expired_.push_back(static_cast<uint32_t>(child));
      }
    }
  }
  for (uint32_t& entry : expired_) {
    entry = expiry_heap_[entry].slot;
  }
  // LRU order is park order (only Put links at the MRU end).
  std::sort(expired_.begin(), expired_.end(), [this](uint32_t a, uint32_t b) {
    return slots_[a].park_seq < slots_[b].park_seq;
  });
  for (const uint32_t slot : expired_) {
    evict_(Detach(slot));
  }
  return expired_.size();
}

void KeepAlivePool::EvictAll() {
  while (EvictLru()) {
  }
}

void KeepAlivePool::Drop() {
  slots_.clear();
  free_slots_.clear();
  by_function_.clear();
  expiry_heap_.clear();
  lru_head_ = kNil;
  lru_tail_ = kNil;
  for (size_t i = 0; i < kDensityTierCount; ++i) {
    tier_head_[i] = kNil;
    tier_tail_[i] = kNil;
  }
  size_ = 0;
  for (size_t i = 0; i < kDensityTierCount; ++i) {
    tier_counts_[i] = 0;
    tier_bytes_[i] = 0;
  }
  footprint_bytes_ = 0;
}

}  // namespace trenv
