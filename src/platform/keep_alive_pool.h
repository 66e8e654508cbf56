// KeepAlivePool: warm instances cached for reuse, LRU-ordered, with a fixed
// TTL (10 minutes, like OpenWhisk) and memory-pressure eviction — the
// scheduling policy all evaluated systems share (paper section 9.1).
//
// Storage is a slot arena: entries live in a vector of slots threaded onto
// intrusive doubly-linked lists (the global LRU order, the per-function list
// bucketed by interned FunctionId, and the per-density-tier list). Park, take
// and evict are index relinks, so keep-alive churn performs no node
// allocations and no string hashing.
//
// Expiry is indexed: an indexed 4-ary min-heap of (expiry, slot) entries
// holds exactly the parked slots, and each slot records its heap position so
// any removal (take, evict, expiry) deletes its entry in O(log n).
// ExpireStale therefore costs O(1) when nothing is due and O(k log n) for k
// expired entries, whatever the number parked. Expired entries are evicted in
// LRU order: only Put links at the MRU end, so LRU order is park order, and
// sorting the expired set by park sequence gives exactly the callback order
// of a front-to-back scan of the LRU list.
#ifndef TRENV_PLATFORM_KEEP_ALIVE_POOL_H_
#define TRENV_PLATFORM_KEEP_ALIVE_POOL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/interner.h"
#include "src/common/time.h"
#include "src/criu/restore_engine.h"

namespace trenv {

class KeepAlivePool {
 public:
  using EvictFn = std::function<void(std::unique_ptr<FunctionInstance>)>;
  // Sentinel slot index ("no slot"), returned by TierLruHead on empty tiers.
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  KeepAlivePool(SimDuration ttl, EvictFn evict) : ttl_(ttl), evict_(std::move(evict)) {}

  // Parks a warm instance (most-recently-used position). `ttl` overrides the
  // pool default for this entry (per-function policies).
  void Put(std::unique_ptr<FunctionInstance> instance, SimTime now);
  void Put(std::unique_ptr<FunctionInstance> instance, SimTime now, SimDuration ttl);
  // Takes a warm instance of `function` if any (MRU of that function).
  std::unique_ptr<FunctionInstance> TakeWarm(FunctionId function);
  std::unique_ptr<FunctionInstance> TakeWarm(const std::string& function) {
    return TakeWarm(GlobalFunctionInterner().Find(function));
  }
  // Evicts the single least-recently-used idle instance. Returns false if
  // the pool is empty.
  bool EvictLru();
  // Evicts `function`'s least-recently-used idle instance. Returns false if
  // the function has nothing parked. The density manager's per-function
  // surplus cap trims with this so the victim is always the entry that
  // function would reuse last.
  bool EvictFnLru(FunctionId function);
  // Evicts every instance whose expiry (park time + its TTL) is at or before
  // `now`, in LRU order. Returns the number evicted.
  size_t ExpireStale(SimTime now);
  void EvictAll();
  // Discards every parked instance WITHOUT running the evict callback: the
  // node crashed, so there is nothing orderly to tear down.
  void Drop();

  size_t size() const { return size_; }
  // High-water mark of size() over the pool's lifetime (survives Drop).
  size_t peak_size() const { return peak_size_; }
  size_t CountFor(FunctionId function) const {
    return function < by_function_.size() ? by_function_[function].count : 0;
  }
  size_t CountFor(const std::string& function) const {
    return CountFor(GlobalFunctionInterner().Find(function));
  }
  uint64_t warm_hits() const { return warm_hits_; }
  uint64_t warm_misses() const { return warm_misses_; }

  SimDuration ttl() const { return ttl_; }
  // Entries in the expiry index; always equal to size().
  size_t expiry_index_size() const { return expiry_heap_.size(); }

  // --- Density-tier aggregates ---------------------------------------------
  // Maintained from each instance's density_tier/footprint_bytes at Put time
  // and adjusted by Retier when the density manager migrates a parked entry.
  size_t CountInTier(DensityTier tier) const { return tier_counts_[static_cast<size_t>(tier)]; }
  uint64_t FootprintInTier(DensityTier tier) const {
    return tier_bytes_[static_cast<size_t>(tier)];
  }
  // Total parked footprint across all tiers (the overcommit ceiling's input).
  uint64_t footprint_bytes() const { return footprint_bytes_; }
  // High-water mark of footprint_bytes() over the pool's lifetime.
  uint64_t peak_footprint_bytes() const { return peak_footprint_bytes_; }

  // Re-buckets a parked entry after the density manager moved it to `tier`
  // and re-stamps its node footprint (demotion moves the private pages into
  // a pool tier, shrinking the node bill to metadata; the instance's own
  // density_tier/footprint_bytes have already been updated).
  void Retier(uint32_t slot, DensityTier tier, uint64_t footprint_bytes);

  // Visits every parked entry in LRU order (coldest first). `fn` gets the
  // slot index (valid for Retier) and the instance; it must not add or
  // remove pool entries.
  template <typename Fn>
  void ForEachLru(Fn&& fn) {
    for (uint32_t slot = lru_head_; slot != kNil;) {
      const uint32_t next = slots_[slot].lru_next;
      fn(slot, *slots_[slot].instance);
      slot = next;
    }
  }

  // Visits only the parked entries in `tier`, coldest first (entries are
  // appended when parked or retiered, so list order is arrival-at-tier
  // order). Migration decisions walk exactly the population they can act on
  // instead of paying for the whole pool: pressure relief walks the hot
  // list, warm-tier evacuation walks the CXL list.
  template <typename Fn>
  void ForEachTierLru(DensityTier tier, Fn&& fn) {
    for (uint32_t slot = tier_head_[static_cast<size_t>(tier)]; slot != kNil;) {
      const uint32_t next = slots_[slot].tier_next;
      fn(slot, *slots_[slot].instance);
      slot = next;
    }
  }

  // Evicts the least-recently-used DRAM-hot entry (the only parked entries
  // still holding node frames); false when none is hot. Last-resort frame
  // relief when every swap tier is full.
  bool EvictHotLru();

  // Coldest parked entry in `tier` (kNoSlot when the tier is empty), and the
  // instance behind a slot. Together with Retier these let the density
  // manager cascade entries down one at a time without walking the tier.
  uint32_t TierLruHead(DensityTier tier) const {
    return tier_head_[static_cast<size_t>(tier)];
  }
  FunctionInstance& InstanceAt(uint32_t slot) { return *slots_[slot].instance; }

 private:
  static constexpr uint32_t kNil = kNoSlot;

  struct Slot {
    std::unique_ptr<FunctionInstance> instance;
    // Monotone park counter: the entry's LRU rank.
    uint64_t park_seq = 0;
    // Position of this slot in expiry_heap_ (kNil while free).
    uint32_t heap_pos = kNil;
    FunctionId function = kInvalidFunctionId;
    // Mirrors instance->density_tier / footprint_bytes so Detach can adjust
    // the aggregates without touching the (possibly moved-out) instance.
    DensityTier tier = DensityTier::kDramHot;
    uint64_t footprint_bytes = 0;
    // Global LRU list links (head = LRU, tail = MRU).
    uint32_t lru_prev = kNil;
    uint32_t lru_next = kNil;
    // Per-function list links (tail = that function's MRU).
    uint32_t fn_prev = kNil;
    uint32_t fn_next = kNil;
    // Per-tier list links (the list matching `tier`).
    uint32_t tier_prev = kNil;
    uint32_t tier_next = kNil;
  };
  // Expiry index entry; the key is stored inline so sifts stay in the heap.
  struct Expiry {
    SimTime at;
    uint32_t slot;
  };
  struct FnList {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    size_t count = 0;
  };

  uint32_t AcquireSlot();
  // Appends `slot` to / removes it from the list of its current tier (link
  // maintenance only; tier aggregates are the caller's job).
  void LinkTier(uint32_t slot);
  void UnlinkTier(uint32_t slot);
  // Unlinks `slot` from every list and the expiry index, and pushes it onto
  // the free list; returns its instance.
  std::unique_ptr<FunctionInstance> Detach(uint32_t slot);
  // Expiry index maintenance (min-heap on the expiry instant). Four children
  // per node halve the depth of a binary heap, and siblings' keys sit in 64
  // contiguous bytes.
  static constexpr uint32_t kHeapArity = 4;
  void HeapPlace(uint32_t pos, Expiry entry);
  void HeapSiftUp(uint32_t pos);
  void HeapSiftDown(uint32_t pos);
  void HeapPush(SimTime at, uint32_t slot);
  void HeapErase(uint32_t slot);

  SimDuration ttl_;
  EvictFn evict_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<FnList> by_function_;  // indexed by FunctionId; may be sparse
  std::vector<Expiry> expiry_heap_;  // min-heap on Expiry::at
  std::vector<uint32_t> expired_;    // ExpireStale scratch, reused across calls
  uint64_t next_park_seq_ = 0;
  uint32_t lru_head_ = kNil;
  uint32_t lru_tail_ = kNil;
  uint32_t tier_head_[kDensityTierCount] = {kNil, kNil, kNil};
  uint32_t tier_tail_[kDensityTierCount] = {kNil, kNil, kNil};
  size_t size_ = 0;
  size_t peak_size_ = 0;
  uint64_t warm_hits_ = 0;
  uint64_t warm_misses_ = 0;
  size_t tier_counts_[kDensityTierCount] = {};
  uint64_t tier_bytes_[kDensityTierCount] = {};
  uint64_t footprint_bytes_ = 0;
  uint64_t peak_footprint_bytes_ = 0;
};

}  // namespace trenv

#endif  // TRENV_PLATFORM_KEEP_ALIVE_POOL_H_
