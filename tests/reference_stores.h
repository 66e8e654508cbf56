// Test-only reference implementations of the hot-path stores: the original
// std::map run stores and first-fit allocator (verbatim modulo naming and
// dump accessors) from before the sorted-vector rewrite, and a linear-scan
// keep-alive pool from before the expiry index. The equivalence test
// (flat_store_equivalence_test.cc) drives randomized operation sequences
// through both a reference store and its production counterpart and asserts
// the externally observable state — run boundaries, per-field values,
// lookups, counts — is bit-identical after every operation. These classes
// exist only to pin that bar; nothing outside tests/ may include this file.
#ifndef TRENV_TESTS_REFERENCE_STORES_H_
#define TRENV_TESTS_REFERENCE_STORES_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/criu/restore_engine.h"
#include "src/simkernel/page_table.h"
#include "src/simkernel/types.h"

namespace trenv {
namespace ref {

// The original std::map-backed PageTable (run key = first vpn of the run).
class RefPageTable {
 public:
  void MapRange(Vpn vpn, uint64_t npages, PteFlags flags, uint64_t backing_base,
                PageContent content_base, bool constant_content = false) {
    if (npages == 0) {
      return;
    }
    UnmapRange(vpn, npages);
    PteRun run;
    run.npages = npages;
    run.flags = flags;
    run.backing_base = backing_base;
    run.content_base = content_base;
    run.constant_content = constant_content;
    runs_.emplace(vpn, run);
    TryMergeAround(vpn);
  }

  uint64_t UnmapRange(Vpn vpn, uint64_t npages) {
    if (npages == 0) {
      return 0;
    }
    SplitAt(vpn);
    SplitAt(vpn + npages);
    uint64_t removed = 0;
    auto it = runs_.lower_bound(vpn);
    while (it != runs_.end() && it->first < vpn + npages) {
      removed += it->second.npages;
      it = runs_.erase(it);
    }
    return removed;
  }

  void ProtectRange(Vpn vpn, uint64_t npages) {
    if (npages == 0) {
      return;
    }
    SplitAt(vpn);
    SplitAt(vpn + npages);
    for (auto it = runs_.lower_bound(vpn); it != runs_.end() && it->first < vpn + npages;
         ++it) {
      it->second.flags.write_protected = true;
    }
  }

  std::optional<PteView> Lookup(Vpn vpn) const {
    auto it = runs_.upper_bound(vpn);
    if (it == runs_.begin()) {
      return std::nullopt;
    }
    --it;
    const Vpn start = it->first;
    const PteRun& run = it->second;
    if (vpn >= start + run.npages) {
      return std::nullopt;
    }
    const uint64_t idx = vpn - start;
    PteView view;
    view.flags = run.flags;
    view.backing = run.backing_base == kNoBacking ? kNoBacking : run.backing_base + idx;
    view.content = run.ContentAt(idx);
    return view;
  }

  void ForEachRunIn(Vpn vpn, uint64_t npages,
                    const std::function<void(Vpn, const PteRun&)>& fn) const {
    if (npages == 0) {
      return;
    }
    const Vpn end = vpn + npages;
    auto it = runs_.upper_bound(vpn);
    if (it != runs_.begin()) {
      --it;
    }
    for (; it != runs_.end() && it->first < end; ++it) {
      const Vpn run_start = it->first;
      const PteRun& run = it->second;
      const Vpn run_end = run_start + run.npages;
      if (run_end <= vpn) {
        continue;
      }
      const Vpn clip_start = std::max(run_start, vpn);
      const Vpn clip_end = std::min(run_end, end);
      const uint64_t skip = clip_start - run_start;
      PteRun clipped = run;
      clipped.npages = clip_end - clip_start;
      if (clipped.backing_base != kNoBacking) {
        clipped.backing_base += skip;
      }
      if (!clipped.constant_content) {
        clipped.content_base += skip;
      }
      fn(clip_start, clipped);
    }
  }

  void ForEachRun(const std::function<void(Vpn, const PteRun&)>& fn) const {
    for (const auto& [vpn, run] : runs_) {
      fn(vpn, run);
    }
  }

  void CloneFrom(const RefPageTable& other) {
    if (runs_.empty()) {
      for (const auto& [vpn, run] : other.runs_) {
        runs_.emplace_hint(runs_.end(), vpn, run);
      }
      return;
    }
    for (const auto& [vpn, run] : other.runs_) {
      MapRange(vpn, run.npages, run.flags, run.backing_base, run.content_base,
               run.constant_content);
    }
  }

  uint64_t run_count() const { return runs_.size(); }

  uint64_t mapped_pages() const {
    uint64_t total = 0;
    for (const auto& [vpn, run] : runs_) {
      total += run.npages;
    }
    return total;
  }

  uint64_t CountPagesIf(const std::function<bool(const PteFlags&)>& pred) const {
    uint64_t total = 0;
    for (const auto& [vpn, run] : runs_) {
      if (pred(run.flags)) {
        total += run.npages;
      }
    }
    return total;
  }

 private:
  void SplitAt(Vpn vpn) {
    auto it = runs_.upper_bound(vpn);
    if (it == runs_.begin()) {
      return;
    }
    --it;
    const Vpn start = it->first;
    PteRun& run = it->second;
    if (start == vpn || start + run.npages <= vpn) {
      return;
    }
    const uint64_t head_pages = vpn - start;
    PteRun tail = run;
    tail.npages = run.npages - head_pages;
    if (tail.backing_base != kNoBacking) {
      tail.backing_base += head_pages;
    }
    if (!tail.constant_content) {
      tail.content_base += head_pages;
    }
    run.npages = head_pages;
    runs_.emplace(vpn, tail);
  }

  void TryMergeAround(Vpn vpn) {
    auto it = runs_.find(vpn);
    if (it == runs_.end()) {
      return;
    }
    if (it != runs_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.npages == it->first &&
          prev->second.ContinuedBy(it->second, prev->second.npages)) {
        prev->second.npages += it->second.npages;
        runs_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    if (next != runs_.end() && it->first + it->second.npages == next->first &&
        it->second.ContinuedBy(next->second, it->second.npages)) {
      it->second.npages += next->second.npages;
      runs_.erase(next);
    }
  }

  std::map<Vpn, PteRun> runs_;
};

// The original std::map-backed ContentMap.
class RefContentMap {
 public:
  void Write(PoolOffset page, uint64_t npages, PageContent content_base) {
    if (npages == 0) {
      return;
    }
    Erase(page, npages);
    runs_.emplace(page, Run{npages, content_base});
  }

  Result<PageContent> Read(PoolOffset page) const {
    auto it = runs_.upper_bound(page);
    if (it == runs_.begin()) {
      return Status::NotFound("no content stored at pool offset");
    }
    --it;
    if (page >= it->first + it->second.npages) {
      return Status::NotFound("no content stored at pool offset");
    }
    return it->second.content_base + (page - it->first);
  }

  void Erase(PoolOffset page, uint64_t npages) {
    if (npages == 0) {
      return;
    }
    SplitAt(page);
    SplitAt(page + npages);
    auto it = runs_.lower_bound(page);
    while (it != runs_.end() && it->first < page + npages) {
      it = runs_.erase(it);
    }
  }

  uint64_t stored_pages() const {
    uint64_t total = 0;
    for (const auto& [base, run] : runs_) {
      total += run.npages;
    }
    return total;
  }

  uint64_t run_count() const { return runs_.size(); }

  // Dump accessor for the equivalence test: (base, npages, content_base).
  std::vector<std::tuple<PoolOffset, uint64_t, PageContent>> DumpRuns() const {
    std::vector<std::tuple<PoolOffset, uint64_t, PageContent>> out;
    out.reserve(runs_.size());
    for (const auto& [base, run] : runs_) {
      out.emplace_back(base, run.npages, run.content_base);
    }
    return out;
  }

 private:
  struct Run {
    uint64_t npages;
    PageContent content_base;
  };

  void SplitAt(PoolOffset page) {
    auto it = runs_.upper_bound(page);
    if (it == runs_.begin()) {
      return;
    }
    --it;
    const PoolOffset start = it->first;
    Run& run = it->second;
    if (start == page || start + run.npages <= page) {
      return;
    }
    const uint64_t head = page - start;
    Run tail{run.npages - head, run.content_base + head};
    run.npages = head;
    runs_.emplace(page, tail);
  }

  std::map<PoolOffset, Run> runs_;
};

// The original std::map-backed first-fit BlockAllocator.
class RefBlockAllocator {
 public:
  explicit RefBlockAllocator(uint64_t total_pages) : total_pages_(total_pages) {
    if (total_pages > 0) {
      free_list_.emplace(0, total_pages);
    }
  }

  Result<PoolOffset> Allocate(uint64_t n) {
    if (n == 0) {
      return Status::InvalidArgument("zero-page allocation");
    }
    for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
      if (it->second >= n) {
        const PoolOffset base = it->first;
        const uint64_t remaining = it->second - n;
        free_list_.erase(it);
        if (remaining > 0) {
          free_list_.emplace(base + n, remaining);
        }
        used_pages_ += n;
        return base;
      }
    }
    return Status::OutOfMemory("pool exhausted or fragmented");
  }

  Status Free(PoolOffset base, uint64_t n) {
    if (n == 0 || base + n > total_pages_) {
      return Status::InvalidArgument("free range out of bounds");
    }
    auto it = free_list_.upper_bound(base);
    if (it != free_list_.end() && it->first < base + n) {
      return Status::InvalidArgument("double free (overlaps free extent)");
    }
    if (it != free_list_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second > base) {
        return Status::InvalidArgument("double free (overlaps free extent)");
      }
    }
    free_list_.emplace(base, n);
    assert(used_pages_ >= n);
    used_pages_ -= n;
    CoalesceAround(base);
    return Status::Ok();
  }

  uint64_t used_pages() const { return used_pages_; }
  uint64_t free_pages() const { return total_pages_ - used_pages_; }

  uint64_t LargestFreeExtent() const {
    uint64_t largest = 0;
    for (const auto& [base, len] : free_list_) {
      largest = std::max(largest, len);
    }
    return largest;
  }

  uint64_t free_extent_count() const { return free_list_.size(); }

  // Dump accessor for the equivalence test: (base, len) of each free extent.
  std::vector<std::pair<PoolOffset, uint64_t>> DumpFreeList() const {
    return {free_list_.begin(), free_list_.end()};
  }

 private:
  void CoalesceAround(PoolOffset base) {
    auto it = free_list_.find(base);
    assert(it != free_list_.end());
    if (it != free_list_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        free_list_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    if (next != free_list_.end() && it->first + it->second == next->first) {
      it->second += next->second;
      free_list_.erase(next);
    }
  }

  uint64_t total_pages_;
  uint64_t used_pages_ = 0;
  std::map<PoolOffset, uint64_t> free_list_;
};

// The linear-scan keep-alive pool: one std::list in LRU order (front = LRU)
// and a scan for every query. ExpireStale walks the whole list front to back,
// as the production pool did before its expiry index; the per-tier lists are
// modelled by a stamp taken when an entry is parked or retiered.
class RefKeepAlivePool {
 public:
  using EvictFn = std::function<void(std::unique_ptr<FunctionInstance>)>;

  RefKeepAlivePool(SimDuration ttl, EvictFn evict) : ttl_(ttl), evict_(std::move(evict)) {}

  void Put(std::unique_ptr<FunctionInstance> instance, SimTime now) {
    Put(std::move(instance), now, ttl_);
  }
  void Put(std::unique_ptr<FunctionInstance> instance, SimTime now, SimDuration ttl) {
    instance->last_used = now;
    Entry entry;
    entry.function = instance->function_id();
    entry.tier = instance->density_tier;
    entry.footprint_bytes = instance->footprint_bytes;
    entry.expiry = now + ttl;
    entry.tier_stamp = next_stamp_++;
    entry.instance = std::move(instance);
    entries_.push_back(std::move(entry));
  }

  std::unique_ptr<FunctionInstance> TakeWarm(FunctionId function) {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->function == function) {
        ++warm_hits_;
        return Remove(std::next(it).base());
      }
    }
    ++warm_misses_;
    return nullptr;
  }

  bool EvictLru() {
    if (entries_.empty()) {
      return false;
    }
    evict_(Remove(entries_.begin()));
    return true;
  }

  bool EvictFnLru(FunctionId function) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->function == function) {
        evict_(Remove(it));
        return true;
      }
    }
    return false;
  }

  bool EvictHotLru() {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->tier == DensityTier::kDramHot &&
          (victim == entries_.end() || it->tier_stamp < victim->tier_stamp)) {
        victim = it;
      }
    }
    if (victim == entries_.end()) {
      return false;
    }
    evict_(Remove(victim));
    return true;
  }

  // Re-buckets the entry at LRU rank `rank` (0 = coldest).
  void RetierAt(size_t rank, DensityTier tier, uint64_t footprint_bytes) {
    Entry& entry = *std::next(entries_.begin(), static_cast<std::ptrdiff_t>(rank));
    entry.tier = tier;
    entry.footprint_bytes = footprint_bytes;
    entry.tier_stamp = next_stamp_++;
  }

  size_t ExpireStale(SimTime now) {
    size_t evicted = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      const auto next = std::next(it);
      if (it->expiry <= now) {
        evict_(Remove(it));
        ++evicted;
      }
      it = next;
    }
    return evicted;
  }

  void Drop() { entries_.clear(); }

  size_t size() const { return entries_.size(); }
  size_t CountFor(FunctionId function) const {
    size_t count = 0;
    for (const Entry& entry : entries_) {
      count += entry.function == function ? 1 : 0;
    }
    return count;
  }
  size_t CountInTier(DensityTier tier) const {
    size_t count = 0;
    for (const Entry& entry : entries_) {
      count += entry.tier == tier ? 1 : 0;
    }
    return count;
  }
  uint64_t FootprintInTier(DensityTier tier) const {
    uint64_t bytes = 0;
    for (const Entry& entry : entries_) {
      bytes += entry.tier == tier ? entry.footprint_bytes : 0;
    }
    return bytes;
  }
  uint64_t footprint_bytes() const {
    uint64_t bytes = 0;
    for (const Entry& entry : entries_) {
      bytes += entry.footprint_bytes;
    }
    return bytes;
  }
  uint64_t warm_hits() const { return warm_hits_; }
  uint64_t warm_misses() const { return warm_misses_; }

  // Dump accessor for the equivalence test: the instances in LRU order.
  std::vector<const FunctionInstance*> DumpLru() const {
    std::vector<const FunctionInstance*> out;
    for (const Entry& entry : entries_) {
      out.push_back(entry.instance.get());
    }
    return out;
  }
  // The instances of `tier` in tier-list order (coldest first).
  std::vector<const FunctionInstance*> DumpTier(DensityTier tier) const {
    std::vector<const Entry*> members;
    for (const Entry& entry : entries_) {
      if (entry.tier == tier) {
        members.push_back(&entry);
      }
    }
    std::sort(members.begin(), members.end(),
              [](const Entry* a, const Entry* b) { return a->tier_stamp < b->tier_stamp; });
    std::vector<const FunctionInstance*> out;
    for (const Entry* entry : members) {
      out.push_back(entry->instance.get());
    }
    return out;
  }

 private:
  struct Entry {
    std::unique_ptr<FunctionInstance> instance;
    SimTime expiry;
    FunctionId function = kInvalidFunctionId;
    DensityTier tier = DensityTier::kDramHot;
    uint64_t footprint_bytes = 0;
    uint64_t tier_stamp = 0;  // order of arrival at the current tier
  };

  std::unique_ptr<FunctionInstance> Remove(std::list<Entry>::iterator it) {
    std::unique_ptr<FunctionInstance> instance = std::move(it->instance);
    entries_.erase(it);
    return instance;
  }

  SimDuration ttl_;
  EvictFn evict_;
  std::list<Entry> entries_;
  uint64_t next_stamp_ = 0;
  uint64_t warm_hits_ = 0;
  uint64_t warm_misses_ = 0;
};

}  // namespace ref
}  // namespace trenv

#endif  // TRENV_TESTS_REFERENCE_STORES_H_
