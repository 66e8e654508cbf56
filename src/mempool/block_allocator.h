// First-fit page-granular block allocator with free-list coalescing.
// Manages the address space of a memory pool; consolidated snapshot images
// and density-tier swap blocks are placed through this allocator.
//
// The free list is a sorted vector of extents: Allocate shrinks the chosen
// extent in place, and Free either extends a neighboring extent in place or
// inserts one record, so the free-a-block / reallocate-the-same-size churn of
// keep-alive runs allocation-free at steady state.
//
// A summary keeps first fit sublinear: the vector is cut into fixed blocks of
// kSummaryBlock extents, and block_max_ holds each block's longest extent.
// Allocate skips every block whose maximum is below the request and scans
// extents only inside the first block that can serve it, so the offset is
// still exactly the leftmost fit, and a request nothing can serve fails after
// reading only the block maxima. Placement decisions are bit-identical to
// the original std::map free list (pinned by
// tests/flat_store_equivalence_test.cc).
#ifndef TRENV_MEMPOOL_BLOCK_ALLOCATOR_H_
#define TRENV_MEMPOOL_BLOCK_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/simkernel/types.h"

namespace trenv {

class BlockAllocator {
 public:
  explicit BlockAllocator(uint64_t total_pages);

  // Allocates n contiguous pages; returns the base page offset.
  Result<PoolOffset> Allocate(uint64_t n);
  // Frees a previously allocated block (must match an allocation exactly or
  // be a sub-range of one; partial frees split the allocation record).
  Status Free(PoolOffset base, uint64_t n);

  uint64_t total_pages() const { return total_pages_; }
  uint64_t used_pages() const { return used_pages_; }
  uint64_t free_pages() const { return total_pages_ - used_pages_; }
  // Largest contiguous free extent, for fragmentation diagnostics.
  uint64_t LargestFreeExtent() const;
  // Number of free extents, for fragmentation diagnostics.
  uint64_t free_extent_count() const { return free_list_.size(); }
  // Invokes fn(base, len) for every free extent in base order (diagnostics
  // and the store-equivalence test).
  template <typename Fn>
  void ForEachFreeExtent(Fn&& fn) const {
    for (const Extent& extent : free_list_) {
      fn(extent.base, extent.len);
    }
  }

 private:
  struct Extent {
    PoolOffset base;
    uint64_t len;
  };

  // Extents per summary block.
  static constexpr size_t kSummaryBlock = 64;

  // Index of the first free extent with base >= `base`.
  size_t LowerBound(PoolOffset base) const;
  // Recomputes the maximum of the block holding extent `index`.
  void RefreshBlock(size_t index);
  // Resizes the summary to the extent count and recomputes every block from
  // the one holding extent `index` onward (after an insert or erase there
  // shifted the extents behind it).
  void RebuildSummaryFrom(size_t index);

  uint64_t total_pages_;
  uint64_t used_pages_ = 0;
  // Free extents sorted by base, pairwise disjoint and non-adjacent.
  std::vector<Extent> free_list_;
  // block_max_[b] = longest extent among free_list_[b * kSummaryBlock, ...).
  std::vector<uint64_t> block_max_;
};

}  // namespace trenv

#endif  // TRENV_MEMPOOL_BLOCK_ALLOCATOR_H_
