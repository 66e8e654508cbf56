#include "src/mempool/block_allocator.h"

#include <algorithm>
#include <cassert>

namespace trenv {

BlockAllocator::BlockAllocator(uint64_t total_pages) : total_pages_(total_pages) {
  if (total_pages > 0) {
    free_list_.push_back(Extent{0, total_pages});
    block_max_.push_back(total_pages);
  }
}

size_t BlockAllocator::LowerBound(PoolOffset base) const {
  return static_cast<size_t>(
      std::lower_bound(free_list_.begin(), free_list_.end(), base,
                       [](const Extent& e, PoolOffset b) { return e.base < b; }) -
      free_list_.begin());
}

void BlockAllocator::RefreshBlock(size_t index) {
  const size_t block = index / kSummaryBlock;
  const size_t end = std::min(free_list_.size(), (block + 1) * kSummaryBlock);
  uint64_t longest = 0;
  for (size_t i = block * kSummaryBlock; i < end; ++i) {
    longest = std::max(longest, free_list_[i].len);
  }
  block_max_[block] = longest;
}

void BlockAllocator::RebuildSummaryFrom(size_t index) {
  block_max_.resize((free_list_.size() + kSummaryBlock - 1) / kSummaryBlock);
  for (size_t start = index / kSummaryBlock * kSummaryBlock; start < free_list_.size();
       start += kSummaryBlock) {
    RefreshBlock(start);
  }
}

Result<PoolOffset> BlockAllocator::Allocate(uint64_t n) {
  if (n == 0) {
    return Status::InvalidArgument("zero-page allocation");
  }
  for (size_t block = 0; block < block_max_.size(); ++block) {
    if (block_max_[block] < n) {
      continue;
    }
    // The block holds a fit; its first fit is the leftmost one overall.
    for (size_t i = block * kSummaryBlock;; ++i) {
      assert(i < free_list_.size());
      Extent& extent = free_list_[i];
      if (extent.len < n) {
        continue;
      }
      const PoolOffset base = extent.base;
      const bool was_longest = extent.len == block_max_[block];
      // First fit: carve from the front of the extent. Shrinking in place
      // keeps the list sorted with no erase + reinsert.
      extent.base += n;
      extent.len -= n;
      if (extent.len == 0) {
        free_list_.erase(free_list_.begin() + static_cast<ptrdiff_t>(i));
        RebuildSummaryFrom(i);
      } else if (was_longest) {
        RefreshBlock(i);
      }
      used_pages_ += n;
      return base;
    }
  }
  return Status::OutOfMemory("pool exhausted or fragmented");
}

Status BlockAllocator::Free(PoolOffset base, uint64_t n) {
  if (n == 0 || base + n > total_pages_) {
    return Status::InvalidArgument("free range out of bounds");
  }
  // Validate against double-free: the range must not intersect the free list.
  const size_t i = LowerBound(base + 1);  // first extent with base' > base
  if (i < free_list_.size() && free_list_[i].base < base + n) {
    return Status::InvalidArgument("double free (overlaps free extent)");
  }
  if (i > 0 && free_list_[i - 1].base + free_list_[i - 1].len > base) {
    return Status::InvalidArgument("double free (overlaps free extent)");
  }
  assert(used_pages_ >= n);
  used_pages_ -= n;

  const bool merge_prev = i > 0 && free_list_[i - 1].base + free_list_[i - 1].len == base;
  const bool merge_next = i < free_list_.size() && base + n == free_list_[i].base;
  // A merge only grows an extent, so its block maximum can only rise.
  const auto grew = [this](size_t index) {
    uint64_t& longest = block_max_[index / kSummaryBlock];
    longest = std::max(longest, free_list_[index].len);
  };
  if (merge_prev && merge_next) {
    free_list_[i - 1].len += n + free_list_[i].len;
    free_list_.erase(free_list_.begin() + static_cast<ptrdiff_t>(i));
    RebuildSummaryFrom(i - 1);
  } else if (merge_prev) {
    free_list_[i - 1].len += n;
    grew(i - 1);
  } else if (merge_next) {
    free_list_[i].base = base;
    free_list_[i].len += n;
    grew(i);
  } else {
    free_list_.insert(free_list_.begin() + static_cast<ptrdiff_t>(i), Extent{base, n});
    RebuildSummaryFrom(i);
  }
  return Status::Ok();
}

uint64_t BlockAllocator::LargestFreeExtent() const {
  uint64_t largest = 0;
  for (const uint64_t longest : block_max_) {
    largest = std::max(largest, longest);
  }
  return largest;
}

}  // namespace trenv
