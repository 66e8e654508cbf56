// Bitwise equivalence of the sorted-vector hot-path stores against the
// original std::map implementations (tests/reference_stores.h). Randomized
// operation sequences — the same seeded stream applied to both stores — must
// leave bit-identical observable state after every step: run boundaries and
// every per-run field, lookups, removal counts, page/extent counts, and
// allocator placement decisions. This is the acceptance bar for the flat
// rewrite: not "equivalent behavior" but the same splits, the same merges,
// the same first-fit choices.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/mempool/backend.h"
#include "src/mempool/block_allocator.h"
#include "src/platform/keep_alive_pool.h"
#include "src/simkernel/page_table.h"
#include "tests/reference_stores.h"

namespace trenv {
namespace {

// ---------------------------------------------------------------------------
// PageTable
// ---------------------------------------------------------------------------

struct RunDump {
  Vpn vpn;
  uint64_t npages;
  PteFlags flags;
  uint64_t backing;
  PageContent content;
  bool constant;

  bool operator==(const RunDump& o) const {
    return vpn == o.vpn && npages == o.npages && flags == o.flags && backing == o.backing &&
           content == o.content && constant == o.constant;
  }
};

template <typename Table>
std::vector<RunDump> DumpTable(const Table& table) {
  std::vector<RunDump> out;
  table.ForEachRun([&](Vpn vpn, const PteRun& run) {
    out.push_back({vpn, run.npages, run.flags, run.backing_base, run.content_base,
                   run.constant_content});
  });
  return out;
}

PteFlags FlagsVariant(uint64_t v) {
  PteFlags f;
  switch (v % 4) {
    case 0:
      f.valid = true;
      f.pool = PoolKind::kLocalDram;
      break;
    case 1:
      f.valid = true;
      f.write_protected = true;
      f.pool = PoolKind::kCxl;
      break;
    case 2:
      f.valid = false;
      f.pool = PoolKind::kRdma;
      break;
    default:
      f.valid = false;
      f.write_protected = true;
      f.pool = PoolKind::kNas;
      break;
  }
  return f;
}

void ExpectSameLookup(const PageTable& pt, const ref::RefPageTable& rt, Vpn vpn) {
  const std::optional<PteView> a = pt.Lookup(vpn);
  const std::optional<PteView> b = rt.Lookup(vpn);
  ASSERT_EQ(a.has_value(), b.has_value()) << "vpn " << vpn;
  if (a.has_value()) {
    EXPECT_TRUE(a->flags == b->flags) << "vpn " << vpn;
    EXPECT_EQ(a->backing, b->backing) << "vpn " << vpn;
    EXPECT_EQ(a->content, b->content) << "vpn " << vpn;
  }
}

void ExpectSameTable(const PageTable& pt, const ref::RefPageTable& rt) {
  EXPECT_EQ(pt.run_count(), rt.run_count());
  EXPECT_EQ(pt.mapped_pages(), rt.mapped_pages());
  const std::vector<RunDump> a = DumpTable(pt);
  const std::vector<RunDump> b = DumpTable(rt);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "run " << i << " differs (vpn " << a[i].vpn << " vs "
                              << b[i].vpn << ")";
  }
}

TEST(FlatStoreEquivalenceTest, PageTableRandomizedOps) {
  constexpr Vpn kSpace = 4096;
  for (uint64_t seed : {11u, 29u, 47u}) {
    Rng rng(seed);
    PageTable pt;
    ref::RefPageTable rt;
    for (int step = 0; step < 4000; ++step) {
      const Vpn vpn = rng.NextBounded(kSpace);
      const uint64_t npages = 1 + rng.NextBounded(256);
      switch (rng.NextBounded(6)) {
        case 0:
        case 1: {  // map: weighted up, it drives the splits and merges
          const PteFlags flags = FlagsVariant(rng.NextU64());
          const bool constant = rng.NextBool(0.2);
          const uint64_t backing = rng.NextBool(0.3) ? kNoBacking : rng.NextBounded(1 << 20);
          const PageContent content = rng.NextBounded(1 << 20);
          pt.MapRange(vpn, npages, flags, backing, content, constant);
          rt.MapRange(vpn, npages, flags, backing, content, constant);
          break;
        }
        case 2: {
          EXPECT_EQ(pt.UnmapRange(vpn, npages), rt.UnmapRange(vpn, npages));
          break;
        }
        case 3: {
          pt.ProtectRange(vpn, npages);
          rt.ProtectRange(vpn, npages);
          break;
        }
        case 4: {
          ExpectSameLookup(pt, rt, vpn);
          break;
        }
        default: {  // clipped window walk
          std::vector<RunDump> a;
          std::vector<RunDump> b;
          pt.ForEachRunIn(vpn, npages, [&](Vpn v, const PteRun& run) {
            a.push_back({v, run.npages, run.flags, run.backing_base, run.content_base,
                         run.constant_content});
          });
          rt.ForEachRunIn(vpn, npages, [&](Vpn v, const PteRun& run) {
            b.push_back({v, run.npages, run.flags, run.backing_base, run.content_base,
                         run.constant_content});
          });
          ASSERT_EQ(a.size(), b.size());
          for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_TRUE(a[i] == b[i]);
          }
          break;
        }
      }
      if (step % 64 == 0) {
        ExpectSameTable(pt, rt);
        EXPECT_EQ(pt.CountPagesIf([](const PteFlags& f) { return f.remote(); }),
                  rt.CountPagesIf([](const PteFlags& f) { return f.remote(); }));
        EXPECT_EQ(pt.CountPagesIf([](const PteFlags& f) { return f.valid; }),
                  rt.CountPagesIf([](const PteFlags& f) { return f.valid; }));
      }
      if (HasFatalFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    ExpectSameTable(pt, rt);
    for (Vpn v = 0; v < kSpace; v += 7) {
      ExpectSameLookup(pt, rt, v);
    }
  }
}

TEST(FlatStoreEquivalenceTest, PageTableCloneFrom) {
  Rng rng(5);
  PageTable src_pt;
  ref::RefPageTable src_rt;
  for (int i = 0; i < 200; ++i) {
    const Vpn vpn = rng.NextBounded(2048);
    const uint64_t npages = 1 + rng.NextBounded(64);
    const PteFlags flags = FlagsVariant(rng.NextU64());
    const uint64_t backing = rng.NextBool(0.5) ? kNoBacking : rng.NextBounded(1 << 16);
    src_pt.MapRange(vpn, npages, flags, backing, i * 1000);
    src_rt.MapRange(vpn, npages, flags, backing, i * 1000);
  }
  // Clone into empty (the mmt_attach metadata-copy fast path).
  PageTable fresh_pt;
  ref::RefPageTable fresh_rt;
  fresh_pt.CloneFrom(src_pt);
  fresh_rt.CloneFrom(src_rt);
  ExpectSameTable(fresh_pt, fresh_rt);
  // Clone over existing state (the overlay path).
  PageTable over_pt;
  ref::RefPageTable over_rt;
  PteFlags local = FlagsVariant(0);
  over_pt.MapRange(100, 900, local, kNoBacking, 7);
  over_rt.MapRange(100, 900, local, kNoBacking, 7);
  over_pt.CloneFrom(src_pt);
  over_rt.CloneFrom(src_rt);
  ExpectSameTable(over_pt, over_rt);
}

// ---------------------------------------------------------------------------
// ContentMap
// ---------------------------------------------------------------------------

void ExpectSameContent(const ContentMap& cm, const ref::RefContentMap& rm) {
  EXPECT_EQ(cm.stored_pages(), rm.stored_pages());
  EXPECT_EQ(cm.run_count(), rm.run_count());
  std::vector<std::tuple<PoolOffset, uint64_t, PageContent>> a;
  cm.ForEachRun([&](PoolOffset base, uint64_t npages, PageContent content) {
    a.emplace_back(base, npages, content);
  });
  EXPECT_EQ(a, rm.DumpRuns());
}

TEST(FlatStoreEquivalenceTest, ContentMapRandomizedOps) {
  constexpr PoolOffset kSpace = 2048;
  for (uint64_t seed : {3u, 17u, 71u}) {
    Rng rng(seed);
    ContentMap cm;
    ref::RefContentMap rm;
    for (int step = 0; step < 4000; ++step) {
      const PoolOffset page = rng.NextBounded(kSpace);
      const uint64_t npages = 1 + rng.NextBounded(128);
      switch (rng.NextBounded(4)) {
        case 0:
        case 1: {
          const PageContent content = rng.NextBounded(1 << 20);
          cm.Write(page, npages, content);
          rm.Write(page, npages, content);
          break;
        }
        case 2: {
          cm.Erase(page, npages);
          rm.Erase(page, npages);
          break;
        }
        default: {
          const Result<PageContent> a = cm.Read(page);
          const Result<PageContent> b = rm.Read(page);
          ASSERT_EQ(a.ok(), b.ok()) << "page " << page;
          if (a.ok()) {
            EXPECT_EQ(*a, *b) << "page " << page;
          }
          break;
        }
      }
      if (step % 64 == 0) {
        ExpectSameContent(cm, rm);
      }
      if (HasFatalFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    ExpectSameContent(cm, rm);
  }
}

// ---------------------------------------------------------------------------
// BlockAllocator
// ---------------------------------------------------------------------------

void ExpectSameAllocator(const BlockAllocator& ba, const ref::RefBlockAllocator& ra) {
  EXPECT_EQ(ba.used_pages(), ra.used_pages());
  EXPECT_EQ(ba.free_pages(), ra.free_pages());
  EXPECT_EQ(ba.LargestFreeExtent(), ra.LargestFreeExtent());
  EXPECT_EQ(ba.free_extent_count(), ra.free_extent_count());
  std::vector<std::pair<PoolOffset, uint64_t>> a;
  ba.ForEachFreeExtent([&](PoolOffset base, uint64_t len) { a.emplace_back(base, len); });
  EXPECT_EQ(a, ra.DumpFreeList());
}

TEST(FlatStoreEquivalenceTest, BlockAllocatorRandomizedChurn) {
  constexpr uint64_t kTotal = 1 << 16;
  for (uint64_t seed : {7u, 23u, 59u}) {
    Rng rng(seed);
    BlockAllocator ba(kTotal);
    ref::RefBlockAllocator ra(kTotal);
    std::vector<std::pair<PoolOffset, uint64_t>> live;
    for (int step = 0; step < 4000; ++step) {
      if (live.empty() || rng.NextBool(0.55)) {
        const uint64_t n = 1 + rng.NextBounded(512);
        const Result<PoolOffset> a = ba.Allocate(n);
        const Result<PoolOffset> b = ra.Allocate(n);
        ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
        if (a.ok()) {
          // First-fit must pick the identical extent.
          ASSERT_EQ(*a, *b) << "step " << step;
          live.emplace_back(*a, n);
        }
      } else {
        const size_t idx = rng.NextBounded(live.size());
        const auto [base, n] = live[idx];
        EXPECT_TRUE(ba.Free(base, n).ok());
        EXPECT_TRUE(ra.Free(base, n).ok());
        live[idx] = live.back();
        live.pop_back();
      }
      if (step % 64 == 0) {
        ExpectSameAllocator(ba, ra);
      }
      if (HasFatalFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    // Double frees rejected identically, with no state change.
    if (!live.empty()) {
      const auto [base, n] = live.front();
      EXPECT_TRUE(ba.Free(base, n).ok());
      EXPECT_TRUE(ra.Free(base, n).ok());
      EXPECT_FALSE(ba.Free(base, n).ok());
      EXPECT_FALSE(ra.Free(base, n).ok());
    }
    ExpectSameAllocator(ba, ra);
  }
}

// Fail-heavy first fit over thousands of extents: the pool is carved into
// small blocks and every other one freed, then requests mostly larger than
// any free extent (which must fail without placing anything) interleave with
// whole and partial frees that merge and split extents across the
// allocator's summary blocks. Checked against the reference after every op.
TEST(FlatStoreEquivalenceTest, BlockAllocatorFragmentedFailHeavy) {
  constexpr uint64_t kTotal = 1 << 14;
  for (uint64_t seed : {3u, 41u, 97u}) {
    Rng rng(seed);
    BlockAllocator ba(kTotal);
    ref::RefBlockAllocator ra(kTotal);
    std::vector<std::pair<PoolOffset, uint64_t>> live;
    // Fragment: fill with 1..8-page blocks, free every other one.
    while (true) {
      const uint64_t n = 1 + rng.NextBounded(8);
      const Result<PoolOffset> a = ba.Allocate(n);
      const Result<PoolOffset> b = ra.Allocate(n);
      ASSERT_EQ(a.ok(), b.ok());
      if (!a.ok()) {
        break;
      }
      ASSERT_EQ(*a, *b);
      live.emplace_back(*a, n);
    }
    std::vector<std::pair<PoolOffset, uint64_t>> kept;
    for (size_t i = 0; i < live.size(); ++i) {
      if (i % 2 == 0) {
        ASSERT_TRUE(ba.Free(live[i].first, live[i].second).ok());
        ASSERT_TRUE(ra.Free(live[i].first, live[i].second).ok());
      } else {
        kept.push_back(live[i]);
      }
    }
    live = std::move(kept);
    ExpectSameAllocator(ba, ra);
    ASSERT_GT(ba.free_extent_count(), 1000u);
    uint64_t failures = 0;
    for (int step = 0; step < 3000; ++step) {
      const uint64_t roll = rng.NextBounded(100);
      if (roll < 60 || live.empty()) {
        // Mostly oversized: 9..4096 pages against extents of at most a few
        // dozen until frees coalesce larger ones.
        const uint64_t n = roll < 45 ? 9 + rng.NextBounded(4088) : 1 + rng.NextBounded(12);
        const Result<PoolOffset> a = ba.Allocate(n);
        const Result<PoolOffset> b = ra.Allocate(n);
        ASSERT_EQ(a.ok(), b.ok()) << "step " << step << " n " << n;
        if (a.ok()) {
          ASSERT_EQ(*a, *b) << "step " << step;
          live.emplace_back(*a, n);
        } else {
          EXPECT_EQ(a.status().code(), b.status().code());
          ++failures;
        }
      } else if (roll < 85) {
        // Whole free: merges with free neighbours on either side.
        const size_t idx = rng.NextBounded(live.size());
        const auto [base, n] = live[idx];
        ASSERT_TRUE(ba.Free(base, n).ok());
        ASSERT_TRUE(ra.Free(base, n).ok());
        live[idx] = live.back();
        live.pop_back();
      } else {
        // Partial free of a middle piece: splits the allocation in two.
        const size_t idx = rng.NextBounded(live.size());
        const auto [base, n] = live[idx];
        if (n < 3) {
          continue;
        }
        const uint64_t off = 1 + rng.NextBounded(n - 2);
        const uint64_t len = 1 + rng.NextBounded(n - off - 1);
        ASSERT_TRUE(ba.Free(base + off, len).ok());
        ASSERT_TRUE(ra.Free(base + off, len).ok());
        live[idx] = {base, off};
        live.emplace_back(base + off + len, n - off - len);
      }
      ExpectSameAllocator(ba, ra);
      if (HasFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    EXPECT_GT(failures, 500u) << "the pattern must stay fail-heavy";
  }
}

// ---------------------------------------------------------------------------
// KeepAlivePool
// ---------------------------------------------------------------------------

// Each instance carries a unique tag in `invocations` (the pool never reads
// or writes it), so the two pools' evict callbacks can be compared by tag.
std::unique_ptr<FunctionInstance> TaggedInstance(const std::string& function, uint64_t tag,
                                                 DensityTier tier, uint64_t footprint) {
  auto instance = std::make_unique<FunctionInstance>(function, nullptr);
  instance->invocations = tag;
  instance->density_tier = tier;
  instance->footprint_bytes = footprint;
  return instance;
}

std::vector<uint64_t> LruTags(KeepAlivePool& pool) {
  std::vector<uint64_t> tags;
  pool.ForEachLru([&](uint32_t, FunctionInstance& instance) {
    tags.push_back(instance.invocations);
  });
  return tags;
}

std::vector<uint64_t> Tags(const std::vector<const FunctionInstance*>& instances) {
  std::vector<uint64_t> tags;
  for (const FunctionInstance* instance : instances) {
    tags.push_back(instance->invocations);
  }
  return tags;
}

void ExpectSamePool(KeepAlivePool& pool, const ref::RefKeepAlivePool& ref,
                    const std::vector<FunctionId>& fids) {
  EXPECT_EQ(pool.size(), ref.size());
  EXPECT_EQ(pool.expiry_index_size(), pool.size());
  for (const FunctionId fid : fids) {
    EXPECT_EQ(pool.CountFor(fid), ref.CountFor(fid));
  }
  for (const DensityTier tier :
       {DensityTier::kDramHot, DensityTier::kCxlWarm, DensityTier::kNasCold}) {
    EXPECT_EQ(pool.CountInTier(tier), ref.CountInTier(tier));
    EXPECT_EQ(pool.FootprintInTier(tier), ref.FootprintInTier(tier));
    std::vector<uint64_t> tier_tags;
    pool.ForEachTierLru(tier, [&](uint32_t, FunctionInstance& instance) {
      tier_tags.push_back(instance.invocations);
    });
    EXPECT_EQ(tier_tags, Tags(ref.DumpTier(tier)));
  }
  EXPECT_EQ(pool.footprint_bytes(), ref.footprint_bytes());
  EXPECT_EQ(pool.warm_hits(), ref.warm_hits());
  EXPECT_EQ(pool.warm_misses(), ref.warm_misses());
  EXPECT_EQ(LruTags(pool), Tags(ref.DumpLru()));
}

TEST(FlatStoreEquivalenceTest, KeepAlivePoolRandomizedOps) {
  std::vector<std::string> names;
  std::vector<FunctionId> fids;
  for (int i = 0; i < 6; ++i) {
    names.push_back("ka-equiv-fn-" + std::to_string(i));
    fids.push_back(InternFunction(names.back()));
  }
  const DensityTier tiers[] = {DensityTier::kDramHot, DensityTier::kCxlWarm,
                               DensityTier::kNasCold};
  // Per-entry TTL overrides (prewarm's KeepAliveFor), shorter and longer
  // than the pool default, plus ties with it.
  const SimDuration ttls[] = {SimDuration::Millis(300), SimDuration::Seconds(2),
                              SimDuration::Seconds(5), SimDuration::Seconds(20)};
  for (uint64_t seed : {5u, 17u, 88u}) {
    Rng rng(seed);
    std::vector<uint64_t> evicted;
    std::vector<uint64_t> ref_evicted;
    KeepAlivePool pool(SimDuration::Seconds(5), [&](std::unique_ptr<FunctionInstance> i) {
      evicted.push_back(i->invocations);
    });
    ref::RefKeepAlivePool ref(SimDuration::Seconds(5), [&](std::unique_ptr<FunctionInstance> i) {
      ref_evicted.push_back(i->invocations);
    });
    SimTime now;
    uint64_t next_tag = 1;
    for (int step = 0; step < 6000; ++step) {
      // Coarse steps make equal expiry instants (and equal park times) common.
      now += SimDuration::Millis(100 * rng.NextBounded(4));
      const uint64_t roll = rng.NextBounded(100);
      const size_t f = rng.NextBounded(fids.size());
      if (roll < 40) {
        const DensityTier tier = tiers[rng.NextBounded(3)];
        const uint64_t footprint = 4096 * (1 + rng.NextBounded(64));
        const uint64_t tag = next_tag++;
        if (rng.NextBool(0.5)) {
          const SimDuration ttl = ttls[rng.NextBounded(4)];
          pool.Put(TaggedInstance(names[f], tag, tier, footprint), now, ttl);
          ref.Put(TaggedInstance(names[f], tag, tier, footprint), now, ttl);
        } else {
          pool.Put(TaggedInstance(names[f], tag, tier, footprint), now);
          ref.Put(TaggedInstance(names[f], tag, tier, footprint), now);
        }
      } else if (roll < 58) {
        std::unique_ptr<FunctionInstance> a = pool.TakeWarm(fids[f]);
        std::unique_ptr<FunctionInstance> b = ref.TakeWarm(fids[f]);
        ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
        if (a != nullptr) {
          ASSERT_EQ(a->invocations, b->invocations) << "step " << step;
        }
      } else if (roll < 62) {
        EXPECT_EQ(pool.EvictLru(), ref.EvictLru());
      } else if (roll < 66) {
        EXPECT_EQ(pool.EvictFnLru(fids[f]), ref.EvictFnLru(fids[f]));
      } else if (roll < 70) {
        EXPECT_EQ(pool.EvictHotLru(), ref.EvictHotLru());
      } else if (roll < 80) {
        if (pool.size() > 0) {
          const size_t rank = rng.NextBounded(pool.size());
          const DensityTier tier = tiers[rng.NextBounded(3)];
          const uint64_t footprint = 4096 * rng.NextBounded(16);
          size_t i = 0;
          uint32_t chosen = KeepAlivePool::kNoSlot;
          pool.ForEachLru([&](uint32_t slot, FunctionInstance&) {
            if (i++ == rank) {
              chosen = slot;
            }
          });
          pool.InstanceAt(chosen).density_tier = tier;
          pool.InstanceAt(chosen).footprint_bytes = footprint;
          pool.Retier(chosen, tier, footprint);
          ref.RetierAt(rank, tier, footprint);
        }
      } else if (roll < 99) {
        EXPECT_EQ(pool.ExpireStale(now), ref.ExpireStale(now)) << "step " << step;
      } else if (rng.NextBool(0.3)) {
        pool.Drop();
        ref.Drop();
      }
      ASSERT_EQ(evicted, ref_evicted) << "evict callbacks diverged at step " << step;
      ExpectSamePool(pool, ref, fids);
      if (HasFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << step;
      }
    }
    EXPECT_GT(evicted.size(), 500u);
  }
}

// The expiry index holds exactly the parked entries: taking an instance
// removes its index entry at once, so 100k park/take cycles whose TTL
// outlives the run leave no stale entries behind (a lazily-deleted heap
// would hold one per cycle).
TEST(FlatStoreEquivalenceTest, KeepAliveExpiryIndexStaysBounded) {
  const std::string fn = "ka-bound-fn";
  KeepAlivePool pool(SimDuration::Minutes(10), [](std::unique_ptr<FunctionInstance>) {});
  SimTime now;
  for (int i = 0; i < 16; ++i) {
    pool.Put(std::make_unique<FunctionInstance>(fn, nullptr), now);
  }
  for (int cycle = 0; cycle < 100000; ++cycle) {
    now += SimDuration::Micros(10);
    pool.Put(std::make_unique<FunctionInstance>(fn, nullptr), now);
    ASSERT_NE(pool.TakeWarm(fn), nullptr);
    pool.ExpireStale(now);
    ASSERT_LE(pool.expiry_index_size(), pool.size()) << "cycle " << cycle;
  }
  EXPECT_EQ(pool.size(), 16u);
  EXPECT_EQ(pool.expiry_index_size(), 16u);
}

}  // namespace
}  // namespace trenv
