#include "src/core/no_reliability.h"

#include <gtest/gtest.h>

#include "src/core/testbed.h"

namespace rmp {
namespace {

std::unique_ptr<Testbed> MakeBed(int servers, uint64_t capacity, bool disk_fallback = false) {
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = servers;
  params.server_capacity_pages = capacity;
  params.no_reliability_disk_fallback = disk_fallback;
  params.pager.alloc_extent_pages = 8;
  auto testbed = Testbed::Create(params);
  EXPECT_TRUE(testbed.ok()) << testbed.status().ToString();
  return std::move(*testbed);
}

PageBuffer Patterned(uint64_t seed) {
  PageBuffer page;
  FillPattern(page.span(), seed);
  return page;
}

TEST(NoReliabilityTest, RoundTripManyPages) {
  auto bed = MakeBed(2, 256);
  PagingBackend& backend = bed->backend();
  for (uint64_t p = 0; p < 100; ++p) {
    ASSERT_TRUE(backend.PageOut(0, p, Patterned(p).span()).ok());
  }
  PageBuffer in;
  for (uint64_t p = 0; p < 100; ++p) {
    ASSERT_TRUE(backend.PageIn(0, p, in.span()).ok());
    EXPECT_TRUE(CheckPattern(in.span(), p)) << "page " << p;
  }
  EXPECT_EQ(backend.stats().pageouts, 100);
  EXPECT_EQ(backend.stats().pageins, 100);
  // Exactly one transfer per operation.
  EXPECT_EQ(backend.stats().page_transfers, 200);
}

TEST(NoReliabilityTest, PagesSpreadAcrossServers) {
  auto bed = MakeBed(2, 256);
  for (uint64_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok());
  }
  EXPECT_GT(bed->server(0).live_pages(), 0u);
  EXPECT_GT(bed->server(1).live_pages(), 0u);
}

TEST(NoReliabilityTest, OverwriteStaysInPlace) {
  auto bed = MakeBed(2, 256);
  ASSERT_TRUE(bed->backend().PageOut(0, 7, Patterned(1).span()).ok());
  const uint64_t total_before = bed->server(0).live_pages() + bed->server(1).live_pages();
  ASSERT_TRUE(bed->backend().PageOut(0, 7, Patterned(2).span()).ok());
  const uint64_t total_after = bed->server(0).live_pages() + bed->server(1).live_pages();
  EXPECT_EQ(total_before, total_after);
  PageBuffer in;
  ASSERT_TRUE(bed->backend().PageIn(0, 7, in.span()).ok());
  EXPECT_TRUE(CheckPattern(in.span(), 2));
}

TEST(NoReliabilityTest, PageInOfUnknownPageIsNotFound) {
  auto bed = MakeBed(1, 64);
  PageBuffer in;
  EXPECT_EQ(bed->backend().PageIn(0, 3, in.span()).status().code(), ErrorCode::kNotFound);
}

TEST(NoReliabilityTest, FullServerTriggersSpillToNext) {
  auto bed = MakeBed(2, 16);  // 16 pages per server.
  for (uint64_t p = 0; p < 30; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok()) << p;
  }
  EXPECT_GE(bed->server(0).live_pages() + bed->server(1).live_pages(), 30u);
}

TEST(NoReliabilityTest, ClusterFullWithoutDiskIsNoSpace) {
  auto bed = MakeBed(1, 8, /*disk_fallback=*/false);
  uint64_t p = 0;
  Status last = OkStatus();
  for (; p < 20; ++p) {
    auto done = bed->backend().PageOut(0, p, Patterned(p).span());
    if (!done.ok()) {
      last = done.status();
      break;
    }
  }
  EXPECT_EQ(last.code(), ErrorCode::kNoSpace);
}

TEST(NoReliabilityTest, ClusterFullFallsBackToDisk) {
  auto bed = MakeBed(1, 8, /*disk_fallback=*/true);
  NoReliabilityBackend* backend = bed->no_reliability();
  for (uint64_t p = 0; p < 30; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok()) << p;
  }
  EXPECT_GT(backend->pages_on_disk(), 0);
  // Every page still readable — some from disk.
  PageBuffer in;
  for (uint64_t p = 0; p < 30; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(in.span(), p)) << p;
  }
}

TEST(NoReliabilityTest, DiskPagesDrainBackToServers) {
  auto bed = MakeBed(1, 24, /*disk_fallback=*/true);
  NoReliabilityBackend* backend = bed->no_reliability();
  // Native processes squeeze the server to 8 pages, spilling to disk.
  bed->server(0).SetNativeLoad(2.0 / 3.0);
  for (uint64_t p = 0; p < 16; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok());
  }
  ASSERT_GT(backend->pages_on_disk(), 0);
  // The native load drops; the server has free memory again (§2.1).
  bed->server(0).SetNativeLoad(0.0);
  TimeNs now = 0;
  auto moved = backend->DrainDiskToServers(&now, /*max_pages=*/100);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_GT(*moved, 0);
  PageBuffer in;
  for (uint64_t p = 0; p < 16; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok());
    EXPECT_TRUE(CheckPattern(in.span(), p));
  }
}

TEST(NoReliabilityTest, MigrationMovesPagesOffLoadedServer) {
  auto bed = MakeBed(2, 256);
  NoReliabilityBackend* backend = bed->no_reliability();
  for (uint64_t p = 0; p < 40; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok());
  }
  ASSERT_GT(bed->server(0).live_pages(), 0u);
  TimeNs now = 0;
  ASSERT_TRUE(backend->MigrateFrom(0, &now).ok());
  // All pages still readable and server 0 drained of *live* mappings (the
  // freed slots may remain allocated server-side until reused).
  PageBuffer in;
  for (uint64_t p = 0; p < 40; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok());
    EXPECT_TRUE(CheckPattern(in.span(), p));
  }
  EXPECT_GE(bed->server(1).live_pages(), 40u);
}

TEST(NoReliabilityTest, FailedMigrateStepKeepsEveryPage) {
  // Both servers full and no disk: the drain has nowhere to put a page. The
  // failed step must leave every page where it was, not drop the only copy.
  auto bed = MakeBed(2, 32);
  NoReliabilityBackend* backend = bed->no_reliability();
  uint64_t pages = 0;
  for (; pages < 64; ++pages) {
    if (!backend->PageOut(0, pages, Patterned(pages).span()).ok()) {
      break;
    }
  }
  ASSERT_GT(bed->server(0).live_pages(), 4u);
  TimeNs now = 0;
  EXPECT_EQ(backend->MigrateStep(0, 4, &now).status().code(), ErrorCode::kNoSpace);
  PageBuffer in;
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_TRUE(backend->PageIn(now, p, in.span()).ok()) << "page " << p;
    EXPECT_TRUE(CheckPattern(in.span(), p)) << "page " << p;
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(backend->PagesOn(i), bed->server(i).live_pages()) << "server " << i;
  }
}

TEST(NoReliabilityTest, ServerCrashLosesPages) {
  auto bed = MakeBed(2, 256);
  for (uint64_t p = 0; p < 20; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok());
  }
  bed->CrashServer(0);
  // Some pages are gone — the §2.2 motivation for the reliable policies.
  PageBuffer in;
  int lost = 0;
  for (uint64_t p = 0; p < 20; ++p) {
    if (!bed->backend().PageIn(0, p, in.span()).ok()) {
      ++lost;
    }
  }
  EXPECT_GT(lost, 0);
}

TEST(NoReliabilityTest, OverwriteRelocatesWhenHolderCrashed) {
  auto bed = MakeBed(2, 256);
  ASSERT_TRUE(bed->backend().PageOut(0, 1, Patterned(1).span()).ok());
  // Find who holds page 1 and crash it.
  const size_t holder = bed->server(0).live_pages() > 0 ? 0 : 1;
  bed->CrashServer(holder);
  // A fresh pageout of the same page succeeds on the surviving server.
  ASSERT_TRUE(bed->backend().PageOut(0, 1, Patterned(2).span()).ok());
  PageBuffer in;
  ASSERT_TRUE(bed->backend().PageIn(0, 1, in.span()).ok());
  EXPECT_TRUE(CheckPattern(in.span(), 2));
}

}  // namespace
}  // namespace rmp
