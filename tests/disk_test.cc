#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/disk/disk_backend.h"
#include "src/disk/disk_model.h"
#include "src/disk/disk_store.h"
#include "src/util/bytes.h"

namespace rmp {
namespace {

// --- DiskModel -------------------------------------------------------------

TEST(DiskModelTest, SequentialReadsStream) {
  DiskModel disk;
  disk.Access(0, 1, /*is_write=*/false);
  const DurationNs sequential = disk.Access(1, 1, /*is_write=*/false);
  // Track-buffer continuation: controller + transfer only, ~7 ms.
  EXPECT_LT(sequential, Millis(8));
  EXPECT_GT(sequential, Millis(6));
}

TEST(DiskModelTest, WritesPayRotationEvenWhenSequential) {
  DiskModel disk;
  disk.Access(0, 1, /*is_write=*/true);
  const DurationNs sequential_write = disk.Access(1, 1, /*is_write=*/true);
  // No write cache on the RZ55: ~8.3 ms rotation + ~6.6 ms transfer.
  EXPECT_GT(sequential_write, Millis(14));
  EXPECT_LT(sequential_write, Millis(17));
}

TEST(DiskModelTest, RandomAccessPaysSeekAndRotation) {
  DiskModel disk;
  disk.Access(0, 1, false);
  const DurationNs far = disk.Access(20000, 1, false);
  EXPECT_GT(far, Millis(25));
}

TEST(DiskModelTest, AverageRandomPageNearPaperFigure) {
  DiskModel disk;
  // 16 ms average seek + 8.3 ms rotation + 6.6 ms transfer + overhead ~ 31 ms.
  EXPECT_NEAR(ToMillis(disk.AverageRandomPageTime()), 31.0, 2.0);
}

TEST(DiskModelTest, HeadMovesWithAccesses) {
  DiskModel disk;
  disk.Access(100, 4, false);
  EXPECT_EQ(disk.head_position(), 104u);
}

TEST(DiskModelTest, SeekCountsOnlyRealMoves) {
  DiskModel disk;
  disk.Access(0, 1, false);
  disk.Access(1, 1, false);      // Within window: no seek.
  disk.Access(30000, 1, false);  // Far: seek.
  EXPECT_EQ(disk.seeks(), 1);
  EXPECT_EQ(disk.requests(), 3);
}

TEST(DiskModelTest, SeekTimeGrowsWithDistance) {
  DiskModel near_disk;
  DiskModel far_disk;
  near_disk.set_head_position(0);
  far_disk.set_head_position(0);
  const DurationNs near_time = near_disk.Access(500, 1, false);
  const DurationNs far_time = far_disk.Access(39000, 1, false);
  EXPECT_LT(near_time, far_time);
}

TEST(DiskModelTest, StatsReset) {
  DiskModel disk;
  disk.Access(9999, 1, true);
  disk.ResetStats();
  EXPECT_EQ(disk.requests(), 0);
  EXPECT_EQ(disk.busy_time(), 0);
}

// --- DiskStore ---------------------------------------------------------------

TEST(DiskStoreTest, WriteReadRoundTrip) {
  auto store = DiskStore::Create(16);
  ASSERT_TRUE(store.ok());
  PageBuffer page;
  FillPattern(page.span(), 5);
  ASSERT_TRUE(store->Write(3, page.span()).ok());
  PageBuffer out;
  ASSERT_TRUE(store->Read(3, out.span()).ok());
  EXPECT_EQ(out, page);
}

TEST(DiskStoreTest, UnwrittenBlocksReadZero) {
  auto store = DiskStore::Create(4);
  ASSERT_TRUE(store.ok());
  PageBuffer out;
  FillPattern(out.span(), 1);
  ASSERT_TRUE(store->Read(0, out.span()).ok());
  EXPECT_TRUE(out.IsZero());
}

TEST(DiskStoreTest, OutOfRangeRejected) {
  auto store = DiskStore::Create(4);
  ASSERT_TRUE(store.ok());
  PageBuffer page;
  EXPECT_FALSE(store->Write(4, page.span()).ok());
  EXPECT_FALSE(store->Read(4, page.span()).ok());
}

TEST(DiskStoreTest, WrongSizeRejected) {
  auto store = DiskStore::Create(4);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> tiny(7);
  EXPECT_FALSE(store->Write(0, std::span<const uint8_t>(tiny)).ok());
}

TEST(DiskStoreTest, BumpAllocationIsSequential) {
  auto store = DiskStore::Create(64);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*store->Allocate(4), 0u);
  EXPECT_EQ(*store->Allocate(4), 4u);
  EXPECT_EQ(store->allocated_blocks(), 8u);
}

TEST(DiskStoreTest, FreeListReusedAfterExhaustion) {
  auto store = DiskStore::Create(8);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Allocate(8).ok());
  EXPECT_EQ(store->Allocate(1).status().code(), ErrorCode::kNoSpace);
  ASSERT_TRUE(store->Free(2, 2).ok());
  auto again = store->Allocate(2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 2u);
}

TEST(DiskStoreTest, AdjacentFreesCoalesce) {
  auto store = DiskStore::Create(8);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Allocate(8).ok());
  ASSERT_TRUE(store->Free(0, 2).ok());
  ASSERT_TRUE(store->Free(2, 2).ok());
  // A 4-block run must now exist.
  auto run = store->Allocate(4);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*run, 0u);
}

TEST(DiskStoreTest, DoubleFreeDebitsOnceAndNeverRegrantsABlockTwice) {
  auto store = DiskStore::Create(8);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Allocate(8).ok());
  ASSERT_TRUE(store->Free(0, 2).ok());
  ASSERT_TRUE(store->Free(0, 2).ok());  // Repeated: frees nothing new.
  ASSERT_TRUE(store->Free(4, 2).ok());
  EXPECT_EQ(store->allocated_blocks(), 4u);
  auto x = store->Allocate(2);
  auto y = store->Allocate(2);
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*x, 0u);
  EXPECT_EQ(*y, 4u);
  EXPECT_EQ(store->allocated_blocks(), 8u);
  EXPECT_EQ(store->Allocate(1).status().code(), ErrorCode::kNoSpace);
}

TEST(DiskStoreTest, FreeBeyondBumpPointerRejected) {
  auto store = DiskStore::Create(8);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Allocate(4).ok());
  // Never-granted blocks are already free; listing them would grant them twice.
  EXPECT_EQ(store->Free(3, 2).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(store->Free(~uint64_t{0} - 1, 4).code(), ErrorCode::kInvalidArgument);  // Wraps.
  EXPECT_EQ(store->allocated_blocks(), 4u);
}

TEST(DiskStoreTest, ScatteredFreesCoalesceSoTheExtentIsReusedWhole) {
  auto store = DiskStore::Create(16);
  ASSERT_TRUE(store.ok());
  auto extent = store->Allocate(16);
  ASSERT_TRUE(extent.ok());
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(store->Free(*extent + (i * 7) % 16, 1).ok());
  }
  EXPECT_EQ(store->allocated_blocks(), 0u);
  auto again = store->Allocate(16);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *extent);
}

// Frees into a 16-block extent, and the one free run they must leave behind.
struct FreeRunCase {
  const char* name;
  std::vector<std::pair<uint64_t, uint64_t>> frees;
  uint64_t run_start;
  uint64_t run_length;
};

const FreeRunCase kFreeRunCases[] = {
    {"inside a run", {{4, 4}, {5, 2}}, 4, 4},
    {"at the left edge", {{4, 4}, {3, 1}}, 3, 5},
    {"at the right edge", {{4, 4}, {8, 2}}, 4, 6},
    {"over both edges", {{4, 4}, {2, 8}}, 2, 8},
    {"bridging two runs", {{2, 3}, {9, 3}, {5, 4}}, 2, 10},
};

TEST(DiskStoreTest, FreesMergeIntoTheExpectedRun) {
  for (const FreeRunCase& c : kFreeRunCases) {
    SCOPED_TRACE(c.name);
    auto store = DiskStore::Create(16);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Allocate(16).ok());
    for (const auto& [block, count] : c.frees) {
      ASSERT_TRUE(store->Free(block, count).ok());
    }
    EXPECT_EQ(store->allocated_blocks(), 16u - c.run_length);
    // The whole run is one first fit, and nothing else was freed.
    auto run = store->Allocate(c.run_length);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(*run, c.run_start);
    EXPECT_EQ(store->Allocate(1).status().code(), ErrorCode::kNoSpace);
  }
}

TEST(DiskStoreTest, MoveTransfersOwnership) {
  auto store = DiskStore::Create(4);
  ASSERT_TRUE(store.ok());
  PageBuffer page;
  FillPattern(page.span(), 9);
  ASSERT_TRUE(store->Write(1, page.span()).ok());
  DiskStore moved = std::move(*store);
  PageBuffer out;
  ASSERT_TRUE(moved.Read(1, out.span()).ok());
  EXPECT_EQ(out, page);
}

// --- DiskBackend -------------------------------------------------------------

TEST(DiskBackendTest, PageRoundTripWithRealBytes) {
  auto backend = DiskBackend::Create(DiskParams(), 64);
  ASSERT_TRUE(backend.ok());
  PageBuffer page;
  FillPattern(page.span(), 12);
  auto out_done = backend->PageOut(0, /*page_id=*/7, page.span());
  ASSERT_TRUE(out_done.ok());
  PageBuffer in;
  auto in_done = backend->PageIn(*out_done, 7, in.span());
  ASSERT_TRUE(in_done.ok());
  EXPECT_EQ(in, page);
  EXPECT_EQ(backend->stats().pageouts, 1);
  EXPECT_EQ(backend->stats().pageins, 1);
}

TEST(DiskBackendTest, PageInOfUnknownPageFails) {
  auto backend = DiskBackend::Create(DiskParams(), 64);
  ASSERT_TRUE(backend.ok());
  PageBuffer out;
  EXPECT_EQ(backend->PageIn(0, 3, out.span()).status().code(), ErrorCode::kNotFound);
}

TEST(DiskBackendTest, OverwriteKeepsSameBlock) {
  auto backend = DiskBackend::Create(DiskParams(), 64);
  ASSERT_TRUE(backend.ok());
  PageBuffer v1;
  PageBuffer v2;
  FillPattern(v1.span(), 1);
  FillPattern(v2.span(), 2);
  ASSERT_TRUE(backend->PageOut(0, 5, v1.span()).ok());
  ASSERT_TRUE(backend->PageOut(0, 5, v2.span()).ok());
  EXPECT_EQ(backend->store().allocated_blocks(), 1u);
  PageBuffer in;
  ASSERT_TRUE(backend->PageIn(0, 5, in.span()).ok());
  EXPECT_EQ(in, v2);
}

TEST(DiskBackendTest, WriteBehindUnblocksBeforeArmFinishes) {
  DiskParams params;
  params.writeback_lag = Millis(100);
  auto backend = DiskBackend::Create(params, 64);
  ASSERT_TRUE(backend.ok());
  PageBuffer page;
  const auto done = backend->PageOut(0, 1, page.span());
  ASSERT_TRUE(done.ok());
  // The arm is busy past the unblock time.
  EXPECT_LE(*done, backend->arm().busy_until());
  EXPECT_EQ(*done, 0);  // Fully absorbed by the 100 ms lag window.
}

TEST(DiskBackendTest, PageInQueuesBehindPendingWrites) {
  DiskParams params;
  params.writeback_lag = Seconds(10);  // Writes never block.
  auto backend = DiskBackend::Create(params, 256);
  ASSERT_TRUE(backend.ok());
  PageBuffer page;
  for (uint64_t p = 0; p < 20; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, page.span()).ok());
  }
  const TimeNs arm_busy_until = backend->arm().busy_until();
  PageBuffer in;
  auto done = backend->PageIn(0, 0, in.span());
  ASSERT_TRUE(done.ok());
  EXPECT_GT(*done, arm_busy_until);  // Waited for the write backlog.
}

TEST(DiskBackendTest, SequentialPageoutsLandOnAdjacentBlocks) {
  auto backend = DiskBackend::Create(DiskParams(), 64);
  ASSERT_TRUE(backend.ok());
  PageBuffer page;
  ASSERT_TRUE(backend->PageOut(0, 100, page.span()).ok());
  ASSERT_TRUE(backend->PageOut(0, 200, page.span()).ok());
  ASSERT_TRUE(backend->PageOut(0, 300, page.span()).ok());
  // Bump allocation: pageout order defines layout, so the model sees
  // sequential writes (the OSF/1 swap behaviour the timing relies on).
  EXPECT_EQ(backend->model().seeks(), 0);
}

}  // namespace
}  // namespace rmp
