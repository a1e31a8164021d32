#include "src/server/memory_server.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace rmp {
namespace {

MemoryServerParams SmallServer(uint64_t capacity = 64) {
  MemoryServerParams params;
  params.name = "test-server";
  params.capacity_pages = capacity;
  return params;
}

TEST(MemoryServerTest, AllocateGrantsDistinctRuns) {
  MemoryServer server(SmallServer());
  auto a = server.Allocate(8);
  auto b = server.Allocate(8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(server.free_pages(), 64u - 16u);
}

TEST(MemoryServerTest, DeniesBeyondCapacity) {
  MemoryServer server(SmallServer(10));
  EXPECT_TRUE(server.Allocate(10).ok());
  auto denied = server.Allocate(1);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), ErrorCode::kNoSpace);
  EXPECT_EQ(server.stats().denials, 1);
}

TEST(MemoryServerTest, ZeroPageAllocationRejected) {
  MemoryServer server(SmallServer());
  EXPECT_EQ(server.Allocate(0).status().code(), ErrorCode::kInvalidArgument);
}

TEST(MemoryServerTest, StoreAndLoadRoundTrip) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(1);
  PageBuffer page;
  FillPattern(page.span(), 5);
  ASSERT_TRUE(server.Store(*slot, page.span()).ok());
  auto loaded = server.Load(*slot);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, page);
}

TEST(MemoryServerTest, LoadOfEmptySlotIsNotFound) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(1);
  EXPECT_EQ(server.Load(*slot).status().code(), ErrorCode::kNotFound);
}

TEST(MemoryServerTest, StoreToUnallocatedSlotRejected) {
  MemoryServer server(SmallServer());
  PageBuffer page;
  EXPECT_EQ(server.Store(1000, page.span()).code(), ErrorCode::kInvalidArgument);
}

TEST(MemoryServerTest, StoreWrongSizeRejected) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(1);
  std::vector<uint8_t> tiny(16, 0);
  EXPECT_EQ(server.Store(*slot, std::span<const uint8_t>(tiny)).code(),
            ErrorCode::kInvalidArgument);
}

TEST(MemoryServerTest, FreeReleasesCapacityAndPages) {
  MemoryServer server(SmallServer(8));
  auto slot = server.Allocate(8);
  PageBuffer page;
  FillPattern(page.span(), 1);
  ASSERT_TRUE(server.Store(*slot, page.span()).ok());
  ASSERT_TRUE(server.Free(*slot, 8).ok());
  EXPECT_EQ(server.free_pages(), 8u);
  EXPECT_FALSE(server.Holds(*slot));
  // Freed slots are reused.
  auto again = server.Allocate(8);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *slot);
}

TEST(MemoryServerTest, DoubleFreeCreditsOnceAndNeverRegrantsASlotTwice) {
  MemoryServer server(SmallServer(64));
  auto a = server.Allocate(4);
  auto b = server.Allocate(4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(server.Allocate(8).ok());
  const uint64_t free_before = server.free_pages();
  ASSERT_TRUE(server.Free(*a, 4).ok());
  ASSERT_TRUE(server.Free(*a, 4).ok());  // Repeated: frees nothing new.
  EXPECT_EQ(server.free_pages(), free_before + 4);
  auto x = server.Allocate(4);
  auto y = server.Allocate(4);
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*x, *a);
  EXPECT_TRUE(*y + 4 <= *x || *x + 4 <= *y) << "x=" << *x << " y=" << *y;
  EXPECT_EQ(server.free_pages(), free_before - 4);
}

TEST(MemoryServerTest, FreeRangeThatWrapsIsRejected) {
  MemoryServer server(SmallServer(64));
  ASSERT_TRUE(server.Allocate(4).ok());
  // first_slot + pages wraps to 2, inside the granted slots.
  EXPECT_EQ(server.Free(~uint64_t{0} - 1, 4).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(server.free_pages(), 60u);
  auto next = server.Allocate(4);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 4u);
}

TEST(MemoryServerTest, ScatteredFreesCoalesceSoTheExtentIsReusedWhole) {
  MemoryServer server(SmallServer(64));
  auto extent = server.Allocate(16);
  ASSERT_TRUE(extent.ok());
  auto cap = server.Allocate(1);  // Keeps the extent off the bump pointer.
  ASSERT_TRUE(cap.ok());
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(server.Free(*extent + (i * 7) % 16, 1).ok());
  }
  EXPECT_EQ(server.free_pages(), 63u);
  // Reused from the merged run, not carved from fresh slots above the cap.
  auto again = server.Allocate(16);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *extent);
  EXPECT_EQ(*server.Allocate(1), *cap + 1);
}

// Frees into a 16-slot extent (offsets relative to its start), and the one
// free run they must leave behind.
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

TEST(MemoryServerTest, FreesMergeIntoTheExpectedRun) {
  for (const FreeRunCase& c : kFreeRunCases) {
    SCOPED_TRACE(c.name);
    MemoryServer server(SmallServer(64));
    auto extent = server.Allocate(16);
    ASSERT_TRUE(extent.ok());
    auto cap = server.Allocate(1);
    ASSERT_TRUE(cap.ok());
    for (const auto& [offset, pages] : c.frees) {
      ASSERT_TRUE(server.Free(*extent + offset, pages).ok());
    }
    EXPECT_EQ(server.free_pages(), 64u - 17u + c.run_length);
    // The whole run is one first fit...
    auto run = server.Allocate(c.run_length);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(*run, *extent + c.run_start);
    // ...and nothing else was freed: the next slot comes off the bump pointer.
    EXPECT_EQ(*server.Allocate(1), *cap + 1);
  }
}

TEST(MemoryServerTest, AdviseStopNearCapacity) {
  MemoryServerParams params = SmallServer(100);
  params.advise_stop_fraction = 0.9;
  MemoryServer server(params);
  EXPECT_FALSE(server.ShouldAdviseStop());
  ASSERT_TRUE(server.Allocate(90).ok());
  EXPECT_TRUE(server.ShouldAdviseStop());
}

TEST(MemoryServerTest, NativeLoadShrinksCapacity) {
  MemoryServer server(SmallServer(100));
  EXPECT_EQ(server.capacity_pages(), 100u);
  server.SetNativeLoad(0.5);
  EXPECT_EQ(server.capacity_pages(), 50u);
  server.SetNativeLoad(1.0);
  EXPECT_EQ(server.capacity_pages(), 0u);
  EXPECT_TRUE(server.ShouldAdviseStop());
}

TEST(MemoryServerTest, CrashDropsEverything) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(4);
  PageBuffer page;
  FillPattern(page.span(), 2);
  ASSERT_TRUE(server.Store(*slot, page.span()).ok());
  server.Crash();
  EXPECT_TRUE(server.crashed());
  EXPECT_EQ(server.live_pages(), 0u);
  EXPECT_EQ(server.Load(*slot).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server.Store(*slot, page.span()).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server.Allocate(1).status().code(), ErrorCode::kUnavailable);
}

TEST(MemoryServerTest, RestartComesBackEmpty) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(4);
  server.Crash();
  server.Restart();
  EXPECT_FALSE(server.crashed());
  EXPECT_EQ(server.live_pages(), 0u);
  EXPECT_EQ(server.free_pages(), 64u);  // All capacity reclaimed.
  (void)slot;
}

TEST(MemoryServerTest, DeltaStoreReturnsOldXorNew) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(1);
  PageBuffer v1;
  PageBuffer v2;
  FillPattern(v1.span(), 10);
  FillPattern(v2.span(), 11);
  // First store: old is the zero page, so the delta equals v1.
  auto delta1 = server.DeltaStore(*slot, v1.span());
  ASSERT_TRUE(delta1.ok());
  EXPECT_EQ(*delta1, v1);
  // Second store: delta = v1 ^ v2.
  auto delta2 = server.DeltaStore(*slot, v2.span());
  ASSERT_TRUE(delta2.ok());
  PageBuffer expected(v1.span());
  expected.XorWith(v2.span());
  EXPECT_EQ(*delta2, expected);
  EXPECT_EQ(*server.Load(*slot), v2);
}

TEST(MemoryServerTest, XorMergeFoldsIntoStored) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(1);
  PageBuffer a;
  PageBuffer b;
  FillPattern(a.span(), 20);
  FillPattern(b.span(), 21);
  ASSERT_TRUE(server.XorMerge(*slot, a.span()).ok());  // Zero ^ a = a.
  ASSERT_TRUE(server.XorMerge(*slot, b.span()).ok());
  PageBuffer expected(a.span());
  expected.XorWith(b.span());
  EXPECT_EQ(*server.Load(*slot), expected);
}

TEST(MemoryServerTest, StoreBatchAndPageInBatchRoundTrip) {
  MemoryServer server(SmallServer());
  auto base = server.Allocate(4);
  ASSERT_TRUE(base.ok());
  std::vector<uint64_t> slots;
  std::vector<uint8_t> pages;
  for (uint64_t i = 0; i < 4; ++i) {
    slots.push_back(*base + i);
    PageBuffer page;
    FillPattern(page.span(), 70 + i);
    pages.insert(pages.end(), page.span().begin(), page.span().end());
  }
  uint64_t stored = 0;
  ASSERT_TRUE(server.StoreBatch(slots, pages, &stored).ok());
  EXPECT_EQ(stored, 4u);
  EXPECT_EQ(server.stats().pageouts_served, 4);

  const Message reply = server.Handle(MakePageInBatch(1, slots));
  ASSERT_EQ(reply.status_code(), ErrorCode::kOk);
  EXPECT_EQ(reply.count, 4u);
  EXPECT_EQ(reply.payload, pages);
  EXPECT_EQ(server.stats().pageins_served, 4);
}

TEST(MemoryServerTest, StoreBatchStopsAtFirstBadSlot) {
  MemoryServer server(SmallServer());
  auto base = server.Allocate(2);
  ASSERT_TRUE(base.ok());
  const std::vector<uint64_t> slots = {*base, 1000, *base + 1};
  std::vector<uint8_t> pages(3 * kPageSize, 0xcd);
  uint64_t stored = 0;
  const Status status = server.StoreBatch(slots, pages, &stored);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(stored, 1u);  // Also the failing index.
  EXPECT_TRUE(server.Holds(*base));
  EXPECT_FALSE(server.Holds(*base + 1));
}

TEST(MemoryServerTest, SingleShardConfigKeepsSemantics) {
  MemoryServerParams params = SmallServer();
  params.store_shards = 1;
  MemoryServer server(params);
  EXPECT_EQ(server.shard_count(), 1u);
  auto slot = server.Allocate(2);
  PageBuffer page;
  FillPattern(page.span(), 9);
  ASSERT_TRUE(server.Store(*slot, page.span()).ok());
  EXPECT_EQ(*server.Load(*slot), page);
  ASSERT_TRUE(server.Free(*slot, 2).ok());
  EXPECT_FALSE(server.Holds(*slot));
}

TEST(MemoryServerTest, FramesRecycledAcrossFreeAndRealloc) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(8);
  PageBuffer page;
  for (uint64_t i = 0; i < 8; ++i) {
    FillPattern(page.span(), i);
    ASSERT_TRUE(server.Store(*slot + i, page.span()).ok());
  }
  ASSERT_TRUE(server.Free(*slot, 8).ok());
  // The recycled frames must not leak their old bytes through the
  // absent-slot-reads-as-zero parity primitives.
  auto again = server.Allocate(8);
  ASSERT_TRUE(again.ok());
  PageBuffer delta;
  FillPattern(delta.span(), 99);
  ASSERT_TRUE(server.XorMerge(*again, delta.span()).ok());
  EXPECT_EQ(*server.Load(*again), delta);  // zero ^ delta, not stale ^ delta.
}

TEST(MemoryServerTest, LiveSlotsSorted) {
  MemoryServer server(SmallServer());
  auto slot = server.Allocate(5);
  PageBuffer page;
  ASSERT_TRUE(server.Store(*slot + 3, page.span()).ok());
  ASSERT_TRUE(server.Store(*slot + 1, page.span()).ok());
  const auto slots = server.LiveSlots();
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0], *slot + 1);
  EXPECT_EQ(slots[1], *slot + 3);
}

// Wire-protocol dispatch.
TEST(MemoryServerHandleTest, AllocAndDenial) {
  MemoryServer server(SmallServer(4));
  Message reply = server.Handle(MakeAllocRequest(1, 4));
  EXPECT_EQ(reply.type, MessageType::kAllocReply);
  EXPECT_EQ(reply.status_code(), ErrorCode::kOk);
  EXPECT_EQ(reply.count, 4u);
  reply = server.Handle(MakeAllocRequest(2, 1));
  EXPECT_EQ(reply.status_code(), ErrorCode::kNoSpace);
}

TEST(MemoryServerHandleTest, PageOutInRoundTrip) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 1));
  PageBuffer page;
  FillPattern(page.span(), 30);
  const Message ack = server.Handle(MakePageOut(2, alloc.slot, page.span()));
  EXPECT_EQ(ack.type, MessageType::kPageOutAck);
  EXPECT_EQ(ack.status_code(), ErrorCode::kOk);
  const Message reply = server.Handle(MakePageIn(3, alloc.slot));
  EXPECT_EQ(reply.type, MessageType::kPageInReply);
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(reply.payload), 30));
}

TEST(MemoryServerHandleTest, LoadReport) {
  MemoryServer server(SmallServer(100));
  const Message report = server.Handle(MakeLoadQuery(1));
  EXPECT_EQ(report.type, MessageType::kLoadReport);
  EXPECT_EQ(report.count, 100u);
  EXPECT_EQ(report.aux, 100u);
  EXPECT_FALSE(report.advise_stop());
}

TEST(MemoryServerHandleTest, AdviseStopPiggybackedOnAck) {
  MemoryServerParams params = SmallServer(10);
  params.advise_stop_fraction = 0.5;
  MemoryServer server(params);
  const Message alloc = server.Handle(MakeAllocRequest(1, 6));
  PageBuffer page;
  const Message ack = server.Handle(MakePageOut(2, alloc.slot, page.span()));
  EXPECT_TRUE(ack.advise_stop());
}

TEST(MemoryServerHandleTest, UnknownRequestYieldsErrorReply) {
  MemoryServer server(SmallServer());
  Message bogus;
  bogus.type = MessageType::kAllocReply;  // A reply is not a valid request.
  bogus.request_id = 9;
  const Message reply = server.Handle(bogus);
  EXPECT_EQ(reply.type, MessageType::kErrorReply);
  EXPECT_EQ(reply.status_code(), ErrorCode::kProtocol);
  EXPECT_EQ(reply.request_id, 9u);
}

TEST(MemoryServerHandleTest, PageOutBatchRoundTrip) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 3));
  std::vector<uint64_t> slots;
  std::vector<uint8_t> pages;
  for (uint64_t i = 0; i < 3; ++i) {
    slots.push_back(alloc.slot + i);
    PageBuffer page;
    FillPattern(page.span(), 50 + i);
    pages.insert(pages.end(), page.span().begin(), page.span().end());
  }
  const Message ack = server.Handle(MakePageOutBatch(2, slots, pages));
  EXPECT_EQ(ack.type, MessageType::kPageOutBatchAck);
  EXPECT_EQ(ack.status_code(), ErrorCode::kOk);
  EXPECT_EQ(ack.count, 3u);

  const Message reply = server.Handle(MakePageInBatch(3, slots));
  EXPECT_EQ(reply.type, MessageType::kPageInBatchReply);
  ASSERT_EQ(reply.status_code(), ErrorCode::kOk);
  ASSERT_TRUE(ValidateBatch(reply).ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(CheckPattern(BatchPage(reply, i), 50 + i)) << i;
  }
}

TEST(MemoryServerHandleTest, PageOutBatchReportsFailingIndex) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 1));
  const std::vector<uint64_t> slots = {alloc.slot, 5000};
  std::vector<uint8_t> pages(2 * kPageSize, 0xee);
  const Message ack = server.Handle(MakePageOutBatch(2, slots, pages));
  EXPECT_EQ(ack.type, MessageType::kPageOutBatchAck);
  EXPECT_EQ(ack.status_code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(ack.count, 1u);  // One page made it in.
  EXPECT_EQ(ack.aux, 1u);    // Entry 1 failed.
}

TEST(MemoryServerHandleTest, PageInBatchMissReportsFailingIndex) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 2));
  PageBuffer page;
  server.Handle(MakePageOut(2, alloc.slot, page.span()));
  const std::vector<uint64_t> slots = {alloc.slot, alloc.slot + 1};  // +1 never stored.
  const Message reply = server.Handle(MakePageInBatch(3, slots));
  EXPECT_EQ(reply.type, MessageType::kPageInBatchReply);
  EXPECT_EQ(reply.status_code(), ErrorCode::kNotFound);
  EXPECT_EQ(reply.aux, 1u);
  EXPECT_TRUE(reply.payload.empty());
}

TEST(MemoryServerHandleTest, MalformedBatchRejected) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 1));
  const std::vector<uint64_t> slots = {alloc.slot};
  Message bad = MakePageOutBatch(2, slots, std::vector<uint8_t>(kPageSize, 0));
  bad.count = 2;  // Lies about the entry count.
  const Message reply = server.Handle(bad);
  EXPECT_EQ(reply.type, MessageType::kErrorReply);
  EXPECT_EQ(reply.status_code(), ErrorCode::kProtocol);
}

TEST(MemoryServerHandleTest, StatsCount) {
  MemoryServer server(SmallServer());
  const Message alloc = server.Handle(MakeAllocRequest(1, 2));
  PageBuffer page;
  server.Handle(MakePageOut(2, alloc.slot, page.span()));
  server.Handle(MakePageIn(3, alloc.slot));
  EXPECT_EQ(server.stats().pageouts_served, 1);
  EXPECT_EQ(server.stats().pageins_served, 1);
  EXPECT_EQ(server.stats().allocations, 1);
  EXPECT_EQ(server.stats().bytes_stored, kPageSize);
}

}  // namespace
}  // namespace rmp
