#include "src/core/mirroring.h"

#include <gtest/gtest.h>

#include "src/core/fabric.h"
#include "src/core/testbed.h"
#include "src/net/ethernet_model.h"
#include "src/util/rng.h"

namespace rmp {
namespace {

std::unique_ptr<Testbed> MakeBed(int servers, uint64_t capacity = 512) {
  TestbedParams params;
  params.policy = Policy::kMirroring;
  params.data_servers = servers;
  params.server_capacity_pages = capacity;
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

TEST(MirroringTest, EveryPageoutCostsTwoTransfers) {
  auto bed = MakeBed(2);
  for (uint64_t p = 0; p < 20; ++p) {
    ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok());
  }
  EXPECT_EQ(bed->backend().stats().page_transfers, 40);
  EXPECT_EQ(bed->server(0).live_pages(), 20u);
  EXPECT_EQ(bed->server(1).live_pages(), 20u);
}

TEST(MirroringTest, ReplicasLandOnDistinctServers) {
  auto bed = MakeBed(3);
  MirroringBackend* backend = bed->mirroring();
  for (uint64_t p = 0; p < 30; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok());
  }
  EXPECT_EQ(backend->fully_replicated_pages(), 30);
}

TEST(MirroringTest, SurvivesEitherServerCrashing) {
  for (size_t crash_victim : {0u, 1u}) {
    auto bed = MakeBed(2);
    for (uint64_t p = 0; p < 20; ++p) {
      ASSERT_TRUE(bed->backend().PageOut(0, p, Patterned(p).span()).ok());
    }
    bed->CrashServer(crash_victim);
    PageBuffer in;
    for (uint64_t p = 0; p < 20; ++p) {
      ASSERT_TRUE(bed->backend().PageIn(0, p, in.span()).ok())
          << "page " << p << " after crash of " << crash_victim;
      EXPECT_TRUE(CheckPattern(in.span(), p));
    }
  }
}

TEST(MirroringTest, RecoverRestoresFullReplication) {
  auto bed = MakeBed(3);
  MirroringBackend* backend = bed->mirroring();
  for (uint64_t p = 0; p < 30; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok());
  }
  bed->CrashServer(0);
  // The client discovers the crash on first contact: read everything once
  // (reads succeed off the mirrors and mark the dead peer).
  PageBuffer probe;
  for (uint64_t p = 0; p < 30; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, probe.span()).ok());
  }
  EXPECT_LT(backend->fully_replicated_pages(), 30);
  TimeNs now = 0;
  ASSERT_TRUE(backend->Recover(0, &now).ok());
  EXPECT_EQ(backend->fully_replicated_pages(), 30);
  // A second crash (of a different server) is now survivable too.
  bed->CrashServer(1);
  PageBuffer in;
  for (uint64_t p = 0; p < 30; ++p) {
    ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok()) << p;
    EXPECT_TRUE(CheckPattern(in.span(), p));
  }
}

TEST(MirroringTest, OverwriteUpdatesBothReplicas) {
  auto bed = MakeBed(2);
  ASSERT_TRUE(bed->backend().PageOut(0, 5, Patterned(1).span()).ok());
  ASSERT_TRUE(bed->backend().PageOut(0, 5, Patterned(2).span()).ok());
  // Crash either server: the survivor must hold version 2.
  bed->CrashServer(0);
  PageBuffer in;
  ASSERT_TRUE(bed->backend().PageIn(0, 5, in.span()).ok());
  EXPECT_TRUE(CheckPattern(in.span(), 2));
}

TEST(MirroringTest, OverwriteAfterCrashRebuildsReplica) {
  auto bed = MakeBed(3);
  MirroringBackend* backend = bed->mirroring();
  ASSERT_TRUE(backend->PageOut(0, 5, Patterned(1).span()).ok());
  bed->CrashServer(0);
  // Overwriting re-establishes two live copies even though one holder died.
  ASSERT_TRUE(backend->PageOut(0, 5, Patterned(2).span()).ok());
  EXPECT_EQ(backend->fully_replicated_pages(), 1);
}

TEST(MirroringTest, FailedMigrateStepKeepsBothReplicas) {
  // Two servers: the mirror already holds the other copy, so a drain of
  // server 0 has no third server to move a replica to. The failed step must
  // leave both copies of every page in place.
  auto bed = MakeBed(2);
  MirroringBackend* backend = bed->mirroring();
  constexpr uint64_t kPages = 16;
  for (uint64_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(backend->PageOut(0, p, Patterned(p).span()).ok());
  }
  TimeNs now = 0;
  EXPECT_EQ(backend->MigrateStep(0, 4, &now).status().code(), ErrorCode::kNoSpace);
  PageBuffer in;
  for (uint64_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(backend->PageIn(now, p, in.span()).ok()) << "page " << p;
    EXPECT_TRUE(CheckPattern(in.span(), p)) << "page " << p;
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(backend->PagesOn(i), bed->server(i).live_pages()) << "server " << i;
  }
  EXPECT_EQ(backend->fully_replicated_pages(), static_cast<int64_t>(kPages));
}

TEST(MirroringTest, SingleServerCannotMirror) {
  auto bed = MakeBed(1);
  auto done = bed->backend().PageOut(0, 1, Patterned(1).span());
  EXPECT_FALSE(done.ok());
  EXPECT_EQ(done.status().code(), ErrorCode::kNoSpace);
}

TEST(MirroringTest, HalfTheMemoryIsWasted) {
  auto bed = MakeBed(2, /*capacity=*/32);
  // 2 servers x 32 pages but only ~32 distinct pages fit mirrored.
  uint64_t stored = 0;
  for (uint64_t p = 0; p < 64; ++p) {
    if (!bed->backend().PageOut(0, p, Patterned(p).span()).ok()) {
      break;
    }
    ++stored;
  }
  EXPECT_LE(stored, 32u);
  EXPECT_GE(stored, 24u);  // Extent granularity costs a little.
}

TEST(MirroringTest, MirroredPageoutOverlapsReplicaWrites) {
  // Both replica writes are issued before either is joined, and both are
  // charged from the same instant, so a mirrored pageout must finish in less
  // than two serialized single-copy writes.
  TestbedParams params;
  params.policy = Policy::kMirroring;
  params.data_servers = 3;
  params.server_capacity_pages = 512;
  params.pager.alloc_extent_pages = 8;
  auto network = std::make_shared<EthernetModel>();
  params.network = network;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto bed = std::move(*made);
  MirroringBackend* backend = bed->mirroring();

  // The fresh write carries extent-allocation control traffic — do it first
  // so the measured overwrite is two pure replica writes.
  TimeNs now = 0;
  auto first = backend->PageOut(now, 1, Patterned(1).span());
  ASSERT_TRUE(first.ok());
  now = *first;

  // Reference: one write-behind page transfer on an identical idle fabric.
  NetworkFabric reference(network);
  const TimeNs single = reference.TransferAsync(0, kPageWireBytes).completion;
  ASSERT_GT(single, 0);

  auto second = backend->PageOut(now, 1, Patterned(2).span());
  ASSERT_TRUE(second.ok());
  const DurationNs mirrored = *second - now;
  EXPECT_GT(mirrored, 0);
  EXPECT_LT(mirrored, 2 * single);
}

TEST(MirroringTest, RandomizedCrashAndReadBack) {
  Rng rng(0xabc);
  for (int round = 0; round < 5; ++round) {
    auto bed = MakeBed(4);
    MirroringBackend* backend = bed->mirroring();
    std::vector<uint64_t> version(50, 0);
    for (int op = 0; op < 300; ++op) {
      const uint64_t p = rng.Below(50);
      version[p] = rng.Next();
      ASSERT_TRUE(backend->PageOut(0, p, Patterned(version[p]).span()).ok());
    }
    const size_t victim = rng.Below(4);
    bed->CrashServer(victim);
    PageBuffer in;
    for (uint64_t p = 0; p < 50; ++p) {
      if (version[p] == 0) {
        continue;
      }
      ASSERT_TRUE(backend->PageIn(0, p, in.span()).ok())
          << "round " << round << " page " << p;
      EXPECT_TRUE(CheckPattern(in.span(), version[p]));
    }
  }
}

}  // namespace
}  // namespace rmp
