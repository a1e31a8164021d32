// Unit tests of the shared policy machinery in RemotePagerBase: slot
// acquisition with extent fallback, selection modes, transfer-time
// accounting through the fabric, and the placement-and-move engine (the
// fresh-slot write, the zero-loss page move, the stored-copy scan) under
// every policy.

#include "src/core/remote_pager.h"

#include <gtest/gtest.h>

#include "src/core/parity_logging.h"
#include "src/core/testbed.h"
#include "src/net/ethernet_model.h"
#include "src/server/memory_server.h"
#include "src/transport/inproc_transport.h"

namespace rmp {
namespace {

// Minimal concrete policy exposing the protected helpers.
class ProbePager : public RemotePagerBase {
 public:
  ProbePager(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
             const RemotePagerParams& params)
      : RemotePagerBase(std::move(cluster), std::move(fabric), params) {}

  Result<TimeNs> PageOut(TimeNs now, uint64_t, std::span<const uint8_t>) override { return now; }
  Result<TimeNs> PageIn(TimeNs now, uint64_t, std::span<uint8_t>) override { return now; }
  std::string Name() const override { return "PROBE"; }
  void ScanStoredCopies(const CopyVisitor& visit) const override {
    for (const StoredCopy& copy : copies) {
      if (!visit(copy)) {
        return;
      }
    }
  }

  std::vector<StoredCopy> copies;  // The probe's "table".

  using RemotePagerBase::ChargeControl;
  using RemotePagerBase::ChargePageTransfer;
  using RemotePagerBase::ChargePageTransferAsync;
  using RemotePagerBase::PickPeer;
  using RemotePagerBase::CopiesOn;
  using RemotePagerBase::kNoPeer;
  using RemotePagerBase::kPickAgain;
  using RemotePagerBase::MoveCopy;
  using RemotePagerBase::SlotRef;
  using RemotePagerBase::StoredCopy;
  using RemotePagerBase::StoreOnPeer;
  using RemotePagerBase::TakeSlotOn;
  using RemotePagerBase::WriteFreshSlot;
};

struct Rig {
  explicit Rig(std::vector<uint64_t> capacities,
               RemotePagerParams params = RemotePagerParams(),
               std::shared_ptr<const NetworkModel> network = nullptr) {
    Cluster cluster;
    for (size_t i = 0; i < capacities.size(); ++i) {
      MemoryServerParams server_params;
      server_params.name = "s" + std::to_string(i);
      server_params.capacity_pages = capacities[i];
      servers.push_back(std::make_unique<MemoryServer>(server_params));
      cluster.AddPeer(server_params.name,
                      std::make_unique<InProcTransport>(servers.back().get()));
    }
    auto fabric = network != nullptr ? std::make_shared<NetworkFabric>(network)
                                     : std::make_shared<NetworkFabric>();
    pager = std::make_unique<ProbePager>(std::move(cluster), fabric, params);
  }

  std::vector<std::unique_ptr<MemoryServer>> servers;
  std::unique_ptr<ProbePager> pager;
};

TEST(RemotePagerTest, TakeSlotAllocatesExtentOnDemand) {
  RemotePagerParams params;
  params.alloc_extent_pages = 8;
  Rig rig({64}, params);
  TimeNs now = 0;
  auto slot = rig.pager->TakeSlotOn(0, &now);
  ASSERT_TRUE(slot.ok());
  // One extent granted, 7 slots pooled.
  EXPECT_EQ(rig.pager->cluster().peer(0).pooled_slots(), 7u);
  EXPECT_EQ(rig.servers[0]->free_pages(), 56u);
}

TEST(RemotePagerTest, SingleSlotFallbackWhenExtentDenied) {
  RemotePagerParams params;
  params.alloc_extent_pages = 16;
  Rig rig({5}, params);  // Extent of 16 can never be granted.
  TimeNs now = 0;
  for (int i = 0; i < 5; ++i) {
    auto slot = rig.pager->TakeSlotOn(0, &now);
    ASSERT_TRUE(slot.ok()) << i;  // Single-slot grants keep working.
  }
  EXPECT_EQ(rig.pager->TakeSlotOn(0, &now).status().code(), ErrorCode::kNoSpace);
}

TEST(RemotePagerTest, TakeSlotRespectsNoNewExtents) {
  RemotePagerParams params;
  params.alloc_extent_pages = 4;
  Rig rig({64}, params);
  TimeNs now = 0;
  ASSERT_TRUE(rig.pager->TakeSlotOn(0, &now).ok());
  rig.pager->cluster().peer(0).set_no_new_extents(true);
  // Pool still has 3 slots.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.pager->TakeSlotOn(0, &now).ok());
  }
  EXPECT_EQ(rig.pager->TakeSlotOn(0, &now).status().code(), ErrorCode::kNoSpace);
  EXPECT_EQ(rig.servers[0]->free_pages(), 60u);  // No new server-side grants.
}

TEST(RemotePagerTest, RoundRobinSelectionCycles) {
  RemotePagerParams params;
  params.selection = ServerSelection::kRoundRobin;
  Rig rig({64, 64, 64}, params);
  TimeNs now = 0;
  std::vector<size_t> picks;
  for (int i = 0; i < 6; ++i) {
    auto pick = rig.pager->PickPeer(&now);
    ASSERT_TRUE(pick.ok());
    picks.push_back(*pick);
  }
  EXPECT_EQ(picks, (std::vector<size_t>{1, 2, 0, 1, 2, 0}));
}

TEST(RemotePagerTest, MostFreeSelectionPrefersEmptierServer) {
  RemotePagerParams params;
  params.selection = ServerSelection::kMostFree;
  params.alloc_extent_pages = 32;
  Rig rig({32, 128}, params);
  TimeNs now = 0;
  auto pick = rig.pager->PickPeer(&now);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1u);
  // Consuming an extent from s1 flips the preference via local accounting.
  ASSERT_TRUE(rig.pager->TakeSlotOn(1, &now).ok());
  ASSERT_TRUE(rig.pager->TakeSlotOn(1, &now).ok());  // known_free s1: 128-32... still 96.
  pick = rig.pager->PickPeer(&now);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1u);  // 96 > 32 still.
  // Three more extents drain s1's advantage.
  rig.pager->cluster().peer(1).set_known_free_pages(16);
  pick = rig.pager->PickPeer(&now);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 0u);
}

TEST(RemotePagerTest, ChargesAccumulateInStats) {
  Rig rig({64}, RemotePagerParams(), std::make_shared<EthernetModel>());
  TimeNs now = 0;
  now = rig.pager->ChargePageTransfer(now);
  EXPECT_NEAR(ToMillis(now), 11.28, 0.3);  // protocol + wire.
  now = rig.pager->ChargePageTransferAsync(now);
  EXPECT_EQ(rig.pager->stats().page_transfers, 2);
  EXPECT_GT(rig.pager->stats().protocol_time, 0);
  EXPECT_GT(rig.pager->stats().wire_time, 0);
}

TEST(RemotePagerTest, NoModelChargesNothing) {
  Rig rig({64});
  TimeNs now = Millis(7);
  EXPECT_EQ(rig.pager->ChargePageTransfer(now), Millis(7));
  EXPECT_EQ(rig.pager->ChargeControl(now), Millis(7));
}

PageBuffer Patterned(uint64_t seed) {
  PageBuffer page;
  FillPattern(page.span(), seed);
  return page;
}

TEST(RemotePagerTest, FreshSlotWriteStopsDeniedPeerAndMovesOn) {
  RemotePagerParams params;
  params.alloc_extent_pages = 4;
  Rig rig({0, 64}, params);  // s0 denies every allocation.
  TimeNs now = 0;
  size_t next = 0;
  const PageBuffer page = Patterned(3);
  auto placed = rig.pager->WriteFreshSlot(
      page.span(), 4, [&](TimeNs*) -> Result<size_t> { return next++; }, &now);
  ASSERT_TRUE(placed.ok()) << placed.status().message();
  ASSERT_TRUE(placed->has_value());
  EXPECT_EQ((*placed)->peer, 1u);
  EXPECT_TRUE(rig.pager->cluster().peer(0).stopped());  // kNoSpace stops the peer.
  EXPECT_EQ(rig.servers[1]->live_pages(), 1u);
}

TEST(RemotePagerTest, FreshSlotWriteEndsWhenThePickerRunsDry) {
  Rig rig({64});
  TimeNs now = 0;
  int picks = 0;
  auto placed = rig.pager->WriteFreshSlot(
      Patterned(1).span(), 8,
      [&](TimeNs*) -> Result<size_t> {
        return ++picks < 3 ? ProbePager::kPickAgain : ProbePager::kNoPeer;
      },
      &now);
  ASSERT_TRUE(placed.ok());
  EXPECT_FALSE(placed->has_value());
  EXPECT_EQ(picks, 3);
  EXPECT_EQ(rig.servers[0]->live_pages(), 0u);
}

TEST(RemotePagerTest, MoveCopyFreesTheOldSlotOnlyAfterTheWrite) {
  Rig rig({64, 64});
  TimeNs now = 0;
  const PageBuffer page = Patterned(9);
  auto at = rig.pager->StoreOnPeer(0, page.span(), &now);
  ASSERT_TRUE(at.ok());
  const ProbePager::StoredCopy from{7, at->peer, at->slot};

  // A failed relocation leaves the old copy where it was.
  Status moved = rig.pager->MoveCopy(
      from, std::nullopt,
      [](std::span<const uint8_t>, TimeNs*) { return NoSpaceError("nowhere to go"); }, &now);
  EXPECT_EQ(moved.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(rig.servers[0]->live_pages(), 1u);

  // A successful one writes first, then frees.
  moved = rig.pager->MoveCopy(
      from, std::nullopt,
      [&](std::span<const uint8_t> bytes, TimeNs* t) -> Status {
        EXPECT_TRUE(CheckPattern(bytes, 9));
        EXPECT_EQ(rig.servers[0]->live_pages(), 1u);  // Old copy still there.
        return rig.pager->StoreOnPeer(1, bytes, t).status();
      },
      &now);
  ASSERT_TRUE(moved.ok()) << moved.message();
  EXPECT_EQ(rig.servers[0]->live_pages(), 0u);
  EXPECT_EQ(rig.servers[1]->live_pages(), 1u);
}

TEST(RemotePagerTest, StoredCopyScanDrivesPagesOnAndCopiesOn) {
  Rig rig({64, 64});
  rig.pager->copies = {{1, 0, 10}, {2, 1, 11}, {3, 0, 12, 0, false}, {4, 0, 13}};
  EXPECT_EQ(rig.pager->PagesOn(0), 3u);  // Non-live slots still occupy the server.
  EXPECT_EQ(rig.pager->PagesOn(1), 1u);
  const auto victims = rig.pager->CopiesOn(0, 8);
  ASSERT_EQ(victims.size(), 2u);  // Live copies only.
  EXPECT_EQ(victims[0].page_id, 1u);
  EXPECT_EQ(victims[1].page_id, 4u);
  EXPECT_EQ(rig.pager->CopiesOn(0, 1).size(), 1u);
}

// Every policy places pages with the one fresh-slot write, so an ADVISE_STOP
// on a pageout ack must leave the acking peer `no_new_extents` whatever the
// policy. Parity flushes are the exception: their ADVISE_STOP is ignored, so
// sealed groups keep getting parity.
class AdviseStopTest : public ::testing::TestWithParam<Policy> {};

TEST_P(AdviseStopTest, PageoutAckWithAdviseStopClosesThePeer) {
  TestbedParams params;
  params.policy = GetParam();
  params.data_servers = 2;
  params.server_capacity_pages = 64;
  params.pager.alloc_extent_pages = 8;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok()) << made.status().message();
  auto bed = std::move(*made);
  PagingBackend& backend = bed->backend();
  TimeNs now = 0;
  // Two pages first: every peer that will be written below (the parity
  // server included — two pages seal a group) already holds a pooled slot.
  for (uint64_t p = 0; p < 2; ++p) {
    auto done = backend.PageOut(now, p, Patterned(p).span());
    ASSERT_TRUE(done.ok()) << done.status().message();
    now = *done;
  }
  std::vector<uint64_t> before;
  for (size_t i = 0; i < bed->server_count(); ++i) {
    before.push_back(bed->server(i).live_pages());
    bed->server(i).SetNativeLoad(1.0);  // Every ack now carries ADVISE_STOP.
  }
  for (uint64_t p = 2; p < 4; ++p) {
    auto done = backend.PageOut(now, p, Patterned(p).span());
    ASSERT_TRUE(done.ok()) << done.status().message();
    now = *done;
  }
  const ParityLoggingBackend* parity_logging = bed->parity_logging();
  size_t written = 0;
  for (size_t i = 0; i < bed->server_count(); ++i) {
    if (bed->server(i).live_pages() == before[i]) {
      continue;
    }
    ++written;
    const bool parity_peer = parity_logging != nullptr && i == parity_logging->parity_peer();
    EXPECT_EQ(bed->remote_pager()->cluster().peer(i).no_new_extents(), !parity_peer)
        << "server " << i;
  }
  EXPECT_GT(written, 0u);
  if (parity_logging != nullptr) {
    EXPECT_GT(bed->server(parity_logging->parity_peer()).live_pages(),
              before[parity_logging->parity_peer()]);  // The flush did happen.
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, AdviseStopTest,
                         ::testing::Values(Policy::kNoReliability, Policy::kMirroring,
                                           Policy::kWriteThrough, Policy::kParityLogging),
                         [](const ::testing::TestParamInfo<Policy>& info) {
                           switch (info.param) {
                             case Policy::kNoReliability:
                               return std::string("NoReliability");
                             case Policy::kMirroring:
                               return std::string("Mirroring");
                             case Policy::kWriteThrough:
                               return std::string("WriteThrough");
                             default:
                               return std::string("ParityLogging");
                           }
                         });

}  // namespace
}  // namespace rmp
