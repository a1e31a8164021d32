// Elastic cluster membership conformance (DESIGN.md §16): epoch-numbered
// cluster maps over the wire, consistent-hash placement, paced zero-loss
// rebalance on join/decommission, stale-epoch denial and recovery, and
// crash-during-rebalance convergence. End states are verified by
// byte-identical read-back of every page plus map/placement invariants.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/repair.h"
#include "src/core/testbed.h"
#include "src/proto/cluster_map.h"

namespace rmp {
namespace {

constexpr uint64_t kSeed = 29;
constexpr uint64_t kPages = 96;

HealthParams FastHealth() {
  HealthParams params;
  params.heartbeat_interval = Millis(50);
  params.suspect_after = 1;
  params.dead_after = 3;
  return params;
}

RepairParams PacedRebalance(uint64_t pages_per_sec = 2000, uint64_t burst = 16) {
  RepairParams params;
  params.rebalance_pages_per_sec = pages_per_sec;
  params.rebalance_burst_pages = burst;
  return params;
}

void CheckAllPages(Testbed* bed, TimeNs* now, uint64_t pages = kPages) {
  PageBuffer in;
  for (uint64_t page = 0; page < pages; ++page) {
    auto done = bed->backend().PageIn(*now, page, in.span());
    ASSERT_TRUE(done.ok()) << "page " << page << ": " << done.status().message();
    *now = *done;
    EXPECT_TRUE(CheckPattern(in.span(), Testbed::PreloadSeed(kSeed, page))) << "page " << page;
  }
}

// Drives the coordinator to quiescence while foreground reads keep hitting
// every page — the "under load" half of the scale-out/in scenarios. Each
// iteration advances one pump (possibly throttled) and one read.
void DriveUnderLoad(Testbed* bed, TimeNs* now) {
  RepairCoordinator* repair = bed->repair();
  PageBuffer in;
  uint64_t reads = 0;
  while (!repair->idle()) {
    auto pumped = repair->Pump(*now + Millis(10));
    ASSERT_TRUE(pumped.ok()) << pumped.status().message();
    *now = *pumped;
    const uint64_t page = reads % kPages;
    auto done = bed->backend().PageIn(*now, page, in.span());
    ASSERT_TRUE(done.ok()) << "page " << page << ": " << done.status().message();
    *now = *done;
    ASSERT_TRUE(CheckPattern(in.span(), Testbed::PreloadSeed(kSeed, page))) << "page " << page;
    ++reads;
    ASSERT_LT(reads, 100000u) << "rebalance failed to converge";
  }
}

// --- ClusterMap unit coverage ----------------------------------------------

TEST(ClusterMapTest, SerializeRoundTripPreservesRing) {
  std::vector<ClusterMember> members = {
      {0, 7, ClusterMember::State::kActive},
      {1, 1, ClusterMember::State::kActive},
      {2, 3, ClusterMember::State::kLeaving},
  };
  const ClusterMap map = ClusterMap::Build(5, 128, members);
  auto decoded = ClusterMap::Deserialize(map.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_TRUE(*decoded == map);
  for (uint32_t group = 0; group < 128; ++group) {
    EXPECT_EQ(decoded->OwnerOf(group), map.OwnerOf(group));
  }
}

TEST(ClusterMapTest, RingIgnoresIncarnationSoRebootsDoNotReshuffle) {
  std::vector<ClusterMember> before = {
      {0, 1, ClusterMember::State::kActive},
      {1, 1, ClusterMember::State::kActive},
      {2, 1, ClusterMember::State::kActive},
  };
  std::vector<ClusterMember> after = before;
  after[1].incarnation = 42;  // Server 1 rebooted.
  const ClusterMap a = ClusterMap::Build(1, 256, before);
  const ClusterMap b = ClusterMap::Build(2, 256, after);
  for (uint32_t group = 0; group < 256; ++group) {
    EXPECT_EQ(a.OwnerOf(group), b.OwnerOf(group));
  }
}

TEST(ClusterMapTest, JoinMovesABoundedFractionOfGroups) {
  std::vector<ClusterMember> three = {
      {0, 1, ClusterMember::State::kActive},
      {1, 1, ClusterMember::State::kActive},
      {2, 1, ClusterMember::State::kActive},
  };
  std::vector<ClusterMember> four = three;
  four.push_back({3, 1, ClusterMember::State::kActive});
  const ClusterMap before = ClusterMap::Build(1, 1024, three);
  const ClusterMap after = ClusterMap::Build(2, 1024, four);
  uint32_t moved = 0;
  uint32_t to_new = 0;
  for (uint32_t group = 0; group < 1024; ++group) {
    if (before.OwnerOf(group) != after.OwnerOf(group)) {
      ++moved;
      // Consistent hashing: a group changes owner only to flow to the
      // new member, never to shuffle between the old ones.
      EXPECT_EQ(after.OwnerOf(group), 3u) << "group " << group;
      ++to_new;
    }
  }
  EXPECT_GT(to_new, 0u);
  // Expected ~1/4; anything under half proves placement is consistent, not
  // rehash-everything.
  EXPECT_LT(moved, 512u);
}

TEST(ClusterMapTest, OwnerChainYieldsDistinctActiveMembers) {
  std::vector<ClusterMember> members = {
      {0, 1, ClusterMember::State::kActive},
      {1, 1, ClusterMember::State::kActive},
      {2, 1, ClusterMember::State::kLeaving},
      {3, 1, ClusterMember::State::kActive},
  };
  const ClusterMap map = ClusterMap::Build(1, 64, members);
  for (uint32_t group = 0; group < 64; ++group) {
    const auto chain = map.OwnerChain(group, 2);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_NE(chain[0], chain[1]);
    EXPECT_NE(chain[0], 2u);  // kLeaving members own nothing.
    EXPECT_NE(chain[1], 2u);
  }
}

TEST(ClusterMapTest, DeserializeFailsClosed) {
  const ClusterMap map =
      ClusterMap::Build(3, 64, {{0, 1, ClusterMember::State::kActive}});
  std::vector<uint8_t> good = map.Serialize();

  // Truncations at every boundary.
  for (size_t len = 0; len < good.size(); ++len) {
    auto r = ClusterMap::Deserialize(std::span<const uint8_t>(good).first(len));
    EXPECT_FALSE(r.ok()) << "truncated to " << len;
  }
  // Trailing garbage.
  std::vector<uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(ClusterMap::Deserialize(padded).ok());
  // Bad magic.
  std::vector<uint8_t> bad = good;
  bad[0] ^= 0xff;
  EXPECT_FALSE(ClusterMap::Deserialize(bad).ok());
  // Epoch 0 is reserved for "no map".
  bad = good;
  for (int i = 4; i < 12; ++i) bad[i] = 0;
  EXPECT_FALSE(ClusterMap::Deserialize(bad).ok());
}

// --- Map wire protocol ------------------------------------------------------

TEST(ClusterMembershipTest, MapPublishAndQueryRoundTrip) {
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 2;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok());
  auto bed = std::move(*made);
  auto* pager = bed->remote_pager();
  ASSERT_NE(pager, nullptr);

  // No map yet: the query reports not-found.
  EXPECT_EQ(bed->server(0).map_epoch(), 0u);
  EXPECT_FALSE(pager->cluster().peer(0).QueryMap().ok());

  ASSERT_TRUE(bed->EnableElasticMembership().ok());
  EXPECT_EQ(pager->cluster_map().epoch(), 1u);
  for (size_t i = 0; i < bed->server_count(); ++i) {
    EXPECT_EQ(bed->server(i).map_epoch(), 1u) << "server " << i;
    auto map = pager->cluster().peer(i).QueryMap();
    ASSERT_TRUE(map.ok()) << map.status().message();
    EXPECT_TRUE(*map == pager->cluster_map());
  }
  EXPECT_EQ(bed->server(0).stats().map_publishes.value(), 1);

  // An older publish is refused and counted; the epoch in force stands.
  const ClusterMap stale =
      ClusterMap::Build(1, pager->cluster_map().groups(), pager->cluster_map().members());
  ASSERT_TRUE(bed->EnableElasticMembership().code() == ErrorCode::kFailedPrecondition);
  std::vector<ClusterMember> members = pager->cluster_map().members();
  const ClusterMap next = ClusterMap::Build(2, pager->cluster_map().groups(), members);
  TimeNs now = 0;
  ASSERT_TRUE(pager->AdoptClusterMap(next, &now));
  EXPECT_EQ(bed->server(0).map_epoch(), 2u);
  Status refused = pager->cluster().peer(0).PublishMap(stale.epoch(), stale.Serialize());
  EXPECT_EQ(refused.code(), ErrorCode::kStaleEpoch);
  EXPECT_EQ(bed->server(0).map_epoch(), 2u);
}

TEST(ClusterMembershipTest, EpochGateRejectsOnlyOlderStampedOps) {
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 1;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok());
  auto bed = std::move(*made);
  ASSERT_TRUE(bed->EnableElasticMembership().ok());
  auto* pager = bed->remote_pager();
  std::vector<ClusterMember> members = pager->cluster_map().members();
  TimeNs now = 0;
  ASSERT_TRUE(pager->AdoptClusterMap(ClusterMap::Build(3, 64, members), &now));
  ASSERT_EQ(bed->server(0).map_epoch(), 3u);

  Message request = MakeAllocRequest(/*request_id=*/900, /*pages=*/1);
  request.aux = 2;  // Older than the server's epoch.
  auto reply = bed->transport(0).Call(request);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, static_cast<uint32_t>(ErrorCode::kStaleEpoch));
  EXPECT_EQ(reply->aux, 3u);  // The denial teaches the current epoch.

  request.aux = 3;  // Current epoch: accepted.
  reply = bed->transport(0).Call(request);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, static_cast<uint32_t>(ErrorCode::kOk));

  request.aux = 9;  // Newer than the server (it is the stale one): accepted.
  reply = bed->transport(0).Call(request);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, static_cast<uint32_t>(ErrorCode::kOk));

  request.aux = 0;  // Legacy/unstamped: always accepted.
  reply = bed->transport(0).Call(request);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, static_cast<uint32_t>(ErrorCode::kOk));

  EXPECT_EQ(bed->server(0).stats().stale_epoch_rejections.value(), 1);
}

// --- Scale-out / scale-in under load ---------------------------------------

TEST(ClusterMembershipTest, JoinUnderLoadRebalancesWithZeroLoss) {
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 2;
  params.server_capacity_pages = 512;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok());
  auto bed = std::move(*made);
  ASSERT_TRUE(bed->EnableSelfHealing(FastHealth(), PacedRebalance()).ok());
  ASSERT_TRUE(bed->EnableElasticMembership().ok());

  auto loaded = bed->Preload(kPages, kSeed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  TimeNs now = *loaded;
  auto settled = bed->repair()->RunToQuiescence(now);
  ASSERT_TRUE(settled.ok()) << settled.status().message();
  now = *settled;

  auto joined = bed->JoinServer(&now);
  ASSERT_TRUE(joined.ok()) << joined.status().message();
  const size_t fresh = *joined;
  EXPECT_EQ(fresh, 2u);
  EXPECT_EQ(bed->remote_pager()->cluster_map().epoch(), 2u);
  EXPECT_EQ(bed->server(fresh).map_epoch(), 2u);

  DriveUnderLoad(bed.get(), &now);

  // The moved ranges landed on the new member, nothing was lost, and the
  // placement matches the map exactly.
  auto* pager = bed->remote_pager();
  EXPECT_GT(pager->PagesOn(fresh), 0u);
  EXPECT_GT(bed->repair()->stats().pages_rebalanced, 0);
  CheckAllPages(bed.get(), &now);
  uint64_t strays = 0;
  for (uint64_t page = 0; page < kPages; ++page) {
    auto owner = pager->MapOwnerPeer(page);
    ASSERT_TRUE(owner.ok());
    strays += pager->PagesOn(*owner) == 0 ? 1 : 0;
  }
  uint64_t total = 0;
  for (size_t i = 0; i < bed->server_count(); ++i) {
    total += pager->PagesOn(i);
  }
  EXPECT_EQ(total, kPages);
}

TEST(ClusterMembershipTest, DecommissionUnderLoadDrainsWithZeroLoss) {
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 3;
  params.server_capacity_pages = 512;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok());
  auto bed = std::move(*made);
  ASSERT_TRUE(bed->EnableSelfHealing(FastHealth(), PacedRebalance()).ok());
  ASSERT_TRUE(bed->EnableElasticMembership().ok());

  auto loaded = bed->Preload(kPages, kSeed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  TimeNs now = *loaded;
  auto settled = bed->repair()->RunToQuiescence(now);
  ASSERT_TRUE(settled.ok()) << settled.status().message();
  now = *settled;
  auto* pager = bed->remote_pager();
  const uint64_t held = pager->PagesOn(2);
  ASSERT_GT(held, 0u);

  // Premature completion is refused while the peer still holds pages.
  EXPECT_EQ(bed->CompleteDecommission(2, &now).code(), ErrorCode::kFailedPrecondition);

  ASSERT_TRUE(bed->DecommissionServer(2, &now).ok());
  EXPECT_EQ(pager->cluster_map().epoch(), 2u);
  DriveUnderLoad(bed.get(), &now);

  EXPECT_EQ(pager->PagesOn(2), 0u);
  EXPECT_EQ(bed->server(2).live_pages(), 0u);  // The frees landed server-side.
  ASSERT_TRUE(bed->CompleteDecommission(2, &now).ok());
  EXPECT_EQ(pager->cluster_map().epoch(), 3u);
  EXPECT_EQ(pager->cluster_map().members().size(), 2u);
  CheckAllPages(bed.get(), &now);

  // Fresh writes avoid the departed member entirely.
  PageBuffer page;
  for (uint64_t id = kPages; id < kPages + 16; ++id) {
    FillPattern(page.span(), Testbed::PreloadSeed(kSeed, id));
    auto done = bed->backend().PageOut(now, id, page.span());
    ASSERT_TRUE(done.ok()) << done.status().message();
    now = *done;
  }
  EXPECT_EQ(pager->PagesOn(2), 0u);
}

// Parity logging and write-through have no rebalance drain, so a leaving
// member keeps its pages and decommission must fail closed: completing it
// would drop a server that still holds data (for parity logging, live
// pages, retired group members and parity pages all occupy its slots).
class DecommissionFailsClosedTest : public ::testing::TestWithParam<Policy> {};

TEST_P(DecommissionFailsClosedTest, CompleteRefusedWhileMemberHoldsPages) {
  TestbedParams params;
  params.policy = GetParam();
  params.data_servers = 3;
  params.server_capacity_pages = 512;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok()) << made.status().message();
  auto bed = std::move(*made);
  ASSERT_TRUE(bed->EnableElasticMembership().ok());
  constexpr uint64_t kHeld = 60;
  auto loaded = bed->Preload(kHeld, kSeed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  TimeNs now = *loaded;
  auto* pager = bed->remote_pager();
  ASSERT_GT(bed->server(1).live_pages(), 0u);
  EXPECT_EQ(pager->PagesOn(1), bed->server(1).live_pages());

  ASSERT_TRUE(bed->DecommissionServer(1, &now).ok());
  const size_t members = pager->cluster_map().members().size();
  EXPECT_EQ(bed->CompleteDecommission(1, &now).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(pager->cluster_map().members().size(), members);  // Still a member.
  CheckAllPages(bed.get(), &now, kHeld);
}

INSTANTIATE_TEST_SUITE_P(Policies, DecommissionFailsClosedTest,
                         ::testing::Values(Policy::kParityLogging, Policy::kWriteThrough),
                         [](const ::testing::TestParamInfo<Policy>& info) {
                           return info.param == Policy::kParityLogging ? "ParityLogging"
                                                                       : "WriteThrough";
                         });

// Garbage collection reopens stopped servers whose memory it freed, but a
// member the map is draining stays stopped: after a GC pass, fresh pageouts
// must not land on a leaving server.
TEST(ClusterMembershipTest, GarbageCollectionDoesNotReopenALeavingMember) {
  TestbedParams params;
  params.policy = Policy::kParityLogging;
  params.data_servers = 3;
  params.server_capacity_pages = 512;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok()) << made.status().message();
  auto bed = std::move(*made);
  ASSERT_TRUE(bed->EnableElasticMembership().ok());
  constexpr uint64_t kHeld = 60;
  auto loaded = bed->Preload(kHeld, kSeed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  TimeNs now = *loaded;

  ASSERT_TRUE(bed->DecommissionServer(1, &now).ok());
  ASSERT_TRUE(bed->parity_logging()->GarbageCollect(&now).ok());
  const uint64_t held = bed->server(1).live_pages();
  PageBuffer page;
  for (uint64_t id = kHeld; id < kHeld + 30; ++id) {
    FillPattern(page.span(), Testbed::PreloadSeed(kSeed, id));
    auto done = bed->backend().PageOut(now, id, page.span());
    ASSERT_TRUE(done.ok()) << "page " << id << ": " << done.status().message();
    now = *done;
  }
  EXPECT_LE(bed->server(1).live_pages(), held);
  CheckAllPages(bed.get(), &now, kHeld + 30);
}

TEST(ClusterMembershipTest, MirroredJoinPlacesReplicasOnOwnerChain) {
  TestbedParams params;
  params.policy = Policy::kMirroring;
  params.data_servers = 3;
  params.server_capacity_pages = 512;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok());
  auto bed = std::move(*made);
  ASSERT_TRUE(bed->EnableSelfHealing(FastHealth(), PacedRebalance()).ok());
  ASSERT_TRUE(bed->EnableElasticMembership().ok());

  auto loaded = bed->Preload(kPages, kSeed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  TimeNs now = *loaded;
  auto settled = bed->repair()->RunToQuiescence(now);
  ASSERT_TRUE(settled.ok()) << settled.status().message();
  now = *settled;

  auto joined = bed->JoinServer(&now);
  ASSERT_TRUE(joined.ok()) << joined.status().message();
  DriveUnderLoad(bed.get(), &now);

  auto* pager = bed->remote_pager();
  EXPECT_GT(pager->PagesOn(*joined), 0u);
  EXPECT_EQ(bed->mirroring()->fully_replicated_pages(), static_cast<int64_t>(kPages));
  uint64_t total = 0;
  for (size_t i = 0; i < bed->server_count(); ++i) {
    total += pager->PagesOn(i);
  }
  EXPECT_EQ(total, 2 * kPages);  // Two live replicas of everything.
  CheckAllPages(bed.get(), &now);
}

TEST(ClusterMembershipTest, CrashMidRebalanceRecoversWithZeroLoss) {
  TestbedParams params;
  params.policy = Policy::kMirroring;
  params.data_servers = 3;
  params.server_capacity_pages = 512;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok());
  auto bed = std::move(*made);
  // Slow pacing so the crash lands mid-rebalance, not after it.
  ASSERT_TRUE(bed->EnableSelfHealing(FastHealth(), PacedRebalance(200, 4)).ok());
  ASSERT_TRUE(bed->EnableElasticMembership().ok());

  auto loaded = bed->Preload(kPages, kSeed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  TimeNs now = *loaded;
  auto settled = bed->repair()->RunToQuiescence(now);
  ASSERT_TRUE(settled.ok()) << settled.status().message();
  now = *settled;

  auto joined = bed->JoinServer(&now);
  ASSERT_TRUE(joined.ok()) << joined.status().message();

  // A few pumps in: some ranges moved, most have not.
  for (int i = 0; i < 3 && !bed->repair()->idle(); ++i) {
    auto pumped = bed->repair()->Pump(now + Millis(10));
    ASSERT_TRUE(pumped.ok()) << pumped.status().message();
    now = *pumped;
  }
  ASSERT_FALSE(bed->repair()->idle()) << "pacing too fast; rebalance already done";

  bed->CrashServer(1);
  auto pumped = bed->repair()->Pump(now + Millis(50));  // Detect DEAD.
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  auto quiesced = bed->repair()->RunToQuiescence(*pumped);
  ASSERT_TRUE(quiesced.ok()) << quiesced.status().message();
  now = *quiesced;

  EXPECT_GE(bed->repair()->stats().repairs_completed, 1);
  EXPECT_EQ(bed->mirroring()->fully_replicated_pages(), static_cast<int64_t>(kPages));
  CheckAllPages(bed.get(), &now);
}

TEST(ClusterMembershipTest, StaleEpochDenialRefreshesAndRetries) {
  TestbedParams params;
  params.policy = Policy::kNoReliability;
  params.data_servers = 2;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok());
  auto bed = std::move(*made);
  ASSERT_TRUE(bed->EnableElasticMembership().ok());
  auto loaded = bed->Preload(kPages, kSeed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  TimeNs now = *loaded;
  auto* pager = bed->remote_pager();
  ASSERT_EQ(pager->cluster_map().epoch(), 1u);

  // Another coordinator publishes epoch 2 behind this client's back.
  const ClusterMap next =
      ClusterMap::Build(2, pager->cluster_map().groups(), pager->cluster_map().members());
  const std::vector<uint8_t> bytes = next.Serialize();
  for (size_t i = 0; i < bed->server_count(); ++i) {
    ASSERT_TRUE(pager->cluster().peer(i).PublishMap(next.epoch(), bytes).ok());
    ASSERT_EQ(bed->server(i).map_epoch(), 2u);
  }

  // The next stamped op is denied STALE_EPOCH, refreshes, and retries —
  // never surfacing as an error, never as data loss.
  PageBuffer buf;
  FillPattern(buf.span(), Testbed::PreloadSeed(kSeed, 3));
  auto done = bed->backend().PageOut(now, 3, buf.span());
  ASSERT_TRUE(done.ok()) << done.status().message();
  now = *done;
  EXPECT_GE(pager->stats().stale_epoch_retries, 1);
  EXPECT_EQ(pager->cluster_map().epoch(), 2u);
  int64_t rejections = 0;
  for (size_t i = 0; i < bed->server_count(); ++i) {
    rejections += bed->server(i).stats().stale_epoch_rejections.value();
  }
  EXPECT_GE(rejections, 1);
  CheckAllPages(bed.get(), &now);
}

TEST(ClusterMembershipTest, RebootedServerRelearnsMapOnNextPublish) {
  TestbedParams params;
  params.policy = Policy::kMirroring;
  params.data_servers = 3;
  params.server_capacity_pages = 512;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok());
  auto bed = std::move(*made);
  ASSERT_TRUE(bed->EnableSelfHealing(FastHealth(), PacedRebalance()).ok());
  ASSERT_TRUE(bed->EnableElasticMembership().ok());
  auto loaded = bed->Preload(kPages, kSeed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  TimeNs now = *loaded;
  auto settled = bed->repair()->RunToQuiescence(now);
  ASSERT_TRUE(settled.ok()) << settled.status().message();
  now = *settled;
  ASSERT_EQ(bed->server(1).map_epoch(), 1u);

  // Crash wipes the server's map with its store; the resilver restores
  // redundancy, the reboot re-admits, and the peer runs maplessly (epoch 0
  // accepts every stamped request) until the next publish reaches it.
  bed->CrashServer(1);
  auto pumped = bed->repair()->Pump(now + Millis(50));
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  auto quiesced = bed->repair()->RunToQuiescence(*pumped);
  ASSERT_TRUE(quiesced.ok()) << quiesced.status().message();
  now = *quiesced;
  bed->RestartServer(1);
  pumped = bed->repair()->Pump(now + Millis(50));
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  quiesced = bed->repair()->RunToQuiescence(*pumped);
  ASSERT_TRUE(quiesced.ok()) << quiesced.status().message();
  now = *quiesced;
  ASSERT_EQ(bed->health()->health(1), PeerHealth::kAlive);
  EXPECT_EQ(bed->server(1).map_epoch(), 0u);

  // The next membership change republishes to every live peer.
  auto joined = bed->JoinServer(&now);
  ASSERT_TRUE(joined.ok()) << joined.status().message();
  EXPECT_EQ(bed->server(1).map_epoch(), 2u);
  DriveUnderLoad(bed.get(), &now);
  EXPECT_EQ(bed->mirroring()->fully_replicated_pages(), static_cast<int64_t>(kPages));
  CheckAllPages(bed.get(), &now);
}

TEST(ClusterMembershipTest, ClusterConfigKnobsApply) {
  auto config = Config::Parse(
      "cluster.page_groups = 128\n"
      "cluster.rebalance_pages_per_sec = 500\n"
      "cluster.rebalance_burst = 8\n"
      "cluster.epoch_refresh_ms = 250\n");
  ASSERT_TRUE(config.ok());
  ElasticParams elastic;
  RepairParams repair;
  RemotePagerParams pager;
  ASSERT_TRUE(ApplyClusterConfig(*config, &elastic, &repair, &pager).ok());
  EXPECT_EQ(elastic.page_groups, 128u);
  EXPECT_EQ(repair.rebalance_pages_per_sec, 500u);
  EXPECT_EQ(repair.rebalance_burst_pages, 8u);
  EXPECT_EQ(pager.map_refresh_interval, Millis(250));

  auto bad = Config::Parse("cluster.page_groups = 0\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ApplyClusterConfig(*bad, &elastic, nullptr, nullptr).ok());
}

}  // namespace
}  // namespace rmp
