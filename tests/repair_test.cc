// RepairCoordinator conformance (DESIGN.md §11): crash detection feeding
// background resilvering, token-bucket pacing of repair traffic, overload
// drains, and re-admission of rejoining servers. End states are verified
// three ways — coordinator stats, byte-identical read-back of every page,
// and direct inspection of the server stores.

#include "src/core/repair.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/core/testbed.h"

namespace rmp {
namespace {

constexpr uint64_t kSeed = 7;
constexpr uint64_t kPages = 60;

std::unique_ptr<Testbed> MakeMirrorBed(int servers = 3) {
  TestbedParams params;
  params.policy = Policy::kMirroring;
  params.data_servers = servers;
  params.server_capacity_pages = 512;
  auto bed = Testbed::Create(params);
  EXPECT_TRUE(bed.ok()) << bed.status().message();
  return std::move(*bed);
}

HealthParams FastHealth() {
  HealthParams params;
  params.heartbeat_interval = Millis(50);
  params.suspect_after = 1;
  params.dead_after = 3;
  return params;
}

// Reads every preloaded page back through the policy and checks the bytes.
void CheckAllPages(Testbed* bed, TimeNs* now) {
  PageBuffer in;
  for (uint64_t page = 0; page < kPages; ++page) {
    auto done = bed->backend().PageIn(*now, page, in.span());
    ASSERT_TRUE(done.ok()) << "page " << page << ": " << done.status().message();
    *now = *done;
    EXPECT_TRUE(CheckPattern(in.span(), Testbed::PreloadSeed(kSeed, page))) << "page " << page;
  }
}

TEST(TokenBucketTest, PacingIsExactIntegerMath) {
  TokenBucket bucket(1000, 10);            // 1000 pages/s, burst 10.
  EXPECT_EQ(bucket.TakeUpTo(20, 0), 10u);  // Starts full, capped at burst.
  EXPECT_EQ(bucket.TakeUpTo(1, 0), 0u);    // Dry.
  EXPECT_EQ(bucket.NextAvailable(0), Millis(1));  // 1 token per ms at 1000/s.
  EXPECT_EQ(bucket.TakeUpTo(5, Millis(1)), 1u);   // Exactly one accrued.
  bucket.Refund(3);
  EXPECT_EQ(bucket.TakeUpTo(5, Millis(1)), 3u);
  EXPECT_EQ(bucket.TakeUpTo(100, Millis(1) + Seconds(1)), 10u);  // Refilled to burst.
}

TEST(TokenBucketTest, ZeroRateDisablesPacing) {
  TokenBucket bucket(0, 4);
  EXPECT_EQ(bucket.TakeUpTo(1000, 0), 1000u);
  EXPECT_EQ(bucket.NextAvailable(Millis(7)), Millis(7));
}

// The tentpole conformance walk: crash -> repair restores full redundancy ->
// the rebooted server is re-admitted -> a second, different server crashes ->
// zero pages lost, verified byte-for-byte and against the stores.
TEST(RepairCoordinatorTest, CrashRepairThenSecondCrashLosesNothing) {
  auto bed = MakeMirrorBed();
  ASSERT_TRUE(bed->EnableSelfHealing(FastHealth()).ok());
  RepairCoordinator* repair = bed->repair();

  auto loaded = bed->Preload(kPages, kSeed);
  ASSERT_TRUE(loaded.ok());
  TimeNs now = *loaded;
  now = *repair->Pump(now);  // Baseline probes record incarnations.
  ASSERT_EQ(bed->mirroring()->fully_replicated_pages(), static_cast<int64_t>(kPages));

  // --- First crash ---------------------------------------------------------
  const uint64_t lost_first = bed->server(1).live_pages();
  ASSERT_GT(lost_first, 0u);
  bed->CrashServer(1);
  auto pumped = repair->Pump(now + Millis(50));  // Detects DEAD, starts the job.
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  auto quiesced = repair->RunToQuiescence(*pumped);
  ASSERT_TRUE(quiesced.ok()) << quiesced.status().message();
  now = *quiesced;

  EXPECT_EQ(repair->stats().repairs_started, 1);
  EXPECT_EQ(repair->stats().repairs_completed, 1);
  EXPECT_EQ(repair->stats().pages_resilvered, static_cast<int64_t>(lost_first));
  EXPECT_EQ(bed->mirroring()->fully_replicated_pages(), static_cast<int64_t>(kPages));
  CheckAllPages(bed.get(), &now);
  // Store-level truth: the crashed server is empty and the survivors hold
  // both replicas of everything.
  EXPECT_EQ(bed->server(1).live_pages(), 0u);
  EXPECT_EQ(bed->server(0).live_pages() + bed->server(2).live_pages(), 2 * kPages);

  // --- Reboot + re-admission ----------------------------------------------
  bed->RestartServer(1);
  pumped = repair->Pump(now + Millis(50));  // Sees the reboot, re-admits.
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  now = *pumped;
  EXPECT_EQ(bed->health()->health(1), PeerHealth::kAlive);
  EXPECT_EQ(repair->stats().rejoins, 1);
  EXPECT_TRUE(repair->idle());

  // --- Second, different crash --------------------------------------------
  const uint64_t lost_second = bed->server(2).live_pages();
  ASSERT_GT(lost_second, 0u);
  bed->CrashServer(2);
  pumped = repair->Pump(now + Millis(50));
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  quiesced = repair->RunToQuiescence(*pumped);
  ASSERT_TRUE(quiesced.ok()) << quiesced.status().message();
  now = *quiesced;

  EXPECT_EQ(bed->mirroring()->fully_replicated_pages(), static_cast<int64_t>(kPages));
  CheckAllPages(bed.get(), &now);
  EXPECT_EQ(repair->stats().pages_resilvered,
            static_cast<int64_t>(lost_first + lost_second));
  EXPECT_EQ(bed->server(0).live_pages() + bed->server(1).live_pages(), 2 * kPages);
}

TEST(RepairCoordinatorTest, RateLimitedRepairThrottlesButConverges) {
  auto run = [](uint64_t rate) {
    auto bed = MakeMirrorBed();
    RepairParams params;
    params.repair_pages_per_sec = rate;
    params.repair_burst_pages = 8;
    EXPECT_TRUE(bed->EnableSelfHealing(FastHealth(), params).ok());
    TimeNs now = *bed->Preload(kPages, kSeed);
    now = *bed->repair()->Pump(now);
    bed->CrashServer(1);
    const TimeNs start = now;
    auto pumped = bed->repair()->Pump(now + Millis(50));
    EXPECT_TRUE(pumped.ok());
    auto quiesced = bed->repair()->RunToQuiescence(*pumped);
    EXPECT_TRUE(quiesced.ok()) << quiesced.status().message();
    now = *quiesced;
    EXPECT_EQ(bed->mirroring()->fully_replicated_pages(), static_cast<int64_t>(kPages));
    CheckAllPages(bed.get(), &now);
    return std::make_tuple(now - start, bed->repair()->stats().throttle_time,
                           bed->repair()->stats().pages_resilvered);
  };

  const auto [unpaced_elapsed, unpaced_throttle, unpaced_pages] = run(0);
  const auto [paced_elapsed, paced_throttle, paced_pages] = run(500);

  EXPECT_EQ(unpaced_throttle, 0);
  EXPECT_GT(paced_throttle, 0);                 // The bucket ran dry and waited.
  EXPECT_GT(paced_elapsed, unpaced_elapsed);    // Pacing stretches the resilver...
  EXPECT_EQ(paced_pages, unpaced_pages);        // ...but moves the same pages.
}

TEST(RepairCoordinatorTest, OverloadDrainEmptiesTheServer) {
  auto bed = MakeMirrorBed();
  ASSERT_TRUE(bed->EnableSelfHealing(FastHealth()).ok());
  RepairCoordinator* repair = bed->repair();
  TimeNs now = *bed->Preload(kPages, kSeed);
  now = *repair->Pump(now);

  const uint64_t resident = bed->server(0).live_pages();
  ASSERT_GT(resident, 0u);
  const int64_t pageins_before = bed->server(0).stats().pageins_served;
  bed->server(0).SetNativeLoad(1.0);  // Native demand: ADVISE_STOP turns on.
  auto pumped = repair->Pump(now + Millis(50));
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  auto quiesced = repair->RunToQuiescence(*pumped);
  ASSERT_TRUE(quiesced.ok()) << quiesced.status().message();
  now = *quiesced;

  EXPECT_EQ(repair->stats().drains_started, 1);
  EXPECT_EQ(repair->stats().drains_completed, 1);
  EXPECT_EQ(repair->stats().pages_migrated, static_cast<int64_t>(resident));
  EXPECT_EQ(bed->server(0).live_pages(), 0u);  // Fully drained (§2.1).
  // Each drained replica was read off the server once, with a plain PAGEIN.
  EXPECT_EQ(bed->server(0).stats().pageins_served - pageins_before,
            static_cast<int64_t>(resident));
  EXPECT_EQ(bed->mirroring()->fully_replicated_pages(), static_cast<int64_t>(kPages));
  CheckAllPages(bed.get(), &now);
  // The drain leaves the server stopped while the pressure lasts...
  EXPECT_TRUE(bed->mirroring()->cluster().peer(0).stopped());

  // ...and lifts the stop once the native load goes away.
  bed->server(0).SetNativeLoad(0.0);
  pumped = repair->Pump(now + Millis(50));
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  EXPECT_FALSE(bed->mirroring()->cluster().peer(0).stopped());
}

TEST(RepairCoordinatorTest, HealedPartitionCancelsRepairAndReadmits) {
  auto bed = MakeMirrorBed();
  RepairParams params;
  params.repair_pages_per_sec = 1'000'000;  // Paced with a small burst so the
  params.repair_burst_pages = 8;            // repair is mid-flight at heal time.
  ASSERT_TRUE(bed->EnableSelfHealing(FastHealth(), params).ok());
  RepairCoordinator* repair = bed->repair();
  TimeNs now = *bed->Preload(kPages, kSeed);
  now = *repair->Pump(now);

  ASSERT_GT(bed->server(1).live_pages(), 8u);  // More than one chunk's worth.
  bed->PartitionServer(1);  // Unreachable, but the pages are still there.
  auto pumped = repair->Pump(now + Millis(50));
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  now = *pumped;
  EXPECT_TRUE(repair->repair_pending(1));  // One 8-page chunk in, not done.
  EXPECT_EQ(repair->stats().pages_resilvered, 8);

  Testbed::RestartOptions heal;
  heal.preserve_memory = true;
  bed->RestartServer(1, heal);
  pumped = repair->Pump(now + Millis(50));
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  now = *pumped;

  // Re-admission moots the rest of the repair: the un-resilvered entries
  // still map to valid pages on the healed server.
  EXPECT_FALSE(repair->repair_pending(1));
  EXPECT_EQ(bed->health()->health(1), PeerHealth::kAlive);
  EXPECT_EQ(repair->stats().rejoins, 1);
  EXPECT_EQ(repair->stats().repairs_completed, 1);
  EXPECT_EQ(bed->mirroring()->fully_replicated_pages(), static_cast<int64_t>(kPages));
  CheckAllPages(bed.get(), &now);
}

TEST(RepairCoordinatorTest, WriteThroughReuploadsFromDiskAfterCrash) {
  TestbedParams params;
  params.policy = Policy::kWriteThrough;
  params.data_servers = 2;
  params.server_capacity_pages = 512;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok()) << made.status().message();
  auto bed = std::move(*made);
  ASSERT_TRUE(bed->EnableSelfHealing(FastHealth()).ok());

  TimeNs now = *bed->Preload(kPages, kSeed);
  now = *bed->repair()->Pump(now);
  const uint64_t lost = bed->server(0).live_pages();
  ASSERT_GT(lost, 0u);

  bed->CrashServer(0);
  auto pumped = bed->repair()->Pump(now + Millis(50));
  ASSERT_TRUE(pumped.ok()) << pumped.status().message();
  auto quiesced = bed->repair()->RunToQuiescence(*pumped);
  ASSERT_TRUE(quiesced.ok()) << quiesced.status().message();
  now = *quiesced;

  EXPECT_EQ(bed->repair()->stats().repairs_completed, 1);
  EXPECT_EQ(bed->repair()->stats().pages_resilvered, static_cast<int64_t>(lost));
  // Every page re-uploaded from the always-current disk copy to the survivor.
  EXPECT_EQ(bed->server(1).live_pages(), kPages);
  CheckAllPages(bed.get(), &now);
}

TEST(RepairCoordinatorTest, SelfHealingNeedsARemotePolicy) {
  TestbedParams params;
  params.policy = Policy::kDisk;
  auto made = Testbed::Create(params);
  ASSERT_TRUE(made.ok());
  EXPECT_EQ((*made)->EnableSelfHealing().code(), ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace rmp
