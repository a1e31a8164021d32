#include "src/sim/resource.h"

#include <gtest/gtest.h>

namespace rmp {
namespace {

TEST(ResourceTest, IdleRequestStartsImmediately) {
  Resource r("dev");
  EXPECT_EQ(r.Serve(Millis(5), Millis(10)), Millis(15));
  EXPECT_EQ(r.busy_until(), Millis(15));
}

TEST(ResourceTest, BusyRequestQueues) {
  Resource r("dev");
  r.Serve(0, Millis(10));
  EXPECT_EQ(r.Serve(Millis(2), Millis(10)), Millis(20));
  EXPECT_EQ(r.requests(), 2);
}

TEST(ResourceTest, IdleGapResetsQueue) {
  Resource r("dev");
  r.Serve(0, Millis(10));
  // Arrives long after the device drained: no queueing delay.
  EXPECT_EQ(r.Serve(Millis(100), Millis(5)), Millis(105));
}

TEST(ResourceTest, BusyTimeAccumulates) {
  Resource r("dev");
  r.Serve(0, Millis(10));
  r.Serve(0, Millis(20));
  EXPECT_EQ(r.busy_time(), Millis(30));
}

TEST(ResourceTest, QueueDelayStatsTracked) {
  Resource r("dev");
  r.Serve(0, Millis(10));
  r.Serve(0, Millis(10));  // Waits 10 ms.
  EXPECT_EQ(r.queue_delay_stats().count(), 2);
  EXPECT_NEAR(r.queue_delay_stats().max(), 10.0, 1e-9);
}

TEST(ResourceTest, ResetClearsState) {
  Resource r("dev");
  r.Serve(0, Millis(10));
  r.Reset();
  EXPECT_EQ(r.busy_until(), 0);
  EXPECT_EQ(r.busy_time(), 0);
  EXPECT_EQ(r.requests(), 0);
}

}  // namespace
}  // namespace rmp
