// The analytic FIFO-server model that times the device replay.
#include <gtest/gtest.h>

#include "device/fifo_server.hpp"

namespace phftl {
namespace {

TEST(FifoServer, IdleServerStartsImmediately) {
  FifoServer s;
  EXPECT_EQ(s.serve(100, 20), 120u);
  EXPECT_EQ(s.free_at(), 120u);
}

TEST(FifoServer, BusyServerQueues) {
  FifoServer s;
  s.serve(0, 100);
  // Arrives at 10 while busy until 100 → starts at 100.
  EXPECT_EQ(s.serve(10, 5), 105u);
}

TEST(FifoServer, GapLeavesServerIdle) {
  FifoServer s;
  s.serve(0, 10);
  EXPECT_EQ(s.serve(50, 10), 60u);
  EXPECT_EQ(s.busy_time(), 20u);
  EXPECT_EQ(s.jobs(), 2u);
}

}  // namespace
}  // namespace phftl
