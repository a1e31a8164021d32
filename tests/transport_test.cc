#include "src/transport/inproc_transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/proto/cluster_map.h"
#include "src/server/memory_server.h"
#include "src/util/bytes.h"

namespace rmp {
namespace {

class InProcTransportTest : public ::testing::Test {
 protected:
  InProcTransportTest() : server_(MakeParams()), transport_(&server_) {}

  static MemoryServerParams MakeParams() {
    MemoryServerParams params;
    params.capacity_pages = 128;
    return params;
  }

  MemoryServer server_;
  InProcTransport transport_;
};

TEST_F(InProcTransportTest, CallRoundTrips) {
  auto reply = transport_.Call(MakeAllocRequest(1, 4));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MessageType::kAllocReply);
  EXPECT_EQ(reply->count, 4u);
}

TEST_F(InProcTransportTest, PayloadSurvivesWireFormat) {
  auto alloc = transport_.Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  FillPattern(page.span(), 77);
  auto ack = transport_.Call(MakePageOut(2, alloc->slot, page.span()));
  ASSERT_TRUE(ack.ok());
  auto pagein = transport_.Call(MakePageIn(3, alloc->slot));
  ASSERT_TRUE(pagein.ok());
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(pagein->payload), 77));
}

TEST_F(InProcTransportTest, DisconnectMakesCallsUnavailable) {
  transport_.Disconnect();
  EXPECT_FALSE(transport_.connected());
  auto reply = transport_.Call(MakeLoadQuery(1));
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  transport_.Reconnect();
  EXPECT_TRUE(transport_.Call(MakeLoadQuery(2)).ok());
}

TEST_F(InProcTransportTest, DropNextReplyLosesOneReply) {
  transport_.DropNextReply();
  auto lost = transport_.Call(MakeAllocRequest(1, 1));
  EXPECT_EQ(lost.status().code(), ErrorCode::kUnavailable);
  // The request *was* processed server-side (the reply was lost, not the
  // request) and the connection is now down — like a mid-call crash.
  EXPECT_FALSE(transport_.connected());
  EXPECT_EQ(server_.stats().allocations, 1);
}

TEST_F(InProcTransportTest, CountsWireBytes) {
  PageBuffer page;
  auto alloc = transport_.Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  const uint64_t before = transport_.bytes_sent();
  ASSERT_TRUE(transport_.Call(MakePageOut(2, alloc->slot, page.span())).ok());
  EXPECT_EQ(transport_.bytes_sent() - before, kWireHeaderSize + 4 + kPageSize);
  EXPECT_EQ(transport_.calls(), 2u);
}

TEST_F(InProcTransportTest, SendOneWayDelivers) {
  ASSERT_TRUE(transport_.SendOneWay(MakeShutdown(1)).ok());
  transport_.Disconnect();
  EXPECT_EQ(transport_.SendOneWay(MakeShutdown(2)).code(), ErrorCode::kUnavailable);
}

// --- CallAsync over the in-process transport --------------------------------
//
// InProcTransport inherits the default CallAsync, which completes the future
// before returning. Policies written against Start/Join pairs therefore keep
// the seed's deterministic, synchronous semantics in every simulation test.

TEST_F(InProcTransportTest, CallAsyncIsReadyImmediately) {
  RpcFuture future = transport_.CallAsync(MakeAllocRequest(1, 4));
  ASSERT_TRUE(future.valid());
  EXPECT_TRUE(future.ready());
  auto reply = future.Wait();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MessageType::kAllocReply);
  EXPECT_EQ(reply->count, 4u);
}

TEST_F(InProcTransportTest, SecondWaitReportsAnError) {
  auto alloc = transport_.Call(MakeAllocRequest(1, 1));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  FillPattern(page.span(), 5);
  ASSERT_TRUE(transport_.Call(MakePageOut(2, alloc->slot, page.span())).ok());
  RpcFuture future = transport_.CallAsync(MakePageIn(3, alloc->slot));
  RpcFuture copy = future;  // Copies share the state; only one may consume.
  auto first = future.Wait();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(first->payload), 5));
  // Never a moved-from reply with an empty payload: the second consume and
  // any later look fail outright.
  EXPECT_EQ(future.Wait().status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(copy.Wait().status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(copy.WaitFor(Millis(1)).status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(InProcTransportTest, WaitForLeavesTheReplyForWait) {
  RpcFuture future = transport_.CallAsync(MakeAllocRequest(1, 2));
  auto peek = future.WaitFor(Millis(1));
  ASSERT_TRUE(peek.ok());
  auto again = future.WaitFor(Millis(1));
  ASSERT_TRUE(again.ok());
  auto reply = future.Wait();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MessageType::kAllocReply);
  EXPECT_EQ(reply->count, peek->count);
  EXPECT_EQ(reply->slot, again->slot);
}

// The fabric charges and wire_bytes_per_fault rest on InProcTransport
// counting exactly what the wire would carry. Every request type the pager
// sends, and every reply type the server answers with (the empty-payload
// acks and error replies included), must count Encode(m).size().
TEST_F(InProcTransportTest, CountsEncodedSizeOfEveryMessageType) {
  auto alloc = transport_.Call(MakeAllocRequest(1, 8));
  ASSERT_TRUE(alloc.ok());
  const uint64_t slot = alloc->slot;
  PageBuffer page;
  FillPattern(page.span(), 9);
  std::vector<uint64_t> slots = {slot + 1, slot + 2, slot + 3};
  std::vector<uint8_t> pages(slots.size() * kPageSize);
  for (size_t i = 0; i < slots.size(); ++i) {
    FillPattern(std::span<uint8_t>(pages).subspan(i * kPageSize, kPageSize), 20 + i);
  }
  ClusterMember member;
  const std::vector<uint8_t> map = ClusterMap::Build(3, 16, {member}).Serialize();

  std::vector<Message> requests;
  requests.push_back(MakeAllocRequest(2, 1));
  requests.push_back(MakePageOut(3, slot, page.span()));
  requests.push_back(MakePageIn(4, slot));
  requests.push_back(MakePageIn(5, slot + 7));  // Never stored: error reply.
  requests.push_back(MakePageOutBatch(6, slots, pages));
  requests.push_back(MakePageInBatch(7, slots));
  requests.push_back(MakePageInBatch(8, std::vector<uint64_t>{slot + 6}));  // Fails.
  Message delta = MakePageOut(9, slot + 4, page.span());
  delta.type = MessageType::kDeltaPageOut;
  requests.push_back(delta);
  Message merge = MakePageOut(10, slot + 5, page.span());
  merge.type = MessageType::kXorMerge;
  requests.push_back(merge);
  requests.push_back(MakeLoadQuery(11));
  requests.push_back(MakeHeartbeat(12));
  requests.push_back(MakeStatsQuery(13));
  requests.push_back(MakeTraceDump(14));
  requests.push_back(MakeTraceDump(15, 1));
  requests.push_back(MakeEventsQuery(16));
  requests.push_back(MakeMapPublish(17, 3, map));
  requests.push_back(MakeMapQuery(18));
  requests.push_back(MakeFreeRequest(19, slot, 1));
  requests.push_back(MakeShutdown(20));

  std::vector<MessageType> reply_types;
  for (const Message& request : requests) {
    const uint64_t sent = transport_.bytes_sent();
    const uint64_t received = transport_.bytes_received();
    auto reply = transport_.Call(request);
    ASSERT_TRUE(reply.ok()) << MessageTypeName(request.type);
    EXPECT_EQ(transport_.bytes_sent() - sent, Encode(request).size())
        << MessageTypeName(request.type);
    EXPECT_EQ(transport_.bytes_received() - received, Encode(*reply).size())
        << MessageTypeName(reply->type);
    reply_types.push_back(reply->type);
  }
  for (const MessageType type :
       {MessageType::kAllocReply, MessageType::kPageOutAck, MessageType::kPageInReply,
        MessageType::kPageOutBatchAck, MessageType::kPageInBatchReply,
        MessageType::kXorMergeAck, MessageType::kLoadReport, MessageType::kHeartbeatAck,
        MessageType::kStatsReply, MessageType::kTraceDumpReply, MessageType::kEventsReply,
        MessageType::kMapPublishAck, MessageType::kMapReply, MessageType::kFreeReply}) {
    EXPECT_NE(std::find(reply_types.begin(), reply_types.end(), type), reply_types.end())
        << "no " << MessageTypeName(type) << " reply was counted";
  }

  const uint64_t sent = transport_.bytes_sent();
  const Message one_way = MakeShutdown(21);
  ASSERT_TRUE(transport_.SendOneWay(one_way).ok());
  EXPECT_EQ(transport_.bytes_sent() - sent, Encode(one_way).size());
}

TEST_F(InProcTransportTest, CallAsyncAfterDisconnectIsReadyUnavailable) {
  transport_.Disconnect();
  RpcFuture future = transport_.CallAsync(MakeLoadQuery(1));
  ASSERT_TRUE(future.valid());
  // Even the failure is delivered synchronously: no test ever blocks.
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.Wait().status().code(), ErrorCode::kUnavailable);
}

TEST_F(InProcTransportTest, DefaultWaitOnInvalidFutureIsInternalError) {
  RpcFuture future;
  EXPECT_FALSE(future.valid());
  EXPECT_EQ(future.Wait().status().code(), ErrorCode::kInternal);
}

TEST_F(InProcTransportTest, ManyOutstandingFuturesAllResolve) {
  auto alloc = transport_.Call(MakeAllocRequest(1, 16));
  ASSERT_TRUE(alloc.ok());
  PageBuffer page;
  std::vector<RpcFuture> outs;
  for (uint64_t i = 0; i < 16; ++i) {
    FillPattern(page.span(), i);
    outs.push_back(transport_.CallAsync(MakePageOut(10 + i, alloc->slot + i, page.span())));
  }
  for (auto& future : outs) {
    auto ack = future.Wait();
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->status_code(), ErrorCode::kOk);
  }
  std::vector<RpcFuture> ins;
  for (uint64_t i = 0; i < 16; ++i) {
    ins.push_back(transport_.CallAsync(MakePageIn(30 + i, alloc->slot + i)));
  }
  for (uint64_t i = 0; i < 16; ++i) {
    auto reply = ins[i].Wait();
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(CheckPattern(std::span<const uint8_t>(reply->payload), i)) << i;
  }
}

}  // namespace
}  // namespace rmp
