// Whole-pager wire coverage over the in-process transport. Every server sits
// behind a WireCheckingHandler, so each frame a policy exchanges — single and
// batched pageouts and pageins, allocation, free, parity deltas, load probes,
// and the batch reads of a crash recovery — is encoded, decoded and compared
// on the way in and on the way out. One short workload per policy; parity
// logging and mirroring also survive one crash plus Recover.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/basic_parity.h"
#include "src/core/mirroring.h"
#include "src/core/no_reliability.h"
#include "src/core/parity_logging.h"
#include "src/core/write_through.h"
#include "src/disk/disk_backend.h"
#include "src/server/memory_server.h"
#include "src/transport/inproc_transport.h"
#include "src/util/bytes.h"
#include "tests/wire_checking_handler.h"

namespace rmp {
namespace {

enum class Kind { kNoReliability, kMirroring, kBasicParity, kParityLogging, kWriteThrough };

constexpr uint64_t kPages = 96;

uint64_t Seed(uint64_t page_id, uint64_t version) { return page_id * 1000 + version + 1; }

class WireRoundTripTest : public ::testing::TestWithParam<Kind> {
 protected:
  // Builds `servers` memory servers, each behind a wire-checking handler and
  // an InProcTransport, and the policy under test on top of them.
  void Build(int servers) {
    Cluster cluster;
    for (int i = 0; i < servers; ++i) {
      MemoryServerParams params;
      params.name = "server-" + std::to_string(i);
      params.capacity_pages = 1024;
      servers_.push_back(std::make_unique<MemoryServer>(params));
      handlers_.push_back(std::make_unique<WireCheckingHandler>(servers_.back().get()));
      auto transport = std::make_unique<InProcTransport>(handlers_.back().get());
      transports_.push_back(transport.get());
      cluster.AddPeer(params.name, std::move(transport));
    }
    auto fabric = std::make_shared<NetworkFabric>();
    RemotePagerParams params;
    params.alloc_extent_pages = 16;
    const size_t last = static_cast<size_t>(servers) - 1;
    switch (GetParam()) {
      case Kind::kNoReliability:
        backend_ = std::make_unique<NoReliabilityBackend>(std::move(cluster), fabric, params);
        break;
      case Kind::kMirroring:
        backend_ = std::make_unique<MirroringBackend>(std::move(cluster), fabric, params);
        break;
      case Kind::kBasicParity:
        backend_ = std::make_unique<BasicParityBackend>(std::move(cluster), fabric, params, last);
        break;
      case Kind::kParityLogging:
        backend_ =
            std::make_unique<ParityLoggingBackend>(std::move(cluster), fabric, params, last);
        break;
      case Kind::kWriteThrough: {
        auto disk = DiskBackend::Create(DiskParams(), 1 << 12);
        ASSERT_TRUE(disk.ok()) << disk.status().ToString();
        backend_ = std::make_unique<WriteThroughBackend>(
            std::move(cluster), fabric, params, std::make_unique<DiskBackend>(std::move(*disk)));
        break;
      }
    }
  }

  // Writes every page (the first half in one batch call), then rewrites
  // every third page one at a time.
  void WriteAll() {
    std::vector<uint64_t> ids;
    std::vector<uint8_t> data(kPages / 2 * kPageSize);
    for (uint64_t id = 0; id < kPages / 2; ++id) {
      ids.push_back(id);
      FillPattern(std::span<uint8_t>(data).subspan(id * kPageSize, kPageSize), Seed(id, 0));
      versions_.push_back(0);
    }
    auto done = backend_->PageOutBatch(now_, ids, data);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    now_ = *done;
    PageBuffer page;
    for (uint64_t id = kPages / 2; id < kPages; ++id) {
      versions_.push_back(0);
      Write(id, &page);
    }
    for (uint64_t id = 0; id < kPages; id += 3) {
      ++versions_[id];
      Write(id, &page);
    }
  }

  void Write(uint64_t id, PageBuffer* page) {
    FillPattern(page->span(), Seed(id, versions_[id]));
    auto done = backend_->PageOut(now_, id, page->span());
    ASSERT_TRUE(done.ok()) << "page " << id << ": " << done.status().ToString();
    now_ = *done;
  }

  void ReadAll() {
    PageBuffer page;
    for (uint64_t id = 0; id < kPages; ++id) {
      auto done = backend_->PageIn(now_, id, page.span());
      ASSERT_TRUE(done.ok()) << "page " << id << ": " << done.status().ToString();
      now_ = *done;
      EXPECT_TRUE(CheckPattern(page.span(), Seed(id, versions_[id]))) << "page " << id;
    }
  }

  void CrashAndRecover(size_t i) {
    servers_[i]->Crash();
    transports_[i]->Disconnect();
    auto* pager = static_cast<RemotePagerBase*>(backend_.get());
    for (;;) {
      auto left = pager->RepairStep(i, kMaxBatchPages, &now_);
      ASSERT_TRUE(left.ok()) << left.status().ToString();
      if (*left == 0) {
        break;
      }
    }
  }

  uint64_t Frames() const {
    uint64_t frames = 0;
    for (const auto& handler : handlers_) {
      frames += handler->frames();
    }
    return frames;
  }

  bool Saw(MessageType type) const {
    for (const auto& handler : handlers_) {
      if (handler->types().count(type) > 0) {
        return true;
      }
    }
    return false;
  }

  std::vector<std::unique_ptr<MemoryServer>> servers_;
  std::vector<std::unique_ptr<WireCheckingHandler>> handlers_;
  std::vector<InProcTransport*> transports_;  // Owned by the backend's cluster.
  std::unique_ptr<PagingBackend> backend_;
  std::vector<uint64_t> versions_;
  TimeNs now_ = 0;
};

TEST_P(WireRoundTripTest, EveryFrameSurvivesTheCodec) {
  Build(GetParam() == Kind::kParityLogging ? 4 : 3);
  WriteAll();
  ReadAll();
  EXPECT_GT(Frames(), 2 * kPages);
  EXPECT_TRUE(Saw(MessageType::kAllocRequest));
  EXPECT_TRUE(Saw(MessageType::kPageInReply));
}

// Parity logging and mirroring rebuild a crashed server's pages.
class WireRecoveryTest : public WireRoundTripTest {};

TEST_P(WireRecoveryTest, CrashAndRecoverSurviveTheCodec) {
  Build(GetParam() == Kind::kParityLogging ? 4 : 3);
  WriteAll();
  CrashAndRecover(0);
  ReadAll();
  // Recovery reads the survivors in batches: PAGEIN_BATCH and its reply
  // crossed the codec too.
  EXPECT_TRUE(Saw(MessageType::kPageInBatch));
  EXPECT_TRUE(Saw(MessageType::kPageInBatchReply));
}

std::string KindName(const ::testing::TestParamInfo<Kind>& info) {
  switch (info.param) {
    case Kind::kNoReliability:
      return "NoReliability";
    case Kind::kMirroring:
      return "Mirroring";
    case Kind::kBasicParity:
      return "BasicParity";
    case Kind::kParityLogging:
      return "ParityLogging";
    case Kind::kWriteThrough:
      return "WriteThrough";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, WireRoundTripTest,
                         ::testing::Values(Kind::kNoReliability, Kind::kMirroring,
                                           Kind::kBasicParity, Kind::kParityLogging,
                                           Kind::kWriteThrough),
                         KindName);
INSTANTIATE_TEST_SUITE_P(RebuildingPolicies, WireRecoveryTest,
                         ::testing::Values(Kind::kMirroring, Kind::kParityLogging), KindName);

}  // namespace
}  // namespace rmp
