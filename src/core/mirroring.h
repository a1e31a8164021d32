// MIRRORING policy (§2.2): every page is sent to two different servers, so a
// single server crash loses nothing and recovery is trivial — the surviving
// copy is promoted and re-replicated. The price is double the pageout
// traffic (both copies serialize on the shared Ethernet) and half the
// effective remote memory, which is why the paper's MVEC — all pageouts,
// almost no pageins — is the one workload where MIRRORING loses to the disk.

#ifndef SRC_CORE_MIRRORING_H_
#define SRC_CORE_MIRRORING_H_

#include <cstdint>
#include <unordered_map>

#include "src/core/remote_pager.h"

namespace rmp {

class MirroringBackend final : public RemotePagerBase {
 public:
  MirroringBackend(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
                   const RemotePagerParams& params)
      : RemotePagerBase(std::move(cluster), std::move(fabric), params) {}

  Result<TimeNs> PageOut(TimeNs now, uint64_t page_id, std::span<const uint8_t> data) override;
  Result<TimeNs> PageIn(TimeNs now, uint64_t page_id, std::span<uint8_t> out) override;

  std::string Name() const override { return "MIRRORING"; }

  // Re-establishes two live replicas for every page that lost one to the
  // crash of `peer_index`. Charged against *now; also invoked lazily by
  // PageIn when it trips over a dead primary. Implemented as a loop over
  // ResilverChunk, so it shares every code path with the incremental
  // RepairStep the RepairCoordinator drives.
  Status Recover(size_t peer_index, TimeNs* now);

  // Incremental resilver: re-replicates up to `max_pages` orphaned copies
  // per call; 0 = every page is fully replicated again.
  Result<uint64_t> RepairStep(size_t peer, uint64_t max_pages, TimeNs* now) override;

  // Overload drain (§2.1): moves up to `max_pages` replicas off the live
  // peer onto other servers, each through MoveCopy, keeping both copies of
  // every page on distinct servers throughout. A placement that fails
  // returns its error with the replica still on the peer.
  Result<uint64_t> MigrateStep(size_t peer, uint64_t max_pages, TimeNs* now) override;

  // Elastic-membership rebalance quantum (DESIGN.md §16): moves replica
  // copies whose placement disagrees with the map's two-deep owner chain.
  // One copy moves per page per step, through MoveCopy, so the page keeps
  // two acknowledged copies except for the stray being retired. A move that
  // fails is skipped and retried by a later step.
  Result<uint64_t> RebalanceStep(uint64_t max_pages, TimeNs* now) override;

  // Number of pages currently holding two live replicas (invariant probe).
  int64_t fully_replicated_pages() const;

 private:
  using Replica = SlotRef;
  struct MirrorEntry {
    Replica copies[2];
  };

  void ScanStoredCopies(const CopyVisitor& visit) const override;

  // Places one replica with the fresh-slot write: `preferred` (the map's
  // owner-chain peer; kNoPeer for none) first, then the round robin over
  // usable peers other than `avoid` (kNoPeer to allow any). Writes `data`
  // there, or only reserves the slot when `data` is empty.
  Result<Replica> PlaceReplica(std::span<const uint8_t> data, size_t preferred, size_t avoid,
                               TimeNs* now);

  // Joins two replica writes previously issued with StartPageOut (slots
  // `issued[c]`), charging both transfers from the same instant *now and
  // advancing *now to the later completion. A copy whose server went away
  // mid-write is repaired onto a different peer via PlaceReplica.
  Status JoinReplicaWrites(TimeNs* now, std::span<const uint8_t> data, MirrorEntry* entry,
                           RpcFuture futures[2], const bool issued[2]);

  // One bounded resilver pass (the body RepairStep and Recover share).
  Result<uint64_t> ResilverChunk(size_t peer_index, uint64_t max_pages, TimeNs* now);

  std::unordered_map<uint64_t, MirrorEntry> table_;
};

}  // namespace rmp

#endif  // SRC_CORE_MIRRORING_H_
