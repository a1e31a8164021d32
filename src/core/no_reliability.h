// NO RELIABILITY policy: each page lives on exactly one remote memory server.
// Fastest configuration in the paper (one transfer per pageout, one per
// pagein) but a server crash loses pages irrecoverably — the client
// application dies, which is exactly what §2.2 sets out to fix.
//
// This backend also carries the §2.1 mechanisms shared conceptually by all
// policies: when a server denies an allocation or advises stop, the client
// stops using it and migrates the pages it stored there to another server
// with free memory, or to the local disk when the cluster is full; pages
// parked on the local disk are replicated back to a server when memory
// frees up again.

#ifndef SRC_CORE_NO_RELIABILITY_H_
#define SRC_CORE_NO_RELIABILITY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/core/remote_pager.h"
#include "src/disk/disk_backend.h"

namespace rmp {

class NoReliabilityBackend final : public RemotePagerBase {
 public:
  // `local_disk` may be null when no fallback disk is configured (a cluster
  // denial then surfaces as NO_SPACE).
  NoReliabilityBackend(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
                       const RemotePagerParams& params,
                       std::unique_ptr<DiskBackend> local_disk = nullptr)
      : RemotePagerBase(std::move(cluster), std::move(fabric), params),
        local_disk_(std::move(local_disk)) {}

  Result<TimeNs> PageOut(TimeNs now, uint64_t page_id, std::span<const uint8_t> data) override;
  Result<TimeNs> PageIn(TimeNs now, uint64_t page_id, std::span<uint8_t> out) override;

  // Vectored pageout: runs of fresh pages ride PAGEOUT_BATCH frames (one
  // header and one round trip per batch); known or disk-bound pages fall
  // back to the single-page path.
  Result<TimeNs> PageOutBatch(TimeNs now, std::span<const uint64_t> page_ids,
                              std::span<const uint8_t> data) override;

  std::string Name() const override { return "NO_RELIABILITY"; }

  // Moves every page held by `peer_index` to other servers (or disk).
  // Invoked automatically on ADVISE_STOP; public for tests and tools.
  // Implemented as a loop over MigrateStep.
  Status MigrateFrom(size_t peer_index, TimeNs* now);

  // Overload drain quantum for the RepairCoordinator: moves up to
  // `max_pages` pages off the (live) peer to other servers or the local
  // disk, each through MoveCopy; a placement that fails returns its error
  // with the page still on the peer. 0 = the peer no longer holds any page.
  Result<uint64_t> MigrateStep(size_t peer, uint64_t max_pages, TimeNs* now) override;

  // Elastic-membership rebalance quantum (DESIGN.md §16): moves pages whose
  // holder disagrees with the adopted map onto their map owner through
  // MoveCopy. A move that fails is skipped and retried by a later step.
  // 0 = placement matches the map (or nothing actionable right now).
  Result<uint64_t> RebalanceStep(uint64_t max_pages, TimeNs* now) override;

  // Replicates disk-parked pages back to servers with free memory (§2.1:
  // "the client periodically checks the memory load of all possible remote
  // memory servers"). Returns the number of pages moved.
  Result<int> DrainDiskToServers(TimeNs* now, int max_pages);

  int64_t pages_on_disk() const { return pages_on_disk_; }

 private:
  struct Location {
    bool on_disk = false;
    size_t peer = 0;
    uint64_t slot = 0;
  };

  void ScanStoredCopies(const CopyVisitor& visit) const override;

  // Places a fresh or relocating page with the fresh-slot write (map owner
  // first, then most-free) and records it; falls back to disk.
  Result<TimeNs> PlaceAndSend(TimeNs now, uint64_t page_id, std::span<const uint8_t> data);

  // Places a run of fresh pages with batched writes, one bucket per
  // destination: the map owner's pages when a map is adopted, otherwise the
  // whole run to whichever peer PickPeer names per frame. Pages no server
  // takes ride the single-page path (and its disk fallback).
  Result<TimeNs> PlaceBatch(TimeNs now, std::span<const uint64_t> page_ids,
                            std::span<const uint8_t> data);

  // Ships the pages at `indices` (into page_ids/data) to `peer` in one
  // PAGEOUT_BATCH frame, as many as the peer grants slots for, and records
  // them. Returns how many it placed; 0 when the peer took none.
  Result<size_t> ShipBatchFrame(size_t peer, std::span<const size_t> indices,
                                std::span<const uint64_t> page_ids,
                                std::span<const uint8_t> data, TimeNs* now);

  Result<TimeNs> SendToDisk(TimeNs now, uint64_t page_id, std::span<const uint8_t> data);

  std::unique_ptr<DiskBackend> local_disk_;
  std::unordered_map<uint64_t, Location> table_;
  int64_t pages_on_disk_ = 0;
};

}  // namespace rmp

#endif  // SRC_CORE_NO_RELIABILITY_H_
