// WRITE THROUGH (§4.7): remote memory as a write-through cache of the local
// disk. Every pageout goes to a remote server *and* to the local swap disk;
// the two transfers proceed in parallel (different devices), so the pageout
// completes at max(network, disk). Every pagein is served from remote memory
// at network speed — no head movements for reads.
//
// With disk bandwidth ≈ network bandwidth (the paper's 10 Mbit/s RZ55 vs
// 10 Mbit/s Ethernet) this beats parity logging slightly; with a fast
// network the disk becomes the pageout bottleneck and parity logging wins —
// the crossover Fig. 5 and §4.7 discuss.

#ifndef SRC_CORE_WRITE_THROUGH_H_
#define SRC_CORE_WRITE_THROUGH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/core/remote_pager.h"
#include "src/disk/disk_backend.h"

namespace rmp {

class WriteThroughBackend final : public RemotePagerBase {
 public:
  WriteThroughBackend(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
                      const RemotePagerParams& params, std::unique_ptr<DiskBackend> disk)
      : RemotePagerBase(std::move(cluster), std::move(fabric), params), disk_(std::move(disk)) {}

  Result<TimeNs> PageOut(TimeNs now, uint64_t page_id, std::span<const uint8_t> data) override;
  Result<TimeNs> PageIn(TimeNs now, uint64_t page_id, std::span<uint8_t> out) override;

  std::string Name() const override { return "WRITE_THROUGH"; }

  // After a server crash the disk still has everything; this re-uploads the
  // lost pages to the surviving servers so reads stay at memory speed.
  // Implemented as a loop over RepairStep.
  Status Recover(size_t peer_index, TimeNs* now);

  // Incremental re-upload: restores up to `max_pages` lost remote copies
  // from the write-through disk per call; 0 = nothing left referencing
  // the dead peer.
  Result<uint64_t> RepairStep(size_t peer, uint64_t max_pages, TimeNs* now) override;

 private:
  void ScanStoredCopies(const CopyVisitor& visit) const override;

  struct Location {
    bool remote_valid = false;
    size_t peer = 0;
    uint64_t slot = 0;
  };

  Result<TimeNs> SendRemote(TimeNs now, uint64_t page_id, std::span<const uint8_t> data);

  std::unique_ptr<DiskBackend> disk_;
  std::unordered_map<uint64_t, Location> table_;
};

}  // namespace rmp

#endif  // SRC_CORE_WRITE_THROUGH_H_
