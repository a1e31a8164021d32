#include "src/core/write_through.h"

#include <limits>
#include <vector>

#include "src/util/logging.h"

namespace rmp {

Result<TimeNs> WriteThroughBackend::SendRemote(TimeNs now, uint64_t page_id,
                                               std::span<const uint8_t> data) {
  Location& loc = table_[page_id];
  if (loc.remote_valid) {
    ServerPeer& peer = cluster_.peer(loc.peer);
    if (peer.alive() || peer.transport().connected()) {
      const Status stored = StoreAt({loc.peer, loc.slot}, data, &now);
      if (stored.ok()) {
        return now;
      }
      if (!IsRetryableError(stored)) {
        return stored;
      }
    }
    loc.remote_valid = false;
  }
  auto placed = WriteFreshSlot(data, std::numeric_limits<size_t>::max(),
                               [&](TimeNs* t) -> Result<size_t> {
                                 if (!cluster_.AnyUsable()) {
                                   return kNoPeer;
                                 }
                                 return PickPeer(t).value_or(kNoPeer);
                               },
                               &now);
  if (!placed.ok()) {
    return placed.status();
  }
  if (placed->has_value()) {
    loc = Location{true, (*placed)->peer, (*placed)->slot};
  }
  // With no server available the disk copy alone still makes the write
  // durable; reads come from disk until Recover()/a later pageout re-uploads.
  return now;
}

Result<TimeNs> WriteThroughBackend::PageOut(TimeNs now, uint64_t page_id,
                                            std::span<const uint8_t> data) {
  if (data.size() != kPageSize) {
    return InvalidArgumentError("page must be exactly kPageSize bytes");
  }
  ++stats_.pageouts;
  const TimeNs start = now;
  TraceScope trace(&tracer_, TraceOp::kPageOut, page_id, &now);
  // Both copies are written "in parallel" (§4.7): the network transfer and
  // the disk write overlap, so the pageout completes at the later of the two.
  auto remote_done = SendRemote(now, page_id, data);
  if (!remote_done.ok()) {
    return remote_done.status();
  }
  auto disk_done = disk_->PageOut(now, page_id, data);
  if (!disk_done.ok()) {
    return disk_done.status();
  }
  ++stats_.disk_transfers;
  stats_.disk_time += *disk_done - now;
  tracer_.Span(TraceStage::kDisk, now, *disk_done);
  now = std::max(*remote_done, *disk_done);
  stats_.paging_time += now - start;
  trace.set_ok();
  return now;
}

Result<TimeNs> WriteThroughBackend::PageIn(TimeNs now, uint64_t page_id, std::span<uint8_t> out) {
  auto it = table_.find(page_id);
  if (it == table_.end()) {
    return NotFoundError("page " + std::to_string(page_id) + " was never paged out");
  }
  ++stats_.pageins;
  const TimeNs start = now;
  TraceScope trace(&tracer_, TraceOp::kPageIn, page_id, &now);
  if (it->second.remote_valid) {
    ServerPeer& peer = cluster_.peer(it->second.peer);
    if (peer.alive() || peer.transport().connected()) {
      const Status status = ReliablePageIn(it->second.peer, it->second.slot, out, &now);
      if (status.ok()) {
        now = ChargePageTransfer(now, it->second.peer);
        stats_.paging_time += now - start;
        trace.set_ok();
        return now;
      }
      if (!IsRetryableError(status)) {
        return status;
      }
    }
    it->second.remote_valid = false;
  }
  // Degraded path: the write-through disk copy is always current.
  ++stats_.degraded_reads;
  auto done = disk_->PageIn(now, page_id, out);
  if (!done.ok()) {
    return done.status();
  }
  ++stats_.disk_transfers;
  stats_.disk_time += *done - now;
  tracer_.Span(TraceStage::kDisk, now, *done);
  now = *done;
  stats_.paging_time += now - start;
  trace.set_ok();
  return now;
}

Result<uint64_t> WriteThroughBackend::RepairStep(size_t peer, uint64_t max_pages, TimeNs* now) {
  const std::vector<StoredCopy> lost = CopiesOn(peer, max_pages);
  PageBuffer buffer;
  for (const StoredCopy& copy : lost) {
    const uint64_t page_id = copy.page_id;
    // Invalidate first: SendRemote re-places instead of rewriting the dead
    // slot, and a page that finds no server stays disk-only (durable) and
    // is not re-discovered by the scan above.
    table_[page_id].remote_valid = false;
    auto read = disk_->PageIn(*now, page_id, buffer.span());
    if (!read.ok()) {
      return read.status();
    }
    *now = *read;
    auto sent = SendRemote(*now, page_id, buffer.span());
    if (!sent.ok()) {
      return sent.status();
    }
    *now = *sent;
    ++stats_.reconstructions;
  }
  return lost.size();
}

void WriteThroughBackend::ScanStoredCopies(const CopyVisitor& visit) const {
  for (const auto& [page_id, loc] : table_) {
    if (loc.remote_valid && !visit(StoredCopy{page_id, loc.peer, loc.slot})) {
      return;
    }
  }
}

Status WriteThroughBackend::Recover(size_t peer_index, TimeNs* now) {
  auto total = RunSteps([&] { return RepairStep(peer_index, kMaxBatchPages, now); });
  RMP_RETURN_IF_ERROR(total.status());
  RMP_LOG(kInfo) << "write-through: re-uploaded " << *total << " pages after crash of peer "
                 << peer_index;
  return OkStatus();
}

}  // namespace rmp
