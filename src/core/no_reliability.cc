#include "src/core/no_reliability.h"

#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "src/util/logging.h"

namespace rmp {

Result<TimeNs> NoReliabilityBackend::SendToDisk(TimeNs now, uint64_t page_id,
                                                std::span<const uint8_t> data) {
  if (local_disk_ == nullptr) {
    return NoSpaceError("no usable server and no local disk fallback");
  }
  auto done = local_disk_->PageOut(now, page_id, data);
  if (!done.ok()) {
    return done.status();
  }
  Location& loc = table_[page_id];
  if (!loc.on_disk) {
    loc.on_disk = true;
    ++pages_on_disk_;
  }
  ++stats_.disk_transfers;
  stats_.disk_time += *done - now;
  tracer_.Span(TraceStage::kDisk, now, *done);
  return *done;
}

Result<TimeNs> NoReliabilityBackend::PlaceAndSend(TimeNs now, uint64_t page_id,
                                                  std::span<const uint8_t> data) {
  // Try servers until one takes the page or none is usable; with a cluster
  // map adopted, the map owner gets first refusal so steady-state placement
  // matches the ring.
  auto placed = WriteFreshSlot(data, std::numeric_limits<size_t>::max(),
                               [&](TimeNs* t) -> Result<size_t> {
                                 if (!cluster_.AnyUsable()) {
                                   return kNoPeer;
                                 }
                                 return PickPeerForPage(page_id, t).value_or(kNoPeer);
                               },
                               &now);
  if (!placed.ok()) {
    return placed.status();
  }
  if (!placed->has_value()) {
    return SendToDisk(now, page_id, data);
  }
  table_[page_id] = Location{false, (*placed)->peer, (*placed)->slot};
  return now;
}

Result<TimeNs> NoReliabilityBackend::PageOut(TimeNs now, uint64_t page_id,
                                             std::span<const uint8_t> data) {
  if (data.size() != kPageSize) {
    return InvalidArgumentError("page must be exactly kPageSize bytes");
  }
  ++stats_.pageouts;
  const TimeNs start = now;
  TraceScope trace(&tracer_, TraceOp::kPageOut, page_id, &now);
  auto it = table_.find(page_id);
  if (it != table_.end() && !it->second.on_disk) {
    // Overwrite in place on the same server.
    ServerPeer& peer = cluster_.peer(it->second.peer);
    if (peer.alive() || peer.transport().connected()) {
      const Status stored = StoreAt({it->second.peer, it->second.slot}, data, &now);
      if (stored.ok()) {
        stats_.paging_time += now - start;
        trace.set_ok();
        return now;
      }
      if (!IsRetryableError(stored)) {
        return stored;
      }
      // Server died under us; we still hold the data, so relocate.
    }
    table_.erase(it);
  } else if (it != table_.end() && it->second.on_disk) {
    // Page currently parked on disk: prefer putting the fresh copy on a
    // server again if any has room.
    if (cluster_.AnyUsable()) {
      table_.erase(it);
      --pages_on_disk_;
    } else {
      auto done = SendToDisk(now, page_id, data);
      if (done.ok()) {
        now = *done;  // Keep the trace scope's clock at the true completion.
        stats_.paging_time += now - start;
        trace.set_ok();
      }
      return done;
    }
  }
  auto done = PlaceAndSend(now, page_id, data);
  if (done.ok()) {
    now = *done;
    stats_.paging_time += now - start;
    trace.set_ok();
  }
  return done;
}

Result<size_t> NoReliabilityBackend::ShipBatchFrame(size_t peer_index,
                                                    std::span<const size_t> indices,
                                                    std::span<const uint64_t> page_ids,
                                                    std::span<const uint8_t> data, TimeNs* now) {
  ServerPeer& peer = cluster_.peer(peer_index);
  std::vector<uint64_t> slots;
  Status slot_status = OkStatus();
  while (slots.size() < indices.size() && slots.size() < kMaxBatchPages) {
    auto slot = TakeSlotOn(peer_index, now);
    if (!slot.ok()) {
      slot_status = slot.status();
      break;
    }
    slots.push_back(*slot);
  }
  if (!slot_status.ok() && slot_status.code() != ErrorCode::kNoSpace &&
      slot_status.code() != ErrorCode::kUnavailable) {
    return slot_status;
  }
  if (slot_status.code() == ErrorCode::kNoSpace) {
    peer.set_stopped(true);
  }
  if (slots.empty()) {
    return 0;
  }
  std::vector<uint8_t> staging(slots.size() * kPageSize);
  for (size_t j = 0; j < slots.size(); ++j) {
    std::memcpy(staging.data() + j * kPageSize, data.data() + indices[j] * kPageSize, kPageSize);
  }
  auto advise = peer.PageOutBatchTo(slots, staging);
  if (!advise.ok()) {
    if (advise.status().code() == ErrorCode::kStaleEpoch) {
      // The server is alive and the slots are still ours — hand them back
      // and refresh the map; the single-page path (which retries under the
      // new epoch) takes these pages.
      for (const uint64_t slot : slots) {
        peer.ReturnSlot(slot);
      }
      NoteStaleEpoch(1, now);
      return 0;
    }
    if (advise.status().code() == ErrorCode::kUnavailable) {
      return 0;  // Peer died mid-batch; its slots die with it.
    }
    return advise.status();
  }
  *now = ChargePageBatchTransferAsync(*now, slots.size(), peer_index);
  HeedAdvice(peer_index, *advise);
  for (size_t j = 0; j < slots.size(); ++j) {
    table_[page_ids[indices[j]]] = Location{false, peer_index, slots[j]};
  }
  stats_.pageouts += static_cast<int64_t>(slots.size());
  return slots.size();
}

Result<TimeNs> NoReliabilityBackend::PlaceBatch(TimeNs now, std::span<const uint64_t> page_ids,
                                                std::span<const uint8_t> data) {
  const TimeNs start = now;
  // One bucket per destination. With a cluster map, each usable owner gets
  // its own pages (the run is hash-interleaved); pages whose owner is
  // unusable ride the single-page path below, which falls back exactly like
  // PlaceAndSend. Without a map the whole run is one bucket whose peer
  // PickPeer names afresh for every frame.
  std::map<size_t, std::vector<size_t>> buckets;
  for (size_t i = 0; i < page_ids.size(); ++i) {
    size_t dest = kNoPeer;
    if (has_cluster_map()) {
      auto owner = MapOwnerPeer(page_ids[i]);
      if (!owner.ok() || !cluster_.peer(*owner).usable()) {
        continue;
      }
      dest = *owner;
    }
    buckets[dest].push_back(i);
  }
  std::vector<bool> placed(page_ids.size(), false);
  for (const auto& [owner, indices] : buckets) {
    size_t pos = 0;
    while (pos < indices.size()) {
      size_t peer = owner;
      if (owner == kNoPeer) {
        if (!cluster_.AnyUsable()) {
          break;
        }
        auto pick = PickPeer(&now);
        if (!pick.ok()) {
          break;
        }
        peer = *pick;
      } else if (!cluster_.peer(peer).usable()) {
        break;
      }
      auto shipped = ShipBatchFrame(peer, std::span<const size_t>(indices).subspan(pos), page_ids,
                                    data, &now);
      if (!shipped.ok()) {
        return shipped.status();
      }
      if (*shipped == 0 && owner != kNoPeer) {
        break;  // The owner took nothing; its pages go single-page.
      }
      for (size_t j = pos; j < pos + *shipped; ++j) {
        placed[indices[j]] = true;
      }
      pos += *shipped;
    }
  }
  stats_.paging_time += now - start;
  for (size_t i = 0; i < page_ids.size(); ++i) {
    if (placed[i]) {
      continue;
    }
    auto done = PageOut(now, page_ids[i], data.subspan(i * kPageSize, kPageSize));
    if (!done.ok()) {
      return done;
    }
    now = *done;
  }
  return now;
}

Result<TimeNs> NoReliabilityBackend::PageOutBatch(TimeNs now, std::span<const uint64_t> page_ids,
                                                  std::span<const uint8_t> data) {
  if (data.size() != page_ids.size() * kPageSize) {
    return InvalidArgumentError("batch data must be page_ids.size() * kPageSize bytes");
  }
  size_t i = 0;
  while (i < page_ids.size()) {
    // Known pages overwrite in place and disk-parked pages re-route, both
    // through the single-page path; only runs of fresh pages vector.
    if (table_.count(page_ids[i]) > 0 || !cluster_.AnyUsable()) {
      auto done = PageOut(now, page_ids[i], data.subspan(i * kPageSize, kPageSize));
      if (!done.ok()) {
        return done;
      }
      now = *done;
      ++i;
      continue;
    }
    size_t run = i + 1;
    while (run < page_ids.size() && run - i < kMaxBatchPages && table_.count(page_ids[run]) == 0) {
      ++run;
    }
    auto done = PlaceBatch(now, page_ids.subspan(i, run - i),
                           data.subspan(i * kPageSize, (run - i) * kPageSize));
    if (!done.ok()) {
      return done;
    }
    now = *done;
    i = run;
  }
  return now;
}

Result<TimeNs> NoReliabilityBackend::PageIn(TimeNs now, uint64_t page_id,
                                            std::span<uint8_t> out) {
  auto it = table_.find(page_id);
  if (it == table_.end()) {
    return NotFoundError("page " + std::to_string(page_id) + " was never paged out");
  }
  ++stats_.pageins;
  const TimeNs start = now;
  TraceScope trace(&tracer_, TraceOp::kPageIn, page_id, &now);
  if (it->second.on_disk) {
    auto done = local_disk_->PageIn(now, page_id, out);
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
  ServerPeer& peer = cluster_.peer(it->second.peer);
  const Status status = ReliablePageIn(it->second.peer, it->second.slot, out, &now);
  if (!status.ok()) {
    if (IsRetryableError(status) && !peer.transport().connected()) {
      // Without redundancy a crashed server means the page is gone — the
      // situation §2.2 calls unacceptable and the reliable policies fix.
      return DataLossError("page " + std::to_string(page_id) + " lost with " + peer.name());
    }
    return status;
  }
  now = ChargePageTransfer(now, it->second.peer);
  stats_.paging_time += now - start;
  trace.set_ok();
  return now;
}

Result<uint64_t> NoReliabilityBackend::MigrateStep(size_t peer_index, uint64_t max_pages,
                                                   TimeNs* now) {
  RMP_RETURN_IF_ERROR(BeginDrain(peer_index));
  const std::vector<StoredCopy> victims = CopiesOn(peer_index, max_pages);
  for (const StoredCopy& victim : victims) {
    // PlaceAndSend records the new home (another server, or the local disk)
    // only once it acked; a placement that fails leaves the page here.
    RMP_RETURN_IF_ERROR(MoveCopy(victim, std::nullopt,
                                 [&](std::span<const uint8_t> page, TimeNs* t) -> Status {
                                   auto done = PlaceAndSend(*t, victim.page_id, page);
                                   RMP_RETURN_IF_ERROR(done.status());
                                   *t = *done;
                                   return OkStatus();
                                 },
                                 now));
  }
  return victims.size();
}

Result<uint64_t> NoReliabilityBackend::RebalanceStep(uint64_t max_pages, TimeNs* now) {
  if (!has_cluster_map() || max_pages == 0) {
    return 0;
  }
  struct Move {
    StoredCopy from;
    size_t to = 0;
  };
  std::vector<Move> moves;
  ScanStoredCopies([&](const StoredCopy& copy) {
    auto owner = MapOwnerPeer(copy.page_id);
    if (!owner.ok() || *owner == copy.peer) {
      return true;
    }
    if (!cluster_.peer(copy.peer).transport().connected()) {
      return true;  // Crashed holder: without redundancy there is nothing to move.
    }
    if (cluster_.peer(*owner).usable()) {
      moves.push_back({copy, *owner});
    }
    return moves.size() < max_pages;
  });
  uint64_t moved = 0;
  for (const Move& mv : moves) {
    // The old holder keeps the only copy until the owner acked the write,
    // so a crash mid-move never loses the page. A failed move is skipped; a
    // later step retries it.
    const Status status = MoveCopy(mv.from, std::nullopt,
                                   [&](std::span<const uint8_t> page, TimeNs* t) -> Status {
                                     auto at = StoreOnPeer(mv.to, page, t);
                                     RMP_RETURN_IF_ERROR(at.status());
                                     table_[mv.from.page_id] = Location{false, at->peer, at->slot};
                                     return OkStatus();
                                   },
                                   now);
    moved += status.ok() ? 1 : 0;
  }
  return moved;
}

void NoReliabilityBackend::ScanStoredCopies(const CopyVisitor& visit) const {
  for (const auto& [page_id, loc] : table_) {
    // Disk-parked pages hold no server slot; DrainDiskToServers moves them.
    if (!loc.on_disk && !visit(StoredCopy{page_id, loc.peer, loc.slot})) {
      return;
    }
  }
}

Status NoReliabilityBackend::MigrateFrom(size_t peer_index, TimeNs* now) {
  auto total = RunSteps([&] { return MigrateStep(peer_index, kMaxBatchPages, now); });
  RMP_RETURN_IF_ERROR(total.status());
  RMP_LOG(kInfo) << "migrated " << *total << " pages off " << cluster_.peer(peer_index).name();
  return OkStatus();
}

Result<int> NoReliabilityBackend::DrainDiskToServers(TimeNs* now, int max_pages) {
  if (local_disk_ == nullptr || pages_on_disk_ == 0) {
    return 0;
  }
  // Re-open stopped-but-alive servers whose load has dropped. Peers the
  // cluster map stopped (kLeaving or absent members) stay stopped — the map,
  // not the load probe, owns their placement state.
  for (size_t i = 0; i < cluster_.size(); ++i) {
    ServerPeer& peer = cluster_.peer(i);
    if (MapStopsPeer(i)) {
      continue;
    }
    if (peer.alive() && (peer.stopped() || peer.no_new_extents())) {
      auto load = peer.QueryLoad();
      *now = ChargeControl(*now);
      if (load.ok() && !load->advise_stop && load->free_pages > 0) {
        peer.set_stopped(false);
        peer.set_no_new_extents(false);
      }
    }
  }
  if (!cluster_.AnyUsable()) {
    return 0;
  }
  std::vector<uint64_t> parked;
  for (const auto& [page_id, loc] : table_) {
    if (loc.on_disk) {
      parked.push_back(page_id);
      if (static_cast<int>(parked.size()) >= max_pages) {
        break;
      }
    }
  }
  int moved = 0;
  PageBuffer buffer;
  for (const uint64_t page_id : parked) {
    auto read = local_disk_->PageIn(*now, page_id, buffer.span());
    if (!read.ok()) {
      return read.status();
    }
    stats_.disk_time += *read - *now;
    *now = *read;
    auto done = PlaceAndSend(*now, page_id, buffer.span());
    if (!done.ok()) {
      break;  // Cluster filled up again; the rest stay parked.
    }
    *now = *done;
    --pages_on_disk_;
    ++moved;
  }
  return moved;
}

}  // namespace rmp
