#include "src/core/mirroring.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/util/logging.h"

namespace rmp {

Result<MirroringBackend::Replica> MirroringBackend::PlaceReplica(std::span<const uint8_t> data,
                                                                 size_t preferred, size_t avoid,
                                                                 TimeNs* now) {
  // The preferred (owner-chain) peer gets one attempt; then the round-robin
  // scan, skipping `avoid`, gets one attempt per peer plus one.
  bool try_preferred =
      preferred < cluster_.size() && preferred != avoid && cluster_.peer(preferred).usable();
  const size_t attempts = cluster_.size() + 1 + (try_preferred ? 1 : 0);
  auto placed = WriteFreshSlot(data, attempts, [&](TimeNs*) -> Result<size_t> {
    if (try_preferred) {
      try_preferred = false;
      return preferred;
    }
    auto pick = cluster_.NextUsable(&rr_cursor_);
    if (!pick.ok() || *pick != avoid) {
      return pick;
    }
    // Only one usable peer left and it is the one to avoid.
    if (cluster_.size() == 1) {
      return NoSpaceError("cannot mirror on a single server");
    }
    auto second = cluster_.NextUsable(&rr_cursor_);
    if (!second.ok() || *second == avoid) {
      return NoSpaceError("no second server available for mirror");
    }
    return second;
  }, now);
  if (!placed.ok()) {
    return placed.status();
  }
  if (!placed->has_value()) {
    return NoSpaceError("no usable server for mirror replica");
  }
  return **placed;
}

Status MirroringBackend::JoinReplicaWrites(TimeNs* now, std::span<const uint8_t> data,
                                           MirrorEntry* entry, RpcFuture futures[2],
                                           const bool issued[2]) {
  // Both writes are already on the wire; charge the two transfers from the
  // same instant so their protocol processing overlaps, and finish at the
  // later completion. This is what makes a mirrored pageout cost less than
  // two serialized single-copy pageouts.
  const TimeNs start = *now;
  TimeNs done = *now;
  for (int c = 0; c < 2; ++c) {
    bool ok = false;
    if (issued[c]) {
      const size_t copy_peer = entry->copies[c].peer;
      ServerPeer& peer = cluster_.peer(copy_peer);
      auto advise = peer.JoinPageOut(std::move(futures[c]));
      if (!advise.ok() && ShouldRetry(copy_peer, advise.status())) {
        // Transient loss (dropped request or ack) on a live connection:
        // rewrite the same slot before abandoning it. The pageout is
        // idempotent, so a drop-reply that did apply is harmless.
        peer.mark_alive();
        TimeNs retry_now = start;
        ChargeBackoff(1, &retry_now);
        advise = ReliablePageOut(copy_peer, entry->copies[c].slot, data, &retry_now);
        done = std::max(done, retry_now);
      }
      if (advise.ok()) {
        done = std::max(done, ChargePageTransferAsync(start, copy_peer));
        HeedAdvice(copy_peer, *advise);
        ok = true;
      } else if (!IsRetryableError(advise.status())) {
        return advise.status();
      }
    }
    if (!ok) {
      // Repair serially: the replacement write cannot start before the
      // failure of the original is known.
      TimeNs repair = start;
      auto replica = PlaceReplica(data, kNoPeer, entry->copies[1 - c].peer, &repair);
      if (!replica.ok()) {
        return replica.status();
      }
      entry->copies[c] = *replica;
      done = std::max(done, repair);
    }
  }
  *now = done;
  return OkStatus();
}

Result<TimeNs> MirroringBackend::PageOut(TimeNs now, uint64_t page_id,
                                         std::span<const uint8_t> data) {
  if (data.size() != kPageSize) {
    return InvalidArgumentError("page must be exactly kPageSize bytes");
  }
  ++stats_.pageouts;
  const TimeNs start = now;
  TraceScope trace(&tracer_, TraceOp::kPageOut, page_id, &now);
  auto it = table_.find(page_id);
  if (it != table_.end()) {
    // Overwrite both replicas in place, issuing both writes before waiting
    // on either; replace any copy whose server died.
    MirrorEntry& entry = it->second;
    RpcFuture futures[2];
    bool issued[2] = {false, false};
    for (int c = 0; c < 2; ++c) {
      ServerPeer& peer = cluster_.peer(entry.copies[c].peer);
      if (peer.alive()) {
        futures[c] = peer.StartPageOut(entry.copies[c].slot, data);
        issued[c] = true;
      }
    }
    RMP_RETURN_IF_ERROR(JoinReplicaWrites(&now, data, &entry, futures, issued));
    stats_.paging_time += now - start;
    trace.set_ok();
    return now;
  }

  // Fresh page: reserve slots on two distinct servers up front, then write
  // both replicas in parallel. With a cluster map adopted, the page's
  // two-deep owner chain gets first refusal on each slot.
  size_t want[2] = {kNoPeer, kNoPeer};
  if (has_cluster_map()) {
    const auto chain = cluster_map().OwnerChain(cluster_map().GroupOf(page_id), 2);
    for (size_t c = 0; c < chain.size() && c < 2; ++c) {
      want[c] = chain[c];
    }
  }
  MirrorEntry entry;
  auto first = PlaceReplica({}, want[0], kNoPeer, &now);
  if (!first.ok()) {
    return first.status();
  }
  entry.copies[0] = *first;
  auto second = PlaceReplica({}, want[1], first->peer, &now);
  if (!second.ok()) {
    return second.status();
  }
  entry.copies[1] = *second;
  RpcFuture futures[2];
  const bool issued[2] = {true, true};
  for (int c = 0; c < 2; ++c) {
    futures[c] = cluster_.peer(entry.copies[c].peer).StartPageOut(entry.copies[c].slot, data);
  }
  RMP_RETURN_IF_ERROR(JoinReplicaWrites(&now, data, &entry, futures, issued));
  table_.emplace(page_id, entry);
  stats_.paging_time += now - start;
  trace.set_ok();
  return now;
}

Result<TimeNs> MirroringBackend::PageIn(TimeNs now, uint64_t page_id, std::span<uint8_t> out) {
  auto it = table_.find(page_id);
  if (it == table_.end()) {
    return NotFoundError("page " + std::to_string(page_id) + " was never paged out");
  }
  ++stats_.pageins;
  const TimeNs start = now;
  TraceScope trace(&tracer_, TraceOp::kPageIn, page_id, &now);
  for (int c = 0; c < 2; ++c) {
    const size_t copy_peer = it->second.copies[c].peer;
    ServerPeer& peer = cluster_.peer(copy_peer);
    if (!peer.alive() && !peer.transport().connected()) {
      continue;  // Known-dead server; go straight to the surviving copy.
    }
    const Status status = ReliablePageIn(copy_peer, it->second.copies[c].slot, out, &now);
    if (status.ok()) {
      if (c == 1) {
        // The primary was unreachable; the read was served by the mirror.
        ++stats_.failovers;
      }
      now = ChargePageTransfer(now, copy_peer);
      stats_.paging_time += now - start;
      trace.set_ok();
      return now;
    }
    if (!IsRetryableError(status)) {
      return status;
    }
  }
  // Both replicas are gone: the double failure exceeds what mirroring
  // tolerates, and no retry can bring the bytes back.
  return DataLossError("both replicas of page " + std::to_string(page_id) + " unreachable");
}

Result<uint64_t> MirroringBackend::ResilverChunk(size_t peer_index, uint64_t max_pages,
                                                 TimeNs* now) {
  if (max_pages == 0) {
    return InvalidArgumentError("resilver chunk must be at least one page");
  }
  const std::vector<StoredCopy> orphaned = CopiesOn(peer_index, max_pages);
  if (orphaned.empty()) {
    return 0;  // Every page is fully replicated again.
  }
  // Resilver in bulk: orphans cluster on the few surviving servers, so the
  // reads batch per survivor; the replacement writes then batch per
  // destination once each orphan has a reserved slot.
  std::vector<PageWant> wants;
  wants.reserve(orphaned.size());
  for (const StoredCopy& orphan : orphaned) {
    const Replica& live = table_.at(orphan.page_id).copies[1 - orphan.copy];
    wants.push_back(PageWant{live.peer, live.slot});
  }
  FetchedPages pages;
  RMP_RETURN_IF_ERROR(BatchFetch(wants, &pages, now));

  std::map<size_t, std::vector<size_t>> by_dest;  // Destination peer -> orphan indices.
  std::vector<Replica> placed(orphaned.size());
  for (size_t i = 0; i < orphaned.size(); ++i) {
    auto replica = PlaceReplica({}, kNoPeer, wants[i].peer, now);
    if (!replica.ok()) {
      return replica.status();
    }
    placed[i] = *replica;
    by_dest[replica->peer].push_back(i);
  }
  for (auto& [dest, indices] : by_dest) {
    for (size_t pos = 0; pos < indices.size(); pos += kMaxBatchPages) {
      const size_t n = std::min<size_t>(kMaxBatchPages, indices.size() - pos);
      std::vector<uint64_t> slots(n);
      std::vector<uint8_t> data(n * kPageSize);
      for (size_t j = 0; j < n; ++j) {
        const size_t i = indices[pos + j];
        slots[j] = placed[i].slot;
        std::copy(pages.page(i).begin(), pages.page(i).end(), data.begin() + j * kPageSize);
      }
      auto advise = cluster_.peer(dest).PageOutBatchTo(slots, data);
      if (advise.ok()) {
        *now = ChargePageBatchTransferAsync(*now, n, dest);
        HeedAdvice(dest, *advise);
        for (size_t j = 0; j < n; ++j) {
          const StoredCopy& orphan = orphaned[indices[pos + j]];
          table_.at(orphan.page_id).copies[orphan.copy] = placed[indices[pos + j]];
        }
        continue;
      }
      if (!IsRetryableError(advise.status())) {
        return advise.status();
      }
      // The destination died mid-resilver; repair this chunk page by page.
      for (size_t j = 0; j < n; ++j) {
        const size_t i = indices[pos + j];
        auto replica = PlaceReplica(pages.page(i), kNoPeer, wants[i].peer, now);
        if (!replica.ok()) {
          return replica.status();
        }
        table_.at(orphaned[i].page_id).copies[orphaned[i].copy] = *replica;
      }
    }
  }
  stats_.reconstructions += static_cast<int64_t>(orphaned.size());
  RMP_LOG(kInfo) << "mirroring: re-replicated " << orphaned.size() << " pages after crash of peer "
                 << peer_index;
  return orphaned.size();
}

Status MirroringBackend::Recover(size_t peer_index, TimeNs* now) {
  return RunSteps([&] { return ResilverChunk(peer_index, kMaxBatchPages, now); }).status();
}

Result<uint64_t> MirroringBackend::RepairStep(size_t peer, uint64_t max_pages, TimeNs* now) {
  return ResilverChunk(peer, max_pages, now);
}

Result<uint64_t> MirroringBackend::MigrateStep(size_t peer, uint64_t max_pages, TimeNs* now) {
  RMP_RETURN_IF_ERROR(BeginDrain(peer));
  const std::vector<StoredCopy> victims = CopiesOn(peer, max_pages);
  for (const StoredCopy& victim : victims) {
    // Read the replica (or, if the overloaded server drops the request, its
    // mirror), place it on a third server, and only then retire it here. A
    // placement that fails (e.g. kNoSpace: nowhere left to drain to) returns
    // with both copies where they were.
    const Replica mirror = table_.at(victim.page_id).copies[1 - victim.copy];
    RMP_RETURN_IF_ERROR(MoveCopy(victim, mirror,
                                 [&](std::span<const uint8_t> page, TimeNs* t) -> Status {
                                   auto replica = PlaceReplica(page, kNoPeer, mirror.peer, t);
                                   RMP_RETURN_IF_ERROR(replica.status());
                                   table_.at(victim.page_id).copies[victim.copy] = *replica;
                                   return OkStatus();
                                 },
                                 now));
  }
  return victims.size();
}

Result<uint64_t> MirroringBackend::RebalanceStep(uint64_t max_pages, TimeNs* now) {
  if (!has_cluster_map() || max_pages == 0) {
    return 0;
  }
  const ClusterMap& map = cluster_map();
  struct Move {
    StoredCopy stray;
    Replica other;
    size_t dest = 0;  // The owner-chain peer missing a copy.
  };
  std::vector<Move> moves;
  for (const auto& [page_id, entry] : table_) {
    const auto chain = map.OwnerChain(map.GroupOf(page_id), 2);
    if (chain.size() < 2) {
      continue;  // Fewer than two active members: nowhere better to be.
    }
    const size_t p0 = entry.copies[0].peer;
    const size_t p1 = entry.copies[1].peer;
    const bool in0 = p0 == chain[0] || p0 == chain[1];
    const bool in1 = p1 == chain[0] || p1 == chain[1];
    if (in0 && in1 && p0 != p1) {
      continue;  // Both copies sit on the chain already.
    }
    // Move one stray copy per step; a page with both copies astray converges
    // over two steps. The destination is a chain peer not already holding a
    // copy — and it must be usable before the move is attempted.
    const int stray = in0 ? 1 : 0;
    const Replica& keep = entry.copies[1 - stray];
    const size_t dest = chain[0] != keep.peer ? chain[0] : chain[1];
    const Replica& old = entry.copies[stray];
    if (dest == old.peer || !cluster_.peer(dest).usable()) {
      continue;
    }
    moves.push_back({StoredCopy{page_id, old.peer, old.slot, stray}, keep, dest});
    if (moves.size() >= max_pages) {
      break;
    }
  }
  uint64_t moved = 0;
  for (const Move& mv : moves) {
    // The page keeps two copies except for the stray being retired, so a
    // crash mid-move loses nothing. A failed move is skipped; a later step
    // retries it.
    const Status status = MoveCopy(mv.stray, mv.other,
                                   [&](std::span<const uint8_t> page, TimeNs* t) -> Status {
                                     auto at = StoreOnPeer(mv.dest, page, t);
                                     RMP_RETURN_IF_ERROR(at.status());
                                     table_.at(mv.stray.page_id).copies[mv.stray.copy] = *at;
                                     return OkStatus();
                                   },
                                   now);
    moved += status.ok() ? 1 : 0;
  }
  return moved;
}

void MirroringBackend::ScanStoredCopies(const CopyVisitor& visit) const {
  for (const auto& [page_id, entry] : table_) {
    for (int c = 0; c < 2; ++c) {
      if (!visit(StoredCopy{page_id, entry.copies[c].peer, entry.copies[c].slot, c})) {
        return;
      }
    }
  }
}

int64_t MirroringBackend::fully_replicated_pages() const {
  int64_t n = 0;
  for (const auto& [page_id, entry] : table_) {
    const ServerPeer& a = cluster_.peer(entry.copies[0].peer);
    const ServerPeer& b = cluster_.peer(entry.copies[1].peer);
    if (a.alive() && b.alive() && entry.copies[0].peer != entry.copies[1].peer) {
      ++n;
    }
  }
  return n;
}

}  // namespace rmp
