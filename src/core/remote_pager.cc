#include "src/core/remote_pager.h"

#include <algorithm>
#include <map>

namespace rmp {

TimeNs RemotePagerBase::ChargeTransferCost(TimeNs now, const NetworkFabric::TransferCost& cost) {
  stats_.protocol_time += cost.protocol;
  stats_.wire_time += cost.wire;
  // Stage decomposition: protocol processing (service), then waiting behind
  // earlier transfers (queue), then this transfer's own wire occupancy.
  tracer_.Span(TraceStage::kService, now, now + cost.protocol);
  const TimeNs enqueue = now + cost.protocol;
  tracer_.Span(TraceStage::kQueue, enqueue, enqueue + cost.queued);
  tracer_.Span(TraceStage::kWire, enqueue + cost.queued, enqueue + cost.wire);
  return cost.completion;
}

TimeNs RemotePagerBase::ChargePageTransfer(TimeNs now, size_t peer) {
  ++stats_.page_transfers;
  return ChargeTransferCost(now, fabric_->Transfer(now, kPageWireBytes, peer));
}

TimeNs RemotePagerBase::ChargePageTransferAsync(TimeNs now, size_t peer) {
  ++stats_.page_transfers;
  return ChargeTransferCost(now, fabric_->TransferAsync(now, kPageWireBytes, peer));
}

TimeNs RemotePagerBase::ChargePageBatchTransfer(TimeNs now, uint64_t pages, size_t peer) {
  stats_.page_transfers += static_cast<int64_t>(pages);
  return ChargeTransferCost(now, fabric_->Transfer(now, BatchWireBytes(pages), peer));
}

TimeNs RemotePagerBase::ChargePageBatchTransferAsync(TimeNs now, uint64_t pages, size_t peer) {
  stats_.page_transfers += static_cast<int64_t>(pages);
  return ChargeTransferCost(now, fabric_->TransferAsync(now, BatchWireBytes(pages), peer));
}

TimeNs RemotePagerBase::ChargeControl(TimeNs now, size_t peer) {
  return ChargeTransferCost(now, fabric_->Transfer(now, kControlWireBytes, peer));
}

void RemotePagerBase::SyncStatsToMetrics() {
  metrics_.GetCounter("backend.pageouts")->store(stats_.pageouts);
  metrics_.GetCounter("backend.pageins")->store(stats_.pageins);
  metrics_.GetCounter("backend.page_transfers")->store(stats_.page_transfers);
  metrics_.GetCounter("backend.disk_transfers")->store(stats_.disk_transfers);
  metrics_.GetCounter("backend.protocol_time_ns")->store(stats_.protocol_time);
  metrics_.GetCounter("backend.wire_time_ns")->store(stats_.wire_time);
  metrics_.GetCounter("backend.disk_time_ns")->store(stats_.disk_time);
  metrics_.GetCounter("backend.paging_time_ns")->store(stats_.paging_time);
  metrics_.GetCounter("backend.retries")->store(stats_.retries);
  metrics_.GetCounter("backend.failovers")->store(stats_.failovers);
  metrics_.GetCounter("backend.degraded_reads")->store(stats_.degraded_reads);
  metrics_.GetCounter("backend.reconstructions")->store(stats_.reconstructions);
  metrics_.GetCounter("backend.backoff_time_ns")->store(stats_.backoff_time);
  metrics_.GetCounter("backend.stale_epoch_retries")->store(stats_.stale_epoch_retries);
}

Result<uint64_t> RemotePagerBase::TakeSlotOn(size_t i, TimeNs* now) {
  ServerPeer& peer = cluster_.peer(i);
  auto slot = peer.TakeSlot();
  if (slot.ok()) {
    return slot;
  }
  if (peer.no_new_extents()) {
    return NoSpaceError(peer.name() + " advised stop; pool exhausted");
  }
  for (int attempt = 1;; ++attempt) {
    Status granted = peer.AllocExtent(params_.alloc_extent_pages);
    if (granted.code() == ErrorCode::kNoSpace && params_.alloc_extent_pages > 1) {
      // A long-lived server's free space fragments into scattered single
      // slots (reclaimed parity-group members); fall back to single-slot
      // grants before giving up on the server.
      granted = peer.AllocExtent(1);
    }
    if (granted.code() == ErrorCode::kStaleEpoch && attempt < params_.retry.max_attempts) {
      NoteStaleEpoch(attempt, now);
      continue;
    }
    RMP_RETURN_IF_ERROR(granted);
    break;
  }
  *now = ChargeControl(*now);
  return peer.TakeSlot();
}

bool RemotePagerBase::IsRetryableError(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kUnavailable:
    case ErrorCode::kIoError:
    case ErrorCode::kCorruption:
      return true;
    default:
      return false;
  }
}

bool RemotePagerBase::ShouldRetry(size_t peer_index, const Status& status) {
  return IsRetryableError(status) && cluster_.peer(peer_index).transport().connected();
}

void RemotePagerBase::ChargeBackoff(int attempt, TimeNs* now) {
  const RetryParams& retry = params_.retry;
  DurationNs delay = retry.backoff_base;
  for (int i = 1; i < attempt && delay < retry.backoff_max; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, retry.backoff_max);
  if (retry.jitter > 0.0) {
    const double scale = 1.0 + retry.jitter * (2.0 * retry_rng_.NextDouble() - 1.0);
    delay = static_cast<DurationNs>(static_cast<double>(delay) * scale);
  }
  tracer_.Span(TraceStage::kBackoff, *now, *now + delay);
  *now += delay;
  stats_.backoff_time += delay;
  ++stats_.retries;
}

namespace {

const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const Result<T>& result) {
  return result.status();
}

}  // namespace

template <typename Op>
auto RemotePagerBase::WithRetries(size_t peer_index, TimeNs* now, const Op& op) {
  ServerPeer& peer = cluster_.peer(peer_index);
  for (int attempt = 1;; ++attempt) {
    auto result = op(peer);
    const Status& status = StatusOf(result);
    if (status.code() == ErrorCode::kStaleEpoch && attempt < params_.retry.max_attempts) {
      // The server holds a newer map than we stamped. Refresh and retry the
      // same slot: during a handoff the old owner keeps serving reads until
      // the new owner acked the last page, so the op stays answerable.
      NoteStaleEpoch(attempt, now);
      continue;
    }
    if (status.ok() || attempt >= params_.retry.max_attempts ||
        !ShouldRetry(peer_index, status)) {
      return result;
    }
    // The RPC helper marked the peer dead, but its connection is up: only a
    // message was lost. Restore liveness and try again after backing off.
    peer.mark_alive();
    ChargeBackoff(attempt, now);
  }
}

Status RemotePagerBase::ReliablePageIn(size_t peer_index, uint64_t slot, std::span<uint8_t> out,
                                       TimeNs* now) {
  return WithRetries(peer_index, now, [&](ServerPeer& peer) { return peer.PageInFrom(slot, out); });
}

Result<bool> RemotePagerBase::ReliablePageOut(size_t peer_index, uint64_t slot,
                                              std::span<const uint8_t> data, TimeNs* now) {
  return WithRetries(peer_index, now,
                     [&](ServerPeer& peer) { return peer.PageOutTo(slot, data); });
}

Status RemotePagerBase::ReliableFree(size_t peer_index, uint64_t first_slot, uint64_t count,
                                     TimeNs* now) {
  return WithRetries(peer_index, now,
                     [&](ServerPeer& peer) { return peer.FreeOn(first_slot, count); });
}

Status RemotePagerBase::BatchFetch(std::span<const PageWant> wants, FetchedPages* out,
                                   TimeNs* now) {
  out->payloads_.clear();
  out->pages_.assign(wants.size(), {});
  if (wants.empty()) {
    return OkStatus();
  }
  // Group want indices by peer (ordered, for determinism), then chunk each
  // peer's run at the wire limit.
  std::map<size_t, std::vector<size_t>> by_peer;
  for (size_t i = 0; i < wants.size(); ++i) {
    by_peer[wants[i].peer].push_back(i);
  }
  struct Chunk {
    size_t peer = 0;
    std::vector<size_t> indices;
    std::vector<uint64_t> slots;
    RpcFuture future;
  };
  std::vector<Chunk> chunks;
  for (auto& [peer, indices] : by_peer) {
    for (size_t pos = 0; pos < indices.size(); pos += kMaxBatchPages) {
      Chunk chunk;
      chunk.peer = peer;
      const size_t n = std::min<size_t>(kMaxBatchPages, indices.size() - pos);
      chunk.indices.assign(indices.begin() + pos, indices.begin() + pos + n);
      chunk.slots.reserve(n);
      for (const size_t i : chunk.indices) {
        chunk.slots.push_back(wants[i].slot);
      }
      chunks.push_back(std::move(chunk));
    }
  }
  // Fan out: every chunk's request is on the wire before any reply is
  // awaited, so reads to different peers overlap and the modeled fabric
  // charges them from a common start.
  for (Chunk& chunk : chunks) {
    chunk.future = cluster_.peer(chunk.peer).StartPageInBatch(chunk.slots);
  }
  const TimeNs fan_start = *now;
  TimeNs fan_done = *now;
  Status first_error = OkStatus();
  out->payloads_.reserve(chunks.size());
  for (Chunk& chunk : chunks) {
    ServerPeer& peer = cluster_.peer(chunk.peer);
    auto joined = peer.JoinPageInBatch(std::move(chunk.future), chunk.slots.size());
    // Transient failure against a live connection: retry *this chunk only*.
    // Chunks that already joined keep their pages and their single charge —
    // re-fetching them would double-apply the batch on the wire and in the
    // stats (the BatchFetch partial-failure bug).
    for (int attempt = 1; !joined.ok() && attempt < params_.retry.max_attempts &&
                          ShouldRetry(chunk.peer, joined.status());
         ++attempt) {
      peer.mark_alive();
      TimeNs backoff_now = fan_start;
      ChargeBackoff(attempt, &backoff_now);
      fan_done = std::max(fan_done, backoff_now);
      joined = peer.JoinPageInBatch(peer.StartPageInBatch(chunk.slots), chunk.slots.size());
    }
    if (!joined.ok()) {
      // Keep draining the remaining futures so the transport settles.
      if (first_error.ok()) {
        first_error = joined.status();
      }
      continue;
    }
    fan_done = std::max(fan_done, ChargePageBatchTransfer(fan_start, chunk.slots.size(),
                                                          chunk.peer));
    // Moving the payload keeps its buffer, so the views stay valid.
    const std::vector<uint8_t>& payload = out->payloads_.emplace_back(std::move(*joined));
    for (size_t j = 0; j < chunk.indices.size(); ++j) {
      out->pages_[chunk.indices[j]] =
          std::span<const uint8_t>(payload).subspan(j * kPageSize, kPageSize);
    }
  }
  *now = fan_done;
  return first_error;
}

Result<size_t> RemotePagerBase::PickPeer(TimeNs* now) {
  if (params_.selection == ServerSelection::kRoundRobin) {
    return cluster_.NextUsable(&rr_cursor_);
  }
  const bool refresh = ++pageouts_since_refresh_ > kLoadRefreshInterval;
  if (refresh) {
    pageouts_since_refresh_ = 0;
    *now = ChargeControl(*now);  // One round of LOAD_QUERY traffic.
  }
  return cluster_.MostPromising(refresh);
}

// A policy without redundancy has nothing to restore: the coordinator's job
// completes immediately and reads surface DATA_LOSS as before. Likewise for
// drains and rebalances a policy does not implement.
Result<uint64_t> RemotePagerBase::RepairStep(size_t, uint64_t, TimeNs*) { return 0; }
Result<uint64_t> RemotePagerBase::MigrateStep(size_t, uint64_t, TimeNs*) { return 0; }
Result<uint64_t> RemotePagerBase::RebalanceStep(uint64_t, TimeNs*) { return 0; }

Result<uint64_t> RemotePagerBase::RunSteps(const std::function<Result<uint64_t>()>& step) {
  uint64_t total = 0;
  while (true) {
    auto done = step();
    if (!done.ok()) {
      return done.status();
    }
    if (*done == 0) {
      return total;
    }
    total += *done;
  }
}

Status RemotePagerBase::BeginDrain(size_t peer) {
  ServerPeer& source = cluster_.peer(peer);
  if (!source.alive()) {
    return UnavailableError("cannot drain " + source.name() + ": it crashed");
  }
  // Stop placements first so the drain converges and never re-targets the
  // server being drained.
  source.set_stopped(true);
  return OkStatus();
}

uint64_t RemotePagerBase::PagesOn(size_t peer) const {
  uint64_t count = 0;
  ScanStoredCopies([&](const StoredCopy& copy) {
    count += copy.peer == peer ? 1 : 0;
    return true;
  });
  return count;
}

std::vector<RemotePagerBase::StoredCopy> RemotePagerBase::CopiesOn(size_t peer,
                                                                   uint64_t max_copies) const {
  std::vector<StoredCopy> copies;
  if (max_copies == 0) {
    return copies;
  }
  ScanStoredCopies([&](const StoredCopy& copy) {
    if (copy.live && copy.peer == peer) {
      copies.push_back(copy);
    }
    return copies.size() < max_copies;
  });
  return copies;
}

void RemotePagerBase::HeedAdvice(size_t peer, bool advise_stop) {
  if (advise_stop) {
    cluster_.peer(peer).set_no_new_extents(true);
  }
}

Status RemotePagerBase::StoreAt(SlotRef at, std::span<const uint8_t> data, TimeNs* now) {
  auto advise = ReliablePageOut(at.peer, at.slot, data, now);
  if (!advise.ok()) {
    return advise.status();
  }
  *now = ChargePageTransferAsync(*now, at.peer);
  HeedAdvice(at.peer, *advise);
  return OkStatus();
}

Result<RemotePagerBase::SlotRef> RemotePagerBase::StoreOnPeer(size_t peer,
                                                              std::span<const uint8_t> data,
                                                              TimeNs* now) {
  auto slot = TakeSlotOn(peer, now);
  if (!slot.ok()) {
    return slot.status();
  }
  const SlotRef at{peer, *slot};
  if (!data.empty()) {
    const Status stored = StoreAt(at, data, now);
    if (!stored.ok()) {
      cluster_.peer(peer).ReturnSlot(*slot);
      return stored;
    }
  }
  return at;
}

Result<std::optional<RemotePagerBase::SlotRef>> RemotePagerBase::WriteFreshSlot(
    std::span<const uint8_t> data, size_t max_attempts, const PeerPicker& pick, TimeNs* now) {
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    auto peer = pick(now);
    if (!peer.ok()) {
      return peer.status();
    }
    if (*peer == kNoPeer) {
      break;
    }
    if (*peer == kPickAgain) {
      continue;
    }
    auto stored = StoreOnPeer(*peer, data, now);
    if (stored.ok()) {
      return std::optional<SlotRef>(*stored);
    }
    if (stored.status().code() == ErrorCode::kNoSpace) {
      // Denied (§2.1): stop placing here; the search moves on.
      cluster_.peer(*peer).set_stopped(true);
      continue;
    }
    if (!IsRetryableError(stored.status())) {
      return stored.status();
    }
    // The peer died under the write (the RPC layer marked it dead); the
    // next pick moves on.
  }
  return std::optional<SlotRef>();
}

Status RemotePagerBase::MoveCopy(const StoredCopy& from, const std::optional<SlotRef>& fallback,
                                 const Relocate& relocate, TimeNs* now) {
  PageBuffer page;
  Status read = ReliablePageIn(from.peer, from.slot, page.span(), now);
  size_t source = from.peer;
  if (!read.ok() && fallback.has_value() && IsRetryableError(read)) {
    ServerPeer& holder = cluster_.peer(from.peer);
    if (holder.transport().connected()) {
      holder.mark_alive();  // Only a message was lost; the holder lives on.
    }
    read = ReliablePageIn(fallback->peer, fallback->slot, page.span(), now);
    source = fallback->peer;
  }
  RMP_RETURN_IF_ERROR(read);
  *now = ChargePageTransfer(*now, source);
  RMP_RETURN_IF_ERROR(relocate(page.span(), now));
  (void)ReliableFree(from.peer, from.slot, 1, now);
  return OkStatus();
}

void RemotePagerBase::AdoptLocal(const ClusterMap& map) {
  map_ = map;
  has_map_ = true;
  events_.Append(EventKind::kEpoch, "client",
                 "adopted map epoch=" + std::to_string(map.epoch()) + " members=" +
                     std::to_string(map.members().size()));
  // The map owns placement state from here on: every peer carries the epoch
  // (stamped into data requests), ACTIVE members take new pages, kLeaving and
  // absent members do not — but both keep serving reads for pages still on
  // them (stopped peers stay read-usable; only placement skips them).
  for (size_t i = 0; i < cluster_.size(); ++i) {
    ServerPeer& peer = cluster_.peer(i);
    peer.set_epoch(map_.epoch());
    peer.set_stopped(MapStopsPeer(i));
  }
}

bool RemotePagerBase::MapStopsPeer(size_t peer) const {
  if (!has_map_) {
    return false;
  }
  const ClusterMember* member = map_.FindMember(static_cast<uint32_t>(peer));
  return member == nullptr || member->state != ClusterMember::State::kActive;
}

bool RemotePagerBase::AdoptClusterMap(const ClusterMap& map, TimeNs* now, bool publish) {
  if (has_map_ && map.epoch() <= map_.epoch()) {
    return false;
  }
  AdoptLocal(map);
  if (publish) {
    // Best-effort fan-out: a peer that misses the publish (dead, mid-restart)
    // learns the epoch from the next stamped request it denies, or from the
    // republish after its repair. The client is the map coordinator here —
    // the same central role the paper's pager already plays for placement.
    const std::vector<uint8_t> bytes = map_.Serialize();
    for (size_t i = 0; i < cluster_.size(); ++i) {
      ServerPeer& peer = cluster_.peer(i);
      if (!peer.alive() || !peer.transport().connected()) {
        continue;
      }
      (void)peer.PublishMap(map_.epoch(), bytes);
      *now = ChargeControl(*now, i);
    }
  }
  return true;
}

Status RemotePagerBase::RefreshClusterMap(TimeNs* now) {
  bool found = false;
  ClusterMap newest;
  for (size_t i = 0; i < cluster_.size(); ++i) {
    ServerPeer& peer = cluster_.peer(i);
    if (!peer.transport().connected()) {
      continue;
    }
    auto map = peer.QueryMap();
    *now = ChargeControl(*now, i);
    if (!map.ok()) {
      continue;  // No map there (or the peer just died) — keep scanning.
    }
    if (!found || map->epoch() > newest.epoch()) {
      newest = std::move(*map);
      found = true;
    }
  }
  last_map_refresh_ = *now;
  if (!found) {
    return UnavailableError("no peer returned a cluster map");
  }
  if (!has_map_ || newest.epoch() > map_.epoch()) {
    AdoptLocal(newest);
  }
  return OkStatus();
}

Result<size_t> RemotePagerBase::MapOwnerPeer(uint64_t page_id) const {
  if (!has_map_) {
    return FailedPreconditionError("no cluster map adopted");
  }
  const uint32_t owner = map_.OwnerOf(map_.GroupOf(page_id));
  if (owner >= cluster_.size()) {
    return InternalError("map owner " + std::to_string(owner) + " beyond cluster");
  }
  return static_cast<size_t>(owner);
}

void RemotePagerBase::NotePeerAdded(size_t i) {
  ServerPeer& peer = cluster_.peer(i);
  peer.AttachMetrics(&metrics_);
  peer.set_trace_source(tracer_.wire_id());
  events_.Append(EventKind::kMembership, "client", "peer " + peer.name() + " added");
  if (has_map_) {
    peer.set_epoch(map_.epoch());
    peer.set_stopped(MapStopsPeer(i));
  }
}

Result<size_t> RemotePagerBase::PickPeerForPage(uint64_t page_id, TimeNs* now) {
  if (has_map_ && params_.map_refresh_interval > 0 &&
      *now - last_map_refresh_ >= params_.map_refresh_interval) {
    (void)RefreshClusterMap(now);  // Proactive; staleness is still recoverable.
  }
  if (has_map_) {
    auto owner = MapOwnerPeer(page_id);
    if (owner.ok() && cluster_.peer(*owner).usable()) {
      return owner;
    }
    // Owner dead or full: any usable peer keeps the write landing; the
    // rebalance job walks it home once the owner returns.
  }
  return PickPeer(now);
}

void RemotePagerBase::NoteStaleEpoch(int attempt, TimeNs* now) {
  ++stats_.stale_epoch_retries;
  events_.Append(EventKind::kStaleEpoch, "client",
                 "denied at attempt " + std::to_string(attempt) + ", refreshing map");
  (void)RefreshClusterMap(now);  // Best-effort: the retry re-tests the gate.
  ChargeBackoff(attempt, now);
}

}  // namespace rmp
