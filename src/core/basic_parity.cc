#include "src/core/basic_parity.h"

#include <algorithm>
#include <cassert>

#include "src/util/logging.h"

namespace rmp {

namespace {
constexpr uint64_t kEmptyCell = ~0ull;
}  // namespace

BasicParityBackend::BasicParityBackend(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
                                       const RemotePagerParams& params, size_t parity_peer,
                                       size_t data_columns)
    : RemotePagerBase(std::move(cluster), std::move(fabric), params), parity_peer_(parity_peer) {
  assert(parity_peer_ < cluster_.size());
  for (size_t i = 0; i < cluster_.size(); ++i) {
    if (i != parity_peer_ && (data_columns == 0 || columns_.size() < data_columns)) {
      columns_.push_back(i);
    }
  }
  assert(!columns_.empty());
}

Status BasicParityBackend::EnsureRow(uint64_t row, TimeNs* now) {
  // The stripe geometry assumes this backend is the sole client of its
  // servers starting from a fresh state, so extents come back row-aligned:
  // slot r on every server is stripe row r.
  while (rows_provisioned_ <= row) {
    for (const size_t column : columns_) {
      RMP_RETURN_IF_ERROR(cluster_.peer(column).AllocExtent(params_.alloc_extent_pages));
    }
    RMP_RETURN_IF_ERROR(cluster_.peer(parity_peer_).AllocExtent(params_.alloc_extent_pages));
    *now = ChargeControl(*now);
    rows_provisioned_ += params_.alloc_extent_pages;
  }
  return OkStatus();
}

Result<TimeNs> BasicParityBackend::PageOut(TimeNs now, uint64_t page_id,
                                           std::span<const uint8_t> data) {
  if (data.size() != kPageSize) {
    return InvalidArgumentError("page must be exactly kPageSize bytes");
  }
  ++stats_.pageouts;
  const TimeNs start = now;
  TraceScope trace(&tracer_, TraceOp::kPageOut, page_id, &now);
  Position pos;
  auto it = table_.find(page_id);
  if (it != table_.end()) {
    pos = it->second;
  } else {
    const uint64_t seq = next_sequence_++;
    pos.column = static_cast<size_t>(seq % columns_.size());
    pos.row = seq / columns_.size();
    RMP_RETURN_IF_ERROR(EnsureRow(pos.row, &now));
    table_.emplace(page_id, pos);
    auto& row_cells = row_pages_[pos.row];
    row_cells.resize(columns_.size(), kEmptyCell);
    row_cells[pos.column] = page_id;
  }
  // Step 1: data server stores the page and returns old XOR new.
  const size_t holder = columns_[pos.column];
  auto delta = cluster_.peer(holder).DeltaPageOutTo(pos.row, data);
  if (!delta.ok()) {
    if (!ShouldRetry(holder, delta.status())) {
      return delta.status();
    }
    // A message was lost around the delta store. The ambiguity matters
    // here: if the store applied but its reply was dropped, re-running
    // DeltaPageOut returns old XOR new = 0 and the parity would silently
    // go stale. Recover with idempotent operations instead: plain-store
    // the page, then recompute the whole row's parity from its cells.
    cluster_.peer(holder).mark_alive();
    ChargeBackoff(1, &now);
    auto advise = ReliablePageOut(holder, pos.row, data, &now);
    if (!advise.ok()) {
      return advise.status();
    }
    now = ChargePageTransfer(now, holder);
    const TimeNs parity_start = now;
    RMP_RETURN_IF_ERROR(RefreshParityRow(pos.row, &now));
    tracer_.Span(TraceStage::kParity, parity_start, now);
    stats_.paging_time += now - start;
    trace.set_ok();
    return now;
  }
  now = ChargePageTransfer(now, holder);
  const TimeNs parity_start = now;
  // Step 2: the delta updates the parity server in place. On the paper's
  // shared Ethernet this second transfer serializes behind the first; the
  // client must also wait for it before discarding the page (§2.2).
  const Status merged = cluster_.peer(parity_peer_).XorMergeOn(pos.row, delta->span());
  if (!merged.ok()) {
    if (!ShouldRetry(parity_peer_, merged)) {
      return merged;
    }
    // Same ambiguity as the delta store: the merge may or may not have
    // folded in. XOR-merging twice would corrupt the parity, so rebuild
    // the row's parity from scratch.
    cluster_.peer(parity_peer_).mark_alive();
    ChargeBackoff(1, &now);
    RMP_RETURN_IF_ERROR(RefreshParityRow(pos.row, &now));
    tracer_.Span(TraceStage::kParity, parity_start, now);
    stats_.paging_time += now - start;
    trace.set_ok();
    return now;
  }
  now = ChargePageTransfer(now, parity_peer_);
  tracer_.Span(TraceStage::kParity, parity_start, now);
  stats_.paging_time += now - start;
  trace.set_ok();
  return now;
}

Status BasicParityBackend::XorCells(uint64_t row, size_t skip_column, PageBuffer* acc,
                                    TimeNs* now) {
  auto cells_it = row_pages_.find(row);
  if (cells_it == row_pages_.end()) {
    return InternalError("stripe row " + std::to_string(row) + " was never written");
  }
  const std::vector<uint64_t>& cells = cells_it->second;
  PageBuffer page;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c == skip_column || c >= cells.size() || cells[c] == kEmptyCell) {
      continue;  // Cell never written; it contributes zeroes to the parity.
    }
    RMP_RETURN_IF_ERROR(ReliablePageIn(columns_[c], row, page.span(), now));
    *now = ChargePageTransfer(*now, columns_[c]);
    acc->XorWith(page.span());
  }
  return OkStatus();
}

Status BasicParityBackend::RefreshParityRow(uint64_t row, TimeNs* now) {
  PageBuffer xor_buf;
  RMP_RETURN_IF_ERROR(XorCells(row, columns_.size(), &xor_buf, now));
  auto advise = ReliablePageOut(parity_peer_, row, xor_buf.span(), now);
  if (!advise.ok()) {
    return advise.status();
  }
  *now = ChargePageTransfer(*now, parity_peer_);
  return OkStatus();
}

Result<TimeNs> BasicParityBackend::PageIn(TimeNs now, uint64_t page_id, std::span<uint8_t> out) {
  auto it = table_.find(page_id);
  if (it == table_.end()) {
    return NotFoundError("page " + std::to_string(page_id) + " was never paged out");
  }
  ++stats_.pageins;
  const TimeNs start = now;
  TraceScope trace(&tracer_, TraceOp::kPageIn, page_id, &now);
  const Position pos = it->second;
  ServerPeer& holder = cluster_.peer(columns_[pos.column]);
  if (holder.alive() || holder.transport().connected()) {
    const Status status = ReliablePageIn(columns_[pos.column], pos.row, out, &now);
    if (status.ok()) {
      now = ChargePageTransfer(now, columns_[pos.column]);
      stats_.paging_time += now - start;
      trace.set_ok();
      return now;
    }
    if (!IsRetryableError(status)) {
      return status;
    }
  }
  // Degraded read: parity row XOR surviving columns of the stripe.
  ++stats_.degraded_reads;
  const TimeNs parity_start = now;
  PageBuffer xor_buf;
  RMP_RETURN_IF_ERROR(ReliablePageIn(parity_peer_, pos.row, xor_buf.span(), &now));
  now = ChargePageTransfer(now, parity_peer_);
  RMP_RETURN_IF_ERROR(XorCells(pos.row, pos.column, &xor_buf, &now));
  std::copy(xor_buf.span().begin(), xor_buf.span().end(), out.begin());
  tracer_.Span(TraceStage::kParity, parity_start, now);
  stats_.paging_time += now - start;
  trace.set_ok();
  return now;
}

Status BasicParityBackend::Recover(size_t peer_index, TimeNs* now) {
  size_t dead_column = columns_.size();
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] == peer_index) {
      dead_column = c;
      break;
    }
  }
  if (dead_column == columns_.size()) {
    return InvalidArgumentError("peer is not a data column");
  }
  if (!spare_peer_.has_value()) {
    return FailedPreconditionError("no spare server registered for rebuild");
  }
  const size_t spare = *spare_peer_;
  ServerPeer& spare_server = cluster_.peer(spare);
  // Provision the spare with the full row range.
  for (uint64_t provisioned = 0; provisioned < rows_provisioned_;
       provisioned += params_.alloc_extent_pages) {
    RMP_RETURN_IF_ERROR(spare_server.AllocExtent(params_.alloc_extent_pages));
  }
  *now = ChargeControl(*now);

  PageBuffer xor_buf;
  int64_t rebuilt = 0;
  for (auto& [row, cells] : row_pages_) {
    if (cells[dead_column] == kEmptyCell) {
      continue;  // Nothing of the dead column in this stripe row.
    }
    xor_buf.Clear();
    RMP_RETURN_IF_ERROR(ReliablePageIn(parity_peer_, row, xor_buf.span(), now));
    *now = ChargePageTransfer(*now, parity_peer_);
    RMP_RETURN_IF_ERROR(XorCells(row, dead_column, &xor_buf, now));
    auto advise = ReliablePageOut(spare, row, xor_buf.span(), now);
    if (!advise.ok()) {
      return advise.status();
    }
    *now = ChargePageTransfer(*now, spare);
    ++rebuilt;
    ++stats_.reconstructions;
  }
  columns_[dead_column] = spare;
  spare_peer_.reset();
  RMP_LOG(kInfo) << "basic parity: rebuilt " << rebuilt << " rows onto "
                 << spare_server.name();
  return OkStatus();
}

Result<uint64_t> BasicParityBackend::RepairStep(size_t peer, uint64_t max_pages, TimeNs* now) {
  (void)max_pages;
  bool is_column = false;
  for (const size_t column : columns_) {
    if (column == peer) {
      is_column = true;
      break;
    }
  }
  if (!is_column) {
    return 0;  // Already swapped to the spare, or not a data column.
  }
  const int64_t before = stats_.reconstructions;
  RMP_RETURN_IF_ERROR(Recover(peer, now));
  // Even an empty column rebuild counts as one quantum of progress so the
  // job completes on the next call, when the column swap makes this a no-op.
  return static_cast<uint64_t>(std::max<int64_t>(1, stats_.reconstructions - before));
}

void BasicParityBackend::ScanStoredCopies(const CopyVisitor& visit) const {
  for (const auto& [page_id, pos] : table_) {
    if (!visit(StoredCopy{page_id, columns_[pos.column], pos.row})) {
      return;
    }
  }
  // Every written stripe row keeps a parity page on the parity server.
  for (const auto& [row, cells] : row_pages_) {
    if (!visit(StoredCopy{0, parity_peer_, row, 0, false})) {
      return;
    }
  }
}

}  // namespace rmp
