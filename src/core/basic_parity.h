// BASIC PARITY — the in-place RAID-5-style scheme the paper analyzes and
// rejects (§2.2 "Parity"): page (i, j) is the j-th page of server i, and
// parity page j on the parity server is the XOR of the j-th pages of all
// data servers. A pageout updates parity in place:
//   1. the client sends the new page to its data server, which computes
//      old XOR new while storing it, and
//   2. the delta is folded into the stored parity on the parity server.
// That is two page transfers per pageout — as expensive as mirroring on the
// wire — and the client must keep the page until the parity update lands.
// Memory overhead, however, is only a factor of (1 + 1/S): this policy
// exists as the baseline that motivates parity logging.

#ifndef SRC_CORE_BASIC_PARITY_H_
#define SRC_CORE_BASIC_PARITY_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/remote_pager.h"

namespace rmp {

class BasicParityBackend final : public RemotePagerBase {
 public:
  // Peer `parity_peer` stores parity; the first `data_columns` non-parity
  // peers are the stripe's data columns (0 = every non-parity peer). Peers
  // beyond that — e.g. a hot spare — stay out of the stripe until recovery
  // rebuilds onto them. Stripe row j uses slot j on every server (slots are
  // pre-allocated in extents).
  BasicParityBackend(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
                     const RemotePagerParams& params, size_t parity_peer,
                     size_t data_columns = 0);

  Result<TimeNs> PageOut(TimeNs now, uint64_t page_id, std::span<const uint8_t> data) override;
  Result<TimeNs> PageIn(TimeNs now, uint64_t page_id, std::span<uint8_t> out) override;

  std::string Name() const override { return "BASIC_PARITY"; }

  // Reconstructs the pages of a crashed data server. The stripe geometry is
  // fixed, so recovered rows are rebuilt onto a spare column registered via
  // SetSpare(); without one, recovery fails with FAILED_PRECONDITION.
  // Degraded reads (PageIn from the crashed column) work even before
  // recovery, by XORing the parity row with the surviving columns.
  Status Recover(size_t peer_index, TimeNs* now);

  // RepairCoordinator hook. The in-place scheme's stripe geometry is fixed,
  // so the rebuild onto the spare is one-shot (the whole column in a single
  // call, ignoring `max_pages`); after the column swap a second call sees no
  // trace of the dead peer and reports completion. A crash of the parity
  // peer or a non-column peer is reported complete immediately — rebuilding
  // the parity column is out of scope for this rejected baseline.
  Result<uint64_t> RepairStep(size_t peer, uint64_t max_pages, TimeNs* now) override;

  // Registers an unused peer as the hot spare recovery rebuilds onto.
  void SetSpare(size_t peer_index) { spare_peer_ = peer_index; }

  size_t parity_peer() const { return parity_peer_; }

 private:
  void ScanStoredCopies(const CopyVisitor& visit) const override;

  struct Position {
    size_t column = 0;  // Index into columns_ (data servers).
    uint64_t row = 0;   // Stripe row = slot index on every server.
  };

  // Ensures slot `row` exists on every column and the parity server.
  Status EnsureRow(uint64_t row, TimeNs* now);

  // XORs into *acc every written cell of stripe row `row` except column
  // `skip_column` (columns_.size() skips none), reading each from its data
  // server in column order.
  Status XorCells(uint64_t row, size_t skip_column, PageBuffer* acc, TimeNs* now);

  // Recomputes row `row`'s parity from its live data cells and stores it
  // with a plain, idempotent pageout. The delta protocol
  // (DeltaPageOut + XorMerge) is NOT idempotent: once a store applied but
  // its reply was lost, re-running it yields a zero delta and the parity
  // never learns about the new data. Any pageout that loses a message
  // mid-stripe therefore falls back to plain stores plus this refresh.
  Status RefreshParityRow(uint64_t row, TimeNs* now);

  size_t parity_peer_;
  std::vector<size_t> columns_;          // Data server peer indices.
  std::optional<size_t> spare_peer_;
  std::unordered_map<uint64_t, Position> table_;
  std::unordered_map<uint64_t, std::vector<uint64_t>>
      row_pages_;                        // row -> page_id per column (or ~0ull).
  uint64_t rows_provisioned_ = 0;
  uint64_t next_sequence_ = 0;           // Round-robin placement counter.
};

}  // namespace rmp

#endif  // SRC_CORE_BASIC_PARITY_H_
