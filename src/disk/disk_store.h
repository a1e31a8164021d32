// Real file-backed page store: the functional half of the local swap
// partition. The pager's DISK and WRITE_THROUGH configurations store actual
// page bytes here (via pread/pwrite at slot offsets), so data integrity is
// end-to-end testable; the DiskModel supplies the RZ55 timing.

#ifndef SRC_DISK_DISK_STORE_H_
#define SRC_DISK_DISK_STORE_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/util/free_runs.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace rmp {

class DiskStore {
 public:
  // Creates a store of `blocks` page slots backed by an unlinked temporary
  // file under `dir` ("" uses $TMPDIR or /tmp).
  static Result<DiskStore> Create(uint64_t blocks, const std::string& dir = "");

  DiskStore(DiskStore&& other) noexcept;
  DiskStore& operator=(DiskStore&& other) noexcept;
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;
  ~DiskStore();

  // Writes one page at `block`. The span must be exactly kPageSize bytes.
  Status Write(uint64_t block, std::span<const uint8_t> page);

  // Reads one page at `block` into `out` (exactly kPageSize bytes).
  Status Read(uint64_t block, std::span<uint8_t> out) const;

  // Slot allocation: returns the first block of a contiguous run of `count`
  // slots. Allocation is bump-first (mimicking a swap partition filling in
  // pageout order) with a first-fit free list for reuse.
  Result<uint64_t> Allocate(uint64_t count);
  // Returns a run below the bump pointer to the free list. Blocks that are
  // already free stay free and are not debited again.
  Status Free(uint64_t block, uint64_t count);

  uint64_t blocks() const { return blocks_; }
  uint64_t allocated_blocks() const { return allocated_; }

 private:
  DiskStore(int fd, uint64_t blocks) : fd_(fd), blocks_(blocks) {}

  int fd_ = -1;
  uint64_t blocks_ = 0;
  uint64_t bump_ = 0;       // Next never-used block.
  uint64_t allocated_ = 0;  // Currently live blocks.
  FreeRunList free_runs_;  // Freed blocks below bump_, coalesced.
};

}  // namespace rmp

#endif  // SRC_DISK_DISK_STORE_H_
