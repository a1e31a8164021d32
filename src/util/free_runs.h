// Free extents of a slot or block address space, kept coalesced: an ordered
// map of start -> length in which no two runs touch or overlap. The memory
// server's slot space and the disk store's block space both allocate from
// one of these.

#ifndef SRC_UTIL_FREE_RUNS_H_
#define SRC_UTIL_FREE_RUNS_H_

#include <cstdint>
#include <map>
#include <optional>

namespace rmp {

class FreeRunList {
 public:
  // Unions [start, start + count), count > 0, into the free set, merging it with every
  // run it touches or overlaps. Returns how many of those units were not
  // already free, so freeing a range twice credits it once. O(log n) plus
  // one step per run the range absorbs.
  uint64_t Insert(uint64_t start, uint64_t count);

  // Carves `count` units off the front of the lowest-addressed run that is
  // long enough (first fit) and returns their start; nullopt when none is.
  std::optional<uint64_t> TakeFirstFit(uint64_t count);

  void Clear() { runs_.clear(); }

 private:
  std::map<uint64_t, uint64_t> runs_;
};

}  // namespace rmp

#endif  // SRC_UTIL_FREE_RUNS_H_
