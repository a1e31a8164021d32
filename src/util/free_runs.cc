#include "src/util/free_runs.h"

#include <algorithm>
#include <iterator>

namespace rmp {

uint64_t FreeRunList::Insert(uint64_t start, uint64_t count) {
  const uint64_t end = start + count;
  auto it = runs_.upper_bound(start);
  if (it != runs_.begin()) {
    const auto prev = std::prev(it);
    if (prev->first + prev->second >= start) {
      it = prev;  // The run below reaches the new range: absorb it too.
    }
  }
  uint64_t merged_start = start;
  uint64_t merged_end = end;
  uint64_t already_free = 0;
  while (it != runs_.end() && it->first <= end) {
    const uint64_t run_end = it->first + it->second;
    const uint64_t overlap_start = std::max(start, it->first);
    const uint64_t overlap_end = std::min(end, run_end);
    if (overlap_end > overlap_start) {
      already_free += overlap_end - overlap_start;
    }
    merged_start = std::min(merged_start, it->first);
    merged_end = std::max(merged_end, run_end);
    it = runs_.erase(it);
  }
  runs_.emplace_hint(it, merged_start, merged_end - merged_start);
  return count - already_free;
}

std::optional<uint64_t> FreeRunList::TakeFirstFit(uint64_t count) {
  for (auto it = runs_.begin(); it != runs_.end(); ++it) {
    if (it->second < count) {
      continue;
    }
    const uint64_t start = it->first;
    const uint64_t left = it->second - count;
    it = runs_.erase(it);
    if (left > 0) {
      runs_.emplace_hint(it, start + count, left);
    }
    return start;
  }
  return std::nullopt;
}

}  // namespace rmp
