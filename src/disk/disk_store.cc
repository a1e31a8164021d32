#include "src/disk/disk_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace rmp {

Result<DiskStore> DiskStore::Create(uint64_t blocks, const std::string& dir) {
  if (blocks == 0) {
    return InvalidArgumentError("store needs at least one block");
  }
  std::string base = dir;
  if (base.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    base = tmp != nullptr ? tmp : "/tmp";
  }
  std::string path = base + "/rmp_swap_XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) {
    return IoError(std::string("mkstemp: ") + std::strerror(errno));
  }
  // Unlink immediately: the fd keeps the space alive; nothing leaks on crash.
  ::unlink(path.c_str());
  if (::ftruncate(fd, static_cast<off_t>(blocks * kPageSize)) != 0) {
    const Status status = IoError(std::string("ftruncate: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return DiskStore(fd, blocks);
}

DiskStore::DiskStore(DiskStore&& other) noexcept
    : fd_(other.fd_),
      blocks_(other.blocks_),
      bump_(other.bump_),
      allocated_(other.allocated_),
      free_runs_(std::move(other.free_runs_)) {
  other.fd_ = -1;
}

DiskStore& DiskStore::operator=(DiskStore&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    blocks_ = other.blocks_;
    bump_ = other.bump_;
    allocated_ = other.allocated_;
    free_runs_ = std::move(other.free_runs_);
    other.fd_ = -1;
  }
  return *this;
}

DiskStore::~DiskStore() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status DiskStore::Write(uint64_t block, std::span<const uint8_t> page) {
  if (block >= blocks_) {
    return InvalidArgumentError("block out of range");
  }
  if (page.size() != kPageSize) {
    return InvalidArgumentError("page must be exactly kPageSize");
  }
  size_t done = 0;
  while (done < page.size()) {
    const ssize_t n = ::pwrite(fd_, page.data() + done, page.size() - done,
                               static_cast<off_t>(block * kPageSize + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

Status DiskStore::Read(uint64_t block, std::span<uint8_t> out) const {
  if (block >= blocks_) {
    return InvalidArgumentError("block out of range");
  }
  if (out.size() != kPageSize) {
    return InvalidArgumentError("output must be exactly kPageSize");
  }
  size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(block * kPageSize + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) {
      return IoError("short read past end of store");
    }
    done += static_cast<size_t>(n);
  }
  return OkStatus();
}

Result<uint64_t> DiskStore::Allocate(uint64_t count) {
  if (count == 0) {
    return InvalidArgumentError("cannot allocate zero blocks");
  }
  // Prefer fresh space first: swap partitions fill forward, which is what
  // gives pageouts their sequential layout.
  if (bump_ + count <= blocks_) {
    const uint64_t start = bump_;
    bump_ += count;
    allocated_ += count;
    return start;
  }
  // Fall back to a first-fit scan of freed runs.
  if (const auto reused = free_runs_.TakeFirstFit(count)) {
    allocated_ += count;
    return *reused;
  }
  return NoSpaceError("swap partition full");
}

Status DiskStore::Free(uint64_t block, uint64_t count) {
  if (count == 0 || block >= bump_ || count > bump_ - block) {
    return InvalidArgumentError("bad free range");
  }
  allocated_ -= free_runs_.Insert(block, count);
  return OkStatus();
}

}  // namespace rmp
