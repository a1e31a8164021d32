// CRC32 (IEEE 802.3 polynomial) used to guard page payloads on the wire and
// to verify reconstructed pages after recovery.
//
// Crc32 runs on every 8 KB page payload the transport sends or receives, so
// it is hot-path code. On x86-64 CPUs with PCLMULQDQ it is runtime-dispatched
// to a carry-less-multiply folding kernel (Gopal et al., Intel 2009): inputs
// of 64 bytes or more fold their whole 16-byte blocks four lanes at a time
// and reduce with a Barrett step; the last 0-15 bytes, and shorter inputs,
// go through slice-by-8 (eight table lookups per 8 input bytes). CPUs
// without PCLMULQDQ, and non-x86 builds, run slice-by-8 throughout. Both
// paths compute the same IEEE CRC-32, so the wire format does not depend on
// the host.
//
// Crc32c is the Castagnoli variant backed by the SSE4.2 `crc32q` instruction
// when the CPU has it (runtime-dispatched, software slice-by-8 otherwise).
// The two polynomials are NOT interchangeable: the wire format is pinned to
// IEEE 802.3, which `crc32q` cannot compute, so Crc32c is offered for new
// in-memory integrity checks where a single instruction per 8 bytes matters
// more than wire compatibility.

#ifndef SRC_UTIL_CHECKSUM_H_
#define SRC_UTIL_CHECKSUM_H_

#include <cstdint>
#include <span>
#include <string_view>

namespace rmp {

// One-shot CRC32 of `data`.
uint32_t Crc32(std::span<const uint8_t> data);

// Incremental form: crc = Crc32Update(crc, chunk) starting from Crc32Init().
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data);
uint32_t Crc32Finalize(uint32_t crc);

// One-shot CRC32 through slice-by-8 alone: the reference the folding kernel
// is cross-checked against (tests, benches) and the dispatch fallback.
uint32_t Crc32Scalar(std::span<const uint8_t> data);

// Name of the Crc32 implementation the dispatcher picked on this CPU:
// "pclmul" or "scalar". Benches report it alongside throughput.
std::string_view Crc32ImplName();

// One-shot CRC-32C (Castagnoli polynomial 0x1EDC6F41). Uses the SSE4.2
// crc32 instructions when available.
uint32_t Crc32c(std::span<const uint8_t> data);

// True when Crc32c dispatches to the hardware instruction on this machine.
bool Crc32cHardwareAvailable();

}  // namespace rmp

#endif  // SRC_UTIL_CHECKSUM_H_
