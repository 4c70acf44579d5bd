// CRC-32C (Castagnoli): the page-trailer checksum of component format v4
// (docs/FORMAT.md, "Page trailer and footer versions").
//
// Polynomial 0x1EDC6F41 (reflected 0x82F63B78), init and xor-out ~0 —
// the iSCSI / SSE4.2 `crc32` instruction variant. Two implementations
// compute bit-identical results: one over the SSE4.2 crc32 instruction
// (x86-64, chosen once at runtime when the CPU has it) and a portable
// slice-by-8 table fallback. Neither needs a compiler flag: the hardware
// path is a target("sse4.2") function, so the binary still runs on CPUs
// without the instruction.

#ifndef LSMCOL_STORAGE_CRC32C_H_
#define LSMCOL_STORAGE_CRC32C_H_

#include <cstdint>

#include "src/common/slice.h"

namespace lsmcol {

/// CRC-32C of `data`, continuing `crc` — the CRC of the bytes before
/// `data`, 0 for none — so Crc32c(b, Crc32c(a)) == Crc32c(a ‖ b).
uint32_t Crc32c(Slice data, uint32_t crc = 0);

/// The two implementations behind Crc32c, exposed so tests and
/// bench_checksum can run both on one machine.
uint32_t Crc32cSoftware(Slice data, uint32_t crc = 0);
/// The SSE4.2 path; falls back to Crc32cSoftware when
/// Crc32cHardwareAvailable() is false (never runs the instruction on a
/// CPU that lacks it).
uint32_t Crc32cHardware(Slice data, uint32_t crc = 0);
/// True when Crc32c runs on the crc32 instruction.
bool Crc32cHardwareAvailable();

}  // namespace lsmcol

#endif  // LSMCOL_STORAGE_CRC32C_H_
