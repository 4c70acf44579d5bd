// Byte-oriented LZ77 compressor used for page-level compression — the
// repo's substitute for Snappy (see DESIGN.md §1). Greedy hash-chain
// matcher over a 64 KiB window; format:
//   varint uncompressed_length
//   tokens:
//     tag & 1 == 0: literal run, length = tag >> 1 (1..), bytes follow
//                   (long runs use repeated tokens)
//     tag & 1 == 1: match, length = (tag >> 1) + kMinMatch, then a varint
//                   back-offset (1 .. 65535)
// Like Snappy, it compresses row pages (repeated field names, JSON syntax)
// well, and already-encoded column pages poorly — which is exactly the
// behaviour the paper's storage results depend on.

#ifndef LSMCOL_ENCODING_LZ_H_
#define LSMCOL_ENCODING_LZ_H_

#include "src/common/buffer.h"
#include "src/common/status.h"

namespace lsmcol {

/// Compress input, appending to out. Always succeeds; incompressible data
/// grows by at most ~1/127 plus the header.
void LzCompress(Slice input, Buffer* out);

/// Decompress a stream produced by LzCompress, appending to out. A
/// malformed stream (including a length header larger than the input
/// could produce) returns Corruption and leaves out as it was.
Status LzDecompress(Slice input, Buffer* out);

/// Upper bound of LzCompress output size for `n` input bytes.
size_t LzMaxCompressedSize(size_t n);

}  // namespace lsmcol

#endif  // LSMCOL_ENCODING_LZ_H_
