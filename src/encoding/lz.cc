#include "src/encoding/lz.h"

#include <cstring>
#include <vector>

namespace lsmcol {
namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatchToken = 127;  // max (tag >> 1) for a match token
constexpr size_t kMaxLiteralRun = 127;
constexpr size_t kWindow = 65535;
constexpr size_t kHashBits = 15;

inline uint32_t Hash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void EmitLiterals(const uint8_t* base, size_t start, size_t end, Buffer* out) {
  while (start < end) {
    size_t run = end - start;
    if (run > kMaxLiteralRun) run = kMaxLiteralRun;
    out->AppendByte(static_cast<uint8_t>(run << 1));
    out->Append(base + start, run);
    start += run;
  }
}

// Literals and matches are copied in whole 16- or 8-byte blocks, so a
// copy may write up to 15 bytes past its end: the output is sized with
// this much slack, trimmed once the stream is decoded.
constexpr size_t kCopySlack = 16;

inline size_t RoundUp16(size_t n) { return (n + 15) & ~size_t{15}; }

// LEB128 varint at *ip, bounded by end; false when truncated or overlong.
inline bool ReadVarint(const uint8_t** ip, const uint8_t* end,
                       uint64_t* out) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && *ip != end; shift += 7) {
    const uint8_t byte = *(*ip)++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return true;
    }
  }
  return false;
}

}  // namespace

size_t LzMaxCompressedSize(size_t n) {
  return n + n / kMaxLiteralRun + 16;
}

void LzCompress(Slice input, Buffer* out) {
  const uint8_t* p = input.udata();
  const size_t n = input.size();
  out->AppendVarint64(n);
  if (n < kMinMatch + 4) {
    EmitLiterals(p, 0, n, out);
    return;
  }
  std::vector<uint32_t> table(1u << kHashBits, UINT32_MAX);
  size_t literal_start = 0;
  size_t i = 0;
  const size_t limit = n - kMinMatch;  // last position where a match can start
  while (i <= limit) {
    const uint32_t h = Hash4(p + i);
    const uint32_t candidate = table[h];
    table[h] = static_cast<uint32_t>(i);
    if (candidate != UINT32_MAX && i - candidate <= kWindow &&
        std::memcmp(p + candidate, p + i, kMinMatch) == 0) {
      // Extend the match.
      size_t match_len = kMinMatch;
      const size_t max_len = n - i;
      while (match_len < max_len &&
             p[candidate + match_len] == p[i + match_len]) {
        ++match_len;
      }
      EmitLiterals(p, literal_start, i, out);
      size_t offset = i - candidate;
      size_t remaining_match = match_len;
      size_t src = i;
      while (remaining_match >= kMinMatch) {
        size_t chunk = remaining_match - kMinMatch;
        if (chunk > kMaxMatchToken) chunk = kMaxMatchToken;
        out->AppendByte(static_cast<uint8_t>((chunk << 1) | 1));
        out->AppendVarint64(offset);
        remaining_match -= chunk + kMinMatch;
      }
      // A sub-kMinMatch tail is carried forward as literals.
      i = src + match_len - remaining_match;
      literal_start = i;
      if (remaining_match > 0) {
        // Tail shorter than a match token: fold into next literal run.
        literal_start = i;
      }
      // Seed the hash table inside the match region sparsely.
      for (size_t j = src + 1; j + kMinMatch <= i && j < src + 16; ++j) {
        table[Hash4(p + j)] = static_cast<uint32_t>(j);
      }
    } else {
      ++i;
    }
  }
  EmitLiterals(p, literal_start, n, out);
}

Status LzDecompress(Slice input, Buffer* out) {
  BufferReader header(input);
  uint64_t uncompressed_len = 0;
  LSMCOL_RETURN_NOT_OK(header.ReadVarint64(&uncompressed_len));
  const uint8_t* ip = header.rest().udata();
  const uint8_t* const iend = ip + header.remaining();
  // Every token takes at least two input bytes and yields at most
  // kMinMatch + kMaxMatchToken, so a longer declared length is damage —
  // rejected before it sizes an allocation.
  if (uncompressed_len >
      header.remaining() / 2 * (kMinMatch + kMaxMatchToken)) {
    return Status::Corruption("lz length exceeds what the input can hold");
  }
  const size_t start_size = out->size();
  const size_t n = static_cast<size_t>(uncompressed_len);
  out->resize(start_size + n + kCopySlack);
  char* const base = out->mutable_data() + start_size;
  char* const oend = base + n;
  char* op = base;
  Status st;
  while (op < oend) {
    if (ip == iend) {
      st = Status::Corruption("truncated input reading lz tag");
      break;
    }
    const uint8_t tag = *ip++;
    const size_t room = static_cast<size_t>(oend - op);
    if ((tag & 1) == 0) {
      const size_t run = tag >> 1;
      if (run == 0) {
        st = Status::Corruption("zero-length literal run");
        break;
      }
      const size_t avail = static_cast<size_t>(iend - ip);
      if (avail < run) {
        st = Status::Corruption("truncated input reading lz literals");
        break;
      }
      if (run > room) {
        st = Status::Corruption("decompressed size mismatch");
        break;
      }
      if (avail >= RoundUp16(run)) {
        for (size_t i = 0; i < run; i += 16) std::memcpy(op + i, ip + i, 16);
      } else {
        std::memcpy(op, ip, run);
      }
      op += run;
      ip += run;
    } else {
      const size_t len = (tag >> 1) + kMinMatch;
      uint64_t offset = 0;
      if (!ReadVarint(&ip, iend, &offset)) {
        st = Status::Corruption("truncated or overlong match offset");
        break;
      }
      if (offset == 0 || offset > static_cast<uint64_t>(op - base)) {
        st = Status::Corruption("match offset out of range");
        break;
      }
      if (len > room) {
        st = Status::Corruption("decompressed size mismatch");
        break;
      }
      // Whole blocks are safe whenever the offset is at least the block
      // width: each block then reads only bytes already final. Shorter
      // offsets replicate a pattern and go byte by byte.
      const char* src = op - offset;
      if (offset >= 16) {
        for (size_t i = 0; i < len; i += 16) std::memcpy(op + i, src + i, 16);
      } else if (offset >= 8) {
        for (size_t i = 0; i < len; i += 8) std::memcpy(op + i, src + i, 8);
      } else {
        for (size_t i = 0; i < len; ++i) op[i] = src[i];
      }
      op += len;
    }
  }
  out->resize(st.ok() ? start_size + n : start_size);
  return st;
}

}  // namespace lsmcol
