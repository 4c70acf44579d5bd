// Checksum micro-benchmark: the cost of verifying one page trailer and
// one WAL frame.
//
// Times three checksums over one 128 KiB page (a BufferCache miss verify)
// and one 800 B buffer (a typical WAL frame payload):
//
//   fnv1a      Fnv1a32 — v3 page trailers, WAL frames, manifests
//   crc32c_hw  Crc32cHardware — the SSE4.2 crc32 instruction (v4 trailers
//              on x86-64; the software path where the CPU lacks it)
//   crc32c_sw  Crc32cSoftware — the portable slice-by-8 fallback
//
// Each cell is the median of 9 batches of about 20 ms. The JSON rows
// record which path Crc32c selected at runtime and hardware_threads.
//
// Usage: bench_checksum [--json PATH] [--verify]
//   --json PATH  record per-cell results as a JSON array.
//   --verify     exit 1 unless the hardware and software CRC-32C paths
//                agree on the benchmark buffers and on random buffers of
//                every length 0-1024 at every start offset 0-7.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/storage/crc32c.h"
#include "src/storage/file.h"

namespace lsmcol::bench {
namespace {

struct Checksum {
  const char* name;
  uint32_t (*fn)(Slice, uint32_t);
};

uint32_t Fnv1a(Slice data, uint32_t) { return Fnv1a32(data); }

const Checksum kChecksums[] = {
    {"fnv1a", &Fnv1a},
    {"crc32c_hw", &Crc32cHardware},
    {"crc32c_sw", &Crc32cSoftware},
};

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Next());
  return out;
}

/// Median nanoseconds per call over 9 batches of about 20 ms each.
double NanosPerCall(const Checksum& checksum, Slice data) {
  volatile uint32_t sink = 0;
  // Calibrate: calls per ~20 ms batch.
  uint64_t calls = 1;
  for (;;) {
    Timer t;
    for (uint64_t i = 0; i < calls; ++i) sink = sink + checksum.fn(data, 0);
    if (t.Seconds() >= 0.02 || calls >= (1ull << 30)) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int batch = 0; batch < 9; ++batch) {
    Timer t;
    for (uint64_t i = 0; i < calls; ++i) sink = sink + checksum.fn(data, 0);
    per_call.push_back(t.Seconds() * 1e9 / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

bool PathsAgree(const std::vector<std::string>& buffers) {
  for (const std::string& buf : buffers) {
    if (Crc32cHardware(Slice(buf), 0) != Crc32cSoftware(Slice(buf), 0)) {
      std::fprintf(stderr, "VERIFY FAILED: CRC-32C paths differ on %zu B\n",
                   buf.size());
      return false;
    }
  }
  const std::string random = RandomBytes(1024 + 8, 7);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const Slice data(random.data() + offset, len);
      if (Crc32cHardware(data, 0) != Crc32cSoftware(data, 0)) {
        std::fprintf(stderr,
                     "VERIFY FAILED: CRC-32C paths differ at offset %zu "
                     "length %zu\n",
                     offset, len);
        return false;
      }
    }
  }
  return true;
}

bool Run(bool verify, BenchJson* json) {
  const char* path = Crc32cHardwareAvailable() ? "sse4.2" : "slice-by-8";
  const std::vector<std::string> buffers = {
      RandomBytes(kDefaultPageSize, 1), RandomBytes(800, 2)};
  std::printf("Checksum cost (Crc32c selects %s, %u hardware threads)\n",
              path, std::thread::hardware_concurrency());
  std::printf("%-10s %8s %12s %10s\n", "checksum", "bytes", "ns/call",
              "GB/s");
  for (const std::string& buf : buffers) {
    for (const Checksum& checksum : kChecksums) {
      const double ns = NanosPerCall(checksum, Slice(buf));
      const double gbps = static_cast<double>(buf.size()) / ns;
      std::printf("%-10s %8zu %12.1f %10.2f\n", checksum.name, buf.size(), ns,
                  gbps);
      BenchJson::Obj obj;
      obj.Str("bench", "checksum")
          .Str("checksum", checksum.name)
          .Int("bytes", buf.size())
          .Num("ns_per_call", ns)
          .Num("gb_per_s", gbps)
          .Str("crc32c_path", path)
          .Int("hardware_threads", std::thread::hardware_concurrency());
      json->Add(obj);
    }
  }
  if (!verify) return true;
  const bool ok = PathsAgree(buffers);
  if (ok) std::printf("verify: hardware and software CRC-32C agree\n");
  return ok;
}

}  // namespace
}  // namespace lsmcol::bench

int main(int argc, char** argv) {
  using namespace lsmcol::bench;
  bool verify = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      verify = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  BenchJson json(json_path);
  bool ok = Run(verify, &json);
  if (!json.Finish()) ok = false;
  return ok ? 0 : 1;
}
