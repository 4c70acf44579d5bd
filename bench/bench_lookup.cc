// Point-lookup benchmark: Snapshot::Lookup's newest-first probe by
// layout, component count, hit vs miss, and warm vs cold cache.
//
// Each cell loads tweet_2 records (wide and heterogeneous, like the
// lookup_mixed end-to-end workload) with even keys 0, 2, ..., 2(n-1),
// spread round-robin over 1, 4 or 16 components (automatic merges off),
// so every component's key fences span the whole key range: the worst
// case for the probe, which must decode one leaf's keys per component it
// cannot rule out. Hits are random even keys; misses are random odd keys
// inside the range, so they cost a key decode in every component and
// never stop early.
//
//   warm  every lookup after one untimed pass over the same keys
//   cold  the buffer cache is cleared before each lookup; the row also
//         records the bytes read per lookup (a deterministic count).
//         Open and VB keep each component's last four decompressed
//         leaves in Component's own FIFO, which a cache clear does not
//         drop, so their cold rows read only what that FIFO misses.
//
// Reports the median and mean microseconds per lookup. Scale with
// LSMCOL_BENCH_SCALE (records: 8000 at 1.0, at least 1000).
//
// Usage: bench_lookup [--json PATH] [--verify]
//   --json PATH  record per-cell results as a JSON array.
//   --verify     exit 1 unless every benchmarked key, looked up singly and
//                through an ascending LookupBatch, resolves exactly as the
//                reconciled full scan of the same snapshot says.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/json/parser.h"

namespace lsmcol::bench {
namespace {

constexpr size_t kComponentCounts[] = {1, 4, 16};
constexpr size_t kWarmLookups = 1000;
constexpr size_t kColdLookups = 40;

struct Cell {
  double p50_us = 0;
  double mean_us = 0;
  double bytes_per_lookup = 0;
};

Cell TimeLookups(Dataset* ds, const std::vector<int64_t>& keys, bool cold) {
  std::vector<double> micros;
  micros.reserve(keys.size());
  uint64_t bytes = 0;
  Value v;
  for (int64_t key : keys) {
    if (cold) {
      ds->cache()->Clear();
      ds->cache()->ResetStats();
    }
    Timer timer;
    Status st = ds->Lookup(key, &v);
    micros.push_back(timer.Seconds() * 1e6);
    LSMCOL_CHECK(st.ok() || st.IsNotFound());
    if (cold) bytes += ds->cache()->stats().bytes_read;
  }
  Cell cell;
  double total = 0;
  for (double m : micros) total += m;
  cell.mean_us = total / static_cast<double>(micros.size());
  std::sort(micros.begin(), micros.end());
  cell.p50_us = micros[micros.size() / 2];
  cell.bytes_per_lookup =
      static_cast<double>(bytes) / static_cast<double>(keys.size());
  return cell;
}

/// Every key's record per the reconciled scan of `snapshot`.
std::map<int64_t, std::string> ScanDigest(const Snapshot& snapshot) {
  std::map<int64_t, std::string> out;
  auto cursor = snapshot.Scan(Projection::All());
  LSMCOL_CHECK(cursor.ok());
  while (true) {
    auto ok = (*cursor)->Next();
    LSMCOL_CHECK(ok.ok());
    if (!*ok) break;
    Value v;
    LSMCOL_CHECK_OK((*cursor)->Record(&v));
    out[(*cursor)->key()] = ToJson(v);
  }
  return out;
}

/// Probe results for `keys` against the scan digest, singly and batched.
bool VerifyProbes(Dataset* ds, std::vector<int64_t> keys) {
  Snapshot::Ref snapshot = ds->GetSnapshot();
  const auto digest = ScanDigest(*snapshot);
  auto agrees = [&](int64_t key, bool found, const Value& v) {
    auto it = digest.find(key);
    if (found != (it != digest.end()) ||
        (found && ToJson(v) != it->second)) {
      std::fprintf(stderr, "VERIFY FAILED: key %lld disagrees with scan\n",
                   static_cast<long long>(key));
      return false;
    }
    return true;
  };
  for (int64_t key : keys) {
    Value v;
    Status st = snapshot->Lookup(key, &v);
    LSMCOL_CHECK(st.ok() || st.IsNotFound());
    if (!agrees(key, st.ok(), v)) return false;
  }
  std::sort(keys.begin(), keys.end());
  auto batch = snapshot->NewLookupBatch(Projection::All());
  LSMCOL_CHECK(batch.ok());
  for (int64_t key : keys) {
    bool found = false;
    Value v;
    LSMCOL_CHECK_OK((*batch)->Find(key, &found, &v));
    if (!agrees(key, found, v)) return false;
  }
  return true;
}

bool Run(bool verify, BenchJson* json) {
  const uint64_t records =
      std::max<uint64_t>(1000, static_cast<uint64_t>(8000 * Scale()));
  PrintHeader("Point lookups: newest-first probe");
  std::printf("dataset: tweet_2, %llu records, keys round-robin over the "
              "components, %u hardware threads\n",
              static_cast<unsigned long long>(records),
              std::thread::hardware_concurrency());
  std::printf("%-6s %5s %-5s %-5s %8s %10s %10s %12s\n", "layout", "comps",
              "case", "cache", "lookups", "p50 us", "mean us", "bytes/lookup");
  bool ok = true;
  for (LayoutKind layout : kAllLayouts) {
    for (size_t components : kComponentCounts) {
      Workspace ws(std::string("lookup_") + LayoutKindName(layout) + "_" +
                   std::to_string(components));
      auto options = BenchOptions(ws, layout, "lookup");
      options.auto_merge = false;
      options.memtable_bytes = 256u << 20;  // one flush per component
      options.amax_max_records = BenchAmaxMaxRecords(records / components);
      auto ds = Dataset::Open(options, ws.cache.get());
      LSMCOL_CHECK(ds.ok());
      Rng rng(42);
      for (size_t c = 0; c < components; ++c) {
        for (uint64_t i = c; i < records; i += components) {
          const int64_t key = static_cast<int64_t>(2 * i);
          LSMCOL_CHECK_OK(
              (*ds)->Insert(MakeRecord(Workload::kTweet2, key, &rng)));
        }
        LSMCOL_CHECK_OK((*ds)->Flush());
      }
      LSMCOL_CHECK((*ds)->component_count() == components);

      Rng key_rng(7);
      std::vector<int64_t> hits, misses;
      for (size_t i = 0; i < kWarmLookups; ++i) {
        const int64_t key = static_cast<int64_t>(2 * key_rng.Uniform(records));
        hits.push_back(key);
        misses.push_back(key + 1 < static_cast<int64_t>(2 * records)
                             ? key + 1
                             : key - 1);
      }
      for (const bool hit : {true, false}) {
        const std::vector<int64_t>& keys = hit ? hits : misses;
        const std::vector<int64_t> cold_keys(keys.begin(),
                                             keys.begin() + kColdLookups);
        TimeLookups(ds->get(), keys, /*cold=*/false);  // warm-up pass
        for (const bool cold : {false, true}) {
          const Cell cell =
              TimeLookups(ds->get(), cold ? cold_keys : keys, cold);
          const size_t n = cold ? cold_keys.size() : keys.size();
          std::printf("%-6s %5zu %-5s %-5s %8zu %10.1f %10.1f %12.0f\n",
                      LayoutKindName(layout), components,
                      hit ? "hit" : "miss", cold ? "cold" : "warm", n,
                      cell.p50_us, cell.mean_us, cell.bytes_per_lookup);
          BenchJson::Obj obj;
          obj.Str("bench", "lookup")
              .Str("layout", LayoutKindName(layout))
              .Int("components", components)
              .Str("case", hit ? "hit" : "miss")
              .Str("cache", cold ? "cold" : "warm")
              .Int("records", records)
              .Int("lookups", n)
              .Num("p50_us", cell.p50_us)
              .Num("mean_us", cell.mean_us)
              .Num("bytes_read_per_lookup", cell.bytes_per_lookup)
              .Int("hardware_threads", std::thread::hardware_concurrency());
          json->Add(obj);
        }
      }
      if (verify) {
        std::vector<int64_t> keys = hits;
        keys.insert(keys.end(), misses.begin(), misses.end());
        if (!VerifyProbes(ds->get(), keys)) ok = false;
      }
    }
  }
  if (verify && ok) std::printf("verify: every probe agrees with the scan\n");
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
