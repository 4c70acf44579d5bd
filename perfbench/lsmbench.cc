// lsmbench: the workload driver behind perfbench/run.py.
//
//   lsmbench --workload <ingest_update|scan_analytics|lookup_mixed>
//            --seed N --seconds S --trace 0|1 --out DIR --store DIR
//   lsmbench --probe
//
// One process, one closed-loop client thread, no background threads: the
// driver sets the workload up (several times, keeping the last set-up),
// then runs its op types round-robin for S seconds and at least the
// workload's fixed accounting window of ops, checking every op's output
// outside the timed region. It writes DIR/run.json (environment, set-up
// times, per-op-type latency samples, window counters, check results)
// and, with --trace 1, DIR/spans.bin; perfbench/stats.py turns those into
// the reported metrics.
//
// Every store lives on MemFs (memfs.h) under a directory name below
// --store; the directory itself is created on the real filesystem
// because Store::Open lists it, and the secondary-index component files
// of lookup_mixed are written there (SecondaryIndex does its I/O through
// the default filesystem, not DatasetOptions::fs).

#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/queries.h"
#include "perfbench/memfs.h"
#include "perfbench/trace.h"
#include "src/datagen/datagen.h"
#include "src/index/indexed_dataset.h"
#include "src/json/parser.h"
#include "src/json/value.h"
#include "src/query/engine.h"
#include "src/store/store.h"

namespace lsmcol::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Small helpers

/// Sets each (key, value) member on the JSON object `obj`.
void SetAll(Value* obj, std::initializer_list<Value::Member> members) {
  for (const Value::Member& m : members) obj->Set(m.first, m.second);
}

Value IntArray(const std::vector<int64_t>& v) {
  Value out = Value::MakeArray();
  for (int64_t x : v) out.Push(Value::Int(x));
  return out;
}

Value NumArray(const std::vector<double>& v) {
  Value out = Value::MakeArray();
  for (double x : v) out.Push(Value::Double(x));
  return out;
}

Value StrArray(const std::vector<std::string>& v) {
  Value out = Value::MakeArray();
  for (const std::string& x : v) out.Push(Value::String(x));
  return out;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// `lsmbench --probe`: host-drift diagnostics that run.py times in their
/// own process before and after each workload (so they leave the
/// workload's peak RSS alone), never used to normalize or gate a metric:
/// a fixed ALU loop, and a fixed chain of dependent random reads over
/// 64 MiB (memory latency is what other tenants of a shared host disturb
/// most).
int ProbeHost() {
  int64_t start = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double cpu_s = SecondsSince(start);
  std::vector<uint64_t> table(8u << 20);
  for (size_t i = 0; i < table.size(); ++i) table[i] = i * 2654435761u;
  start = NowNs();
  for (int i = 0; i < 1'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += table[x & (table.size() - 1)];
  }
  const double mem_s = SecondsSince(start);
  std::printf("{\"cpu_loop_s\": %.9f, \"mem_loop_s\": %.9f, \"x\": %llu}\n",
              cpu_s, mem_s, static_cast<unsigned long long>(x % 10));
  return 0;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

Counters CacheCounters(const CacheStats& s) {
  Counters c;
  c.cache_hits = static_cast<int64_t>(s.hits);
  c.cache_misses = static_cast<int64_t>(s.misses);
  c.cache_evictions = static_cast<int64_t>(s.evictions);
  c.cache_bytes_read = static_cast<int64_t>(s.bytes_read);
  return c;
}

void AddDatasetCounters(const DatasetStats& s, Counters* c) {
  c->flushes += static_cast<int64_t>(s.flushes);
  c->merges += static_cast<int64_t>(s.merges);
  c->merge_us += static_cast<int64_t>(s.merge_micros);
}

/// Lower-case layout name ("amax"), as used in op-type and metric names.
std::string LayoutName(LayoutKind layout) {
  std::string name = LayoutKindName(layout);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

uint64_t WrittenBytes(const DatasetStats& s) {
  return s.flush_bytes_out + s.merge_bytes_out + s.wal_bytes;
}

// ---------------------------------------------------------------------------
// Workload interface

class WorkloadDriver {
 public:
  virtual ~WorkloadDriver() = default;
  /// Builds the store and every input of the run from `seed`.
  virtual Status Setup(uint64_t seed, const std::string& dir) = 0;
  /// Op types, run round-robin: op i has type TypeOf(i).
  virtual std::vector<std::string> OpTypes() const = 0;
  /// Length of the op cycle (ops of every type, in a fixed order).
  virtual uint64_t CycleLength() const { return OpTypes().size(); }
  virtual int TypeOf(uint64_t i) const {
    return static_cast<int>(i % CycleLength());
  }
  /// Ops in the accounting window: the deterministic prefix over which
  /// the byte and count metrics are taken (run even past the deadline).
  virtual uint64_t WindowOps() const = 0;
  /// The timed library calls of op `i` (with their spans); results are
  /// stashed for Check.
  virtual Status Op(uint64_t i, Tracer* tracer) = 0;
  /// Verifies op `i`'s output (untimed); false counts a failed op.
  virtual bool Check(uint64_t i, const Status& st, std::string* why) = 0;
  virtual Counters ReadCounters() const = 0;
  /// Called after each window op (untimed): samples the on-disk bytes
  /// and the live JSON bytes, so the space metric is a mean over the
  /// window's merge cycles rather than one point in a sawtooth.
  void SampleWindow() {
    disk_sum_ += static_cast<double>(DiskBytes());
    live_sum_ += static_cast<double>(LiveJsonBytes());
    SampleWorkloadGauges();
  }
  double MeanDiskPerLiveByte() const { return disk_sum_ / live_sum_; }
  /// Called once, right after the last window op: window-level figures.
  virtual void WindowEnd(Value* out) = 0;
  /// End-of-run check; returns the number of failed checks.
  virtual uint64_t FinalCheck(std::string* why) = 0;
  /// Checks made during set-up that failed.
  uint64_t setup_failures() const { return setup_failures_; }
  /// Environment and size fields for run.json.
  const Value& env() const { return env_; }

  void InternSpans(Tracer* tracer) {
    for (const std::string& t : OpTypes()) op_spans_.push_back(tracer->Name("op." + t));
    DeclareSpans(tracer);
  }
  int op_span(int type) const { return op_spans_[static_cast<size_t>(type)]; }

 protected:
  virtual void DeclareSpans(Tracer* tracer) = 0;

  void SetupCheck(bool ok, const std::string& what) {
    if (!ok) {
      ++setup_failures_;
      std::fprintf(stderr, "set-up check failed: %s\n", what.c_str());
    }
  }

  /// Workload-specific gauges sampled after each window op.
  virtual void SampleWorkloadGauges() {}
  /// On-disk bytes of every dataset and index of the workload.
  virtual uint64_t DiskBytes() const = 0;
  /// JSON bytes of the live (latest, undeleted) records.
  virtual uint64_t LiveJsonBytes() const = 0;

  Value env_ = Value::MakeObject();

 private:
  double disk_sum_ = 0;
  double live_sum_ = 0;
  std::vector<int> op_spans_;
  uint64_t setup_failures_ = 0;
};

// ---------------------------------------------------------------------------
// ingest_update: JSON upserts (90%) and deletes (10%) into one AMAX dataset
// of a Store with the WAL on; inline flushes and tiered merges.

class IngestUpdate final : public WorkloadDriver {
 public:
  static constexpr uint64_t kKeys = 16000;
  static constexpr uint64_t kWindow = 3 * kKeys;
  static constexpr size_t kMemtableBytes = 1u << 20;

  Status Setup(uint64_t seed, const std::string& dir) override {
    StoreOptions so;
    so.dir = dir;
    so.fs = &fs_;
    so.background_threads = 0;
    so.wal.enabled = true;
    LSMCOL_ASSIGN_OR_RETURN(store_, Store::Open(so));
    DatasetOptions dopt;
    dopt.layout = LayoutKind::kAmax;
    dopt.memtable_bytes = kMemtableBytes;
    LSMCOL_ASSIGN_OR_RETURN(ds_, store_->OpenDataset("tweets", dopt));

    // The whole op sequence of the window, JSON text pre-generated.
    Rng rng(seed);
    ops_.resize(kWindow);
    for (uint64_t i = 0; i < kWindow; ++i) {
      OpSpec& op = ops_[i];
      op.key = static_cast<int64_t>(rng.Uniform(kKeys));
      if (i % 10 == 9) {
        op.text = -1;
        continue;
      }
      const int64_t ts = 1460000000000 + static_cast<int64_t>(i) * 1000;
      texts_.push_back(ToJson(MakeTweet2Record(op.key, ts, &rng)));
      op.text = static_cast<int64_t>(texts_.size() - 1);
      text_bytes_ += texts_.back().size();
    }
    SetAll(&env_, {
        {"layout", Value::String("amax")},
        {"key_space", Value::Int(kKeys)},
        {"window_ops", Value::Int(kWindow)},
        {"upsert_texts", Value::Int(static_cast<int64_t>(texts_.size()))},
        {"upsert_text_bytes", Value::Int(static_cast<int64_t>(text_bytes_))},
        {"memtable_bytes", Value::Int(kMemtableBytes)},
        {"cache_bytes", Value::Int(static_cast<int64_t>(so.cache_bytes))},
        {"wal", Value::String("on (group commit, defaults)")},
    });
    return Status::OK();
  }

  std::vector<std::string> OpTypes() const override {
    return {"upsert", "delete"};
  }
  uint64_t WindowOps() const override { return kWindow; }

  // Nine upserts then one delete per ten ops.
  uint64_t CycleLength() const override { return 10; }
  int TypeOf(uint64_t i) const override { return i % 10 == 9 ? 1 : 0; }

  Status Op(uint64_t i, Tracer* tracer) override {
    const OpSpec& op = ops_[i % kWindow];
    if (op.text < 0) {
      ScopedSpan span(tracer, delete_span_);
      return ds_->Delete(op.key);
    }
    Value v;
    {
      ScopedSpan span(tracer, parse_span_);
      LSMCOL_ASSIGN_OR_RETURN(v, ParseJson(texts_[static_cast<size_t>(op.text)]));
    }
    ScopedSpan span(tracer, insert_span_);
    return ds_->Insert(v);
  }

  bool Check(uint64_t i, const Status& st, std::string* why) override {
    const OpSpec& op = ops_[i % kWindow];
    auto old = model_.find(op.key);
    if (old != model_.end()) {
      live_bytes_ -= texts_[static_cast<size_t>(old->second)].size();
      model_.erase(old);
    }
    if (op.text >= 0) {
      const uint64_t size = texts_[static_cast<size_t>(op.text)].size();
      model_[op.key] = op.text;
      live_bytes_ += size;
      if (i < kWindow) window_input_bytes_ += size;
    }
    if (!st.ok()) *why = st.ToString();
    return st.ok();
  }

  Counters ReadCounters() const override {
    Counters c = CacheCounters(store_->cache()->stats());
    AddDatasetCounters(ds_->stats(), &c);
    return c;
  }

  void WindowEnd(Value* out) override {
    const DatasetStats s = ds_->stats();
    const double input = static_cast<double>(window_input_bytes_);
    SetAll(out, {
        {"input_json_bytes",
         Value::Int(static_cast<int64_t>(window_input_bytes_))},
        {"live_json_bytes", Value::Int(static_cast<int64_t>(live_bytes_))},
        {"live_records", Value::Int(static_cast<int64_t>(model_.size()))},
        {"on_disk_bytes", Value::Int(static_cast<int64_t>(ds_->OnDiskBytes()))},
        {"write_bytes_per_input_byte",
         Value::Double(static_cast<double>(WrittenBytes(s)) / input)},
        {"disk_bytes_per_input_byte", Value::Double(MeanDiskPerLiveByte())},
        {"flushes", Value::Int(static_cast<int64_t>(s.flushes))},
        {"merges", Value::Int(static_cast<int64_t>(s.merges))},
        {"merge_ms_total",
         Value::Double(static_cast<double>(s.merge_micros) / 1e3)},
        {"merge_bytes_in_per_input_byte",
         Value::Double(static_cast<double>(s.merged_bytes_in) / input)},
        {"wal_bytes_per_input_byte",
         Value::Double(static_cast<double>(s.wal_bytes) / input)},
        {"wal_syncs_per_op",
         Value::Double(static_cast<double>(s.wal_syncs) /
                       static_cast<double>(kWindow))},
        {"components_end",
         Value::Int(static_cast<int64_t>(ds_->component_count()))},
        {"write_stalls", Value::Int(static_cast<int64_t>(s.write_stalls))},
        {"io_retries", Value::Int(static_cast<int64_t>(s.io_retries))},
    });
  }

  uint64_t FinalCheck(std::string* why) override {
    // Full scan of the dataset against the std::map model of every op run.
    auto cursor = ds_->Scan(Projection::All());
    if (!cursor.ok()) {
      *why = cursor.status().ToString();
      return 1;
    }
    uint64_t failures = 0;
    uint64_t digest = 1469598103934665603ULL;
    auto it = model_.begin();
    while (true) {
      auto next = (*cursor)->Next();
      if (!next.ok()) {
        *why = next.status().ToString();
        return failures + 1;
      }
      if (!*next) break;
      const int64_t key = (*cursor)->key();
      Value got;
      Status st = (*cursor)->Record(&got);
      const std::string json = st.ok() ? ToJson(got) : std::string();
      for (char c : json) digest = (digest ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
      while (it != model_.end() && it->first < key) {
        ++failures;  // a live key the scan skipped
        ++it;
      }
      if (it == model_.end() || it->first != key) {
        ++failures;  // a key the model deleted or never wrote
        continue;
      }
      auto want = ParseJson(texts_[static_cast<size_t>(it->second)]);
      if (!st.ok() || !want.ok() || !ValueEquivalent(got, *want)) ++failures;
      ++it;
    }
    for (; it != model_.end(); ++it) ++failures;
    if (failures > 0) *why = "full scan disagrees with the model";
    SetAll(&env_, {
        {"final_live_records", Value::Int(static_cast<int64_t>(model_.size()))},
        {"final_scan_digest", Value::String(std::to_string(digest))},
    });
    return failures;
  }

 protected:
  uint64_t DiskBytes() const override { return ds_->OnDiskBytes(); }
  uint64_t LiveJsonBytes() const override { return live_bytes_; }

  void DeclareSpans(Tracer* tracer) override {
    parse_span_ = tracer->Name("json.parse");
    insert_span_ = tracer->Name("lsm.insert");
    delete_span_ = tracer->Name("lsm.delete");
  }

 private:
  struct OpSpec {
    int64_t key = 0;
    int64_t text = -1;  // index into texts_, -1 for a delete
  };

  MemFs fs_;
  std::unique_ptr<Store> store_;
  Dataset* ds_ = nullptr;
  std::vector<OpSpec> ops_;
  std::vector<std::string> texts_;
  uint64_t text_bytes_ = 0;
  uint64_t window_input_bytes_ = 0;
  uint64_t live_bytes_ = 0;
  std::map<int64_t, int64_t> model_;  // key -> text index of live version
  int parse_span_ = 0, insert_span_ = 0, delete_span_ = 0;
};

// ---------------------------------------------------------------------------
// scan_analytics: the WOS queries Q1-Q4 under the compiled engine, over one
// Store holding WOS twice (AMAX and APAX), warm cache.

class ScanAnalytics final : public WorkloadDriver {
 public:
  static constexpr uint64_t kRecords = 800;
  static constexpr size_t kMemtableBytes = 1u << 20;
  static constexpr size_t kCacheBytes = 256u << 20;
  static constexpr uint64_t kWindow = 8 * 32;
  static constexpr LayoutKind kLayouts[2] = {LayoutKind::kAmax,
                                             LayoutKind::kApax};

  Status Setup(uint64_t seed, const std::string& dir) override {
    queries_ = bench::WosQueries();
    StoreOptions so;
    so.dir = dir;
    so.fs = &fs_;
    so.cache_bytes = kCacheBytes;
    so.background_threads = 0;
    LSMCOL_ASSIGN_OR_RETURN(store_, Store::Open(so));
    for (int l = 0; l < 2; ++l) {
      DatasetOptions dopt;
      dopt.layout = kLayouts[l];
      dopt.memtable_bytes = kMemtableBytes;
      dopt.amax_max_records = bench::BenchAmaxMaxRecords(kRecords);
      LSMCOL_ASSIGN_OR_RETURN(
          ds_[l], store_->OpenDataset("wos_" + LayoutName(kLayouts[l]), dopt));
    }
    Rng rng(seed);
    for (uint64_t i = 0; i < kRecords; ++i) {
      Value v = MakeRecord(lsmcol::Workload::kWos, static_cast<int64_t>(i), &rng);
      json_bytes_ += ToJson(v).size();
      for (Dataset* ds : ds_) LSMCOL_RETURN_NOT_OK(ds->Insert(v));
    }
    for (Dataset* ds : ds_) LSMCOL_RETURN_NOT_OK(ds->Flush());

    // Cold pass (cache emptied before every query): the Fig 14 I/O.
    BufferCache* cache = store_->cache();
    for (int l = 0; l < 2; ++l) {
      uint64_t bytes = 0;
      for (const bench::NamedQuery& q : queries_) {
        cache->Clear();
        const uint64_t before = cache->stats().bytes_read;
        auto r = RunCompiled(*ds_[l]->GetSnapshot(), q.plan);
        LSMCOL_RETURN_NOT_OK(r.status());
        bytes += cache->stats().bytes_read - before;
        expected_[l].push_back(std::move(*r));
      }
      cold_bytes_per_query_[l] =
          static_cast<double>(bytes) / static_cast<double>(queries_.size());
    }
    // Reference checks: interpreted engine, and AMAX against APAX.
    uint64_t tuples = 0, rows = 0;
    for (int l = 0; l < 2; ++l) {
      for (size_t q = 0; q < queries_.size(); ++q) {
        auto r = RunInterpreted(*ds_[l]->GetSnapshot(), queries_[q].plan);
        const std::string what = LayoutName(kLayouts[l]) + "." + queries_[q].id;
        SetupCheck(r.ok() && bench::ResultsEquivalent(*r, expected_[l][q]),
                   what + " compiled vs interpreted");
        tuples += expected_[l][q].pipeline_tuples;
        rows += expected_[l][q].rows.size();
      }
    }
    for (size_t q = 0; q < queries_.size(); ++q) {
      SetupCheck(bench::ResultsEquivalent(expected_[0][q], expected_[1][q]),
                 queries_[q].id + " amax vs apax");
    }
    tuples_per_row_ = static_cast<double>(tuples) / static_cast<double>(rows);
    // Warm-up: after this every page of both datasets is cached.
    for (int l = 0; l < 2; ++l) {
      for (const bench::NamedQuery& q : queries_) {
        LSMCOL_RETURN_NOT_OK(RunCompiled(*ds_[l]->GetSnapshot(), q.plan).status());
      }
    }
    SetAll(&env_, {
        {"records_per_dataset", Value::Int(kRecords)},
        {"json_bytes_per_dataset",
         Value::Int(static_cast<int64_t>(json_bytes_))},
        {"on_disk_bytes_amax",
         Value::Int(static_cast<int64_t>(ds_[0]->OnDiskBytes()))},
        {"on_disk_bytes_apax",
         Value::Int(static_cast<int64_t>(ds_[1]->OnDiskBytes()))},
        {"cache_bytes", Value::Int(kCacheBytes)},
        {"cached_bytes_after_warmup",
         Value::Int(static_cast<int64_t>(cache->cached_bytes()))},
        {"memtable_bytes", Value::Int(kMemtableBytes)},
    });
    return Status::OK();
  }

  std::vector<std::string> OpTypes() const override {
    std::vector<std::string> types;
    for (LayoutKind layout : kLayouts) {
      for (const bench::NamedQuery& q : queries_) {
        types.push_back(LayoutName(layout) + "." + q.id);
      }
    }
    return types;
  }
  uint64_t WindowOps() const override { return kWindow; }

  Status Op(uint64_t i, Tracer* tracer) override {
    const size_t t = i % (2 * queries_.size());
    const size_t l = t / queries_.size();
    Snapshot::Ref snapshot;
    {
      ScopedSpan span(tracer, snapshot_span_);
      snapshot = ds_[l]->GetSnapshot();
    }
    ScopedSpan span(tracer, query_span_[l]);
    auto r = RunCompiled(*snapshot, queries_[t % queries_.size()].plan);
    LSMCOL_RETURN_NOT_OK(r.status());
    result_ = std::move(*r);
    return Status::OK();
  }

  bool Check(uint64_t i, const Status& st, std::string* why) override {
    const size_t t = i % (2 * queries_.size());
    const size_t l = t / queries_.size();
    if (!st.ok()) {
      *why = st.ToString();
      return false;
    }
    if (!bench::ResultsEquivalent(result_, expected_[l][t % queries_.size()])) {
      *why = "timed result differs from the set-up result";
      return false;
    }
    return true;
  }

  Counters ReadCounters() const override {
    Counters c = CacheCounters(store_->cache()->stats());
    for (Dataset* ds : ds_) AddDatasetCounters(ds->stats(), &c);
    return c;
  }

  void WindowEnd(Value* out) override {
    uint64_t written = 0;
    for (Dataset* ds : ds_) written += WrittenBytes(ds->stats());
    SetAll(out, {
        {"input_json_bytes", Value::Int(static_cast<int64_t>(LiveJsonBytes()))},
        {"write_bytes_per_input_byte",
         Value::Double(static_cast<double>(written) /
                       static_cast<double>(LiveJsonBytes()))},
        {"disk_bytes_per_input_byte", Value::Double(MeanDiskPerLiveByte())},
        {"tuples_per_result_row", Value::Double(tuples_per_row_)},
        {"bytes_read_per_query_cold.amax",
         Value::Double(cold_bytes_per_query_[0])},
        {"bytes_read_per_query_cold.apax",
         Value::Double(cold_bytes_per_query_[1])},
        {"components.amax",
         Value::Int(static_cast<int64_t>(ds_[0]->component_count()))},
        {"components.apax",
         Value::Int(static_cast<int64_t>(ds_[1]->component_count()))},
    });
  }

  uint64_t FinalCheck(std::string* /*why*/) override { return 0; }

 protected:
  uint64_t DiskBytes() const override {
    return ds_[0]->OnDiskBytes() + ds_[1]->OnDiskBytes();
  }
  // Every record is loaded into both datasets.
  uint64_t LiveJsonBytes() const override { return 2 * json_bytes_; }

  void DeclareSpans(Tracer* tracer) override {
    snapshot_span_ = tracer->Name("lsm.snapshot");
    query_span_[0] = tracer->Name("query.compiled.amax");
    query_span_[1] = tracer->Name("query.compiled.apax");
  }

 private:
  MemFs fs_;
  std::unique_ptr<Store> store_;
  Dataset* ds_[2] = {nullptr, nullptr};
  std::vector<bench::NamedQuery> queries_;
  std::vector<QueryResult> expected_[2];
  double cold_bytes_per_query_[2] = {0, 0};
  double tuples_per_row_ = 0;
  uint64_t json_bytes_ = 0;
  QueryResult result_;
  int snapshot_span_ = 0;
  int query_span_[2] = {0, 0};
};

// ---------------------------------------------------------------------------
// lookup_mixed: point lookups (hits and misses), secondary-index range
// counts and indexed upserts against tweet_2 in AMAX, with a BufferCache
// about a quarter of the dataset's on-disk bytes.

class LookupMixed final : public WorkloadDriver {
 public:
  static constexpr uint64_t kRecords = 20000;  // keys 0, 2, ..., 2(n-1)
  static constexpr size_t kCacheBytes = 3584u << 10;
  static constexpr size_t kMemtableBytes = 512u << 10;
  static constexpr uint64_t kWindow = 4 * 1500;
  static constexpr uint64_t kUpserts = 2048;
  static constexpr uint64_t kRanges = 1024;
  static constexpr int64_t kTsBase = 1460000000000;
  static constexpr int64_t kRangeWidthMs = 16 * 1000;  // about 16 records

  static int64_t Timestamp(int64_t key) { return kTsBase + key * 500; }

  Status Setup(uint64_t seed, const std::string& dir) override {
    cache_ = std::make_unique<BufferCache>(kCacheBytes, kDefaultPageSize);
    DatasetOptions dopt;
    dopt.layout = LayoutKind::kAmax;
    dopt.dir = dir;
    dopt.name = "tweets";
    dopt.fs = &fs_;
    dopt.memtable_bytes = kMemtableBytes;
    dopt.amax_max_records = bench::BenchAmaxMaxRecords(kRecords);
    LSMCOL_ASSIGN_OR_RETURN(ids_, IndexedDataset::Create(dopt, cache_.get()));
    LSMCOL_RETURN_NOT_OK(ids_->DeclarePrimaryKeyIndex());
    LSMCOL_RETURN_NOT_OK(ids_->DeclareIndex("ts", {"timestamp"}));
    Rng rng(seed);
    json_size_.assign(kRecords, 0);
    for (uint64_t n = 0; n < kRecords; ++n) {
      const int64_t key = static_cast<int64_t>(2 * n);
      Value v = MakeTweet2Record(key, Timestamp(key), &rng);
      json_size_[n] = ToJson(v).size();
      input_bytes_ += json_size_[n];
      live_bytes_ += json_size_[n];
      LSMCOL_RETURN_NOT_OK(ids_->Insert(v));
    }
    LSMCOL_RETURN_NOT_OK(ids_->Flush());

    // Upsert versions of existing keys; the timestamp (the indexed value)
    // stays the key's, so the range counts below hold for the whole run.
    for (uint64_t u = 0; u < kUpserts; ++u) {
      const int64_t key = static_cast<int64_t>(2 * rng.Uniform(kRecords));
      upserts_.push_back(MakeTweet2Record(key, Timestamp(key), &rng));
      upsert_size_.push_back(ToJson(upserts_.back()).size());
    }
    // Range probes, with counts taken from one scan of the loaded data.
    std::vector<int64_t> stamps;
    {
      LSMCOL_ASSIGN_OR_RETURN(auto cursor,
                              ids_->dataset()->Scan(Projection::Of({{"timestamp"}})));
      while (true) {
        LSMCOL_ASSIGN_OR_RETURN(bool more, cursor->Next());
        if (!more) break;
        Value v;
        LSMCOL_RETURN_NOT_OK(cursor->Record(&v));
        stamps.push_back(v.Get("timestamp").int_value());
      }
    }
    std::sort(stamps.begin(), stamps.end());
    SetupCheck(stamps.size() == kRecords, "scan count equals records loaded");
    const int64_t span = Timestamp(static_cast<int64_t>(2 * kRecords)) - kTsBase;
    for (uint64_t r = 0; r < kRanges; ++r) {
      Range range;
      range.lo = kTsBase + static_cast<int64_t>(rng.Uniform(
                               static_cast<uint64_t>(span - kRangeWidthMs)));
      range.hi = range.lo + kRangeWidthMs;
      range.expected = static_cast<uint64_t>(
          std::upper_bound(stamps.begin(), stamps.end(), range.hi) -
          std::lower_bound(stamps.begin(), stamps.end(), range.lo));
      ranges_.push_back(range);
    }
    key_rng_ = Rng(rng.Next());
    SetAll(&env_, {
        {"layout", Value::String("amax")},
        {"records_loaded", Value::Int(kRecords)},
        {"json_bytes_loaded", Value::Int(static_cast<int64_t>(input_bytes_))},
        {"on_disk_bytes_loaded", Value::Int(static_cast<int64_t>(DiskBytes()))},
        {"cache_bytes", Value::Int(kCacheBytes)},
        {"cache_to_disk_ratio",
         Value::Double(static_cast<double>(kCacheBytes) /
                       static_cast<double>(DiskBytes()))},
        {"memtable_bytes", Value::Int(kMemtableBytes)},
        {"upsert_versions", Value::Int(kUpserts)},
        {"range_probes", Value::Int(kRanges)},
        {"range_width_ms", Value::Int(kRangeWidthMs)},
    });
    return Status::OK();
  }

  std::vector<std::string> OpTypes() const override {
    return {"lookup_hit", "lookup_miss", "index_range", "upsert"};
  }
  uint64_t WindowOps() const override { return kWindow; }

  Status Op(uint64_t i, Tracer* tracer) override {
    const uint64_t round = i / 4;
    switch (i % 4) {
      case 0:
      case 1: {
        // Hit: an even (loaded) key; miss: an odd key inside the key range.
        key_ = static_cast<int64_t>(2 * key_rng_.Uniform(kRecords)) +
               static_cast<int64_t>(i % 4);
        if (key_ >= static_cast<int64_t>(2 * kRecords)) key_ -= 2;
        ScopedSpan span(tracer, lookup_span_);
        return ids_->dataset()->Lookup(key_, &record_);
      }
      case 2: {
        const Range& range = ranges_[round % kRanges];
        ScopedSpan span(tracer, count_span_);
        LSMCOL_ASSIGN_OR_RETURN(count_, ids_->IndexCount("ts", range.lo, range.hi));
        return Status::OK();
      }
      default: {
        ScopedSpan span(tracer, upsert_span_);
        return ids_->Insert(upserts_[round % kUpserts]);
      }
    }
  }

  bool Check(uint64_t i, const Status& st, std::string* why) override {
    const uint64_t round = i / 4;
    bool ok = false;
    switch (i % 4) {
      case 0:
        ok = st.ok() && record_.Get("id").is_int() &&
             record_.Get("id").int_value() == key_;
        break;
      case 1:
        ok = st.IsNotFound();
        break;
      case 2:
        ok = st.ok() && count_ == ranges_[round % kRanges].expected;
        break;
      default: {
        ok = st.ok();
        if (i < kWindow) {
          const Value& v = upserts_[round % kUpserts];
          const uint64_t n = static_cast<uint64_t>(v.Get("id").int_value() / 2);
          const uint64_t size = upsert_size_[round % kUpserts];
          input_bytes_ += size;
          live_bytes_ += size - json_size_[n];
          json_size_[n] = size;
        }
        break;
      }
    }
    if (!ok) {
      *why = "op " + std::to_string(i) + " (" + OpTypes()[i % 4] + "): " +
             (st.ok() ? std::string("wrong output") : st.ToString());
    }
    return ok;
  }

  Counters ReadCounters() const override {
    Counters c = CacheCounters(cache_->stats());
    AddDatasetCounters(ids_->dataset()->stats(), &c);
    return c;
  }

  void WindowEnd(Value* out) override {
    const DatasetStats s = ids_->dataset()->stats();
    SetAll(out, {
        {"input_json_bytes", Value::Int(static_cast<int64_t>(input_bytes_))},
        {"live_json_bytes", Value::Int(static_cast<int64_t>(live_bytes_))},
        {"on_disk_bytes", Value::Int(static_cast<int64_t>(DiskBytes()))},
        {"write_bytes_per_input_byte",
         Value::Double(static_cast<double>(WrittenBytes(s)) /
                       static_cast<double>(input_bytes_))},
        {"disk_bytes_per_input_byte", Value::Double(MeanDiskPerLiveByte())},
        {"components_mean",
         Value::Double(static_cast<double>(component_sum_) /
                       static_cast<double>(component_samples_))},
        {"flushes", Value::Int(static_cast<int64_t>(s.flushes))},
        {"merges", Value::Int(static_cast<int64_t>(s.merges))},
    });
  }

  uint64_t FinalCheck(std::string* /*why*/) override { return 0; }

 protected:
  void SampleWorkloadGauges() override {
    component_sum_ += ids_->dataset()->component_count();
    ++component_samples_;
  }
  uint64_t DiskBytes() const override {
    return ids_->dataset()->OnDiskBytes() + ids_->IndexOnDiskBytes();
  }
  uint64_t LiveJsonBytes() const override { return live_bytes_; }

  void DeclareSpans(Tracer* tracer) override {
    lookup_span_ = tracer->Name("lsm.lookup");
    count_span_ = tracer->Name("index.count");
    upsert_span_ = tracer->Name("index.insert");
  }

 private:
  struct Range {
    int64_t lo = 0;
    int64_t hi = 0;
    uint64_t expected = 0;
  };

  MemFs fs_;
  std::unique_ptr<BufferCache> cache_;  // outlives the dataset below
  std::unique_ptr<IndexedDataset> ids_;
  std::vector<Value> upserts_;
  std::vector<uint64_t> upsert_size_;
  std::vector<Range> ranges_;
  std::vector<uint64_t> json_size_;  // per loaded key, of its live version
  uint64_t input_bytes_ = 0;
  uint64_t live_bytes_ = 0;
  Rng key_rng_{0};  // hit and miss keys, seeded in Setup
  int64_t key_ = 0;
  Value record_;
  uint64_t count_ = 0;
  uint64_t component_sum_ = 0;
  uint64_t component_samples_ = 0;
  int lookup_span_ = 0, count_span_ = 0, upsert_span_ = 0;
};

std::unique_ptr<WorkloadDriver> MakeWorkload(const std::string& name) {
  if (name == "ingest_update") return std::make_unique<IngestUpdate>();
  if (name == "scan_analytics") return std::make_unique<ScanAnalytics>();
  if (name == "lookup_mixed") return std::make_unique<LookupMixed>();
  return nullptr;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string store;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      args->workload = v;
    } else if (k == "--seed") {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      args->trace = v == "1";
    } else if (k == "--out") {
      args->out = v;
    } else if (k == "--store") {
      args->store = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->out.empty() &&
         !args->store.empty() && args->seconds > 0;
}

constexpr int kSetups = 5;

int Main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--probe") return ProbeHost();
  Args args;
  if (!ParseArgs(argc, argv, &args) || MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: lsmbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out DIR --store DIR\n");
    return 2;
  }

  // Set up kSetups times; keep the last one for the timed phase.
  std::unique_ptr<WorkloadDriver> wl;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::string dir = args.store + "/setup" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    wl.reset();
    const int64_t start = NowNs();
    wl = MakeWorkload(args.workload);
    Status st = wl->Setup(args.seed, dir);
    setup_s.push_back(SecondsSince(start));
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (rep + 1 < kSetups) {
      wl.reset();
      std::filesystem::remove_all(dir);
      malloc_trim(0);  // each set-up starts from the same heap footprint
    }
  }

  const std::vector<std::string> types = wl->OpTypes();
  Tracer tracer([&wl] { return wl->ReadCounters(); });
  wl->InternSpans(&tracer);
  // Op latencies per mode (untraced, traced) and op type.
  std::vector<std::vector<int64_t>> samples[2] = {
      std::vector<std::vector<int64_t>>(types.size()),
      std::vector<std::vector<int64_t>>(types.size())};
  std::vector<Counters> window(types.size());
  std::vector<int64_t> window_ops(types.size(), 0);
  Value window_end = Value::MakeObject();
  int64_t mode_ops[2] = {0, 0};  // [untraced, traced]
  int64_t mode_ns[2] = {0, 0};
  uint64_t failed = 0;
  std::string first_failure;

  const uint64_t window_len = wl->WindowOps();
  const int64_t start = NowNs();
  const int64_t deadline =
      start + static_cast<int64_t>(args.seconds * 1e9);
  const uint64_t cycle = wl->CycleLength();
  uint64_t i = 0;
  for (;; ++i) {
    if (i % cycle == 0 && i >= window_len && NowNs() >= deadline) break;
    // A traced run splits whole rounds of the op cycle between untraced
    // and traced, so both modes sample every op type and the same host
    // state. The top bit of round * 2^64/phi picks half the rounds with
    // no period, so a periodic event (an inline flush every k rounds)
    // cannot fall into untraced rounds only, as it can with parity.
    const uint64_t round = i / cycle;
    tracer.set_enabled(args.trace && (round * 0x9E3779B97F4A7C15ULL) >> 63);
    const int type = wl->TypeOf(i);
    const bool in_window = i < window_len;
    Counters before;
    if (in_window) before = wl->ReadCounters();
    tracer.set_op(static_cast<int64_t>(i));
    const int64_t t0 = NowNs();
    Status st;
    {
      ScopedSpan root(&tracer, wl->op_span(type));
      st = wl->Op(i, &tracer);
    }
    const int64_t t1 = NowNs();
    if (in_window) {
      window[static_cast<size_t>(type)] += wl->ReadCounters() - before;
      ++window_ops[static_cast<size_t>(type)];
      wl->SampleWindow();
    }
    std::string why;
    if (!wl->Check(i, st, &why)) {
      ++failed;
      if (first_failure.empty()) first_failure = why;
    }
    const int mode = tracer.enabled() ? 1 : 0;
    ++mode_ops[mode];
    mode_ns[mode] += t1 - t0;
    samples[mode][static_cast<size_t>(type)].push_back(t1 - t0);
    if (i + 1 == window_len) wl->WindowEnd(&window_end);
  }
  const double timed_wall_s = SecondsSince(start);
  // Taken before the end check and the report, which are not the
  // workload's, so the figure is the program's on the run's inputs.
  const double peak_rss_mb = PeakRssMiB();
  const uint64_t attempted = i;
  std::string why;
  const uint64_t final_failures = wl->FinalCheck(&why);
  if (final_failures > 0 && first_failure.empty()) first_failure = why;
  failed += final_failures + wl->setup_failures();

  std::string spans_file;
  if (args.trace) {
    spans_file = args.out + "/spans.bin";
    if (!tracer.Write(spans_file)) {
      std::fprintf(stderr, "cannot write %s\n", spans_file.c_str());
      return 1;
    }
  }

  Value samples_obj[2] = {Value::MakeObject(), Value::MakeObject()};
  Value window_obj = Value::MakeObject();
  for (size_t t = 0; t < types.size(); ++t) {
    samples_obj[0].Set(types[t], IntArray(samples[0][t]));
    samples_obj[1].Set(types[t], IntArray(samples[1][t]));
    Value w = Value::MakeObject();
    w.Set("ops", Value::Int(window_ops[t]));
    for (int c = 0; c < Counters::kFields; ++c) {
      w.Set(Counters::Names()[c], Value::Int(window[t].Get(c)));
    }
    window_obj.Set(types[t], std::move(w));
  }
  Value env = wl->env();
  SetAll(&env, {
      {"seed", Value::Int(static_cast<int64_t>(args.seed))},
      {"nproc", Value::Int(std::thread::hardware_concurrency())},
      {"store_fs", Value::String("memfs (in-process memory filesystem)")},
      {"client", Value::String("1 closed-loop thread, background_threads = 0")},
  });
  const std::vector<std::string> counter_names(
      Counters::Names(), Counters::Names() + Counters::kFields);
  Value run = Value::MakeObject();
  SetAll(&run, {
      {"workload", Value::String(args.workload)},
      {"env", std::move(env)},
      {"op_types", StrArray(types)},
      {"setup_s_runs", NumArray(setup_s)},
      {"attempted", Value::Int(static_cast<int64_t>(attempted))},
      {"cycle_length", Value::Int(static_cast<int64_t>(cycle))},
      {"failed", Value::Int(static_cast<int64_t>(std::min(failed, attempted)))},
      {"first_failure", Value::String(first_failure)},
      {"timed_wall_s", Value::Double(timed_wall_s)},
      {"untraced_ops", Value::Int(mode_ops[0])},
      {"untraced_op_s", Value::Double(static_cast<double>(mode_ns[0]) * 1e-9)},
      {"traced_ops", Value::Int(mode_ops[1])},
      {"traced_op_s", Value::Double(static_cast<double>(mode_ns[1]) * 1e-9)},
      {"samples_ns", std::move(samples_obj[0])},
      {"traced_samples_ns", std::move(samples_obj[1])},
      {"window_ops", Value::Int(static_cast<int64_t>(window_len))},
      {"window", std::move(window_obj)},
      {"window_end", std::move(window_end)},
      {"peak_rss_mb", Value::Double(peak_rss_mb)},
      {"span_names", StrArray(tracer.names())},
      {"counter_names", StrArray(counter_names)},
      {"spans_file", Value::String(spans_file)},
  });
  wl.reset();
  std::ofstream out(args.out + "/run.json", std::ios::trunc);
  out << ToJson(run) << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s/run.json\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lsmcol::perfbench

int main(int argc, char** argv) { return lsmcol::perfbench::Main(argc, argv); }
