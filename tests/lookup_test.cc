// Point reads (Snapshot::Lookup, LookupBatch) checked against a full scan
// of the same snapshot, across all four layouts and all three compaction
// policies: after random upserts and deletes with flushes, merges and a
// reopen, every key in and around the key space must resolve exactly as
// the reconciled scan says — under a full projection, a keys-only one and
// a single path. Plus the quarantine rule of the newest-first probe.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/json/parser.h"
#include "src/lsm/dataset.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;
// Keys below kOldOnly are written once, into the first component, and
// only deleted at the very end: they stay held by the oldest component.
constexpr int64_t kOldOnly = 300;
constexpr int64_t kKeySpace = 1200;

Value MakeRecord(int64_t id, int64_t version, Rng* rng) {
  Value v = Value::MakeObject();
  v.Set("id", Value::Int(id));
  v.Set("version", Value::Int(version));
  v.Set("name", Value::String("user_" + std::to_string(id)));
  Value meta = Value::MakeObject();
  meta.Set("level", Value::Int(static_cast<int64_t>(rng->Uniform(5))));
  if (rng->Bernoulli(0.3)) meta.Set("note", Value::String(rng->Word(1, 8)));
  v.Set("meta", std::move(meta));
  Value tags = Value::MakeArray();
  for (uint64_t t = 0; t < rng->Uniform(3); ++t) {
    tags.Push(Value::Int(static_cast<int64_t>(rng->Uniform(100))));
  }
  v.Set("tags", std::move(tags));
  // Late versions change a field's type, so components disagree on the
  // schema (union types, §3).
  if (version > 2000) v.Set("extra", Value::String("v" + std::to_string(id)));
  return v;
}

std::vector<Projection> Projections() {
  return {Projection::All(), Projection::Of({}),
          Projection::Of({{"meta", "level"}})};
}

// Every key's record as a reconciled scan of `snapshot` sees it.
std::map<int64_t, std::string> ScanDigest(const Snapshot& snapshot,
                                          const Projection& projection) {
  std::map<int64_t, std::string> out;
  auto cursor = snapshot.Scan(projection);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return out;
  while (true) {
    auto ok = (*cursor)->Next();
    EXPECT_TRUE(ok.ok()) << ok.status().ToString();
    if (!ok.ok() || !*ok) break;
    Value v;
    EXPECT_TRUE((*cursor)->Record(&v).ok());
    out[(*cursor)->key()] = ToJson(v);
  }
  return out;
}

// True when some component has a probed key strictly between two of its
// leaves' fences (a key the leaf index alone rules out).
bool ProbesBetweenFences(const Snapshot& snapshot, int64_t lo, int64_t hi) {
  for (size_t c = 0; c < snapshot.component_count(); ++c) {
    const auto& leaves = snapshot.component(c).reader().leaves();
    for (size_t i = 0; i + 1 < leaves.size(); ++i) {
      const int64_t gap = leaves[i].max_key + 1;
      if (gap < leaves[i + 1].min_key && gap >= lo && gap <= hi) return true;
    }
  }
  return false;
}

struct Config {
  LayoutKind layout;
  CompactionStrategy strategy;
};

class LookupDifferentialTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/lookup_" +
           std::string(LayoutKindName(GetParam().layout)) + "_" +
           CompactionStrategyName(GetParam().strategy);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(256 * kPage, kPage);
  }

  void TearDown() override {
    dataset_.reset();
    std::filesystem::remove_all(dir_);
  }

  DatasetOptions Options() const {
    DatasetOptions options;
    options.layout = GetParam().layout;
    options.dir = dir_;
    options.page_size = kPage;
    options.memtable_bytes = 16 * 1024;
    options.amax_max_records = 64;
    options.compaction.strategy = GetParam().strategy;
    options.compaction.level_base_bytes = 64 * 1024;
    return options;
  }

  void Open(const DatasetOptions& options) {
    dataset_.reset();
    auto ds = Dataset::Open(options, cache_.get());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = std::move(*ds);
  }

  // Lookup and LookupBatch over every key in [lo, hi], under each
  // projection, against the scan of the same snapshot.
  void CheckAgainstScan(const std::string& step) {
    SCOPED_TRACE(step);
    const int64_t lo = -5, hi = kKeySpace + 5;
    Snapshot::Ref snapshot = dataset_->GetSnapshot();
    for (const Projection& projection : Projections()) {
      SCOPED_TRACE(projection.all ? "all"
                                  : std::to_string(projection.paths.size()) +
                                        " paths");
      const auto want = ScanDigest(*snapshot, projection);
      for (int64_t key = lo; key <= hi; ++key) {
        Value v;
        Status st = snapshot->Lookup(key, projection, &v);
        auto it = want.find(key);
        if (it == want.end()) {
          ASSERT_TRUE(st.IsNotFound()) << key << ": " << st.ToString();
        } else {
          ASSERT_TRUE(st.ok()) << key << ": " << st.ToString();
          ASSERT_EQ(ToJson(v), it->second) << key;
        }
      }
      auto batch = snapshot->NewLookupBatch(projection);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      for (int64_t key = lo; key <= hi; ++key) {
        bool found = false;
        Value v;
        ASSERT_TRUE((*batch)->Find(key, &found, &v).ok()) << key;
        auto it = want.find(key);
        ASSERT_EQ(found, it != want.end()) << key;
        if (found) {
          ASSERT_EQ(ToJson(v), it->second) << key;
        }
      }
      // Out of order, count-only: still exact, only dearer.
      for (int64_t key = hi; key >= lo; key -= 7) {
        bool found = false;
        ASSERT_TRUE((*batch)->Find(key, &found, nullptr).ok()) << key;
        ASSERT_EQ(found, want.count(key) == 1) << key;
      }
    }
  }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<Dataset> dataset_;
};

TEST_P(LookupDifferentialTest, ProbeAgreesWithScan) {
  Open(Options());
  Rng rng(GetParam().layout == LayoutKind::kAmax ? 11 : 7);
  // The oldest component: every third key below kOldOnly, so keys fall
  // inside leaves, between leaves, and below the first one.
  for (int64_t key = 0; key < kOldOnly; key += 3) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(key, 0, &rng)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());

  // Random upserts and deletes above kOldOnly; the small memtable
  // flushes often and the policy merges as it sees fit.
  for (int64_t op = 1; op <= 3000; ++op) {
    const int64_t key =
        kOldOnly + static_cast<int64_t>(rng.Uniform(kKeySpace - kOldOnly));
    if (rng.Bernoulli(0.2)) {
      ASSERT_TRUE(dataset_->Delete(key).ok());
    } else {
      ASSERT_TRUE(dataset_->Insert(MakeRecord(key, op, &rng)).ok());
    }
    if (op % 1000 == 0) {
      CheckAgainstScan("random ops " + std::to_string(op));
    }
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  CheckAgainstScan("flushed");

  // Reopen from disk without automatic merges, so the component stack
  // below stays as built.
  DatasetOptions options = Options();
  options.auto_merge = false;
  Open(options);
  CheckAgainstScan("reopened");

  // Anti-matter in a newer component for keys only the oldest one held,
  // and upserts over them.
  for (int64_t key = 0; key < kOldOnly; key += 30) {
    ASSERT_TRUE(dataset_->Delete(key).ok());
    ASSERT_TRUE(dataset_->Insert(MakeRecord(key + 3, 5000, &rng)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  ASSERT_GE(dataset_->component_count(), 2u);
  // Unflushed: the memtable decides these.
  ASSERT_TRUE(dataset_->Delete(6).ok());
  ASSERT_TRUE(dataset_->Insert(MakeRecord(9, 6000, &rng)).ok());
  Snapshot::Ref snapshot = dataset_->GetSnapshot();
  EXPECT_TRUE(ProbesBetweenFences(*snapshot, -5, kKeySpace + 5));
  Value v;
  EXPECT_TRUE(snapshot->Lookup(0, &v).IsNotFound());  // newer anti-matter
  EXPECT_TRUE(snapshot->Lookup(6, &v).IsNotFound());  // memtable delete
  ASSERT_TRUE(snapshot->Lookup(12, &v).ok());         // oldest only
  EXPECT_EQ(v.Get("version").int_value(), 0);
  ASSERT_TRUE(snapshot->Lookup(9, &v).ok());
  EXPECT_EQ(v.Get("version").int_value(), 6000);
  CheckAgainstScan("anti-matter over the oldest component");

  Status merged = dataset_->MergeAll();
  ASSERT_TRUE(merged.ok()) << merged.ToString();
  CheckAgainstScan("merged");
}

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (LayoutKind layout : {LayoutKind::kOpen, LayoutKind::kVb,
                            LayoutKind::kApax, LayoutKind::kAmax}) {
    for (CompactionStrategy strategy :
         {CompactionStrategy::kTiered, CompactionStrategy::kLeveled,
          CompactionStrategy::kLazyLeveling}) {
      configs.push_back({layout, strategy});
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndPolicies, LookupDifferentialTest,
    ::testing::ValuesIn(AllConfigs()), [](const auto& info) {
      std::string name = std::string(LayoutKindName(info.param.layout)) +
                         "_" + CompactionStrategyName(info.param.strategy);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class LookupQuarantineTest : public ::testing::TestWithParam<LayoutKind> {};

// A quarantined component fails every lookup its fences cover — unless a
// newer source already decided the key — and costs nothing elsewhere.
TEST_P(LookupQuarantineTest, CoveredKeysFailUnlessDecidedNewer) {
  const std::string dir = testing::TempDir() + "/lookup_quarantine_" +
                          LayoutKindName(GetParam());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BufferCache cache(256 * kPage, kPage);
  DatasetOptions options;
  options.layout = GetParam();
  options.dir = dir;
  options.page_size = kPage;
  options.auto_merge = false;
  options.amax_max_records = 64;
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng rng(3);
  for (int64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE((*ds)->Insert(MakeRecord(key, 0, &rng)).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());  // the victim: keys 0..99
  for (int64_t key = 50; key < 60; ++key) {
    ASSERT_TRUE((*ds)->Insert(MakeRecord(key, 1, &rng)).ok());
  }
  for (int64_t key = 60; key < 65; ++key) ASSERT_TRUE((*ds)->Delete(key).ok());
  ASSERT_TRUE((*ds)->Flush().ok());
  ASSERT_TRUE((*ds)->Insert(MakeRecord(20, 2, &rng)).ok());  // memtable

  Snapshot::Ref snapshot = (*ds)->GetSnapshot();
  ASSERT_EQ(snapshot->component_count(), 2u);
  // Warm the victim's leaf first: a cached leaf must not answer either.
  Value v;
  ASSERT_TRUE(snapshot->Lookup(10, &v).ok());
  auto batch = snapshot->NewLookupBatch(Projection::All());
  ASSERT_TRUE(batch.ok());
  bool found = false;
  ASSERT_TRUE((*batch)->Find(10, &found, &v).ok());
  ASSERT_TRUE(found);
  const Status damage = Status::Corruption("injected damage");
  snapshot->component(1).Quarantine(damage);

  EXPECT_TRUE(snapshot->Lookup(10, &v).IsCorruption());
  EXPECT_TRUE((*batch)->Find(11, &found, &v).IsCorruption());
  ASSERT_TRUE(snapshot->Lookup(55, &v).ok());  // newer component decides
  EXPECT_EQ(v.Get("version").int_value(), 1);
  EXPECT_TRUE(snapshot->Lookup(62, &v).IsNotFound());  // newer anti-matter
  ASSERT_TRUE(snapshot->Lookup(20, &v).ok());          // memtable decides
  EXPECT_EQ(v.Get("version").int_value(), 2);
  // Outside the victim's fences: no read, so no failure.
  EXPECT_TRUE(snapshot->Lookup(-1, &v).IsNotFound());
  EXPECT_TRUE(snapshot->Lookup(100, &v).IsNotFound());
  ASSERT_TRUE((*batch)->Find(57, &found, &v).ok());
  EXPECT_TRUE(found);
  ASSERT_TRUE((*batch)->Find(500, &found, nullptr).ok());
  EXPECT_FALSE(found);

  batch->reset();
  snapshot.reset();
  ds->reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, LookupQuarantineTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

}  // namespace
}  // namespace lsmcol
