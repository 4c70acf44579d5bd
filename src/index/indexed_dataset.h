// IndexedDataset: a Dataset plus declared secondary indexes and the
// primary-key index, with the §4.6 maintenance protocol:
//
//   on insert of key k:
//     1. probe the primary-key index; if k is new, skip the primary lookup
//     2. otherwise point-look-up the old record (decoding keys linearly in
//        the columnar layouts — the update-intensive cost of §6.3.2),
//        read its old indexed values, and add anti-matter entries
//     3. insert into the primary index and all secondary indexes
//
// and the §4.6 read protocol: search the secondary index, sort the
// resulting primary keys, then batched point lookups against the primary
// index with a persistent LSM cursor — all against one Snapshot, so an
// index scan observes a single consistent view of the primary index.

#ifndef LSMCOL_INDEX_INDEXED_DATASET_H_
#define LSMCOL_INDEX_INDEXED_DATASET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/index/secondary_index.h"
#include "src/lsm/dataset.h"

namespace lsmcol {

class IndexedDataset {
 public:
  /// Wraps a dataset opened with Dataset::Open (create-or-recover).
  /// Indexes must be declared before any inserts (the paper creates them
  /// prior to ingestion, §6.3.2); secondary-index durability is not
  /// implemented yet — recovery restores the primary index only.
  static Result<std::unique_ptr<IndexedDataset>> Create(
      const DatasetOptions& options, BufferCache* cache);

  /// Declare a secondary index on a top-level (or dotted) int64 field.
  Status DeclareIndex(const std::string& name,
                      std::vector<std::string> field_path);
  /// Declare the primary-key index (recommended for update-heavy loads).
  Status DeclarePrimaryKeyIndex();

  /// Upsert with index maintenance.
  Status Insert(const Value& record);
  Status Delete(int64_t key);

  Status Flush();

  /// Index-accelerated range query: returns the records whose indexed
  /// field lies in [lo, hi], via sorted batched point lookups. The
  /// `consume` callback receives each record.
  Status IndexScan(const std::string& index_name, int64_t lo, int64_t hi,
                   const Projection& projection,
                   const std::function<void(int64_t pk, const Value&)>& consume);

  /// Count-only variant (skips record materialization when possible).
  Result<uint64_t> IndexCount(const std::string& index_name, int64_t lo,
                              int64_t hi);

  Dataset* dataset() { return dataset_.get(); }
  uint64_t IndexOnDiskBytes() const;

 private:
  struct DeclaredIndex {
    std::string name;
    std::vector<std::string> path;
    std::unique_ptr<SecondaryIndex> index;
  };

  IndexedDataset() = default;

  /// Options for an index named `<dataset>_<suffix>`, stored in the
  /// dataset's directory on the dataset's filesystem.
  SecondaryIndexOptions IndexOptions(const std::string& suffix) const;
  Result<DeclaredIndex*> FindIndex(const std::string& name);
  /// Extract the indexed int64 value; false if missing/non-int.
  static bool IndexedValue(const Value& record,
                           const std::vector<std::string>& path, int64_t* out);

  /// Projection of just the indexed fields (old-value cleanout lookups).
  Projection IndexedFieldsProjection() const;

  std::unique_ptr<Dataset> dataset_;
  std::vector<DeclaredIndex> indexes_;
  std::unique_ptr<PrimaryKeyIndex> pk_index_;
  BufferCache* cache_ = nullptr;
};

}  // namespace lsmcol

#endif  // LSMCOL_INDEX_INDEXED_DATASET_H_
