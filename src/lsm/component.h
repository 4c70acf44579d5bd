// LSM on-disk component wrapper and the per-source tuple cursors used by
// scans, merges, and point lookups.
//
// Every component stores a metadata blob (§2.1.1's metadata page) naming
// its layout, compression flag, entry count, and — for columnar layouts —
// the schema snapshot taken at the end of the flush/merge that produced it
// (the most recent schema is a superset of all older ones, §2.2).
//
// Cursors expose a reconciliation-friendly stream: Next()/key()/
// anti_matter() walk every entry (including anti-matter); Record() and
// Path() materialize values lazily. The columnar cursor decodes only
// primary keys while records are being skipped, advancing the projected
// columns' iterators in batches when a record is actually accessed (§4.4),
// and — for AMAX — reads a column's megapage pages only on first access
// within a leaf (§4.3).

#ifndef LSMCOL_LSM_COMPONENT_H_
#define LSMCOL_LSM_COMPONENT_H_

#include <atomic>
#include <climits>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/columnar/assembler.h"
#include "src/columnar/column_reader.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/json/value.h"
#include "src/layouts/amax.h"
#include "src/layouts/apax.h"
#include "src/layouts/row_codec.h"
#include "src/layouts/row_leaf.h"
#include "src/lsm/memtable.h"
#include "src/lsm/scan_predicate.h"
#include "src/schema/schema.h"
#include "src/storage/component_file.h"

namespace lsmcol {

/// Metadata blob persisted with every component.
struct ComponentMeta {
  LayoutKind layout = LayoutKind::kOpen;
  bool compressed = true;
  uint64_t component_id = 0;  ///< monotonically increasing; merges take max
  uint64_t entry_count = 0;   ///< records + anti-matter entries

  void SerializeTo(Buffer* out, const Schema* schema) const;
  /// Parses the blob; fills *schema_blob with the schema bytes (empty for
  /// row layouts).
  static Result<ComponentMeta> Parse(Slice input, Buffer* schema_blob);
};

/// Dataset-wide tallies of data damage observed at component read time.
/// Shared (via shared_ptr) between the Dataset and every Component it
/// opens, so counts survive the component being merged away or the
/// snapshot that pinned it dying.
struct ComponentFaultCounters {
  std::atomic<uint64_t> checksum_failures{0};  ///< damaged reads observed
  std::atomic<uint64_t> quarantines{0};        ///< components quarantined
  /// First-damage records awaiting persistence. A component appends
  /// {component_id, reason} under log_mu the moment it quarantines
  /// itself (reads happen on arbitrary threads, possibly under component
  /// locks — the log is the rank-75 sink those threads may reach); the
  /// owning Dataset drains the log into the manifest so a restart does
  /// not silently "heal" a known-bad component. damage_records mirrors
  /// the append count so pollers skip log_mu when nothing is new.
  std::atomic<uint64_t> damage_records{0};
  mutable Mutex log_mu{MutexRank::kComponentFaultLog};
  std::vector<std::pair<uint64_t, Status>> damage_log
      LSMCOL_GUARDED_BY(log_mu);
};

/// An immutable on-disk component.
class Component {
 public:
  static Result<std::unique_ptr<Component>> Open(
      const std::string& path, BufferCache* cache, size_t page_size,
      FileSystem* fs = nullptr,
      std::shared_ptr<ComponentFaultCounters> fault_counters = nullptr);

  /// Open for salvage: damaged reads surface their error but never
  /// quarantine the component or touch fault counters, so a salvage tool
  /// can keep probing leaves past the first bad page.
  static Result<std::unique_ptr<Component>> OpenForSalvage(
      const std::string& path, BufferCache* cache, size_t page_size,
      FileSystem* fs = nullptr);

  /// Deletes the backing file iff MarkObsolete() was called.
  ~Component();

  /// Mark this component superseded (merged away). The backing file is
  /// deleted when the last reference drops — immediately if only the
  /// dataset held it, or once the last Snapshot pinning it dies. The
  /// manifest must already have stopped referencing the component (a
  /// crash before the deferred unlink only leaves an orphan file, which
  /// the stale-file sweep removes on the next open).
  void MarkObsolete() { obsolete_ = true; }

  const ComponentMeta& meta() const { return meta_; }
  const ComponentReader& reader() const { return *reader_; }
  ComponentReader* mutable_reader() { return reader_.get(); }
  /// Schema snapshot (columnar layouts only; nullptr otherwise).
  const Schema* schema() const { return schema_ ? &*schema_ : nullptr; }
  uint64_t size_bytes() const { return reader_->size_bytes(); }
  const std::string& path() const { return reader_->path(); }

  /// Row-leaf payload with leaf-level compression already removed. Backed
  /// by a small FIFO cache: the buffer cache of a real system holds
  /// decompressed pages, so repeated point lookups must not pay the
  /// decompression again. Returns shared ownership so the bytes stay
  /// valid for the caller even when concurrent readers (components are
  /// shared across snapshots and threads) rotate the entry out of the
  /// FIFO. Thread-safe.
  Result<std::shared_ptr<const Buffer>> DecompressedRowLeaf(
      size_t leaf_index) const LSMCOL_EXCLUDES(row_leaf_mu_);

  /// Checked leaf reads — the only way cursors and merges may touch this
  /// component's pages. A quarantined component fails fast without I/O;
  /// a read that surfaces data damage (checksum mismatch, corruption)
  /// quarantines the component so every later read fails fast too. Other
  /// components — and the dataset as a whole — stay readable: damage is
  /// contained to the file that exhibits it.
  Status ReadLeaf(size_t leaf_index, Buffer* out) const;
  /// A leaf range viewed in place in its pinned cache page when it lies
  /// within one page (ComponentReader::ViewLeafRange); same checks.
  Status ViewLeafRange(size_t leaf_index, uint64_t offset, uint64_t size,
                       LeafBytes* out) const;

  /// Layout-specific checked reads, each over ViewLeafRange. APAX: one
  /// whole leaf, parsed.
  Status ReadApaxLeaf(size_t leaf_index, ApaxLeaf* out) const;
  /// AMAX: one mega leaf's Page 0 — header, zone prefixes, keys (§4.3).
  Status ReadAmaxPageZero(size_t leaf_index, AmaxPageZero* out) const;
  /// AMAX: one column's megapage, decoded into the chunk bytes
  /// ColumnChunkReader::Init takes.
  Status ReadAmaxMegapage(size_t leaf_index, const AmaxColumnExtent& extent,
                          const ColumnInfo& info, Buffer* chunk) const;

  /// Checked leaf read that bypasses the buffer cache: the physical
  /// pages are re-read and re-verified even when cached. The scrubber's
  /// probe — same quarantine semantics as ReadLeaf.
  Status ScrubLeaf(size_t leaf_index, Buffer* out) const;

  /// OK, or the quarantine reason. Cheap (one atomic load when healthy).
  Status CheckReadable() const LSMCOL_EXCLUDES(fault_mu_);
  bool quarantined() const {
    return quarantined_.load(std::memory_order_acquire);
  }

  /// Quarantine without a read: used at recovery to re-apply a damage
  /// record persisted in the manifest. Bumps the quarantine counter but
  /// not checksum_failures, and does NOT append to the damage log (the
  /// record is already durable). Idempotent.
  void Quarantine(const Status& reason) const LSMCOL_EXCLUDES(fault_mu_);

 private:
  static constexpr size_t kRowLeafCacheSize = 4;

  Component() = default;

  /// Record `st` if it is data damage (quarantining on first sight) and
  /// return it unchanged. Called on every checked read's result.
  Status NoteRead(Status st) const LSMCOL_EXCLUDES(fault_mu_);

  ComponentMeta meta_;
  bool obsolete_ = false;
  /// Salvage mode: NoteRead passes damage through untouched.
  bool salvage_ = false;
  std::unique_ptr<ComponentReader> reader_;
  std::optional<Schema> schema_;
  std::shared_ptr<ComponentFaultCounters> fault_counters_;
  /// Guards quarantine_reason_; quarantined_ is the lock-free fast path.
  mutable Mutex fault_mu_{MutexRank::kComponentFault};
  mutable std::atomic<bool> quarantined_{false};
  mutable Status quarantine_reason_ LSMCOL_GUARDED_BY(fault_mu_);
  /// Guards row_leaf_cache_ only; everything else is immutable after
  /// Open() (obsolete_ flips once, under Dataset::mu_).
  mutable Mutex row_leaf_mu_{MutexRank::kComponentRowLeaf};
  mutable std::vector<std::pair<size_t, std::shared_ptr<const Buffer>>>
      row_leaf_cache_ LSMCOL_GUARDED_BY(row_leaf_mu_);
};

/// Which fields a cursor must be able to materialize.
struct Projection {
  bool all = true;
  std::vector<std::vector<std::string>> paths;

  static Projection All() { return Projection(); }
  static Projection Of(std::vector<std::vector<std::string>> paths) {
    Projection p;
    p.all = false;
    p.paths = std::move(paths);
    return p;
  }
};

/// What a cursor can say about its current record versus the pushed-down
/// scan predicates (the ScanPredicate contract: predicates are necessary
/// conditions of the query filter).
enum class PredicateVerdict : uint8_t {
  kNoMatch,  ///< some pushed predicate is definitely false — skip safely
  kMatch,    ///< every pushed predicate was checked and holds
  kUnknown,  ///< not checked (no stats / unpushable here) — evaluate fully
};

/// Reconciliation-friendly sorted tuple stream (one LSM source).
class TupleCursor {
 public:
  virtual ~TupleCursor() = default;

  /// Advance; false when exhausted. Surfaces anti-matter entries too.
  virtual Result<bool> Next() = 0;
  virtual int64_t key() const = 0;
  virtual bool anti_matter() const = 0;

  /// Materialize the current record (projection-limited where supported).
  virtual Status Record(Value* out) = 0;
  /// Materialize one dotted path of the current record.
  virtual Status Path(const std::vector<std::string>& path, Value* out) = 0;

  /// Fast-forward so the next Next() lands on the first key >= target.
  /// Must not move backwards.
  virtual Status SeekForward(int64_t target) = 0;

  /// Judge the current record against the pushed predicates (if any).
  /// Sources without zone/typed support answer kUnknown, which is always
  /// safe. Cheap: leaf-level zone state plus array lookups.
  virtual Result<PredicateVerdict> TestPushedPredicates() {
    return PredicateVerdict::kUnknown;
  }
};

/// Cursor over a row-layout component (Open/VB leaves).
class RowComponentCursor : public TupleCursor {
 public:
  RowComponentCursor(const Component* component) : component_(component) {}

  Result<bool> Next() override;
  int64_t key() const override { return key_; }
  bool anti_matter() const override { return anti_matter_; }
  Status Record(Value* out) override;
  Status Path(const std::vector<std::string>& path, Value* out) override;
  Status SeekForward(int64_t target) override;

  /// Raw encoded row of the current entry (merge fast path: rows are
  /// copied between components without decoding).
  Slice row() const { return row_; }

 private:
  const Component* component_;
  size_t leaf_index_ = 0;
  bool leaf_loaded_ = false;
  /// Keeps the decompressed leaf alive while leaf_reader_ iterates it —
  /// concurrent readers of the same component may rotate it out of the
  /// component's small FIFO at any time.
  std::shared_ptr<const Buffer> leaf_payload_;
  RowLeafReader leaf_reader_;
  int64_t key_ = 0;
  bool anti_matter_ = false;
  Slice row_;
  int64_t seek_floor_ = INT64_MIN;  // skip rows below this after a seek
};

/// Cursor over a columnar component (APAX or AMAX).
class ColumnarComponentCursor : public TupleCursor {
 public:
  /// `dataset_schema` is the live schema used to resolve projections; the
  /// component's own snapshot drives chunk decoding.
  ///
  /// `predicates` (optional; consumed during construction) enables pushdown:
  /// each predicate is resolved against the component schema and compiled
  /// to typed bounds; zone stats (AMAX Page-0 prefixes, APAX per-chunk
  /// stats) then veto whole leaves — their megapages are never read — and
  /// surviving records are checked against batch-decoded column values.
  /// `foreign_key_ranges` lists the [min, max] key ranges of every other
  /// source in the same scan: a leaf whose zone fails AND whose key range
  /// overlaps no foreign range is skipped outright (nothing it holds can
  /// shadow or annihilate another source's record), without decoding PKs.
  ColumnarComponentCursor(
      const Component* component, const Projection& projection,
      const ScanPredicateSet* predicates = nullptr,
      std::vector<std::pair<int64_t, int64_t>> foreign_key_ranges = {});

  Result<bool> Next() override;
  int64_t key() const override { return key_; }
  bool anti_matter() const override { return anti_matter_; }
  Status Record(Value* out) override;
  Status Path(const std::vector<std::string>& path, Value* out) override;
  Status SeekForward(int64_t target) override;
  Result<PredicateVerdict> TestPushedPredicates() override;

  /// Typed access for the compiled engine: the current record's parse for
  /// one column (must be within the projection). May trigger the batched
  /// catch-up of the column's iterator (§4.4).
  Result<const ColumnRecord*> Column(int column_id);

  const Schema* component_schema() const { return component_->schema(); }

 private:
  struct ColumnState {
    bool loaded = false;       // chunk reader initialized for current leaf
    bool exists = false;       // column present in current leaf
    ColumnChunkReader reader;
    Buffer chunk_storage;      // AMAX decompressed megapage
    uint64_t consumed = 0;     // records consumed within current leaf
    uint64_t seq = 0;          // cursor sequence `record` belongs to
    ColumnRecord record;
  };

  /// One pushed-down column: every predicate on it, compiled, plus the
  /// whole-leaf batch decode its per-record checks index into.
  struct PredColumn {
    int column_id = -1;
    int max_def = 0;
    AtomicType type = AtomicType::kInt64;
    std::vector<TypedPredicate> preds;  // conjunctive
    bool loaded = false;                // batch decoded for current leaf
    ColumnChunkReader reader;
    Buffer chunk_storage;  // AMAX decompressed megapage
    ColumnEntryBatch batch;
  };

  Status LoadLeaf(size_t leaf_index);
  Status EnsureColumnCurrent(int column_id);
  void ResolvePredicates(const ScanPredicateSet& predicates);
  /// Zone tests for the current leaf; sets leaf_zone_match_.
  void EvaluateLeafZones();
  Status LoadPredColumn(PredColumn* pc);
  bool LeafRangeDisjointFromForeign(int64_t min_key, int64_t max_key) const;

  const Component* component_;
  std::vector<bool> projected_;   // by column id (component schema ids)
  std::vector<int> projected_ids_;
  RecordAssembler assembler_;

  size_t leaf_index_ = 0;
  bool leaf_loaded_ = false;
  uint32_t leaf_records_ = 0;
  uint64_t position_in_leaf_ = 0;  // records delivered in current leaf
  uint64_t record_seq_ = 0;        // increments on every delivered record

  // Per-leaf state.
  ApaxLeaf apax_leaf_;
  AmaxPageZero amax_page0_;
  ColumnChunkReader pk_reader_;
  ColumnEntryBatch pk_batch_;  // whole-leaf PK decode (defs + keys)
  std::vector<ColumnState> columns_;  // by column id

  // Pushdown state.
  bool has_checked_predicates_ = false;  // any zone/typed check applies
  bool has_unchecked_predicates_ = false;  // some predicate not pushable
  bool component_never_match_ = false;  // a predicate fails for all records
  bool leaf_zone_match_ = true;
  std::vector<TypedPredicate> pk_preds_;
  std::vector<PredColumn> pred_columns_;
  std::vector<std::pair<int64_t, int64_t>> foreign_ranges_;

  int64_t key_ = 0;
  bool anti_matter_ = false;
  int64_t seek_floor_ = INT64_MIN;
  std::vector<const ColumnRecord*> by_column_;  // scratch for assembly
  ColumnRecord pk_record_;
};

/// Point reads against one component: the per-component step of the
/// newest-first LSM point lookup (Snapshot::Lookup, LookupBatch). Find
/// touches at most the one leaf whose key fences cover the key, and
/// decodes only that leaf's keys; Record then materializes the found
/// entry, projection-limited on columnar layouts exactly like
/// ColumnarComponentCursor. The decoded leaf — and the column chunks
/// Record loaded from it — stay until Find moves to another leaf, so
/// ascending keys read each leaf once.
class ComponentProbe {
 public:
  /// `projection` must outlive the probe.
  ComponentProbe(const Component* component, const Projection* projection)
      : component_(component),
        projection_(projection),
        assembler_(component->schema()) {}

  /// *found: the component holds an entry for `key`; *anti_matter: that
  /// entry is a delete. A key outside every leaf's fences costs no I/O
  /// and never fails, even on a quarantined component; a covered key
  /// reads through the checked path, so quarantine fails it.
  Status Find(int64_t key, bool* found, bool* anti_matter);

  /// Materialize the live entry the last Find located.
  Status Record(Value* out);

 private:
  /// One projected column of the decoded leaf.
  struct ColumnSlot {
    bool loaded = false;  // chunk set for the current leaf
    Slice chunk;          // empty: column absent from this leaf
    Buffer storage;       // AMAX: the decoded megapage `chunk` views
    ColumnChunkReader reader;
    uint64_t next = 0;  // record index the reader stands at
    ColumnRecord record;
  };

  Status LoadLeaf(size_t leaf_index);
  Status ReadColumn(int column_id, ColumnSlot* slot);

  const Component* component_;
  const Projection* projection_;
  RecordAssembler assembler_;
  size_t leaf_ = SIZE_MAX;  // leaf whose keys are decoded
  size_t pos_ = 0;          // entry the last Find located
  ColumnEntryBatch keys_;   // ints: keys; defs: 0 marks anti-matter
  ApaxLeaf apax_leaf_;
  AmaxPageZero amax_page0_;
  std::shared_ptr<const Buffer> row_leaf_;  // decompressed row leaf
  std::vector<Slice> rows_;  // row layouts: encoded rows, by entry

  // Columnar projection, resolved on first Record.
  std::vector<bool> projected_;  // by component column id
  std::vector<int> projected_ids_;  // projected non-PK ids
  bool all_projected_ = false;
  std::vector<ColumnSlot> slots_;  // parallel to projected_ids_
  std::vector<const ColumnRecord*> by_column_;
  ColumnRecord pk_record_;
};

/// Cursor over the in-memory component. The memtable must not be mutated
/// while the cursor lives.
class MemTableCursor : public TupleCursor {
 public:
  MemTableCursor(const MemTable* memtable, const RowCodec* codec)
      : memtable_(memtable), codec_(codec),
        it_(memtable->entries().begin()) {}

  Result<bool> Next() override;
  int64_t key() const override { return key_; }
  bool anti_matter() const override { return anti_matter_; }
  Status Record(Value* out) override;
  Status Path(const std::vector<std::string>& path, Value* out) override;
  Status SeekForward(int64_t target) override;

 private:
  const MemTable* memtable_;
  const RowCodec* codec_;
  std::map<int64_t, MemTable::Entry>::const_iterator it_;
  bool started_ = false;
  int64_t key_ = 0;
  bool anti_matter_ = false;
  int64_t seek_floor_ = INT64_MIN;
  const std::string* row_ = nullptr;
};

}  // namespace lsmcol

#endif  // LSMCOL_LSM_COMPONENT_H_
