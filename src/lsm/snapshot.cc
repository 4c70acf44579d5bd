#include "src/lsm/snapshot.h"

#include <optional>

namespace lsmcol {

// ----------------------------------------------------------- scan cursor

LsmScanCursor::LsmScanCursor(
    std::vector<std::unique_ptr<TupleCursor>> sources) {
  sources_.resize(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    sources_[i].cursor = std::move(sources[i]);
  }
}

Result<bool> LsmScanCursor::Next() {
  while (true) {
    // Refill any source consumed in the previous round.
    for (Source& src : sources_) {
      if (src.needs_advance) {
        LSMCOL_ASSIGN_OR_RETURN(src.has_current, src.cursor->Next());
        src.needs_advance = false;
      }
    }
    // Minimum key; ties resolved by recency (sources_ is newest-first).
    Source* min_src = nullptr;
    for (Source& src : sources_) {
      if (!src.has_current) continue;
      if (min_src == nullptr || src.cursor->key() < min_src->cursor->key()) {
        min_src = &src;
      }
    }
    if (min_src == nullptr) return false;
    const int64_t min_key = min_src->cursor->key();
    // Consume every source holding this key; the newest one wins, the
    // others are shadowed (replaced records / annihilated pairs, §2.1.1).
    Source* winner = nullptr;
    bool winner_anti = false;
    for (Source& src : sources_) {
      if (src.has_current && src.cursor->key() == min_key) {
        if (winner == nullptr) {
          winner = &src;
          winner_anti = src.cursor->anti_matter();
        }
        src.needs_advance = true;
      }
    }
    if (winner_anti) continue;  // deleted record
    winner_ = winner->cursor.get();
    return true;
  }
}

Status LsmScanCursor::SeekForward(int64_t target) {
  for (Source& src : sources_) {
    LSMCOL_RETURN_NOT_OK(src.cursor->SeekForward(target));
    if (src.has_current && !src.needs_advance &&
        src.cursor->key() < target) {
      src.needs_advance = true;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------- lookup batch

LookupBatch::LookupBatch(std::shared_ptr<const Snapshot> snapshot,
                         const Projection& projection)
    : snapshot_(std::move(snapshot)), projection_(projection) {
  probes_.reserve(snapshot_->components_.size());
  for (const auto& component : snapshot_->components_) {
    probes_.emplace_back(component.get(), &projection_);
  }
}

Status LookupBatch::Find(int64_t key, bool* found, Value* out) {
  return snapshot_->Probe(key, &probes_, found, out);
}

// -------------------------------------------------------------- snapshot

namespace {

std::unique_ptr<TupleCursor> NewComponentCursor(
    const Component& component, const Projection& projection,
    const ScanPredicateSet* predicates,
    std::vector<std::pair<int64_t, int64_t>> foreign_ranges) {
  if (component.meta().layout == LayoutKind::kApax ||
      component.meta().layout == LayoutKind::kAmax) {
    return std::make_unique<ColumnarComponentCursor>(
        &component, projection, predicates, std::move(foreign_ranges));
  }
  return std::make_unique<RowComponentCursor>(&component);
}

// Whole-source [min, max] key range; nullopt when the source is empty.
std::optional<std::pair<int64_t, int64_t>> ComponentKeyRange(
    const Component& component) {
  const auto& leaves = component.reader().leaves();
  if (leaves.empty()) return std::nullopt;
  return std::make_pair(leaves.front().min_key, leaves.back().max_key);
}

std::optional<std::pair<int64_t, int64_t>> MemtableKeyRange(
    const MemTable& memtable) {
  if (memtable.entries().empty()) return std::nullopt;
  return std::make_pair(memtable.entries().begin()->first,
                        memtable.entries().rbegin()->first);
}

}  // namespace

Result<std::unique_ptr<LsmScanCursor>> Snapshot::Scan(
    const Projection& projection) const {
  return Scan(projection, ScanPredicateSet());
}

Result<std::unique_ptr<LsmScanCursor>> Snapshot::Scan(
    const Projection& projection, const ScanPredicateSet& predicates) const {
  const ScanPredicateSet* preds = predicates.empty() ? nullptr : &predicates;
  // Reconciliation order, newest first: active memtable, sealed memtables
  // awaiting background flush, then disk components.
  const size_t n_memtables = 1 + immutables_.size();
  // Key ranges of every source: a columnar source may drop a whole leaf
  // only when no OTHER source holds keys in the leaf's range (otherwise a
  // skipped record could stop shadowing an older version, or a skipped
  // anti-matter entry could stop annihilating one).
  std::vector<std::optional<std::pair<int64_t, int64_t>>> ranges;
  if (preds != nullptr) {
    ranges.push_back(MemtableKeyRange(*memtable_));
    for (const auto& immutable : immutables_) {
      ranges.push_back(MemtableKeyRange(*immutable));
    }
    for (const auto& component : components_) {
      ranges.push_back(ComponentKeyRange(*component));
    }
  }
  auto foreign_for = [&](size_t self) {
    std::vector<std::pair<int64_t, int64_t>> foreign;
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (i != self && ranges[i].has_value()) foreign.push_back(*ranges[i]);
    }
    return foreign;
  };
  std::vector<std::unique_ptr<TupleCursor>> sources;
  sources.push_back(
      std::make_unique<MemTableCursor>(memtable_.get(), row_codec_));
  for (const auto& immutable : immutables_) {
    sources.push_back(
        std::make_unique<MemTableCursor>(immutable.get(), row_codec_));
  }
  for (size_t i = 0; i < components_.size(); ++i) {
    sources.push_back(NewComponentCursor(
        *components_[i], projection, preds,
        preds != nullptr ? foreign_for(n_memtables + i)
                         : std::vector<std::pair<int64_t, int64_t>>()));
  }
  auto cursor = std::make_unique<LsmScanCursor>(std::move(sources));
  cursor->Pin(shared_from_this());
  return cursor;
}

Status Snapshot::Lookup(int64_t key, Value* out) const {
  return Lookup(key, Projection::All(), out);
}

Status Snapshot::Lookup(int64_t key, const Projection& projection,
                        Value* out) const {
  std::vector<ComponentProbe> probes;
  probes.reserve(components_.size());
  for (const auto& component : components_) {
    probes.emplace_back(component.get(), &projection);
  }
  bool found = false;
  LSMCOL_RETURN_NOT_OK(Probe(key, &probes, &found, out));
  if (!found) return Status::NotFound("key " + std::to_string(key));
  return Status::OK();
}

Status Snapshot::Probe(int64_t key, std::vector<ComponentProbe>* probes,
                       bool* found, Value* out) const {
  *found = false;
  auto memtable_entry = [key](const MemTable& memtable) {
    auto it = memtable.entries().find(key);
    return it == memtable.entries().end() ? nullptr : &it->second;
  };
  const MemTable::Entry* entry = memtable_entry(*memtable_);
  for (size_t i = 0; entry == nullptr && i < immutables_.size(); ++i) {
    entry = memtable_entry(*immutables_[i]);
  }
  if (entry != nullptr) {
    *found = !entry->anti_matter;
    if (*found && out != nullptr) {
      return row_codec_->Decode(Slice(entry->row), out);
    }
    return Status::OK();
  }
  for (ComponentProbe& probe : *probes) {
    bool hit = false, anti_matter = false;
    LSMCOL_RETURN_NOT_OK(probe.Find(key, &hit, &anti_matter));
    if (!hit) continue;
    *found = !anti_matter;
    if (*found && out != nullptr) return probe.Record(out);
    return Status::OK();
  }
  return Status::OK();
}

Result<std::unique_ptr<LookupBatch>> Snapshot::NewLookupBatch(
    const Projection& projection) const {
  return std::unique_ptr<LookupBatch>(
      new LookupBatch(shared_from_this(), projection));
}

uint64_t Snapshot::OnDiskBytes() const {
  uint64_t total = 0;
  for (const auto& component : components_) total += component->size_bytes();
  return total;
}

}  // namespace lsmcol
