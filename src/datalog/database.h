// Columnar fact storage for the Datalog± engine.
//
// A Relation stores one Value column per argument position. Rows have
// stable dense ids assigned in insertion order, which lets the engine
// express semi-naive deltas as row-id ranges instead of separate delta
// relations. Storage is append-only: every successful Insert advances the
// relation's epoch, and read views (PostingView) are epoch-stamped so a
// stale view trips a debug assertion instead of reading freed memory.
//
// Deduplication runs over an open-addressing hash table keyed by the
// full-row hash (no per-row heap allocation). Per-column hash indexes are
// built lazily and maintained incrementally as rows are appended; the
// per-column distinct counts they expose double as the planner's
// selectivity statistics.
//
// Streaming mode (SetStreaming) re-homes the columns into fixed-size pages
// so the space-bounded chase can release exhausted semi-naive epochs:
// EvictBelow(w) frees every whole page below row w, advances the
// first-resident watermark, bumps the epoch (stale PostingViews assert)
// and prunes evicted ids out of the posting lists. Row ids stay stable and
// the dedup table keeps every evicted row's slot — re-deriving an evicted
// fact is still suppressed, via a second independently seeded row hash
// (HashValues2) in place of the freed column data, an effective 128-bit
// equality whose false-positive odds are negligible (DESIGN.md section 13).
#pragma once

#include <atomic>
#include <cassert>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/value.h"

namespace vadalink::datalog {

class Relation;

/// Non-owning view of one stored row. Valid as long as the relation is
/// alive; reads always go through the relation's current column storage,
/// so an append (which may reallocate columns) does not invalidate it —
/// the row id is stable.
class RowRef {
 public:
  RowRef(const Relation* rel, uint32_t row) : rel_(rel), row_(row) {}

  inline const Value& operator[](size_t pos) const;
  inline size_t size() const;  // the relation's arity
  uint32_t row() const { return row_; }

  /// Materialises an owning copy (boundary APIs, sorting in tests).
  inline std::vector<Value> ToTuple() const;

 private:
  const Relation* rel_;
  uint32_t row_;
};

/// Forward iteration over every row of a relation. An empty scan (unknown
/// predicate, relation never materialised) is a valid value: size() == 0,
/// begin() == end().
class RelationScan {
 public:
  RelationScan() = default;
  explicit RelationScan(const Relation* rel) : rel_(rel) {}

  class Iterator {
   public:
    Iterator(const Relation* rel, uint32_t row) : rel_(rel), row_(row) {}
    RowRef operator*() const { return RowRef(rel_, row_); }
    Iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const Iterator& o) const { return row_ == o.row_; }
    bool operator!=(const Iterator& o) const { return row_ != o.row_; }

   private:
    const Relation* rel_;
    uint32_t row_;
  };

  /// End bound of the iteration (total row count, evicted rows included);
  /// begin() starts at the first resident row, so a scan over a partially
  /// evicted relation visits resident rows only.
  inline size_t size() const;
  inline bool empty() const;
  /// Arity of the underlying relation; 0 for an empty scan.
  inline size_t arity() const;
  /// Row id begin() starts at: the first resident row (0 for an empty
  /// scan).
  inline size_t first_row() const;
  /// Indexing is by absolute (stable) row id.
  RowRef operator[](size_t i) const {
    return RowRef(rel_, static_cast<uint32_t>(i));
  }
  inline Iterator begin() const;
  Iterator end() const {
    return Iterator(rel_, static_cast<uint32_t>(size()));
  }

 private:
  const Relation* rel_ = nullptr;
};

/// Epoch-stamped view over one per-column posting list (ascending row
/// ids). Any access after a subsequent Insert into the relation trips a
/// debug assertion: the underlying storage may have been rehashed. Copy
/// the ids out before inserting if they must survive a write.
class PostingView {
 public:
  PostingView() = default;
  PostingView(const uint32_t* data, size_t size, const Relation* rel,
              uint64_t epoch)
      : data_(data), size_(size), rel_(rel), epoch_(epoch) {}

  inline const uint32_t* begin() const;
  inline const uint32_t* end() const;
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  inline uint32_t operator[](size_t i) const;

 private:
  inline void CheckEpoch() const;

  const uint32_t* data_ = nullptr;
  size_t size_ = 0;
  const Relation* rel_ = nullptr;
  uint64_t epoch_ = 0;
};

/// All facts of one predicate, stored column-major.
class Relation {
 public:
  Relation() = default;
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  /// Appends a row if not already present; returns true if it was new.
  /// A successful append advances the epoch.
  bool Insert(const Value* vals, size_t n);
  bool Insert(const std::vector<Value>& tuple) {
    return Insert(tuple.data(), tuple.size());
  }

  size_t size() const { return rows_; }

  /// Arity fixed by the first inserted row; SIZE_MAX while empty.
  size_t arity() const { return arity_; }

  /// Number of appends plus evictions since construction; stamps
  /// PostingViews (an eviction invalidates outstanding views exactly like
  /// an append does).
  uint64_t epoch() const { return epoch_; }

  /// Switches column storage to fixed-size pages so EvictBelow can free
  /// whole pages. Existing rows are migrated; idempotent. Must not be
  /// called during a parallel read phase.
  void SetStreaming();
  bool streaming() const { return paged_; }

  /// First row id whose column data is still resident; 0 unless EvictBelow
  /// ran. Rows below it keep their id, their dedup slot and their hashes,
  /// but their values must no longer be read.
  size_t first_resident() const { return first_resident_; }
  size_t resident_size() const { return rows_ - first_resident_; }

  /// Releases the column storage of rows [first_resident, watermark):
  /// frees every whole page below the watermark, prunes the posting lists,
  /// advances the watermark and bumps the epoch. Requires streaming mode.
  /// Returns the number of newly evicted rows. The caller must guarantee
  /// the evicted rows can no longer participate in any join (the engine's
  /// evictability analysis; see DESIGN.md section 13).
  size_t EvictBelow(size_t watermark);

  const Value& at(size_t pos, uint32_t row) const {
    if (paged_) {
      assert(row >= first_resident_ && "reading an evicted row");
      return pages_[pos][row >> kPageBits][row & kPageMask];
    }
    return columns_[pos][row];
  }
  RowRef Row(uint32_t row) const { return RowRef(this, row); }
  RelationScan Scan() const { return RelationScan(this); }

  /// True if the exact row is present.
  bool Contains(const Value* vals, size_t n) const {
    return Find(vals, n) >= 0;
  }
  bool Contains(const std::vector<Value>& tuple) const {
    return Contains(tuple.data(), tuple.size());
  }

  /// Row id of the exact row, or -1 if absent.
  int64_t Find(const Value* vals, size_t n) const;
  int64_t Find(const std::vector<Value>& tuple) const {
    return Find(tuple.data(), tuple.size());
  }

  /// Row ids whose argument `pos` equals `v` (lazily indexed, ascending).
  /// The view is stamped with the current epoch and debug-asserts on use
  /// after a subsequent Insert.
  ///
  /// Probe lazily (re)builds the index, so concurrent Probes race unless
  /// the index is already current — parallel read-only consumers must
  /// WarmIndex(pos) every position they will probe first. That
  /// precondition is enforced by an assertion while a ParallelReadScope
  /// is open (see Database::BeginParallelRead).
  PostingView Probe(size_t pos, const Value& v) const;

  /// Brings the lazy index of argument `pos` up to date so that
  /// subsequent Probe(pos, ...) calls are pure reads. No-op for an
  /// out-of-range pos.
  void WarmIndex(size_t pos) const;

  /// True when the index of `pos` exists and covers every row.
  bool IndexWarm(size_t pos) const {
    return pos < pos_indexes_.size() && pos_indexes_[pos] != nullptr &&
           pos_indexes_[pos]->indexed_upto == rows_;
  }

  /// Exact number of distinct values in column `pos` (warms its index —
  /// the planner's selectivity statistic). Returns size() for an
  /// out-of-range pos.
  size_t DistinctCount(size_t pos) const;

  /// Debug-mode guard of the parallel match phase: while the counter is
  /// non-zero, Insert and cold-index Probes assert. Balanced calls only;
  /// release builds keep the counter but skip the assertions.
  void BeginParallelRead() const {
    parallel_readers_.fetch_add(1, std::memory_order_relaxed);
  }
  void EndParallelRead() const {
    parallel_readers_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  friend class RowRef;

  static constexpr size_t kPageBits = 12;
  static constexpr size_t kPageSize = size_t{1} << kPageBits;
  static constexpr size_t kPageMask = kPageSize - 1;

  struct PosIndex {
    std::unordered_map<Value, std::vector<uint32_t>, ValueHash> map;
    size_t indexed_upto = 0;
  };

  void ExtendIndex(size_t pos) const;
  bool RowEquals(uint32_t row, const Value* vals, size_t n) const;
  /// Equality against a stored row that works for evicted rows too: column
  /// compare when resident, double-hash compare when evicted.
  bool RowMatches(uint32_t row, const Value* vals, size_t n, uint64_t h,
                  uint64_t* h2) const;
  void GrowDedup();

  // One column per argument position; columns_[p][r] is row r's arg p.
  // Streaming mode replaces the flat columns with pages_[p][r >> kPageBits]
  // so EvictBelow can free whole pages.
  std::vector<std::vector<Value>> columns_;
  std::vector<std::vector<std::vector<Value>>> pages_;
  bool paged_ = false;
  size_t first_resident_ = 0;
  size_t rows_ = 0;
  size_t arity_ = SIZE_MAX;
  uint64_t epoch_ = 0;

  // Open-addressing dedup table: a slot packs the row hash's top 32 bits
  // (a collision-rejection tag, compared before touching the columns)
  // with row id + 1 in the low half (0 = whole slot empty), probed
  // linearly from the hash's low bits. row_hashes_ keeps each row's full
  // hash for table growth; row_hashes2_ (streaming mode only) keeps the
  // second hash that stands in for evicted rows' column data.
  std::vector<uint64_t> dedup_slots_;
  std::vector<uint64_t> row_hashes_;
  std::vector<uint64_t> row_hashes2_;

  mutable std::vector<std::unique_ptr<PosIndex>> pos_indexes_;
  mutable std::atomic<int> parallel_readers_{0};
};

inline const Value& RowRef::operator[](size_t pos) const {
  return rel_->at(pos, row_);
}
inline size_t RowRef::size() const {
  return rel_->arity_ == SIZE_MAX ? 0 : rel_->arity_;
}
inline std::vector<Value> RowRef::ToTuple() const {
  std::vector<Value> out;
  out.reserve(size());
  for (size_t p = 0; p < size(); ++p) out.push_back((*this)[p]);
  return out;
}

inline size_t RelationScan::size() const {
  return rel_ == nullptr ? 0 : rel_->size();
}
inline bool RelationScan::empty() const {
  return rel_ == nullptr || rel_->resident_size() == 0;
}
inline size_t RelationScan::arity() const {
  return rel_ == nullptr || rel_->arity() == SIZE_MAX ? 0 : rel_->arity();
}
inline size_t RelationScan::first_row() const {
  return rel_ == nullptr ? 0 : rel_->first_resident();
}
inline RelationScan::Iterator RelationScan::begin() const {
  return Iterator(rel_, static_cast<uint32_t>(first_row()));
}

inline void PostingView::CheckEpoch() const {
  (void)rel_;
  (void)epoch_;
  assert((rel_ == nullptr || rel_->epoch() == epoch_) &&
         "PostingView used after a subsequent Insert invalidated it");
}
inline const uint32_t* PostingView::begin() const {
  CheckEpoch();
  return data_;
}
inline const uint32_t* PostingView::end() const {
  CheckEpoch();
  return data_ + size_;
}
inline uint32_t PostingView::operator[](size_t i) const {
  CheckEpoch();
  return data_[i];
}

/// A database instance: one Relation per predicate id of the catalog, plus
/// the OID registries shared by the chase (labeled nulls) and Skolem
/// functions.
class Database {
 public:
  explicit Database(Catalog* catalog) : catalog_(catalog) {}

  Catalog* catalog() const { return catalog_; }
  SkolemRegistry* skolems() { return &skolems_; }
  NullRegistry* nulls() { return &nulls_; }

  /// Relation for predicate id (created on demand).
  Relation* relation(uint32_t predicate);
  const Relation* relation(uint32_t predicate) const;

  /// Inserts a fact; returns true if new. Checks arity consistency.
  Result<bool> Insert(uint32_t predicate, const Value* vals, size_t n);
  Result<bool> Insert(uint32_t predicate, const std::vector<Value>& tuple) {
    return Insert(predicate, tuple.data(), tuple.size());
  }

  /// Convenience: inserts by predicate name, interning it.
  Result<bool> InsertByName(std::string_view predicate,
                            std::vector<Value> tuple);

  /// Total number of stored facts. O(1): all inserts flow through
  /// Database::Insert, which maintains the counter (checked in the chase's
  /// fact-limit guard after every head emission).
  size_t TotalFacts() const { return total_facts_; }

  /// Facts whose column storage is still resident (TotalFacts minus every
  /// EvictBelow release) — the streaming chase's memory measure.
  size_t ResidentFacts() const { return total_facts_ - evicted_rows_; }
  /// Rows released across all relations by the streaming chase.
  size_t EvictedRows() const { return evicted_rows_; }
  bool HasEvicted() const { return evicted_rows_ > 0; }

  /// Switches one relation into streaming (paged) column storage; see
  /// Relation::SetStreaming.
  void SetStreaming(uint32_t predicate) { relation(predicate)->SetStreaming(); }
  /// Relation::EvictBelow plus database-level accounting.
  size_t EvictBelow(uint32_t predicate, size_t watermark);

  /// Non-allocating scan over every fact of a predicate. An unknown or
  /// never-materialised predicate yields an empty scan. Row views stay
  /// valid across appends (row ids are stable); they dangle only if the
  /// database itself is destroyed.
  RelationScan Scan(std::string_view predicate) const;
  RelationScan Scan(uint32_t predicate) const;

  /// Opens/closes a debug-asserted read-only phase on every existing
  /// relation (see Relation::BeginParallelRead).
  void BeginParallelRead() const;
  void EndParallelRead() const;

  /// Value helpers bound to this database's catalog.
  Value Sym(std::string_view s) {
    return Value::Symbol(catalog_->symbols.Intern(s));
  }
  std::string NameOf(const Value& v) const {
    return v.ToString(catalog_->symbols);
  }

 private:
  Catalog* catalog_;
  mutable std::vector<std::unique_ptr<Relation>> relations_;
  size_t total_facts_ = 0;
  size_t evicted_rows_ = 0;
  SkolemRegistry skolems_;
  NullRegistry nulls_;
};

}  // namespace vadalink::datalog
