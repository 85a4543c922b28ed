#include "src/storage/relation.h"

#include <algorithm>
#include <cassert>

#include "src/storage/delta_log.h"

namespace gluenail {

Relation::Relation(std::string name, uint32_t arity)
    : name_(std::move(name)), arity_(arity), arena_(arity), stats_(arity) {
  assert(arity <= 32 && "relations are limited to 32 columns");
}

uint32_t Relation::FindRow(RowView t, uint64_t hash) const {
  uint64_t probes = 0;
  uint32_t r = dedup_.Find(
      hash, [&](uint32_t row_id) { return RowEquals(arena_.row(row_id), t); },
      &probes);
  counters_.dedup_lookups.fetch_add(1, std::memory_order_relaxed);
  counters_.dedup_probes.fetch_add(probes, std::memory_order_relaxed);
  return r;
}

void Relation::AppendNewRow(RowView t, uint64_t hash) {
  uint32_t row_id = arena_.Append(t);
  live_.push_back(true);
  dedup_.Insert(hash, row_id,
                [this](uint32_t r) { return HashRow(arena_.row(r)); });
  for (auto& idx : indexes_) idx->Add(arena_, row_id);
  stats_.OnInsert(t);
  version_.fetch_add(1, std::memory_order_acq_rel);
  if (Capturing()) log_->CaptureInsert(log_name_, arity_, t);
}

bool Relation::Insert(RowView t) {
  assert(t.size() == arity_);
  uint64_t h = HashRow(t);
  if (FindRow(t, h) != RowIdTable::kNoRow) return false;
  AppendNewRow(t, h);
  return true;
}

bool Relation::Erase(RowView t) {
  uint64_t h = HashRow(t);
  uint32_t row_id = dedup_.Erase(
      h, [&](uint32_t r) { return RowEquals(arena_.row(r), t); });
  if (row_id == RowIdTable::kNoRow) return false;
  live_[row_id] = false;
  for (auto& idx : indexes_) idx->Remove(arena_, row_id);
  stats_.OnErase();
  if (stats_.NeedsSketchRebuild()) RebuildStatsSketches();
  version_.fetch_add(1, std::memory_order_acq_rel);
  if (Capturing()) log_->CaptureErase(log_name_, arity_, t);
  return true;
}

void Relation::RebuildStatsSketches() {
  stats_.BeginSketchRebuild();
  for (RowView t : *this) stats_.ObserveForRebuild(t);
  counters_.stats_rebuilds.fetch_add(1, std::memory_order_relaxed);
}

bool Relation::Contains(RowView t) const {
  assert(t.size() == arity_);
  return FindRow(t, HashRow(t)) != RowIdTable::kNoRow;
}

bool Relation::Capturing() const { return log_ != nullptr && log_->valid(); }

void Relation::AttachLog(DeltaLog* log, TermId name) {
  log_ = log;
  log_name_ = name;
  // Rows held now are not recorded: a journal must see them arrive.
  assert(empty() || !Capturing());
}

void Relation::Clear() {
  if (!dedup_.empty()) {
    if (Capturing()) {
      for (RowView t : *this) log_->CaptureErase(log_name_, arity_, t);
    }
    version_.fetch_add(1, std::memory_order_acq_rel);
  }
  arena_.Clear();
  live_.clear();
  dedup_.Clear();
  indexes_.clear();
  access_stats_.Reset();
  stats_.Clear();
}

const HashIndex* Relation::FindIndex(ColumnMask mask) const {
  for (const auto& idx : indexes_) {
    if (idx->mask() == mask) return idx.get();
  }
  return nullptr;
}

HashIndex* Relation::EnsureIndex(ColumnMask mask) {
  for (auto& idx : indexes_) {
    if (idx->mask() == mask) return idx.get();
  }
  auto idx = std::make_unique<HashIndex>(mask);
  for (uint32_t r = 0; r < num_rows(); ++r) {
    if (live_[r]) idx->Add(arena_, r);
  }
  counters_.indexes_built.fetch_add(1, std::memory_order_relaxed);
  indexes_.push_back(std::move(idx));
  return indexes_.back().get();
}

void Relation::ScanSelect(ColumnMask mask, RowView key,
                          std::vector<uint32_t>* out,
                          uint64_t* visited) const {
  for (uint32_t r = 0; r < num_rows(); ++r) {
    if (!live_[r]) continue;
    if (ProjectedEquals(mask, arena_.row(r), key)) out->push_back(r);
  }
  counters_.scan_rows.fetch_add(num_rows(), std::memory_order_relaxed);
  if (visited != nullptr) *visited += num_rows();
}

void Relation::Select(ColumnMask mask, RowView key, std::vector<uint32_t>* out,
                      uint64_t* visited) {
  assert(mask != 0);
  const HashIndex* idx = FindIndex(mask);
  if (idx == nullptr) {
    switch (policy_) {
      case IndexPolicy::kNeverIndex:
        ScanSelect(mask, key, out, visited);
        return;
      case IndexPolicy::kAlwaysIndex:
        idx = EnsureIndex(mask);
        break;
      case IndexPolicy::kAdaptive:
        // Paper §10: build the index once the cumulative scanning cost for
        // this column set reaches the cost of building the index.
        if (access_stats_.ShouldBuild(mask, size(), AdaptiveConfig{})) {
          idx = EnsureIndex(mask);
        } else {
          access_stats_.RecordScan(mask, size());
          ScanSelect(mask, key, out, visited);
          return;
        }
        break;
    }
  }
  counters_.index_lookups.fetch_add(1, std::memory_order_relaxed);
  size_t probed = idx->Find(arena_, key, out);
  counters_.index_probe_rows.fetch_add(probed, std::memory_order_relaxed);
  if (visited != nullptr) *visited += probed;
}

void Relation::SelectConst(ColumnMask mask, RowView key,
                           std::vector<uint32_t>* out,
                           uint64_t* visited) const {
  const HashIndex* idx = FindIndex(mask);
  if (idx != nullptr) {
    counters_.index_lookups.fetch_add(1, std::memory_order_relaxed);
    size_t probed = idx->Find(arena_, key, out);
    counters_.index_probe_rows.fetch_add(probed, std::memory_order_relaxed);
    if (visited != nullptr) *visited += probed;
    return;
  }
  ScanSelect(mask, key, out, visited);
}

size_t Relation::UnionDiff(const Relation& src, Relation* delta) {
  assert(src.arity() == arity_);
  assert(&src != this);
  size_t added = 0;
  // Chunk-at-a-time walk: harvest each arena chunk's live row ids in one
  // tight pass over the live bitmap, then insert from the id batch. Same
  // ascending-row-id order (hence identical delta insertion order) as the
  // per-row iterator, without its per-step skip-dead branching.
  std::vector<uint32_t> rows;
  const TupleArena& arena = src.arena();
  for (uint32_t c = 0; c < arena.num_chunks(); ++c) {
    rows.clear();
    src.CollectLiveRows(arena.chunk_begin(c), arena.chunk_end(c), &rows);
    for (uint32_t r : rows) {
      RowView t = src.row(r);
      if (Insert(t)) {
        ++added;
        if (delta != nullptr) delta->Insert(t);
      }
    }
  }
  return added;
}

size_t Relation::UnionAll(const Relation& src) {
  return UnionDiff(src, nullptr);
}

void Relation::CopyFrom(const Relation& src) {
  assert(src.arity() == arity_);
  assert(&src != this);
  assert(!Capturing());  // The fast path below records nothing.
  Clear();
  if (src.empty()) return;
  if (src.num_rows() == src.size()) {
    // No dead rows: copy whole arena chunks and bulk-load the dedup table
    // without probing (src is duplicate-free by construction).
    arena_.CopyRowsFrom(src.arena_);
    live_.assign(src.num_rows(), true);
    auto hash_of = [this](uint32_t r) { return HashRow(arena_.row(r)); };
    dedup_.Reserve(src.size(), hash_of);
    for (uint32_t r = 0; r < arena_.num_rows(); ++r) {
      dedup_.Insert(HashRow(arena_.row(r)), r, hash_of);
    }
    // The contents are now an exact copy of src, so its statistics apply
    // verbatim — no per-row observation needed on the bulk path. This is
    // only sound because the fast path requires zero dead rows: every
    // erase leaves a dead row until Compact, so src's sketches observed
    // exactly the rows copied here and carry no erase debt.
    stats_ = src.stats_;
    version_.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  // Dead rows: src's sketches may carry erase debt, so the live rows are
  // observed afresh — but src is still duplicate-free, so they append
  // without a dedup probe into a table sized once.
  dedup_.Reserve(src.size(),
                 [this](uint32_t r) { return HashRow(arena_.row(r)); });
  std::vector<uint32_t> rows;
  rows.reserve(src.size());
  src.CollectLiveRows(0, src.num_rows(), &rows);
  for (uint32_t r : rows) {
    RowView t = src.row(r);
    AppendNewRow(t, HashRow(t));
  }
}

std::vector<Tuple> Relation::SortedTuples(const TermPool& pool) const {
  std::vector<Tuple> out;
  out.reserve(size());
  for (RowView t : *this) out.emplace_back(t.begin(), t.end());
  std::sort(out.begin(), out.end(), [&pool](const Tuple& a, const Tuple& b) {
    return CompareTuples(pool, a, b) < 0;
  });
  return out;
}

std::shared_ptr<const RelationSnapshot> Relation::Snapshot(
    const TermPool& pool) const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  uint64_t v = version();
  if (snap_cache_ != nullptr && snap_cache_->version == v) return snap_cache_;
  auto snap = std::make_shared<RelationSnapshot>();
  snap->name = name_;
  snap->arity = arity_;
  snap->version = v;
  snap->tuples = SortedTuples(pool);
  snap_cache_ = std::move(snap);
  return snap_cache_;
}

void Relation::Compact() {
  TupleArena next(arity_);
  for (uint32_t r = 0; r < num_rows(); ++r) {
    if (live_[r]) next.Append(arena_.row(r));
  }
  std::vector<ColumnMask> masks;
  masks.reserve(indexes_.size());
  for (const auto& idx : indexes_) masks.push_back(idx->mask());
  indexes_.clear();
  arena_ = std::move(next);
  live_.assign(arena_.num_rows(), true);
  dedup_.Clear();
  auto hash_of = [this](uint32_t r) { return HashRow(arena_.row(r)); };
  dedup_.Reserve(arena_.num_rows(), hash_of);
  for (uint32_t r = 0; r < arena_.num_rows(); ++r) {
    dedup_.Insert(HashRow(arena_.row(r)), r, hash_of);
  }
  for (ColumnMask m : masks) EnsureIndex(m);
  // Compaction walks every live row anyway; refreshing the NDV sketches
  // here makes them exact again regardless of how much erase debt had
  // accumulated below the automatic-rebuild threshold.
  RebuildStatsSketches();
  version_.fetch_add(1, std::memory_order_acq_rel);
}

size_t Relation::arena_bytes() const {
  size_t n = arena_.allocated_bytes() + dedup_.allocated_bytes() +
             live_.capacity() / 8;
  for (const auto& idx : indexes_) n += idx->allocated_bytes();
  return n;
}

}  // namespace gluenail
