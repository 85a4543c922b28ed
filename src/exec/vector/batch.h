/// \file batch.h
/// \brief The batch format of the vectorized executor: blocks of binding
/// lanes plus selection vectors.
///
/// A LaneBuffer holds up to kBatchLanes binding records ("lanes") in one
/// flat, width-strided TermId array with a parallel group id per lane —
/// the batch-at-a-time equivalent of a RecordSet slice, with no per-record
/// heap allocation. Ops either append surviving lanes into a downstream
/// buffer (match: the Gather side) or compress a buffer in place against a
/// selection vector of surviving lane indexes (compare/negmatch: the
/// Filter/Compress side). The batch size matches TupleArena::kRowsPerChunk
/// so a scan's unit of work is exactly one arena chunk.

#ifndef GLUENAIL_EXEC_VECTOR_BATCH_H_
#define GLUENAIL_EXEC_VECTOR_BATCH_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/storage/tuple_arena.h"
#include "src/term/term_pool.h"

namespace gluenail {

/// Lanes per batch: one arena chunk's worth of rows.
inline constexpr uint32_t kBatchLanes = TupleArena::kRowsPerChunk;

class LaneBuffer {
 public:
  /// Re-targets the buffer to records of \p width slots and drops all
  /// lanes. Capacity is retained, so steady-state refills do not allocate.
  void Reset(uint32_t width) {
    width_ = width;
    ClearLanes();
  }
  /// Drops all lanes, keeping width and capacity.
  void ClearLanes() {
    data_.clear();
    groups_.clear();
  }

  uint32_t width() const { return width_; }
  size_t count() const { return groups_.size(); }
  bool empty() const { return groups_.empty(); }
  bool full() const { return groups_.size() >= kBatchLanes; }

  TermId* lane(size_t i) { return data_.data() + i * width_; }
  const TermId* lane(size_t i) const { return data_.data() + i * width_; }
  uint32_t group(size_t i) const { return groups_[i]; }

  /// Appends a copy of \p src (width terms) and returns the copy, which
  /// the caller may edit in place (bind writes) until the next append.
  TermId* PushLane(const TermId* src, uint32_t group) {
    size_t off = data_.size();
    if (width_ != 0) data_.insert(data_.end(), src, src + width_);
    groups_.push_back(group);
    return data_.data() + off;
  }

  /// Drops the last lane: a structural match that failed after binding
  /// into its freshly pushed copy.
  void PopLane() {
    data_.resize(data_.size() - width_);
    groups_.pop_back();
  }

  /// Compress: keeps exactly the lanes whose indexes appear in \p sel
  /// (which must be ascending), discarding the rest in place.
  void KeepOnly(const std::vector<uint32_t>& sel) {
    for (size_t i = 0; i < sel.size(); ++i) {
      size_t s = sel[i];
      if (s != i) {
        if (width_ != 0) {
          std::memmove(lane(i), lane(s), sizeof(TermId) * width_);
        }
        groups_[i] = groups_[s];
      }
    }
    data_.resize(sel.size() * width_);
    groups_.resize(sel.size());
  }

 private:
  uint32_t width_ = 0;
  std::vector<TermId> data_;
  std::vector<uint32_t> groups_;
};

}  // namespace gluenail

#endif  // GLUENAIL_EXEC_VECTOR_BATCH_H_
