/// \file mutation_batch.h
/// \brief MutationBatch: an ordered, serializable sequence of insert/erase
/// operations against named relations.
///
/// This is the shared mutation seam called out in ROADMAP items 1–3: the
/// wire protocol ships batches from clients, a future write-ahead log will
/// append them as its record type, and incremental view maintenance will
/// consume them as deltas. Keeping ops as *ground fact text* (the same
/// syntax the §10 persistence format stores, e.g. `edge(1,2)`) makes a
/// batch independent of any particular TermPool: it can be built in one
/// process, shipped over a socket, and applied against another engine's
/// pool.
///
/// Serialized form (one batch, checksummed like the v2 EDB format):
///
///     %% gluenail-batch v1 ops=3 checksum=0123456789abcdef
///     + edge(1,2)
///     + edge(2,3)
///     - edge(1,9)
///
/// The checksum is FNV-1a 64 over the op lines (each normalized to end in
/// LF), so a torn or bit-flipped batch is rejected before any op applies.
///
/// Applying is two steps: Resolve reads every fact into a (relation name,
/// row) op, failing on the first malformed one, and ApplyResolved runs the
/// ops. So a malformed op leaves the database untouched, and a commit
/// parses each fact once. Resolve reads with the persistence layer's one
/// fact reader (ParseFact), which interns only the relation name and the
/// argument terms: the fact itself never becomes a term, so the TermPool
/// grows only with new names and values, not with every new tuple. The
/// commit, WAL replay and replica apply all resolve this way. (Inserts/
/// erases themselves cannot fail — relations dedupe and erasing an absent
/// tuple is a no-op.)

#ifndef GLUENAIL_STORAGE_MUTATION_BATCH_H_
#define GLUENAIL_STORAGE_MUTATION_BATCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/storage/database.h"
#include "src/storage/tuple.h"

namespace gluenail {

class MutationBatch {
 public:
  enum class OpKind : uint8_t { kInsert, kErase };

  struct Op {
    OpKind kind;
    /// One ground fact in source syntax, without the trailing dot:
    /// `edge(1,2)`, `flag` (zero-arity), `students(cs99)(wilson)` (HiLog).
    std::string fact;
  };

  /// What ApplyResolved changed. `inserted`/`erased` count tuples that
  /// actually changed the database (a duplicate insert or absent-tuple
  /// erase counts as applied but not changed).
  struct ApplyReport {
    uint64_t applied = 0;
    uint64_t inserted = 0;
    uint64_t erased = 0;
  };

  MutationBatch() = default;

  /// Queues an insert/erase of a ground fact (trailing dot and
  /// surrounding whitespace tolerated).
  void Insert(std::string_view fact) { Push(OpKind::kInsert, fact); }
  void Erase(std::string_view fact) { Push(OpKind::kErase, fact); }

  /// Queues an op for a tuple of an existing relation, rendering through
  /// \p pool: name + (a,b,c) becomes the fact `name(a,b,c)`.
  void Insert(const TermPool& pool, TermId name, RowView row) {
    Push(OpKind::kInsert, RenderFact(pool, name, row));
  }
  void Erase(const TermPool& pool, TermId name, RowView row) {
    Push(OpKind::kErase, RenderFact(pool, name, row));
  }

  const std::vector<Op>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }
  void clear() { ops_.clear(); }

  /// Observes each op that actually changed the database (a duplicate
  /// insert or absent-tuple erase is not reported). The incremental view
  /// maintenance layer hangs its delta capture here.
  using ChangeObserver =
      std::function<void(OpKind kind, TermId name, uint32_t arity,
                         RowView row)>;

  /// One op resolved against a pool: the relation's name term and tuple.
  struct ResolvedOp {
    OpKind kind = OpKind::kInsert;
    TermId name = kNullTerm;
    Tuple row;
  };
  using Resolved = std::vector<ResolvedOp>;

  /// Reads every op with ParseFact (parse + ground + shape), interning
  /// only names and argument terms into \p pool. The engine resolves a
  /// batch before logging it, so a malformed batch is rejected up front
  /// and never logged.
  Result<Resolved> Resolve(TermPool* pool) const;

  /// Applies resolved ops in order against \p db, reporting each actual
  /// change to \p observer (may be null).
  static ApplyReport ApplyResolved(const Resolved& ops, Database* db,
                                   const ChangeObserver* observer);

  /// Resolve without the apply, for callers that only check a batch.
  Status Validate(TermPool* pool) const { return Resolve(pool).status(); }

  /// Checksummed text form (see file comment). Infallible.
  std::string Serialize() const;

  /// Inverse of Serialize. Rejects missing/corrupt headers, op-count
  /// mismatches, checksum mismatches, and unknown op markers.
  static Result<MutationBatch> Parse(std::string_view text);

 private:
  void Push(OpKind kind, std::string_view fact);
  static std::string RenderFact(const TermPool& pool, TermId name,
                                RowView row);

  std::vector<Op> ops_;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_MUTATION_BATCH_H_
