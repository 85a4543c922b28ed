/// \file mutation_batch.h
/// \brief MutationBatch: an ordered, serializable sequence of insert/erase
/// operations against named relations.
///
/// Clients ship batches over the wire, and the WAL and the replication
/// stream carry them as their record. Ops are *ground fact text* (the §10
/// persistence syntax, e.g. `edge(1,2)`), so a batch is independent of any
/// TermPool: built in one process, applied against another engine's pool.
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
/// The header is written and read with the v2 EDB format's own helpers
/// (persistence.h: Hex16, ChecksumLine, ReadHeaderField,
/// ReadHeaderChecksum), so the two text formats cannot drift apart.
///
/// Applying is two steps: Resolve reads every fact into a (relation name,
/// row) op, failing on the first malformed one, and ApplyResolved runs the
/// ops. So a malformed op leaves the database untouched, and a commit
/// parses each fact once. Resolve reads with the persistence layer's one
/// fact reader (ParseFact), which interns only the relation name and the
/// argument terms: the fact itself never becomes a term, so the TermPool
/// grows only with new names and values, not with every new tuple.
/// ApplyBatch, WAL replay and replica apply all resolve this way; an EDB
/// load already holds its rows resolved and renders them only as its log
/// record. (Inserts/erases themselves cannot fail — relations dedupe and
/// erasing an absent tuple is a no-op.)

#ifndef GLUENAIL_STORAGE_MUTATION_BATCH_H_
#define GLUENAIL_STORAGE_MUTATION_BATCH_H_

#include <cstdint>
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

  /// Queues the insert of a row it already holds resolved, rendering
  /// through \p pool: name + (a,b,c) becomes the fact `name(a,b,c)`. An
  /// EDB load renders its log record this way.
  void Insert(const TermPool& pool, TermId name, RowView row);

  const std::vector<Op>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }
  void clear() { ops_.clear(); }

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

  /// Applies resolved ops in order against \p db (whose change journal,
  /// if any, records each op that really changed it).
  static ApplyReport ApplyResolved(const Resolved& ops, Database* db);

  /// Resolve without the apply, for callers that only check a batch.
  Status Validate(TermPool* pool) const { return Resolve(pool).status(); }

  /// Checksummed text form (see file comment). Infallible.
  std::string Serialize() const;

  /// Inverse of Serialize. Rejects missing/corrupt headers, op-count
  /// mismatches, checksum mismatches, and unknown op markers.
  static Result<MutationBatch> Parse(std::string_view text);

 private:
  void Push(OpKind kind, std::string_view fact);

  std::vector<Op> ops_;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_MUTATION_BATCH_H_
