/// \file persistence.h
/// \brief EDB persistence: "storing EDB relations on disk between runs"
/// (paper §10), hardened for crash safety.
///
/// The on-disk format is plain fact syntax, one ground fact per line,
/// framed by checksummed headers (format v2):
///
///     %% gluenail-edb v2 relations=2 tuples=6 checksum=89abcdef01234567
///     % edge/2: 5 tuples checksum=0123456789abcdef
///     edge(1,2).
///     tolerance(2.5).
///     students(cs99)(wilson).      % parameterized (HiLog) predicate
///     flag.                        % zero-arity relation
///
/// The `%%` header carries the relation/tuple counts and a whole-file
/// checksum; each `%` section header carries its relation's tuple count
/// and a checksum over just that section's fact lines. Checksums are
/// FNV-1a 64 over lines normalized to LF endings, so files survive CRLF
/// translation. Headerless files (format v1, and hand-written fact files)
/// still load. A MutationBatch's text header (mutation_batch.h) is written
/// and read with the same helpers: Hex16, ChecksumLine, ReadHeaderField
/// and ReadHeaderChecksum.
///
/// Crash safety:
///  * ReplaceFileAtomically is the one writer of a durable file, the
///    checkpoint save and the WAL's create and rotate alike: it writes a
///    temp file in the target's directory, fsyncs, and atomically renames
///    over the target — a crash at any point leaves either the old
///    complete file or the new complete file, never a torn one. It and the
///    WAL's appends write through WriteAll, so every durable byte passes
///    the same kWrite, kFsync and kRename fault seams.
///  * Loading reads each fact once, from views into one text buffer, into
///    one staging database, and touches the destination only after full
///    validation (all-or-nothing). A v2 section is read whole before any
///    of its rows is staged, so a failed section leaves nothing behind.
///  * RecoveryMode::kSalvage keeps the checksummed-good relations of a
///    torn or partially corrupted file and reports what was dropped.
///
/// Every fact is the application of a relation name to a tuple, so one
/// fact reader (ParseFact) serves the loader and every MutationBatch: it
/// reads the outermost application straight into (name, row) and interns
/// only the name and the argument terms, never the whole fact. It is a
/// ground-term reader implemented here without depending on the full Glue
/// parser (the storage layer sits below the language front end).

#ifndef GLUENAIL_STORAGE_PERSISTENCE_H_
#define GLUENAIL_STORAGE_PERSISTENCE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/storage/database.h"
#include "src/storage/tuple.h"

namespace gluenail {

class MetricsRegistry;

/// Process-wide persistence activity counters, exported through the engine's
/// metrics registry. Global (not per-Engine) because the file-level save/load
/// entry points are free functions.
struct PersistenceCounters {
  std::atomic<uint64_t> saves{0};
  std::atomic<uint64_t> save_failures{0};
  std::atomic<uint64_t> loads{0};
  std::atomic<uint64_t> load_failures{0};
};

PersistenceCounters& GlobalPersistenceCounters();
/// Registers the gluenail_persist_* pulls over GlobalPersistenceCounters().
void RegisterPersistenceMetrics(MetricsRegistry* registry);

/// How loading reacts to a corrupt or torn file.
enum class RecoveryMode {
  /// Any validation failure (bad checksum, short section, parse error)
  /// fails the whole load; the destination database is untouched.
  kStrict,
  /// Keep every relation section whose own checksum and tuple count
  /// validate; drop (and report) the rest. Headerless legacy files
  /// salvage line-by-line instead of section-by-section.
  kSalvage,
};

struct LoadOptions {
  RecoveryMode recovery = RecoveryMode::kStrict;
};

/// What a load accomplished — and, under kSalvage, what it had to drop.
struct LoadReport {
  size_t relations_loaded = 0;
  uint64_t facts_loaded = 0;
  /// Relation sections dropped by salvage (checksum/count/parse failures).
  size_t sections_dropped = 0;
  /// Individual fact lines dropped by salvage (legacy headerless files).
  size_t lines_dropped = 0;
  /// One human-readable reason per dropped section or line.
  std::vector<std::string> dropped;

  bool clean() const { return sections_dropped == 0 && lines_dropped == 0; }
};

/// Serializes every relation of \p db in canonical sorted order, with the
/// v2 checksummed headers; the result is what the save functions write.
/// InvalidArgument, naming the relation, if a fact (or a relation name)
/// nests deeper than kMaxTermNesting: the loader would refuse it, so
/// nothing saved is ever unreadable. Statements can build such a term.
Result<std::string> SerializeDatabase(const Database& db);

/// Crash-safe save: SerializeDatabase, then ReplaceFileAtomically. On any
/// failure the previous file content is untouched.
Status SaveDatabaseToFile(const Database& db, const std::string& path);

// --- Durable files -----------------------------------------------------------

/// An IoError "<op> '<path>': <strerror(errno)>".
Status ErrnoError(std::string_view op, std::string_view path);

/// Writes all of \p data to \p fd in 64 KiB chunks, retrying EINTR; each
/// chunk first passes the kWrite fault seam, so a large write can be torn
/// at any chunk. Errors name \p path.
Status WriteAll(int fd, std::string_view data, const std::string& path);

/// Atomically replaces the file at \p path with \p data: a temp file in
/// the same directory, WriteAll, the kFsync seam and fsync, close, the
/// kRename seam and rename, then a best-effort fsync of the directory. On
/// any failure the previous file is untouched and the temp file removed.
Status ReplaceFileAtomically(const std::string& path, std::string_view data);

// --- Checksummed text headers ----------------------------------------------

/// \p v as exactly 16 lowercase hex digits, the checksum field's format.
std::string Hex16(uint64_t v);

/// Folds one line into the FNV-1a 64 checksum \p h (start at kFnv1a64Seed)
/// as the line without its trailing CRs, then one LF, so a text that went
/// through CRLF translation still validates.
uint64_t ChecksumLine(uint64_t h, std::string_view line);

/// Reads the decimal value of the first "<key><digits>" in \p line, \p key
/// including its '='; false if absent or not a number.
bool ReadHeaderField(std::string_view line, std::string_view key,
                     uint64_t* out);

/// Reads the 16 hex digits after the first "checksum=" in \p line.
bool ReadHeaderChecksum(std::string_view line, uint64_t* out);

/// Reads the facts of \p text into \p db, creating relations as needed,
/// all-or-nothing; the staged relations then move in (Database::MergeFrom).
/// Existing tuples are kept; duplicates in the input are harmless.
Result<LoadReport> LoadDatabase(Database* db, std::string_view text,
                                const LoadOptions& options);
/// LoadDatabaseFromFile under kStrict, status only.
Status LoadDatabaseFromFile(Database* db, const std::string& path);

/// The bytes of the file at \p path; an IoError names the path when it
/// cannot be opened or read.
Result<std::string> ReadFileText(const std::string& path);
Result<LoadReport> LoadDatabaseFromFile(Database* db, const std::string& path,
                                        const LoadOptions& options);

/// The most levels a fact or term read from text, or saved, may nest: each
/// argument list and each link of a HiLog application chain is a level
/// (see TermPool::Height). The ground-term reader recurses once per
/// parenthesis level, and printing and Compare once per term level; the
/// bound keeps each well inside a thread's stack, also at sanitizer frame
/// sizes. The reader refuses anything deeper, and parentheses nested
/// deeper.
inline constexpr size_t kMaxTermNesting = 1000;

/// Levels of the fact \p name applied to \p row, as if it were one term:
/// the name's height for a zero-arity fact, else one more than the highest
/// of the name and the arguments. The reader reads back every fact of at
/// most kMaxTermNesting levels.
size_t FactLevels(const TermPool& pool, TermId name, RowView row);

/// Reads the ground fact \p text (no trailing '.'; surrounding whitespace
/// tolerated) into its relation \p name and \p row, interning only the name
/// and the argument terms. `edge(1,2)` gives edge and (1,2), `flag` flag
/// and (), and the HiLog `students(cs99)(wilson)` the name term
/// students(cs99) and (wilson); `(edge(1,2))` reads like `edge(1,2)`.
/// \p row is cleared first, so a caller can reuse it across facts.
Status ParseFact(TermPool* pool, std::string_view text, TermId* name,
                 Tuple* row);

/// Appends the fact \p name applied to \p row to \p out, without the
/// dot: edge and (1,2) give `edge(1,2)`, flag and () give `flag`.
void AppendFact(const TermPool& pool, TermId name, RowView row,
                std::string* out);

/// Parses one ground term from \p text (the whole string must be consumed,
/// modulo surrounding whitespace). Exposed for tests and the Engine's
/// term-interning API.
Result<TermId> ParseGroundTerm(TermPool* pool, std::string_view text);

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_PERSISTENCE_H_
