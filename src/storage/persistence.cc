#include "src/storage/persistence.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace gluenail {

namespace {

/// Minimal recursive-descent reader for ground terms in fact syntax.
/// Grammar:
///   term     := primary suffix*
///   suffix   := '(' term (',' term)* ')'        // HiLog application
///   primary  := number | symbol | quoted | '(' term ')'
/// It recurses once per parenthesis level and refuses text whose
/// parentheses nest deeper than kMaxTermNesting. A HiLog application chain
/// folds without recursing, but each link is a level of the term it
/// builds, so the fold counts it toward the same bound: nothing the reader
/// accepts nests deeper than kMaxTermNesting (see FactLevels).
class GroundTermReader {
 public:
  GroundTermReader(TermPool* pool, std::string_view text)
      : pool_(pool), text_(text) {}

  Result<TermId> ReadTerm() {
    TermId t = kNullTerm;
    Tuple args;
    GLUENAIL_RETURN_NOT_OK(ReadApplication(&t, &args));
    return args.empty() ? t : pool_->MakeCompound(t, args);
  }

  /// Reads a term as the application of \p name to \p row, interning all
  /// but that outermost application: `edge(1,2)` gives edge and (1,2),
  /// `students(cs99)(wilson)` the term students(cs99) and (wilson), `flag`
  /// flag and (). A parenthesized term reads the same way, so
  /// `(edge(1,2))` gives edge and (1,2).
  Status ReadApplication(TermId* name, Tuple* row) {
    GLUENAIL_RETURN_NOT_OK(ReadPrimary(name, row));
    SkipSpace();
    while (!AtEnd() && Peek() == '(') {
      if (!row->empty()) {
        *name = pool_->MakeCompound(*name, *row);
        // The next argument list applies the folded name: one level more.
        if (depth_ + 1 + pool_->Height(*name) > kMaxTermNesting) {
          return TooDeep();
        }
      }
      GLUENAIL_RETURN_NOT_OK(ReadArgs(row));
      if (row->empty()) {
        return Status::ParseError(Context("empty argument list"));
      }
      SkipSpace();
    }
    return Status::OK();
  }

  Status ExpectEnd() {
    SkipSpace();
    if (!AtEnd()) {
      return Status::ParseError(Context("trailing characters after term"));
    }
    return Status::OK();
  }

  Status ExpectDot() {
    SkipSpace();
    if (AtEnd() || Peek() != '.') {
      return Status::ParseError(Context("expected '.' after fact"));
    }
    ++pos_;
    return Status::OK();
  }

  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

 private:
  char Peek() const { return text_[pos_]; }

  /// \p msg, the offset, and the text around it: at most kContextRadius
  /// bytes to each side, so an error does not grow with its input.
  std::string Context(std::string_view msg) const {
    constexpr size_t kContextRadius = 40;
    size_t from = pos_ > kContextRadius ? pos_ - kContextRadius : 0;
    size_t to = std::min(text_.size(), pos_ + kContextRadius);
    return StrCat(msg, " at offset ", pos_, " in \"", from > 0 ? "..." : "",
                  text_.substr(from, to - from),
                  to < text_.size() ? "..." : "", "\"");
  }

  Status TooDeep() const {
    return Status::ParseError(Context(
        StrCat("term nests deeper than ", kMaxTermNesting, " levels")));
  }

  /// Consumes the '(' that opens one more nesting level.
  Status Open() {
    if (++depth_ > kMaxTermNesting) return TooDeep();
    ++pos_;
    return Status::OK();
  }

  /// Consumes the ')' that closes a nesting level.
  void Close() {
    ++pos_;
    --depth_;
  }

  /// Reads a parenthesized argument list into \p args (empty for `()`).
  Status ReadArgs(Tuple* args) {
    GLUENAIL_RETURN_NOT_OK(Open());
    args->clear();
    SkipSpace();
    if (!AtEnd() && Peek() == ')') {
      Close();
      return Status::OK();
    }
    while (true) {
      GLUENAIL_ASSIGN_OR_RETURN(TermId a, ReadTerm());
      args->push_back(a);
      SkipSpace();
      if (AtEnd()) return Status::ParseError(Context("unterminated args"));
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ')') {
        Close();
        return Status::OK();
      }
      return Status::ParseError(Context("expected ',' or ')'"));
    }
  }

  /// Reads a primary as an application (see ReadApplication); an atom is
  /// the application of itself to ().
  Status ReadPrimary(TermId* name, Tuple* row) {
    SkipSpace();
    if (AtEnd()) return Status::ParseError(Context("expected a term"));
    char c = Peek();
    if (c == '(') {
      GLUENAIL_RETURN_NOT_OK(Open());
      GLUENAIL_RETURN_NOT_OK(ReadApplication(name, row));
      SkipSpace();
      if (AtEnd() || Peek() != ')') {
        return Status::ParseError(Context("expected ')'"));
      }
      Close();
      return Status::OK();
    }
    row->clear();
    GLUENAIL_ASSIGN_OR_RETURN(*name, ReadAtom(c));
    return Status::OK();
  }

  Result<TermId> ReadAtom(char c) {
    if (c == '\'') return ReadQuoted();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ReadNumber();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return ReadSymbol();
    }
    return Status::ParseError(Context("unexpected character"));
  }

  Result<TermId> ReadQuoted() {
    ++pos_;  // consume opening quote
    std::string raw;
    while (!AtEnd()) {
      char c = Peek();
      if (c == '\\' && pos_ + 1 < text_.size()) {
        raw += c;
        raw += text_[pos_ + 1];
        pos_ += 2;
        continue;
      }
      if (c == '\'') {
        ++pos_;
        return pool_->MakeSymbol(UnescapeQuoted(raw));
      }
      raw += c;
      ++pos_;
    }
    return Status::ParseError(Context("unterminated quoted symbol"));
  }

  Result<TermId> ReadNumber() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    bool is_float = false;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' && pos_ + 1 < text_.size() &&
                 std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
        // A '.' only continues the number if a digit follows; a bare '.' is
        // the fact terminator.
        is_float = true;
        ++pos_;
      } else if ((c == 'e' || c == 'E') && pos_ > start &&
                 pos_ + 1 < text_.size() &&
                 (std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])) ||
                  text_[pos_ + 1] == '-' || text_[pos_ + 1] == '+')) {
        is_float = true;
        pos_ += 2;
      } else {
        break;
      }
    }
    std::string_view lit = text_.substr(start, pos_ - start);
    if (lit.empty() || lit == "-") {
      return Status::ParseError(Context("malformed number"));
    }
    if (is_float) {
      double v = 0;
      auto [p, ec] = std::from_chars(lit.data(), lit.data() + lit.size(), v);
      if (ec != std::errc() || p != lit.data() + lit.size()) {
        return Status::ParseError(Context("malformed float"));
      }
      return pool_->MakeFloat(v);
    }
    int64_t v = 0;
    auto [p, ec] = std::from_chars(lit.data(), lit.data() + lit.size(), v);
    if (ec != std::errc() || p != lit.data() + lit.size()) {
      return Status::ParseError(Context("malformed integer"));
    }
    return pool_->MakeInt(v);
  }

  Result<TermId> ReadSymbol() {
    // An unquoted identifier starting upper-case or with '_' would be a
    // variable in source syntax; facts are ground, so reject it. (A symbol
    // that genuinely starts upper-case is written quoted: 'X'.)
    char first = Peek();
    if (std::isupper(static_cast<unsigned char>(first)) || first == '_') {
      return Status::ParseError(
          Context("variables are not allowed in ground facts"));
    }
    size_t start = pos_;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        ++pos_;
      } else {
        break;
      }
    }
    return pool_->MakeSymbol(text_.substr(start, pos_ - start));
  }

  TermPool* pool_;
  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

/// The one fact reader: reads \p text as a fact into its relation \p name
/// and \p row, interning only the name and the argument terms (see
/// ReadApplication). A fact-file line ends in '.' (\p dotted); a batch op
/// does not.
Status ReadFact(TermPool* pool, std::string_view text, bool dotted,
                TermId* name, Tuple* row) {
  GroundTermReader reader(pool, text);
  GLUENAIL_RETURN_NOT_OK(reader.ReadApplication(name, row));
  if (dotted) GLUENAIL_RETURN_NOT_OK(reader.ExpectDot());
  GLUENAIL_RETURN_NOT_OK(reader.ExpectEnd());
  if (row->empty() && !pool->IsSymbol(*name)) {
    return Status::ParseError("a fact must be a symbol or compound");
  }
  return Status::OK();
}

// --- v2 checksummed framing ------------------------------------------------

constexpr std::string_view kFileMagic = "%% gluenail-edb v2";

bool IsSectionHeader(std::string_view line) {
  return StartsWith(line, "% ") &&
         line.find(" tuples checksum=") != std::string_view::npos;
}

/// The lines of \p text, as getline splits them, each without its
/// trailing CRs. Line n of the text is element n - 1.
std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    lines.push_back(line);
  }
  return lines;
}

/// One v2 relation section: its header is lines[header], its fact lines
/// run up to lines[end - 1].
struct Section {
  std::string_view label;  // "edge/2", for reporting
  uint64_t declared_tuples = 0;
  uint64_t declared_checksum = 0;
  size_t header = 0;
  size_t end = 0;
};

/// Splits the v2 body, lines[1..], into sections; the lines before the
/// first section header are outside any section.
std::vector<Section> SplitSections(const std::vector<std::string_view>& lines) {
  std::vector<Section> sections;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    if (!IsSectionHeader(line)) continue;
    if (!sections.empty()) sections.back().end = i;
    Section& sec = sections.emplace_back();
    sec.header = i;
    sec.end = lines.size();
    ReadHeaderChecksum(line, &sec.declared_checksum);
    // "% <label>: <n> tuples checksum=<hex>" — anchor on the trailing
    // keywords so a ':' inside a quoted relation name cannot confuse us.
    size_t tup = line.find(" tuples checksum=");
    size_t colon = line.rfind(": ", tup);
    if (colon != std::string_view::npos && colon >= 2 && colon + 2 <= tup) {
      std::from_chars(line.data() + colon + 2, line.data() + tup,
                      sec.declared_tuples);
      sec.label = line.substr(2, colon - 2);
    } else {
      sec.label = line;
    }
  }
  return sections;
}

/// Validates one section and reads every fact of it before inserting any
/// into \p staging, so a section that fails leaves none of its rows there.
Status LoadSection(const std::vector<std::string_view>& lines,
                   const Section& sec, Database* staging,
                   LoadReport* report) {
  const size_t facts = sec.end - sec.header - 1;
  if (facts != sec.declared_tuples) {
    return Status::IoError(
        StrCat("section ", sec.label, " (line ", sec.header + 1,
               "): expected ", sec.declared_tuples, " tuples, found ", facts,
               " (torn file?)"));
  }
  uint64_t h = kFnv1a64Seed;
  for (size_t i = sec.header + 1; i < sec.end; ++i) {
    h = ChecksumLine(h, lines[i]);
  }
  if (h != sec.declared_checksum) {
    return Status::IoError(StrCat("section ", sec.label, " (line ",
                                  sec.header + 1,
                                  "): checksum mismatch (corrupt file?)"));
  }
  TermPool* pool = staging->pool();
  // Each fact read as (name, arity), its row appended to `cells`.
  std::vector<std::pair<TermId, uint32_t>> read;
  read.reserve(facts);
  std::vector<TermId> cells;
  Tuple row;
  for (size_t i = sec.header + 1; i < sec.end; ++i) {
    TermId name = kNullTerm;
    GLUENAIL_RETURN_NOT_OK(ReadFact(pool, lines[i], /*dotted=*/true, &name,
                                    &row).WithContext(StrCat("line ", i + 1)));
    read.emplace_back(name, static_cast<uint32_t>(row.size()));
    cells.insert(cells.end(), row.begin(), row.end());
  }
  const TermId* at = cells.data();
  for (auto [name, arity] : read) {
    staging->GetOrCreate(name, arity)->Insert(RowView(at, arity));
    at += arity;
  }
  // Recreate the relation even when empty, so empty relations round-trip.
  size_t slash = sec.label.rfind('/');
  if (slash != std::string_view::npos) {
    uint32_t arity = 0;
    const char* begin = sec.label.data() + slash + 1;
    const char* end = sec.label.data() + sec.label.size();
    auto [p, ec] = std::from_chars(begin, end, arity);
    if (ec == std::errc() && p == end) {
      Result<TermId> name =
          ParseGroundTerm(pool, sec.label.substr(0, slash));
      if (name.ok()) staging->GetOrCreate(*name, arity);
    }
  }
  ++report->relations_loaded;
  report->facts_loaded += facts;
  return Status::OK();
}

}  // namespace

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

uint64_t ChecksumLine(uint64_t h, std::string_view line) {
  while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  h = Fnv1a64(line.data(), line.size(), h);
  return Fnv1a64("\n", 1, h);
}

bool ReadHeaderField(std::string_view line, std::string_view key,
                     uint64_t* out) {
  size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const char* begin = line.data() + at + key.size();
  const char* end = line.data() + line.size();
  auto [p, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && p != begin;
}

bool ReadHeaderChecksum(std::string_view line, uint64_t* out) {
  constexpr std::string_view key = "checksum=";
  size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const char* begin = line.data() + at + key.size();
  const char* end = line.data() + line.size();
  auto [p, ec] = std::from_chars(begin, end, *out, 16);
  return ec == std::errc() && p == begin + 16;
}

Status ErrnoError(std::string_view op, std::string_view path) {
  return Status::IoError(StrCat(op, " '", path, "': ", std::strerror(errno)));
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  // Bounded chunks, so a large file spans several write(2) calls and the
  // fault injector can tear it at any of them, not just at "the" write.
  constexpr size_t kChunk = 64 * 1024;
  size_t off = 0;
  while (off < data.size()) {
    GLUENAIL_RETURN_NOT_OK(InjectFault(FaultOp::kWrite, path));
    size_t want = std::min(kChunk, data.size() - off);
    ssize_t n = ::write(fd, data.data() + off, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write", path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReplaceFileAtomically(const std::string& path, std::string_view data) {
  // Temp file in the target's directory, so the final rename cannot cross
  // a filesystem boundary (rename(2) is only atomic within one).
  const std::string tmp = StrCat(path, ".tmp.", ::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoError("open", tmp);
  auto fail = [&](Status st) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  };
  Status st = WriteAll(fd, data, tmp);
  if (!st.ok()) return fail(std::move(st));
  st = InjectFault(FaultOp::kFsync, tmp);
  if (!st.ok()) return fail(std::move(st));
  if (::fsync(fd) != 0) return fail(ErrnoError("fsync", tmp));
  if (::close(fd) != 0) {
    fd = -1;  // the fd is gone even when close reports an error
    return fail(ErrnoError("close", tmp));
  }
  fd = -1;
  st = InjectFault(FaultOp::kRename, path);
  if (!st.ok()) return fail(std::move(st));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(ErrnoError("rename", path));
  }
  // Durability of the rename itself: fsync the directory. Best-effort and
  // deliberately not fault-injected — once rename succeeded the new file
  // is complete and the old one gone, so reporting an error here would
  // only mislead (the replace can no longer be rolled back).
  size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

void AppendFact(const TermPool& pool, TermId name, RowView row,
                std::string* out) {
  pool.AppendTerm(name, out);
  if (row.empty()) return;
  out->push_back('(');
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out->push_back(',');
    pool.AppendTerm(row[i], out);
  }
  out->push_back(')');
}

Status ParseFact(TermPool* pool, std::string_view text, TermId* name,
                 Tuple* row) {
  return ReadFact(pool, text, /*dotted=*/false, name, row);
}

Result<TermId> ParseGroundTerm(TermPool* pool, std::string_view text) {
  GroundTermReader reader(pool, text);
  GLUENAIL_ASSIGN_OR_RETURN(TermId t, reader.ReadTerm());
  GLUENAIL_RETURN_NOT_OK(reader.ExpectEnd());
  return t;
}

size_t FactLevels(const TermPool& pool, TermId name, RowView row) {
  if (row.empty()) return pool.Height(name);
  size_t below = pool.Height(name);
  for (TermId t : row) below = std::max(below, pool.Height(t));
  return below + 1;
}

Result<std::string> SerializeDatabase(const Database& db) {
  const TermPool& pool = *db.pool();
  // Refuse before sorting or printing, which recurse as deep as the terms.
  Status readable;
  db.ForEach([&](TermId name, uint32_t arity, Relation* rel) {
    size_t levels = pool.Height(name);
    for (RowView row : *rel) {
      levels = std::max(levels, FactLevels(pool, name, row));
    }
    if (levels <= kMaxTermNesting || !readable.ok()) return;
    std::string label = pool.Height(name) <= kMaxTermNesting
                            ? pool.ToString(name)
                            : std::string("a relation");
    readable = Status::InvalidArgument(
        StrCat(label, "/", arity, " holds a fact nested ", levels,
               " levels deep, past the ", kMaxTermNesting,
               " levels the loader reads back"));
  });
  GLUENAIL_RETURN_NOT_OK(readable);
  // Collect and order relations by printed name for deterministic files.
  std::vector<std::pair<std::string, std::pair<TermId, Relation*>>> rels;
  db.ForEach([&](TermId name, uint32_t arity, Relation* rel) {
    rels.emplace_back(StrCat(pool.ToString(name), "/", arity),
                      std::make_pair(name, rel));
  });
  std::sort(rels.begin(), rels.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Body first: each section is "% label: n tuples checksum=H" followed by
  // its fact lines; the section checksum covers only the fact lines.
  std::string body;
  std::string facts;
  uint64_t total_tuples = 0;
  for (const auto& [label, entry] : rels) {
    auto [name, rel] = entry;
    facts.clear();
    for (const Tuple& t : rel->SortedTuples(pool)) {
      AppendFact(pool, name, t, &facts);
      facts += ".\n";
    }
    total_tuples += rel->size();
    body += StrCat("% ", label, ": ", rel->size(), " tuples checksum=",
                   Hex16(Fnv1a64(facts.data(), facts.size())), "\n");
    body += facts;
  }
  // The file checksum covers every line after the %% header.
  std::string out =
      StrCat(kFileMagic, " relations=", rels.size(), " tuples=", total_tuples,
             " checksum=", Hex16(Fnv1a64(body.data(), body.size())), "\n");
  out += body;
  return out;
}

PersistenceCounters& GlobalPersistenceCounters() {
  static PersistenceCounters counters;
  return counters;
}

void RegisterPersistenceMetrics(MetricsRegistry* registry) {
  PersistenceCounters& c = GlobalPersistenceCounters();
  registry->RegisterPullCounter("gluenail_persist_saves_total",
                                "successful database file saves", &c.saves);
  registry->RegisterPullCounter("gluenail_persist_save_failures_total",
                                "failed database file saves", &c.save_failures);
  registry->RegisterPullCounter("gluenail_persist_loads_total",
                                "successful database file loads", &c.loads);
  registry->RegisterPullCounter("gluenail_persist_load_failures_total",
                                "failed database file loads", &c.load_failures);
}

Status SaveDatabaseToFile(const Database& db, const std::string& path) {
  Result<std::string> serialized = SerializeDatabase(db);
  Status st = serialized.ok() ? ReplaceFileAtomically(path, *serialized)
                              : serialized.status();
  PersistenceCounters& c = GlobalPersistenceCounters();
  (st.ok() ? c.saves : c.save_failures).fetch_add(1, std::memory_order_relaxed);
  return st;
}

Result<LoadReport> LoadDatabase(Database* db, std::string_view text,
                                const LoadOptions& options) {
  TermPool* pool = db->pool();
  const bool salvage = options.recovery == RecoveryMode::kSalvage;
  LoadReport report;

  // Both checksumming and salvage see the whole text before anything may
  // touch \p db; the lines are views into it.
  const std::vector<std::string_view> lines = SplitLines(text);
  Database staging(pool);

  if (!lines.empty() && StartsWith(lines[0], kFileMagic)) {
    // --- v2 checksummed format ------------------------------------------
    uint64_t declared_relations = 0;
    uint64_t declared_tuples = 0;
    uint64_t declared_checksum = 0;
    bool header_ok =
        ReadHeaderField(lines[0], "relations=", &declared_relations) &&
        ReadHeaderField(lines[0], "tuples=", &declared_tuples) &&
        ReadHeaderChecksum(lines[0], &declared_checksum);
    if (!header_ok && !salvage) {
      return Status::ParseError("malformed gluenail-edb v2 header");
    }

    if (header_ok) {
      uint64_t h = kFnv1a64Seed;
      for (size_t i = 1; i < lines.size(); ++i) h = ChecksumLine(h, lines[i]);
      if (h != declared_checksum && !salvage) {
        return Status::IoError(
            "file checksum mismatch (torn or corrupt EDB file); "
            "retry with RecoveryMode::kSalvage to keep the good relations");
      }
    }

    const std::vector<Section> sections = SplitSections(lines);
    const size_t first_section =
        sections.empty() ? lines.size() : sections[0].header;

    if (!salvage && first_section > 1) {
      return Status::ParseError(
          "line 2: content outside any relation section");
    }
    if (!salvage && sections.size() != declared_relations) {
      return Status::IoError(
          StrCat("expected ", declared_relations, " relation sections, "
                 "found ", sections.size(), " (torn file?)"));
    }
    for (size_t i = 1; i < first_section; ++i) {
      ++report.lines_dropped;
      report.dropped.push_back(
          StrCat("line ", i + 1, ": outside any relation section"));
    }
    // Under salvage, every section stands or falls on its own checksum.
    for (const Section& sec : sections) {
      Status sec_st = LoadSection(lines, sec, &staging, &report);
      if (sec_st.ok()) continue;
      if (!salvage) return sec_st;
      ++report.sections_dropped;
      report.dropped.push_back(sec_st.message());
    }
    if (!salvage && report.facts_loaded != declared_tuples) {
      return Status::IoError(StrCat("expected ", declared_tuples,
                                    " tuples, found ", report.facts_loaded));
    }
  } else {
    // --- legacy headerless fact files -----------------------------------
    TermId name = kNullTerm;
    Tuple row;
    for (size_t i = 0; i < lines.size(); ++i) {
      std::string_view l = lines[i];
      size_t first = l.find_first_not_of(" \t");
      if (first == std::string_view::npos) continue;
      if (l[first] == '%' || l[first] == '#') continue;
      Status st = ReadFact(pool, l, /*dotted=*/true, &name, &row)
                      .WithContext(StrCat("line ", i + 1));
      if (!st.ok()) {
        if (!salvage) return st;
        ++report.lines_dropped;
        report.dropped.push_back(st.message());
        continue;
      }
      staging.GetOrCreate(name, static_cast<uint32_t>(row.size()))
          ->Insert(row);
      ++report.facts_loaded;
    }
    report.relations_loaded = staging.num_relations();
  }

  // Validation passed (or salvage kept what it could): only now touch the
  // destination. A failed load above returned without mutating *db.
  db->MergeFrom(&staging);
  return report;
}

Result<LoadReport> LoadDatabaseFromFile(Database* db, const std::string& path,
                                        const LoadOptions& options) {
  std::atomic<uint64_t>& failures = GlobalPersistenceCounters().load_failures;
  Result<std::string> text = ReadFileText(path);
  if (!text.ok()) {
    failures.fetch_add(1, std::memory_order_relaxed);
    return text.status();
  }
  Result<LoadReport> out = LoadDatabase(db, *text, options);
  if (!out.ok()) {
    failures.fetch_add(1, std::memory_order_relaxed);
    return out.status().WithContext(path);
  }
  GlobalPersistenceCounters().loads.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError(
        StrCat("open '", path, "': ", std::strerror(errno)));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IoError(StrCat("read '", path, "' failed"));
  return std::move(buf).str();
}

Status LoadDatabaseFromFile(Database* db, const std::string& path) {
  return LoadDatabaseFromFile(db, path, LoadOptions{}).status();
}

}  // namespace gluenail
