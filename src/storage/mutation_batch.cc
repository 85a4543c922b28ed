#include "src/storage/mutation_batch.h"

#include "src/common/strings.h"
#include "src/storage/persistence.h"

namespace gluenail {

namespace {

constexpr std::string_view kHeaderPrefix = "%% gluenail-batch v1 ";

std::string_view TrimView(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r' || s.front() == '\n')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

std::string OpLine(const MutationBatch::Op& op) {
  return StrCat(op.kind == MutationBatch::OpKind::kInsert ? "+ " : "- ",
                op.fact);
}

}  // namespace

void MutationBatch::Push(OpKind kind, std::string_view fact) {
  std::string_view t = TrimView(fact);
  if (!t.empty() && t.back() == '.') t = TrimView(t.substr(0, t.size() - 1));
  ops_.push_back(Op{kind, std::string(t)});
}

void MutationBatch::Insert(const TermPool& pool, TermId name, RowView row) {
  std::string fact;
  AppendFact(pool, name, row, &fact);
  ops_.push_back(Op{OpKind::kInsert, std::move(fact)});
}

Result<MutationBatch::Resolved> MutationBatch::Resolve(TermPool* pool) const {
  Resolved resolved;
  resolved.reserve(ops_.size());
  Tuple row;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    TermId name = kNullTerm;
    Status st = ParseFact(pool, op.fact, &name, &row);
    // The reader's error quotes the text around the fault, not the op.
    if (!st.ok()) return st.WithContext(StrCat("batch op ", i));
    resolved.push_back(ResolvedOp{op.kind, name, row});
  }
  return resolved;
}

MutationBatch::ApplyReport MutationBatch::ApplyResolved(const Resolved& ops,
                                                        Database* db) {
  ApplyReport report;
  for (const ResolvedOp& r : ops) {
    uint32_t arity = static_cast<uint32_t>(r.row.size());
    if (r.kind == OpKind::kInsert) {
      if (db->GetOrCreate(r.name, arity)->Insert(r.row)) ++report.inserted;
    } else {
      Relation* rel = db->Find(r.name, arity);
      if (rel != nullptr && rel->Erase(r.row)) ++report.erased;
    }
    ++report.applied;
  }
  return report;
}

std::string MutationBatch::Serialize() const {
  uint64_t checksum = kFnv1a64Seed;
  std::string body;
  for (const Op& op : ops_) {
    std::string line = OpLine(op);
    checksum = ChecksumLine(checksum, line);
    body += line;
    body += "\n";
  }
  return StrCat(kHeaderPrefix, "ops=", ops_.size(),
                " checksum=", Hex16(checksum), "\n", body);
}

Result<MutationBatch> MutationBatch::Parse(std::string_view text) {
  size_t eol = text.find('\n');
  if (eol == std::string_view::npos) {
    return Status::InvalidArgument("mutation batch: missing header line");
  }
  std::string_view header = TrimView(text.substr(0, eol));
  if (header.substr(0, kHeaderPrefix.size()) != kHeaderPrefix) {
    return Status::InvalidArgument(
        StrCat("mutation batch: bad header '", header, "'"));
  }
  uint64_t declared_ops = 0;
  uint64_t declared_checksum = 0;
  std::string_view fields = header.substr(kHeaderPrefix.size());
  if (!ReadHeaderField(fields, "ops=", &declared_ops) ||
      !ReadHeaderChecksum(fields, &declared_checksum)) {
    return Status::InvalidArgument(
        "mutation batch: header lacks ops=/checksum= fields");
  }

  MutationBatch batch;
  uint64_t checksum = kFnv1a64Seed;
  std::string_view rest = text.substr(eol + 1);
  while (!rest.empty()) {
    size_t next = rest.find('\n');
    std::string_view line =
        next == std::string_view::npos ? rest : rest.substr(0, next);
    rest = next == std::string_view::npos ? std::string_view()
                                          : rest.substr(next + 1);
    std::string_view t = TrimView(line);
    if (t.empty()) continue;
    OpKind kind;
    if (t.substr(0, 2) == "+ ") {
      kind = OpKind::kInsert;
    } else if (t.substr(0, 2) == "- ") {
      kind = OpKind::kErase;
    } else {
      return Status::InvalidArgument(
          StrCat("mutation batch: bad op line '", t, "'"));
    }
    batch.ops_.push_back(Op{kind, std::string(TrimView(t.substr(2)))});
    checksum = ChecksumLine(checksum, OpLine(batch.ops_.back()));
  }
  if (batch.size() != declared_ops) {
    return Status::InvalidArgument(
        StrCat("mutation batch: header declares ", declared_ops,
               " ops but body has ", batch.size()));
  }
  if (checksum != declared_checksum) {
    return Status::InvalidArgument(
        StrCat("mutation batch: checksum mismatch (header ",
               Hex16(declared_checksum), ", body ", Hex16(checksum), ")"));
  }
  return batch;
}

}  // namespace gluenail
