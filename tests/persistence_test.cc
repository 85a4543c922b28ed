#include "src/storage/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/storage/mutation_batch.h"

namespace gluenail {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  PersistenceTest() : db_(&pool_) {}

  TermId Term(std::string_view text) {
    Result<TermId> r = ParseGroundTerm(&pool_, text);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : kNullTerm;
  }

  TermPool pool_;
  Database db_;
};

TEST_F(PersistenceTest, ParseGroundTermAtoms) {
  EXPECT_EQ(Term("abc"), pool_.MakeSymbol("abc"));
  EXPECT_EQ(Term("'Hello world'"), pool_.MakeSymbol("Hello world"));
  EXPECT_EQ(Term("42"), pool_.MakeInt(42));
  EXPECT_EQ(Term("-7"), pool_.MakeInt(-7));
  EXPECT_EQ(Term("2.5"), pool_.MakeFloat(2.5));
  EXPECT_EQ(Term("1.5e3"), pool_.MakeFloat(1500.0));
}

TEST_F(PersistenceTest, ParseGroundTermCompound) {
  TermId t = Term("edge(1,2)");
  ASSERT_TRUE(pool_.IsCompound(t));
  EXPECT_EQ(pool_.Functor(t), pool_.MakeSymbol("edge"));
  EXPECT_EQ(pool_.Args(t)[0], pool_.MakeInt(1));
}

TEST_F(PersistenceTest, ParseGroundTermNested) {
  TermId t = Term("p(f(1,g(a)),b)");
  ASSERT_TRUE(pool_.IsCompound(t));
  TermId f = pool_.Args(t)[0];
  ASSERT_TRUE(pool_.IsCompound(f));
  EXPECT_EQ(pool_.Functor(f), pool_.MakeSymbol("f"));
}

TEST_F(PersistenceTest, ParseGroundTermHiLogApplication) {
  TermId t = Term("students(cs99)(wilson)");
  ASSERT_TRUE(pool_.IsCompound(t));
  TermId name = pool_.Functor(t);
  ASSERT_TRUE(pool_.IsCompound(name));
  EXPECT_EQ(pool_.ToString(name), "students(cs99)");
}

TEST_F(PersistenceTest, ParseGroundTermErrors) {
  EXPECT_FALSE(ParseGroundTerm(&pool_, "").ok());
  EXPECT_FALSE(ParseGroundTerm(&pool_, "p(").ok());
  EXPECT_FALSE(ParseGroundTerm(&pool_, "p(1,)").ok());
  EXPECT_FALSE(ParseGroundTerm(&pool_, "p(1) extra").ok());
  EXPECT_FALSE(ParseGroundTerm(&pool_, "'unterminated").ok());
  EXPECT_FALSE(ParseGroundTerm(&pool_, ")").ok());
}

TEST_F(PersistenceTest, LoadFacts) {
  const std::string in(
      "% a comment\n"
      "edge(1,2).\n"
      "edge(2,3).\n"
      "\n"
      "tolerance(2.5).\n"
      "name('San Francisco').\n");
  ASSERT_TRUE(LoadDatabase(&db_, in, {}).ok());
  Relation* edge = db_.Find(pool_.MakeSymbol("edge"), 2);
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->size(), 2u);
  Relation* name = db_.Find(pool_.MakeSymbol("name"), 1);
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(name->Contains(Tuple{pool_.MakeSymbol("San Francisco")}));
}

TEST_F(PersistenceTest, LoadZeroArityFact) {
  const std::string in("initialized.\n");
  ASSERT_TRUE(LoadDatabase(&db_, in, {}).ok());
  Relation* r = db_.Find(pool_.MakeSymbol("initialized"), 0);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->size(), 1u);
}

TEST_F(PersistenceTest, LoadParameterizedPredicate) {
  const std::string in(
      "students(cs99)(wilson).\n"
      "students(cs99)(green).\n"
      "students(cs101)(jones).\n");
  ASSERT_TRUE(LoadDatabase(&db_, in, {}).ok());
  std::vector<TermId> args{pool_.MakeSymbol("cs99")};
  Relation* r = db_.Find(pool_.MakeCompound("students", args), 1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->size(), 2u);
}

TEST_F(PersistenceTest, LoadRejectsMissingDot) {
  const std::string in("edge(1,2)\n");
  Status s = LoadDatabase(&db_, in, {}).status();
  EXPECT_TRUE(s.IsParseError());
}

TEST_F(PersistenceTest, LoadRejectsNumberFact) {
  const std::string in("42.\n");
  // "42." reads as the float 42.? No: '.' not followed by a digit is the
  // terminator, so this is the integer fact 42 — which is not a valid
  // predicate name.
  Status s = LoadDatabase(&db_, in, {}).status();
  EXPECT_TRUE(s.IsParseError());
}

TEST_F(PersistenceTest, SaveLoadRoundTrip) {
  Relation* edge = db_.GetOrCreate(pool_.MakeSymbol("edge"), 2);
  edge->Insert(Tuple{pool_.MakeInt(1), pool_.MakeInt(2)});
  edge->Insert(Tuple{pool_.MakeInt(2), pool_.MakeInt(3)});
  Relation* t = db_.GetOrCreate(pool_.MakeSymbol("tolerance"), 1);
  t->Insert(Tuple{pool_.MakeFloat(2.5)});
  std::vector<TermId> args{pool_.MakeSymbol("cs99")};
  Relation* st = db_.GetOrCreate(pool_.MakeCompound("students", args), 1);
  st->Insert(Tuple{pool_.MakeSymbol("wilson")});
  Relation* flag = db_.GetOrCreate(pool_.MakeSymbol("flag"), 0);
  flag->Insert(Tuple{});

  Result<std::string> out = SerializeDatabase(db_);
  ASSERT_TRUE(out.ok()) << out.status();

  TermPool pool2;
  Database db2(&pool2);
  ASSERT_TRUE(LoadDatabase(&db2, *out, {}).ok());

  Relation* edge2 = db2.Find(pool2.MakeSymbol("edge"), 2);
  ASSERT_NE(edge2, nullptr);
  EXPECT_EQ(edge2->size(), 2u);
  EXPECT_TRUE(
      edge2->Contains(Tuple{pool2.MakeInt(1), pool2.MakeInt(2)}));
  Relation* t2 = db2.Find(pool2.MakeSymbol("tolerance"), 1);
  ASSERT_NE(t2, nullptr);
  EXPECT_TRUE(t2->Contains(Tuple{pool2.MakeFloat(2.5)}));
  std::vector<TermId> args2{pool2.MakeSymbol("cs99")};
  Relation* st2 = db2.Find(pool2.MakeCompound("students", args2), 1);
  ASSERT_NE(st2, nullptr);
  EXPECT_EQ(st2->size(), 1u);
  Relation* flag2 = db2.Find(pool2.MakeSymbol("flag"), 0);
  ASSERT_NE(flag2, nullptr);
  EXPECT_EQ(flag2->size(), 1u);
}

TEST_F(PersistenceTest, SaveRoundTripsQuotedAndNumericEdgeCases) {
  Relation* r = db_.GetOrCreate(pool_.MakeSymbol("misc"), 1);
  r->Insert(Tuple{pool_.MakeSymbol("it's got 'quotes'")});
  r->Insert(Tuple{pool_.MakeSymbol("Line\nbreak")});
  r->Insert(Tuple{pool_.MakeFloat(1.0)});
  r->Insert(Tuple{pool_.MakeInt(1)});

  Result<std::string> out = SerializeDatabase(db_);
  ASSERT_TRUE(out.ok()) << out.status();
  TermPool pool2;
  Database db2(&pool2);
  ASSERT_TRUE(LoadDatabase(&db2, *out, {}).ok()) << *out;
  Relation* r2 = db2.Find(pool2.MakeSymbol("misc"), 1);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->size(), 4u);
  EXPECT_TRUE(r2->Contains(Tuple{pool2.MakeSymbol("it's got 'quotes'")}));
  EXPECT_TRUE(r2->Contains(Tuple{pool2.MakeFloat(1.0)}));
  EXPECT_TRUE(r2->Contains(Tuple{pool2.MakeInt(1)}));
}

TEST_F(PersistenceTest, FileRoundTrip) {
  Relation* edge = db_.GetOrCreate(pool_.MakeSymbol("edge"), 2);
  edge->Insert(Tuple{pool_.MakeInt(10), pool_.MakeInt(20)});
  const std::string path = testing::TempDir() + "/gluenail_edb_test.facts";
  ASSERT_TRUE(SaveDatabaseToFile(db_, path).ok());
  TermPool pool2;
  Database db2(&pool2);
  ASSERT_TRUE(LoadDatabaseFromFile(&db2, path).ok());
  Relation* edge2 = db2.Find(pool2.MakeSymbol("edge"), 2);
  ASSERT_NE(edge2, nullptr);
  EXPECT_EQ(edge2->size(), 1u);
}

TEST_F(PersistenceTest, MissingFileReportsIoError) {
  EXPECT_TRUE(
      LoadDatabaseFromFile(&db_, "/nonexistent/path/x.facts").IsIoError());
}

// --- v2 format and edge-case round-trips -----------------------------------

namespace {

/// Round-trips \p db through serialization into \p db2 (fresh pool).
void RoundTrip(const Database& db, Database* db2) {
  Result<std::string> out = SerializeDatabase(db);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(LoadDatabase(db2, *out, {}).ok()) << *out;
}

}  // namespace

TEST_F(PersistenceTest, SerializeEmitsChecksummedHeader) {
  db_.GetOrCreate(pool_.MakeSymbol("edge"), 2)
      ->Insert(Tuple{pool_.MakeInt(1), pool_.MakeInt(2)});
  std::string text = *SerializeDatabase(db_);
  EXPECT_TRUE(text.rfind("%% gluenail-edb v2 ", 0) == 0) << text;
  EXPECT_NE(text.find("relations=1"), std::string::npos);
  EXPECT_NE(text.find("tuples=1"), std::string::npos);
  EXPECT_NE(text.find("checksum="), std::string::npos);
  EXPECT_NE(text.find("% edge/2: 1 tuples checksum="), std::string::npos);
}

// The exact checkpoint text of a fixed database, pinned against a file
// written before the durable writers shared their helpers: one empty
// relation and one HiLog relation name, so both the section layout and
// the empty section's checksum (the FNV seed) are fixed.
TEST_F(PersistenceTest, GoldenCheckpointText) {
  db_.GetOrCreate(pool_.MakeSymbol("empty"), 2);
  Relation* students = db_.GetOrCreate(Term("students(cs99)"), 1);
  students->Insert(Tuple{pool_.MakeSymbol("wilson")});
  students->Insert(Tuple{pool_.MakeSymbol("adams")});
  Result<std::string> text = SerializeDatabase(db_);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(*text,
            "%% gluenail-edb v2 relations=2 tuples=2 "
            "checksum=be67da40a8ea2343\n"
            "% empty/2: 0 tuples checksum=cbf29ce484222325\n"
            "% students(cs99)/1: 2 tuples checksum=40415b82d731c7c1\n"
            "students(cs99)(adams).\n"
            "students(cs99)(wilson).\n");
}

TEST_F(PersistenceTest, RoundTripsQuotedSymbolsWithEscapes) {
  Relation* r = db_.GetOrCreate(pool_.MakeSymbol("q"), 1);
  std::vector<std::string> names = {
      "it's",  "back\\slash", "tab\there", "new\nline",
      "quoted 'inner' text", "trailing space ", " leading",
      "mixed \\' both \\\\ ways",
  };
  for (const std::string& n : names) {
    r->Insert(Tuple{pool_.MakeSymbol(n)});
  }
  TermPool pool2;
  Database db2(&pool2);
  RoundTrip(db_, &db2);
  Relation* r2 = db2.Find(pool2.MakeSymbol("q"), 1);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->size(), names.size());
  for (const std::string& n : names) {
    EXPECT_TRUE(r2->Contains(Tuple{pool2.MakeSymbol(n)})) << n;
  }
}

TEST_F(PersistenceTest, RoundTripsNegativeExponentFloats) {
  Relation* r = db_.GetOrCreate(pool_.MakeSymbol("f"), 1);
  std::vector<double> values = {-1.5e-7, 2.5e-300, -3e15, 1e-9, -0.0625};
  for (double v : values) r->Insert(Tuple{pool_.MakeFloat(v)});
  TermPool pool2;
  Database db2(&pool2);
  RoundTrip(db_, &db2);
  Relation* r2 = db2.Find(pool2.MakeSymbol("f"), 1);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->size(), values.size());
  for (double v : values) {
    EXPECT_TRUE(r2->Contains(Tuple{pool2.MakeFloat(v)})) << v;
  }
}

TEST_F(PersistenceTest, RoundTripsArityZeroAndEmptyRelations) {
  db_.GetOrCreate(pool_.MakeSymbol("flag"), 0)->Insert(Tuple{});
  db_.GetOrCreate(pool_.MakeSymbol("empty"), 3);  // zero tuples
  TermPool pool2;
  Database db2(&pool2);
  RoundTrip(db_, &db2);
  Relation* flag = db2.Find(pool2.MakeSymbol("flag"), 0);
  ASSERT_NE(flag, nullptr);
  EXPECT_EQ(flag->size(), 1u);
  // v2 sections recreate even empty relations.
  Relation* empty = db2.Find(pool2.MakeSymbol("empty"), 3);
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->size(), 0u);
}

TEST_F(PersistenceTest, LoadsCrlfFilesWithValidChecksums) {
  db_.GetOrCreate(pool_.MakeSymbol("edge"), 2)
      ->Insert(Tuple{pool_.MakeInt(1), pool_.MakeInt(2)});
  std::string text = *SerializeDatabase(db_);
  // Simulate a Windows checkout: every LF becomes CRLF.
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  TermPool pool2;
  Database db2(&pool2);
  ASSERT_TRUE(LoadDatabase(&db2, crlf, {}).ok());
  Relation* edge = db2.Find(pool2.MakeSymbol("edge"), 2);
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->size(), 1u);
}

TEST_F(PersistenceTest, RoundTripsRelationLargerThan64kTuples) {
  Relation* big = db_.GetOrCreate(pool_.MakeSymbol("big"), 2);
  constexpr int kN = 70000;  // > 64k: spans many arena chunks / file writes
  for (int i = 0; i < kN; ++i) {
    big->Insert(Tuple{pool_.MakeInt(i), pool_.MakeInt(i + 1)});
  }
  const std::string path = testing::TempDir() + "/gluenail_big.facts";
  ASSERT_TRUE(SaveDatabaseToFile(db_, path).ok());
  TermPool pool2;
  Database db2(&pool2);
  ASSERT_TRUE(LoadDatabaseFromFile(&db2, path).ok());
  Relation* big2 = db2.Find(pool2.MakeSymbol("big"), 2);
  ASSERT_NE(big2, nullptr);
  EXPECT_EQ(big2->size(), static_cast<size_t>(kN));
  EXPECT_TRUE(big2->Contains(
      Tuple{pool2.MakeInt(kN - 1), pool2.MakeInt(kN)}));
  ::remove(path.c_str());
}

TEST_F(PersistenceTest, CorruptedFileFailsStrictLoadAllOrNothing) {
  db_.GetOrCreate(pool_.MakeSymbol("edge"), 2)
      ->Insert(Tuple{pool_.MakeInt(1), pool_.MakeInt(2)});
  std::string text = *SerializeDatabase(db_);
  text[text.find("edge(1,2).") + 5] = '7';  // flip a byte in a fact

  TermPool pool2;
  Database db2(&pool2);
  db2.GetOrCreate(pool2.MakeSymbol("keep"), 1)
      ->Insert(Tuple{pool2.MakeInt(1)});
  Status st = LoadDatabase(&db2, text, {}).status();
  EXPECT_TRUE(st.IsIoError()) << st;
  EXPECT_EQ(db2.num_relations(), 1u);  // destination untouched
}

TEST_F(PersistenceTest, TamperedHeaderCountFailsStrictLoad) {
  db_.GetOrCreate(pool_.MakeSymbol("edge"), 2)
      ->Insert(Tuple{pool_.MakeInt(1), pool_.MakeInt(2)});
  std::string text = *SerializeDatabase(db_);
  size_t at = text.find("relations=1");
  ASSERT_NE(at, std::string::npos);
  text[at + std::string("relations=").size()] = '3';
  TermPool pool2;
  Database db2(&pool2);
  EXPECT_FALSE(LoadDatabase(&db2, text, {}).ok());
  EXPECT_EQ(db2.num_relations(), 0u);
}

TEST_F(PersistenceTest, LegacyHeaderlessFilesStillLoad) {
  const std::string in(
      "% hand-written legacy file, no %% header\n"
      "edge(1,2).\n"
      "edge(2,3).\n");
  ASSERT_TRUE(LoadDatabase(&db_, in, {}).ok());
  Relation* edge = db_.Find(pool_.MakeSymbol("edge"), 2);
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->size(), 2u);
}

TEST_F(PersistenceTest, LegacyLoadIsAllOrNothingInStrictMode) {
  db_.GetOrCreate(pool_.MakeSymbol("keep"), 1)
      ->Insert(Tuple{pool_.MakeInt(1)});
  const std::string in(
      "edge(1,2).\n"
      "not a fact!!\n"
      "edge(2,3).\n");
  EXPECT_FALSE(LoadDatabase(&db_, in, {}).ok());
  // The parse failure on line 2 must not leave line 1 behind.
  EXPECT_EQ(db_.Find(pool_.MakeSymbol("edge"), 2), nullptr);
  EXPECT_EQ(db_.num_relations(), 1u);
}

TEST_F(PersistenceTest, LegacySalvageSkipsBadLines) {
  const std::string in(
      "edge(1,2).\n"
      "not a fact!!\n"
      "edge(2,3).\n");
  LoadOptions opts;
  opts.recovery = RecoveryMode::kSalvage;
  Result<LoadReport> report = LoadDatabase(&db_, in, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->facts_loaded, 2u);
  EXPECT_EQ(report->lines_dropped, 1u);
  ASSERT_EQ(report->dropped.size(), 1u);
  Relation* edge = db_.Find(pool_.MakeSymbol("edge"), 2);
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->size(), 2u);
}

// --- Fact resolution golden table ------------------------------------------
//
// Every EDB ingest path resolves a fact text to a relation name and a row:
// MutationBatch::Resolve for commits, WAL replay and replica apply, and the
// loader for checkpoints, v2 sections, headerless files and inline loads.
// The tables pin both paths to the same (name, row) and the same errors.

namespace {

struct AcceptedFact {
  const char* text;      // a batch op; the file line is text + "."
  const char* resolved;  // "name/arity: arg,arg"
};

const AcceptedFact kAcceptedFacts[] = {
    {"edge(1,2)", "edge/2: 1,2"},
    {"flag", "flag/0: "},
    {"students(cs99)(wilson)", "students(cs99)/1: wilson"},
    {"(edge(1,2))", "edge/2: 1,2"},
    {"(flag)", "flag/0: "},
    {"'San Francisco'('it\\'s','a\\\\b','x\\ny')",
     "'San Francisco'/3: 'it\\'s','a\\\\b','x\\ny'"},
    {"n(-7,0,-0)", "n/3: -7,0,0"},
    {"t(2.5,-1.5e-3,1e3)", "t/3: 2.5,-0.0015,1000.0"},
    {"p(f(1,g(a)),b)", "p/2: f(1,g(a)),b"},
    {"  edge ( 1 , 2 )  ", "edge/2: 1,2"},
};

struct RejectedFact {
  const char* text;           // the batch op
  const char* resolve_error;  // MutationBatch::Resolve's message
  const char* line;           // the fact line of a v2 section
  const char* load_error;     // LoadDatabase's message for that section
};

const RejectedFact kRejectedFacts[] = {
    {"edge(1,X)",
     "batch op 0: variables are not allowed in ground facts at "
     "offset 7 in \"edge(1,X)\"",
     "edge(1,X).",
     "line 3: variables are not allowed in ground facts at offset 7 in "
     "\"edge(1,X).\""},
    {"p(1) q",
     "batch op 0: trailing characters after term at offset 5 in "
     "\"p(1) q\"",
     "p(1). q", "line 3: trailing characters after term at offset 6 in "
     "\"p(1). q\""},
    {"p()", "batch op 0: empty argument list at offset 3 in \"p()\"",
     "p().", "line 3: empty argument list at offset 3 in \"p().\""},
    {"5", "batch op 0: a fact must be a symbol or compound", "5.",
     "line 3: a fact must be a symbol or compound"},
    {"p(1,2", "batch op 0: unterminated args at offset 5 in \"p(1,2\"",
     "p(1,2", "line 3: unterminated args at offset 5 in \"p(1,2\""},
};

std::string RenderResolved(const TermPool& pool, TermId name, RowView row) {
  std::string out = StrCat(pool.ToString(name), "/", row.size(), ": ");
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out += ",";
    pool.AppendTerm(row[i], &out);
  }
  return out;
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A v2 file of one section, labelled \p label, holding the one \p line,
/// with valid checksums, so only the fact reader can refuse it.
std::string OneLineV2File(const std::string& label, const std::string& line) {
  std::string facts = line + "\n";
  std::string body =
      StrCat("% ", label, ": 1 tuples checksum=",
             Hex16(Fnv1a64(facts.data(), facts.size())), "\n", facts);
  return StrCat("%% gluenail-edb v2 relations=1 tuples=1 checksum=",
                Hex16(Fnv1a64(body.data(), body.size())), "\n", body);
}

}  // namespace

TEST_F(PersistenceTest, GoldenFactsResolveThroughMutationBatch) {
  for (const AcceptedFact& f : kAcceptedFacts) {
    MutationBatch batch;
    batch.Insert(f.text);
    Result<MutationBatch::Resolved> ops = batch.Resolve(&pool_);
    ASSERT_TRUE(ops.ok()) << f.text << ": " << ops.status();
    ASSERT_EQ(ops->size(), 1u);
    EXPECT_EQ(RenderResolved(pool_, (*ops)[0].name, (*ops)[0].row),
              f.resolved)
        << f.text;
  }
  for (const RejectedFact& f : kRejectedFacts) {
    MutationBatch batch;
    batch.Insert(f.text);
    Result<MutationBatch::Resolved> ops = batch.Resolve(&pool_);
    ASSERT_FALSE(ops.ok()) << f.text;
    EXPECT_EQ(ops.status().message(), f.resolve_error) << f.text;
  }
}

TEST_F(PersistenceTest, GoldenFactsResolveThroughV2SectionLoad) {
  for (const AcceptedFact& f : kAcceptedFacts) {
    std::string resolved = f.resolved;
    std::string label = resolved.substr(0, resolved.find(':'));
    const std::string in(OneLineV2File(label, StrCat(f.text, ".")));
    TermPool pool;
    Database db(&pool);
    Status st = LoadDatabase(&db, in, {}).status();
    ASSERT_TRUE(st.ok()) << f.text << ": " << st;
    std::vector<std::string> got;
    db.ForEach([&](TermId name, uint32_t, Relation* rel) {
      for (const Tuple& t : rel->SortedTuples(pool)) {
        got.push_back(RenderResolved(pool, name, t));
      }
    });
    EXPECT_EQ(got, std::vector<std::string>{f.resolved}) << f.text;
  }
  for (const RejectedFact& f : kRejectedFacts) {
    const std::string in(OneLineV2File("p/1", f.line));
    TermPool pool;
    Database db(&pool);
    Status st = LoadDatabase(&db, in, {}).status();
    ASSERT_FALSE(st.ok()) << f.line;
    EXPECT_EQ(st.message(), f.load_error) << f.line;
    EXPECT_EQ(db.num_relations(), 0u) << f.line;
  }
}

TEST_F(PersistenceTest, SalvageDropsEveryRowOfASectionThatFailsToRead) {
  // Both sections checksum, so only the fact reader can refuse p/1, at its
  // second line. Under salvage p/1 is dropped whole: its first row, read
  // before the failure, is not staged either.
  auto section = [](const std::string& label, const std::string& facts) {
    return StrCat("% ", label, ": 2 tuples checksum=",
                  Hex16(Fnv1a64(facts.data(), facts.size())), "\n", facts);
  };
  const std::string body = section("keep/1", "keep(1).\nkeep(2).\n") +
                           section("p/1", "p(1).\np(X).\n");
  const std::string in(
      StrCat("%% gluenail-edb v2 relations=2 tuples=4 checksum=",
             Hex16(Fnv1a64(body.data(), body.size())), "\n", body));
  LoadOptions opts;
  opts.recovery = RecoveryMode::kSalvage;
  Result<LoadReport> report = LoadDatabase(&db_, in, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->relations_loaded, 1u);
  EXPECT_EQ(report->facts_loaded, 2u);
  EXPECT_EQ(report->sections_dropped, 1u);
  ASSERT_EQ(report->dropped.size(), 1u);
  EXPECT_NE(report->dropped[0].find("line 7: variables"), std::string::npos)
      << report->dropped[0];
  EXPECT_EQ(db_.num_relations(), 1u);
  ASSERT_NE(db_.Find(Term("keep"), 1), nullptr);
  EXPECT_EQ(db_.Find(Term("keep"), 1)->size(), 2u);
  EXPECT_EQ(db_.Find(Term("p"), 1), nullptr);
}

TEST_F(PersistenceTest, ResolvingFactsInternsOnlyNamesAndArguments) {
  // 10,000 distinct facts over 100 values add the name and the values to
  // the pool, not one compound term per fact.
  MutationBatch batch;
  std::string file;
  for (int a = 0; a < 100; ++a) {
    for (int b = 0; b < 100; ++b) {
      batch.Insert(StrCat("e(", a, ",", b, ")"));
      file += StrCat("e(", a, ",", b, ").\n");
    }
  }
  TermPool pool;
  const size_t before = pool.size();
  Result<MutationBatch::Resolved> ops = batch.Resolve(&pool);
  ASSERT_TRUE(ops.ok()) << ops.status();
  EXPECT_EQ(ops->size(), 10000u);
  EXPECT_EQ(pool.size() - before, 101u);

  // The loader reads fact lines the same way.
  TermPool pool2;
  Database db2(&pool2);
  ASSERT_TRUE(LoadDatabase(&db2, file, {}).ok());
  EXPECT_EQ(db2.Find(pool2.MakeSymbol("e"), 2)->size(), 10000u);
  EXPECT_EQ(pool2.size(), 101u);
}

namespace {

/// `p(f(f(...1...)))` with \p levels nested parentheses.
std::string NestedFact(size_t levels) {
  std::string fact = "p(";
  for (size_t i = 1; i < levels; ++i) fact += "f(";
  fact += "1";
  fact.append(levels, ')');
  return fact;
}

/// The HiLog chain `p(1)(1)...(1)` with \p levels applications: its
/// parentheses never nest, but each link is a level.
std::string ChainFact(size_t levels) {
  std::string fact = "p";
  for (size_t i = 0; i < levels; ++i) fact += "(1)";
  return fact;
}

}  // namespace

TEST_F(PersistenceTest, FactNestingIsBoundedOnEveryIngestPath) {
  for (const std::string& fact :
       {NestedFact(kMaxTermNesting), ChainFact(kMaxTermNesting)}) {
    TermPool pool;
    Database db(&pool);
    TermId name;
    Tuple row;
    ASSERT_TRUE(ParseFact(&pool, fact, &name, &row).ok());
    EXPECT_EQ(FactLevels(pool, name, row), kMaxTermNesting);
    Result<TermId> term = ParseGroundTerm(&pool, fact);
    ASSERT_TRUE(term.ok()) << term.status();
    EXPECT_EQ(pool.Height(*term), kMaxTermNesting);
    db.GetOrCreate(name, static_cast<uint32_t>(row.size()))->Insert(row);
    TermPool pool2;
    Database db2(&pool2);
    RoundTrip(db, &db2);
    EXPECT_EQ(*SerializeDatabase(db2), *SerializeDatabase(db));
  }

  const std::string bound_msg =
      StrCat("term nests deeper than ", kMaxTermNesting, " levels");
  for (const std::string& fact :
       {NestedFact(kMaxTermNesting + 1), NestedFact(100000),
        ChainFact(kMaxTermNesting + 1), ChainFact(100000)}) {
    const size_t levels = fact.size();  // names the case in failures
    TermId name;
    Tuple row;
    Status st = ParseFact(&pool_, fact, &name, &row);
    EXPECT_TRUE(st.IsParseError()) << levels;
    EXPECT_EQ(st.message().rfind(bound_msg, 0), 0u) << levels;
    EXPECT_FALSE(ParseGroundTerm(&pool_, fact).ok()) << levels;
    MutationBatch batch;
    batch.Insert(fact);
    EXPECT_FALSE(batch.Resolve(&pool_).ok()) << levels;
    TermPool pool3;
    Database db3(&pool3);
    const std::string in(fact + ".\n");
    Status load = LoadDatabase(&db3, in, {}).status();
    EXPECT_TRUE(load.IsParseError()) << levels;
    EXPECT_NE(load.message().find(bound_msg), std::string::npos) << levels;
    EXPECT_EQ(db3.num_relations(), 0u);
  }
}

TEST_F(PersistenceTest, ReaderErrorsQuoteABoundedWindowOfTheirInput) {
  // 300,001 bytes nested 100,000 deep: the reader stops at the '(' that
  // opens level 1,001, offset 2,001, and quotes 40 bytes to each side.
  const std::string fact = NestedFact(100000);
  ASSERT_EQ(fact.size(), 300001u);
  const std::string window =
      StrCat("at offset 2001 in \"...", fact.substr(1961, 80), "...\"");
  MutationBatch batch;
  batch.Insert("edge(1,2)");
  batch.Insert(fact);
  Status resolve = batch.Resolve(&pool_).status();
  EXPECT_TRUE(resolve.IsParseError());
  EXPECT_LT(resolve.message().size(), 1024u);
  EXPECT_EQ(resolve.message(),
            StrCat("batch op 1: term nests deeper than ", kMaxTermNesting,
                   " levels ", window));

  TermPool pool;
  Database db(&pool);
  const std::string in(fact + ".\n");
  Status load = LoadDatabase(&db, in, {}).status();
  EXPECT_LT(load.message().size(), 1024u);
  EXPECT_NE(load.message().find(window), std::string::npos) << load;

  // Near either end, the window stops at the text's edge.
  TermId name;
  Tuple row;
  Status head = ParseFact(&pool_, "p(X)", &name, &row);
  EXPECT_EQ(head.message(),
            "variables are not allowed in ground facts at offset 2 in "
            "\"p(X)\"");
  const std::string tail = StrCat("p(", std::string(100, 'a'), ",X)");
  Status end = ParseFact(&pool_, tail, &name, &row);
  EXPECT_EQ(end.message(),
            StrCat("variables are not allowed in ground facts at offset 103 "
                   "in \"...",
                   tail.substr(63), "\""));
}

TEST_F(PersistenceTest, SaveRefusesAFactTheLoaderCouldNotReadBack) {
  // Statements build terms without reading text, so a relation can hold a
  // fact deeper than the reader's bound; saving it is refused before any
  // byte is written, instead of leaving a file that cannot be loaded.
  for (size_t levels : {kMaxTermNesting + 1, size_t{100000}}) {
    TermPool pool;
    Database db(&pool);
    TermId t = pool.MakeInt(1);
    for (size_t i = 1; i < levels; ++i) t = pool.MakeCompound("f", {&t, 1});
    Tuple row{t};
    db.GetOrCreate(pool.MakeSymbol("p"), 1)->Insert(row);
    ASSERT_EQ(FactLevels(pool, pool.MakeSymbol("p"), row), levels);

    Result<std::string> text = SerializeDatabase(db);
    ASSERT_FALSE(text.ok());
    EXPECT_TRUE(text.status().IsInvalidArgument());
    EXPECT_EQ(text.status().message(),
              StrCat("p/1 holds a fact nested ", levels,
                     " levels deep, past the ", kMaxTermNesting,
                     " levels the loader reads back"));
    const std::string path = StrCat(::testing::TempDir(), "deep_", levels);
    EXPECT_TRUE(SaveDatabaseToFile(db, path).IsInvalidArgument());
    EXPECT_FALSE(ReadFileText(path).ok());
  }
}

}  // namespace
}  // namespace gluenail
