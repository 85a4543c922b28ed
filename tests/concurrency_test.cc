/// Concurrency tests for the thread-safe engine core: concurrent term
/// interning, snapshot isolation (one writer, N readers, no torn state),
/// the read-only session discipline, and traced sessions recording
/// private traces. Built and run under ThreadSanitizer via
/// -DGLUENAIL_TSAN=ON (ctest -L tsan).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/api/engine.h"
#include "src/api/session.h"
#include "src/common/strings.h"

namespace gluenail {
namespace {

// --- Term pool -----------------------------------------------------------

TEST(ConcurrencyTest, ConcurrentInterningYieldsOneIdPerTerm) {
  TermPool pool;
  constexpr int kThreads = 8;
  constexpr int kValues = 400;

  // Each thread interns the same overlapping universe of ints, floats,
  // symbols, and compounds; hash-consing must give every thread the same
  // id for the same term.
  std::vector<std::vector<TermId>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &ids, t] {
      std::vector<TermId>& mine = ids[t];
      for (int i = 0; i < kValues; ++i) {
        // Stagger starting points so threads race on *different* fresh
        // terms, not just the same insertion order.
        int v = (i + t * 37) % kValues;
        TermId n = pool.MakeInt(v);
        TermId f = pool.MakeFloat(v + 0.5);
        TermId s = pool.MakeSymbol("sym_" + std::to_string(v));
        TermId inner[] = {n, f};
        TermId c = pool.MakeCompound(s, inner);
        TermId outer[] = {c, n};
        mine.push_back(pool.MakeCompound(s, outer));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Re-intern serially and compare: identical inputs, identical ids.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kValues; ++i) {
      int v = (i + t * 37) % kValues;
      TermId n = pool.MakeInt(v);
      TermId f = pool.MakeFloat(v + 0.5);
      TermId s = pool.MakeSymbol("sym_" + std::to_string(v));
      TermId inner[] = {n, f};
      TermId c = pool.MakeCompound(s, inner);
      TermId outer[] = {c, n};
      ASSERT_EQ(ids[t][static_cast<size_t>(i)], pool.MakeCompound(s, outer));
      ASSERT_EQ(pool.IntValue(n), v);
      ASSERT_EQ(pool.SymbolName(s), "sym_" + std::to_string(v));
    }
  }
}

// --- Snapshot isolation --------------------------------------------------

TEST(ConcurrencyTest, SnapshotsNeverObserveTornMultiRelationWrites) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("a(0).").ok());
  ASSERT_TRUE(engine.AddFact("b(0).").ok());
  TermId a = *engine.InternTerm("a");
  TermId b = *engine.InternTerm("b");

  constexpr int kWrites = 300;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};

  // The writer inserts a(i) and b(i) together as one two-op batch; a
  // consistent snapshot must always show |a| == |b|.
  std::thread writer([&engine, &done] {
    for (int i = 1; i <= kWrites; ++i) {
      MutationBatch batch;
      batch.Insert(StrCat("a(", i, ")"));
      batch.Insert(StrCat("b(", i, ")"));
      Result<MutationBatch::ApplyReport> r = engine.ApplyBatch(batch);
      ASSERT_TRUE(r.ok()) << r.status();
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &done, a, b] {
      Session session = engine.OpenSession();
      size_t last = 0;
      while (!done.load()) {
        Result<EngineSnapshot> snap = session.Snapshot();
        ASSERT_TRUE(snap.ok()) << snap.status();
        const RelationSnapshot* ra = snap->edb().Find(a, 1);
        const RelationSnapshot* rb = snap->edb().Find(b, 1);
        ASSERT_NE(ra, nullptr);
        ASSERT_NE(rb, nullptr);
        ASSERT_EQ(ra->size(), rb->size());
        ASSERT_GE(ra->size(), last);  // facts only accumulate
        last = ra->size();
      }
    });
  }
  writer.join();
  for (std::thread& th : readers) th.join();

  Result<EngineSnapshot> final_snap = engine.snapshot();
  ASSERT_TRUE(final_snap.ok());
  EXPECT_EQ(final_snap->edb().Find(a, 1)->size(),
            static_cast<size_t>(kWrites) + 1);
}

TEST(ConcurrencyTest, SnapshotOutlivesEngineMutation) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("p(1).").ok());
  TermId p = *engine.InternTerm("p");
  Result<EngineSnapshot> snap = engine.snapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(engine.AddFact("p(2).").ok());
  // The old view is frozen at capture time.
  EXPECT_EQ(snap->edb().Find(p, 1)->size(), 1u);
  EXPECT_EQ(engine.snapshot()->edb().Find(p, 1)->size(), 2u);
}

// --- Concurrent NAIL! readers with a live writer -------------------------

TEST(ConcurrencyTest, ReadersSeeMonotonicFixpointWhileWriterAddsFacts) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(0,1).
end
)").ok());

  constexpr int kChain = 60;
  constexpr int kReaders = 4;
  // Edges the writer has added so far. Readers re-query only after it
  // moves, so they overlap the writer without starving it of the lock.
  std::atomic<int> written{0};

  std::thread writer([&engine, &written] {
    for (int i = 1; i < kChain; ++i) {
      std::string fact = "edge(" + std::to_string(i) + "," +
                         std::to_string(i + 1) + ").";
      EXPECT_TRUE(engine.AddFact(fact).ok());
      written.fetch_add(1);
      written.notify_all();
    }
  });

  // Each reader repeatedly queries the recursive predicate; every answer
  // set must be a fixpoint of *some* prefix of the writes — in a growing
  // chain from 0 that means the reachable set only ever grows and is
  // always a contiguous range {1..k}.
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &written] {
      Session session = engine.OpenSession();
      size_t last = 0;
      int seen = -1;
      while (seen < kChain - 1) {
        written.wait(seen);
        seen = written.load();  // read before the query: one final pass
        Result<Engine::QueryResult> r = session.Query("path(0, Y)");
        ASSERT_TRUE(r.ok()) << r.status();
        ASSERT_GE(r->rows.size(), last);
        last = r->rows.size();
      }
      ASSERT_EQ(last, static_cast<size_t>(kChain));
    });
  }
  writer.join();
  for (std::thread& th : readers) th.join();
}

// --- Read-only session discipline ----------------------------------------

TEST(ConcurrencyTest, ReadOnlySessionRejectsSharedWrites) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module m;
edb marker(X);
edb pairs(X,Y);
export pollute(:);
proc pollute(:)
  marker(99) += true.
end
export lookup(X:Y);
proc lookup(X:Y)
  return(X:Y) := pairs(X,Y).
end
pairs(1,10).
end
)").ok());

  Session session = engine.OpenSession();
  // A side-effect-free procedure is fine through a session...
  Result<std::vector<Tuple>> ok = session.Call("lookup", {{*engine.InternTerm("1")}});
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_EQ(ok->size(), 1u);
  // ...but one that writes a shared relation is rejected, and the engine's
  // write path still accepts it.
  Result<std::vector<Tuple>> bad = session.Call("pollute", {Tuple{}});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("read-only"), std::string::npos)
      << bad.status();
  EXPECT_TRUE(engine.Call("pollute", {Tuple{}}).ok());
  EXPECT_EQ(engine.RelationContents("marker", 1)->size(), 1u);
}

TEST(ConcurrencyTest, SessionMagicQueryLeavesSharedStateUntouched) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(1,2). edge(2,3). edge(3,4).
end
)").ok());
  Session session = engine.OpenSession();
  QueryOptions magic;
  magic.strategy = QueryStrategy::kMagic;
  Result<Engine::QueryResult> r = session.Query("path(1, Y)", magic);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 3u);
  // The magic scratch relations stay private to the session's evaluation.
  Result<EngineSnapshot> snap = engine.snapshot();
  ASSERT_TRUE(snap.ok());
  snap->idb().ForEach([&](TermId, uint32_t, const RelationSnapshot& rel) {
    EXPECT_EQ(rel.name.find("$magic"), std::string::npos) << rel.name;
  });
}

// --- Atomic relation versions --------------------------------------------

TEST(ConcurrencyTest, RelationVersionReadableWhileWriterMutates) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("v(0).").ok());
  TermId v = *engine.InternTerm("v");
  std::atomic<bool> done{false};

  std::thread writer([&engine, &done] {
    for (int i = 1; i <= 500; ++i) {
      ASSERT_TRUE(engine.AddFact(StrCat("v(", i, ")")).ok());
    }
    done.store(true);
  });

  // Snapshot versions must be monotone: each capture happens at or after
  // the previous one. (version() itself is an atomic read; TSan verifies
  // there is no data race against the writer's bumps.)
  Session session = engine.OpenSession();
  uint64_t last = 0;
  while (!done.load()) {
    Result<EngineSnapshot> snap = session.Snapshot();
    ASSERT_TRUE(snap.ok());
    const RelationSnapshot* rel = snap->edb().Find(v, 1);
    ASSERT_NE(rel, nullptr);
    ASSERT_GE(rel->version, last);
    last = rel->version;
  }
  writer.join();
  // A fast writer can finish before the loop's first capture; one final
  // snapshot observes its completed writes either way.
  Result<EngineSnapshot> snap = session.Snapshot();
  ASSERT_TRUE(snap.ok());
  const RelationSnapshot* rel = snap->edb().Find(v, 1);
  ASSERT_NE(rel, nullptr);
  ASSERT_GE(rel->version, last);
  EXPECT_GE(rel->version, 1u);
}

// --- Tracing under concurrency -------------------------------------------

TEST(ConcurrencyTest, ConcurrentTracedSessionsRecordPrivateTraces) {
  // N sessions trace queries in parallel while another thread hammers
  // DumpMetrics (whose pull callbacks read engine state under the shared
  // lock). Sinks are thread-local and rings are per-session, so TSan must
  // see no races and every session must end up with its own trace.
  Engine engine;
  constexpr int kFacts = 200;
  MutationBatch edges;
  for (int i = 0; i < kFacts; ++i) {
    edges.Insert(StrCat("edge(", i, ",", i + 1, ")"));
  }
  ASSERT_TRUE(engine.ApplyBatch(edges).ok());

  constexpr int kThreads = 6;
  constexpr int kQueries = 25;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread scraper([&engine, &done] {
    while (!done.load()) {
      std::string dump = engine.DumpMetrics();
      ASSERT_NE(dump.find("gluenail_queries_total"), std::string::npos);
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &failures, t] {
      Session session = engine.OpenSession();
      QueryOptions opts;
      opts.trace = true;
      // Each thread binds a different first column so traces differ.
      std::string goal =
          "edge(" + std::to_string(t) + ",Y) & edge(Y,Z)";
      for (int i = 0; i < kQueries; ++i) {
        Result<Engine::QueryResult> r = session.Query(goal, opts);
        if (!r.ok() || r->rows.size() != 1) {
          failures.fetch_add(1);
          return;
        }
      }
      std::shared_ptr<const QueryTrace> trace = session.last_trace();
      if (trace == nullptr || trace->query != goal ||
          trace->spans.empty()) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  done.store(true);
  scraper.join();

  EXPECT_EQ(failures.load(), 0);
  // Explicit session traces never leak into the engine-level ring.
  EXPECT_EQ(engine.last_trace(), nullptr);
  EXPECT_NE(engine.DumpMetrics().find("gluenail_queries_traced_total"),
            std::string::npos);
}

}  // namespace
}  // namespace gluenail
