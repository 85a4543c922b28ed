/// \file ivm_fault_test.cc
/// \brief Allocation-fault sweep through a DRed refresh (ctest -L
/// faultinject, ctest -L ivm): failing each arena allocation of a delta
/// refresh in turn must surface as ResourceExhausted or be absorbed by
/// the full-recompute fallback — never leave a wrong memo behind — and
/// the engine must go back to delta refreshes afterwards.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "src/api/engine.h"
#include "src/common/fault_injector.h"
#include "src/common/strings.h"

namespace gluenail {
namespace {

std::string Render(Engine* engine, const Result<Engine::QueryResult>& r) {
  if (!r.ok()) return StrCat("<", r.status().ToString(), ">");
  std::string out;
  for (const Tuple& row : r->rows) {
    for (TermId id : row) {
      out += engine->terms().ToString(id);
      out += ',';
    }
    out += ';';
  }
  return out;
}

MutationBatch Batch(std::initializer_list<std::string> inserts,
                    std::initializer_list<std::string> erases = {}) {
  MutationBatch b;
  for (const std::string& f : inserts) b.Insert(f);
  for (const std::string& f : erases) b.Erase(f);
  return b;
}

struct SweepCase {
  const char* name;
  const char* program;
  MutationBatch init;
  MutationBatch mixed;  ///< the batch whose refresh the sweep fails
  MutationBatch later;  ///< must refresh incrementally after the sweep
  const char* goal;
};

std::vector<SweepCase> SweepCases() {
  return {
      {"Tc", R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
end
)",
       Batch({"edge(1,2)", "edge(2,3)", "edge(3,1)", "edge(3,4)", "edge(4,5)",
              "edge(6,7)"}),
       Batch({"edge(5,6)", "edge(7,1)"}, {"edge(3,1)", "edge(4,5)"}),
       Batch({"edge(4,5)"}, {"edge(7,1)"}), "path(X, Y)"},
      {"SameGeneration", R"(
module kb;
edb par(X,Y);
sg(X,Y) :- par(X,P) & par(Y,P).
sg(X,Y) :- par(X,XP) & sg(XP,YP) & par(Y,YP).
end
)",
       Batch({"par(b,a)", "par(c,a)", "par(d,b)", "par(e,b)", "par(f,c)",
              "par(g,f)"}),
       Batch({"par(h,c)", "par(i,h)"}, {"par(e,b)", "par(f,c)"}),
       Batch({"par(f,c)"}, {"par(i,h)"}), "sg(X, Y)"},
  };
}

class IvmFaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Disarm(); }
  void TearDown() override { FaultInjector::Instance().Disarm(); }
};

TEST_F(IvmFaultSweepTest, AllocFailuresDuringDredRefresh) {
  for (const SweepCase& c : SweepCases()) {
    SCOPED_TRACE(c.name);
    int absorbed = 0;  // faults the incremental path fell back from
    for (uint64_t n = 1;; ++n) {
      ASSERT_LT(n, 5000u) << "the sweep never ran out of allocations";
      SCOPED_TRACE(StrCat("n=", n));
      EngineOptions ivm_opts;
      ivm_opts.ivm_mode = IvmMode::kForce;
      EngineOptions off_opts;
      off_opts.ivm_mode = IvmMode::kOff;
      Engine ivm(ivm_opts);
      Engine oracle(off_opts);
      for (Engine* e : {&ivm, &oracle}) {
        ASSERT_TRUE(e->LoadProgram(c.program).ok());
        ASSERT_TRUE(e->ApplyBatch(c.init).ok());
        ASSERT_TRUE(e->Query(c.goal).ok());
        ASSERT_TRUE(e->ApplyBatch(c.mixed).ok());
      }
      const std::string expected = Render(&oracle, oracle.Query(c.goal));

      FaultInjector::Instance().ArmNth(FaultOp::kAlloc, n);
      Result<Engine::QueryResult> r = ivm.Query(c.goal);
      const bool fired = FaultInjector::Instance().injected(FaultOp::kAlloc) > 0;
      FaultInjector::Instance().Disarm();
      if (r.ok()) {
        EXPECT_EQ(Render(&ivm, r), expected);
        NailRefreshInfo info = ivm.nail_engine()->last_refresh();
        if (fired && info.fallback == "error") ++absorbed;
      } else {
        EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
      }
      EXPECT_EQ(Render(&ivm, ivm.Query(c.goal)), expected);

      for (Engine* e : {&ivm, &oracle}) {
        ASSERT_TRUE(e->ApplyBatch(c.later).ok());
      }
      EXPECT_EQ(Render(&ivm, ivm.Query(c.goal)),
                Render(&oracle, oracle.Query(c.goal)));
      EXPECT_TRUE(ivm.nail_engine()->last_refresh().incremental);
      if (HasFailure() || !fired) break;
    }
    // The sweep really went through the delta path: some fault landed in
    // it and was absorbed by the full-recompute fallback.
    EXPECT_GT(absorbed, 0);
  }
}

}  // namespace
}  // namespace gluenail
