/// deductive_batch: the recursive battery of Brass & Stephan's benchmark
/// experiences paper plus two Glue statements, in-process, one caller, a
/// fresh Engine per program. NAIL! fixpoints, exec joins and storage dedup
/// do nearly all the work; the server, WAL, delta log and codec do none.
///
/// A request is one program: load its module and EDB (set-up), then one
/// evaluation request (timed), then untimed answer checks. A run is a fixed
/// number of whole passes over the six programs.

#include <algorithm>
#include <cmath>
#include <functional>

#include "bench/workloads/generators.h"
#include "bench/workloads/workloads.h"
#include "src/api/session.h"
#include "src/common/strings.h"
#include "src/parser/parser.h"

namespace gluenail {
namespace workloads {
namespace {

struct Sizes {
  int cycle_n;
  int complete_n;
  int tree_depth;
  int64_t neg_nodes;
  int64_t neg_edges;
  int64_t neg_sources;
  int64_t join_rows;
  int64_t agg_rows;
  int64_t agg_groups;
};
// Sized so one pass takes about 2 s on one core: C_180 (32,400 path
// tuples over 180 iterations), K_45 (2,025 tuples, 91,125 derivations),
// depth-7 tree (21,845 sg tuples), 2.25e5 random edges over 1.5e5 nodes,
// 4 x 1e5 join rows, 2e5 aggregated rows.
constexpr Sizes kFull = {180, 45, 7, 150000, 225000, 64, 100000, 200000, 1000};
constexpr Sizes kTiny = {12, 6, 3, 400, 600, 4, 300, 1000, 10};

/// A run does a fixed number of passes, one per this many seconds of
/// --seconds, so every run takes the same number of samples whatever the
/// machine's speed. A pass with its set-up and checks takes about 6 s of
/// wall time on a 4-vCPU VM.
constexpr double kSecondsPerPass = 3;

int PassesFor(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kSecondsPerPass)));
}

constexpr std::string_view kTcRules =
    "path(X,Y) :- edge(X,Y).\n"
    "path(X,Z) :- path(X,Y) & edge(Y,Z).\n";

struct Program {
  std::string name;
  /// The per-layer metric carrying this program's evaluation time.
  std::string time_metric;
  std::string module;
  Command load_edb;
  uint64_t facts = 0;
  /// The timed request.
  Command request;
  /// Tuples the evaluation derives (the program's answer relation).
  uint64_t derived = 0;
  /// Checks the evaluation's answers, issuing untimed requests as needed.
  std::function<bool(Engine&, Session&, const Response&, Report*)> check;
};

Program NewProgram(std::string name, std::string time_metric,
                   std::string module) {
  Program p;
  p.name = std::move(name);
  p.time_metric = std::move(time_metric);
  p.module = std::move(module);
  return p;
}

bool ExpectRows(const Rows& got, const Rows& want, const std::string& what,
                Report* report) {
  if (got == want) return true;
  report->Fail(StrCat(what, ": ", got.size(), " rows, expected ", want.size()));
  return false;
}

/// Checks |atom| == want with a Glue count aggregate over its tuples.
bool ExpectCount(Engine& engine, Session& session, std::string_view atom,
                 uint64_t want, Report* report) {
  Response st = session.Execute(Command::MutateStatement(
      StrCat("bench_count(N) := ", atom, " & N = count(1).")));
  Response r = session.Execute(Command::Query("bench_count(N)"));
  Rows got = r.ok() ? IntRows(r.rows, engine.terms()) : Rows{};
  Rows expect = {{static_cast<int64_t>(want)}};
  if (!st.ok()) report->Fail(StrCat("count ", atom, ": ", st.status.ToString()));
  return st.ok() && ExpectRows(got, expect, StrCat("count of ", atom), report);
}

Rows Column(const std::vector<int64_t>& values) {
  Rows out;
  for (int64_t v : values) out.push_back({v});
  return out;
}

Command BatchOf(const std::function<void(MutationBatch*)>& fill,
                uint64_t* facts) {
  MutationBatch b;
  fill(&b);
  *facts = b.size();
  return Command::MutateBatch(std::move(b));
}

std::vector<Program> MakeBattery(const Sizes& z, uint64_t seed) {
  std::vector<Program> out;
  const std::string tc_module =
      StrCat("module kb;\nedb edge(X,Y);\n", kTcRules, "end\n");

  {  // Transitive closure over the cycle C_n.
    Program p = NewProgram("tc_cycle", "nail.tc_cycle_s", tc_module);
    p.load_edb = BatchOf(
        [&](MutationBatch* b) { AddFacts("edge", CycleEdges(z.cycle_n), b); },
        &p.facts);
    p.request = Command::Query("path(0,Y)");
    p.derived = CycleClosureSize(z.cycle_n);
    const int n = z.cycle_n;
    p.check = [n](Engine& e, Session& s, const Response& r, Report* rep) {
      std::vector<int64_t> all;
      for (int i = 0; i < n; ++i) all.push_back(i);
      return ExpectRows(IntRows(r.rows, e.terms()), Column(all), "tc_cycle",
                        rep) &&
             ExpectCount(e, s, "path(X,Y)", CycleClosureSize(n), rep);
    };
    out.push_back(std::move(p));
  }
  {  // Transitive closure over the complete graph K_n.
    Program p = NewProgram("tc_complete", "nail.tc_complete_s", tc_module);
    p.load_edb = BatchOf(
        [&](MutationBatch* b) {
          AddFacts("edge", CompleteEdges(z.complete_n), b);
        },
        &p.facts);
    p.request = Command::Query("path(0,Y)");
    p.derived = CompleteClosureSize(z.complete_n);
    const int n = z.complete_n;
    p.check = [n](Engine& e, Session& s, const Response& r, Report* rep) {
      std::vector<int64_t> all;
      for (int i = 0; i < n; ++i) all.push_back(i);
      return ExpectRows(IntRows(r.rows, e.terms()), Column(all), "tc_complete",
                        rep) &&
             ExpectCount(e, s, "path(X,Y)", CompleteClosureSize(n), rep);
    };
    out.push_back(std::move(p));
  }
  {  // Same-generation over a full binary tree.
    Program p = NewProgram("sg_tree", "nail.sg_tree_s",
                           "module kb;\nedb node(X), par(X,Y);\n"
                           "sg(X,X) :- node(X).\n"
                           "sg(X,Y) :- par(X,XP) & sg(XP,YP) & par(Y,YP).\nend\n");
    const int depth = z.tree_depth;
    p.load_edb = BatchOf(
        [&](MutationBatch* b) {
          for (int64_t v = 0; v < TreeNodes(depth); ++v) {
            b->Insert(StrCat("node(", v, ")"));
          }
          AddFacts("par", TreeParentEdges(depth), b);
        },
        &p.facts);
    const int64_t leaf = TreeNodes(depth) - 1;
    p.request = Command::Query(StrCat("sg(", leaf, ",Y)"));
    p.derived = SameGenerationSize(depth);
    p.check = [depth, leaf](Engine& e, Session& s, const Response& r,
                            Report* rep) {
      return ExpectRows(IntRows(r.rows, e.terms()),
                        Column(SameGenerationOf(leaf)), "sg_tree", rep) &&
             ExpectCount(e, s, "sg(X,Y)", SameGenerationSize(depth), rep);
    };
    out.push_back(std::move(p));
  }
  {  // Stratified negation: the complement of a reachability closure.
    Program p = NewProgram("neg_reach", "nail.neg_reach_s",
                           "module kb;\nedb node(X), edge(X,Y), source(X);\n"
                           "reach(X) :- source(X).\n"
                           "reach(Y) :- reach(X) & edge(X,Y).\n"
                           "unreach(X) :- node(X) & !reach(X).\nend\n");
    std::mt19937_64 rng = Rng(seed, 1);
    std::vector<Edge> edges = RandomEdges(z.neg_nodes, z.neg_edges, rng);
    // Many sources, so every seed reaches the giant out-component and the
    // work does not swing with the seed.
    std::vector<int64_t> sources = RandomNodes(z.neg_nodes, z.neg_sources, rng);
    p.load_edb = BatchOf(
        [&](MutationBatch* b) {
          for (int64_t v = 0; v < z.neg_nodes; ++v) {
            b->Insert(StrCat("node(", v, ")"));
          }
          AddFacts("edge", edges, b);
          for (int64_t s : sources) b->Insert(StrCat("source(", s, ")"));
        },
        &p.facts);
    p.request = Command::Query("unreach(X)");
    p.derived = static_cast<uint64_t>(z.neg_nodes);  // reach + unreach
    Rows want = Column(Unreachable(z.neg_nodes, edges, sources));
    p.check = [want](Engine& e, Session&, const Response& r, Report* rep) {
      return ExpectRows(IntRows(r.rows, e.terms()), want, "neg_reach", rep);
    };
    out.push_back(std::move(p));
  }
  {  // A 4-way Glue join.
    Program p = NewProgram("join_ladder", "exec.join_ladder_s",
                           "module kb;\nedb r1(A,B), r2(A,B), r3(A,B), r4(A,B), "
                           "out(A,B);\nend\n");
    std::mt19937_64 rng = Rng(seed, 2);
    JoinLadder ladder = MakeJoinLadder(z.join_rows, rng);
    p.load_edb = BatchOf(
        [&](MutationBatch* b) {
          for (int r = 0; r < 4; ++r) {
            const std::vector<int64_t>& perm = ladder.perm[static_cast<size_t>(r)];
            for (size_t a = 0; a < perm.size(); ++a) {
              b->Insert(StrCat("r", r + 1, "(", a, ",", perm[a], ")"));
            }
          }
        },
        &p.facts);
    p.request = Command::MutateStatement(
        "out(A,E) := r1(A,B) & r2(B,C) & r3(C,D) & r4(D,E).");
    p.derived = static_cast<uint64_t>(z.join_rows);
    Rows want;
    for (int64_t a = 0; a < z.join_rows; ++a) want.push_back({a, ladder.Out(a)});
    p.check = [want](Engine& e, Session& s, const Response&, Report* rep) {
      Response r = s.Execute(Command::Query("out(A,E)"));
      return ExpectRows(IntRows(r.rows, e.terms()), want, "join_ladder", rep);
    };
    out.push_back(std::move(p));
  }
  {  // group_by + sum.
    Program p = NewProgram("group_agg", "runtime.group_agg_s",
                           "module kb;\nedb sale(I,G,V), total(G,S);\nend\n");
    std::mt19937_64 rng = Rng(seed, 3);
    Sales sales = MakeSales(z.agg_rows, z.agg_groups, rng);
    p.load_edb = BatchOf(
        [&](MutationBatch* b) {
          for (const auto& row : sales.rows) {
            b->Insert(StrCat("sale(", row[0], ",", row[1], ",", row[2], ")"));
          }
        },
        &p.facts);
    p.request = Command::MutateStatement(
        "total(G,S) := sale(I,G,V) & group_by(G) & S = sum(V).");
    Rows want;
    std::vector<bool> present(static_cast<size_t>(z.agg_groups), false);
    for (const auto& row : sales.rows) present[static_cast<size_t>(row[1])] = true;
    for (int64_t g = 0; g < z.agg_groups; ++g) {
      if (present[static_cast<size_t>(g)]) {
        want.push_back({g, sales.group_sums[static_cast<size_t>(g)]});
      }
    }
    p.derived = want.size();
    p.check = [want](Engine& e, Session& s, const Response&, Report* rep) {
      Response r = s.Execute(Command::Query("total(G,S)"));
      return ExpectRows(IntRows(r.rows, e.terms()), want, "group_agg", rep);
    };
    out.push_back(std::move(p));
  }
  return out;
}

/// What one program's run measured: its set-up in two parts (the engine,
/// then program and EDB) and its evaluation.
struct ProgramRun {
  Interval create;
  Interval load;
  Interval eval;
};

struct PhaseResult {
  /// passes[i][j]: program j in pass i.
  std::vector<std::vector<ProgramRun>> passes;
  Calibration calibration;
  CounterDelta counters;
  double arena_bytes = 0;
  double live_tuples = 0;
  uint64_t derived = 0;
  uint64_t facts = 0;
  uint64_t requests = 0;

  double SetupS(const ProgramRun& run) const {
    return calibration.Scaled(run.create) + calibration.Scaled(run.load);
  }
  double EvalS(const ProgramRun& run) const {
    return calibration.Scaled(run.eval);
  }
};

/// Runs \p passes whole passes over the battery, with calibration probes
/// before each set-up and before and after each evaluation. With \p log,
/// records a span around every call.
PhaseResult RunPhase(const std::vector<Program>& battery, int passes,
                     SpanLog* log, Report* report) {
  PhaseResult out;
  Calibration& calibration = out.calibration;
  uint64_t attempted = 0, failed = 0;
  for (int i = 0; i < passes; ++i) {
    std::vector<ProgramRun> pass;
    for (const Program& p : battery) {
      const uint64_t request_id = attempted;
      Command load_edb = p.load_edb;  // copied outside the timed calls
      calibration.Probe();
      calibration.Probe();
      Stopwatch create_clock;
      Engine engine;
      Session session = engine.OpenSession();
      const Interval create = create_clock.Stop();
      EngineCounters before = EngineCounters::Take(engine);
      Stopwatch load_clock;
      MustOk(session.Execute(Command::LoadProgramText(p.module)).status,
             p.name + " program");
      Clock::time_point program_loaded = Clock::now();
      MustOk(session.Execute(load_edb).status, p.name + " EDB");
      const Interval load = load_clock.Stop();
      calibration.Probe();
      calibration.Probe();
      Stopwatch eval_clock;
      Response r = session.Execute(p.request);
      const Interval eval = eval_clock.Stop();
      calibration.Probe();
      calibration.Probe();
      ++attempted;
      const uint64_t checks_before = report->checks_failed();
      if (!r.ok()) {
        report->Fail(StrCat(p.name, ": ", r.status.ToString()));
      } else {
        EngineCounters after = EngineCounters::Take(engine);
        out.counters.Add(before, after);
        out.arena_bytes += after.Value("gluenail_storage_arena_bytes");
        out.live_tuples += after.Value("gluenail_storage_live_tuples");
        p.check(engine, session, r, report);
      }
      if (report->checks_failed() != checks_before) ++failed;
      if (log != nullptr) {
        int32_t root = log->Open(p.name, create.start, -1, request_id);
        log->Add("engine.create", create.start, create.end, root, request_id);
        log->Add("api.load_program", load.start, program_loaded, root,
                 request_id);
        log->Add("api.load_edb", program_loaded, load.end, root, request_id);
        log->Add("api.evaluate", eval.start, eval.end, root, request_id);
        Clock::time_point checked = Clock::now();
        log->Add("bench.check", eval.end, checked, root, request_id);
        log->Close(root, checked);
      }
      pass.push_back({create, load, eval});
      out.derived += p.derived;
      out.facts += p.facts;
      out.requests += 3;
    }
    out.passes.push_back(std::move(pass));
  }
  report->AddAttempts(attempted, failed);
  return out;
}

/// Per-pass sums of \p time over the battery: a pass answers the whole
/// battery.
std::vector<double> PassSums(
    const PhaseResult& phase,
    const std::function<double(const ProgramRun&)>& time) {
  std::vector<double> sums;
  for (const auto& pass : phase.passes) {
    double sum = 0;
    for (const ProgramRun& run : pass) sum += time(run);
    sums.push_back(sum);
  }
  return sums;
}

/// Program \p j's calibrated evaluation time in every pass.
std::vector<double> ProgramEvals(const PhaseResult& phase, size_t j) {
  std::vector<double> evals;
  for (const auto& pass : phase.passes) evals.push_back(phase.EvalS(pass[j]));
  return evals;
}

double Nanos(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}

/// Phase B: one pass with every layer's share timed. Loading a program is
/// split by a separate ParseProgram (parser) from the rest of LoadProgram
/// (compile, charged to plan); loading the EDB by a separate Validate
/// (parser) from the apply (storage); the evaluation by the engine's own
/// query:*, stmt:* and nail:* spans.
void Replay(const std::vector<Program>& battery, LayerTimes* times,
            SpanLog* log) {
  uint64_t id = 0;
  for (const Program& p : battery) {
    Engine engine;
    Session session = engine.OpenSession();

    Clock::time_point t0 = Clock::now();
    MustOk(ParseProgram(p.module).status(), p.name + " parse");
    const double parse_ns = Nanos(Clock::now() - t0);
    {
      ReplayRequest req(times, log, id++, "load_program");
      double load_ns = req.Time(Layer::kPlan, "api.load_program", [&] {
        MustOk(session.Execute(Command::LoadProgramText(p.module)).status,
               p.name + " program");
      });
      req.Reassign(Layer::kPlan, Layer::kParser, parse_ns);
      times->Note("plan.compile", std::max(0.0, load_ns - parse_ns));
    }

    Command load_edb = p.load_edb;
    TermPool scratch;
    t0 = Clock::now();
    MustOk(load_edb.batch.Validate(&scratch), p.name + " validate");
    const double validate_ns = Nanos(Clock::now() - t0);
    times->Note("parser.validate", validate_ns);
    {
      ReplayRequest req(times, log, id++, "load_edb");
      req.Time(Layer::kStorage, "api.mutate", [&] {
        MustOk(session.Execute(load_edb).status, p.name + " EDB");
      });
      req.Reassign(Layer::kStorage, Layer::kParser, validate_ns);
    }

    Command request = p.request;
    request.options.trace = true;
    const bool is_query = request.kind == CommandKind::kQuery;
    {
      ReplayRequest req(times, log, id++, "evaluate");
      req.TimeTraced(
          Layer::kApi, is_query ? "api.read" : "api.statement",
          [&] { MustOk(session.Execute(request).status, p.name + " eval"); },
          [&] { return is_query ? session.last_trace() : engine.last_trace(); });
    }
  }
}

}  // namespace

void RunDeductiveBatch(const RunConfig& config, Report* report) {
  const Sizes& z = config.tiny ? kTiny : kFull;
  std::vector<Program> battery = MakeBattery(z, config.seed);
  report->Context("sizes",
                  StrCat("cycle_n=", z.cycle_n, " complete_n=", z.complete_n,
                         " tree_depth=", z.tree_depth, " neg_nodes=",
                         z.neg_nodes, " neg_edges=", z.neg_edges,
                         " join_rows=", z.join_rows, " agg_rows=", z.agg_rows));

  if (!config.trace) {
    PhaseResult phase =
        RunPhase(battery, PassesFor(config.seconds), nullptr, report);
    const double peak_rss = PeakRssMb();
    // The request a user waits on is the whole battery: latency is the
    // pass's evaluation time, so every program weighs by its own cost.
    auto eval = [&phase](const ProgramRun& run) { return phase.EvalS(run); };
    std::vector<double> eval_s = PassSums(phase, eval);
    std::vector<double> eval_us;
    for (double s : eval_s) eval_us.push_back(s * 1e6);
    report->Set("setup_s", Median(PassSums(phase, [&phase](const ProgramRun& run) {
                  return phase.SetupS(run);
                })));
    report->Set("cpu_latency_p50_us", Percentile(eval_us, 50));
    report->Set("cpu_latency_p95_us", Percentile(eval_us, 95));
    report->Set("cpu_throughput_per_s",
                static_cast<double>(phase.derived) / Sum(eval_s));
    report->Set("peak_rss_mb", peak_rss);
    report->Detail("passes", static_cast<double>(eval_s.size()), "count");
    report->Detail("eval_raw_cpu_s", Median(PassSums(phase, [](const ProgramRun& run) {
                     return run.eval.cpu_s;
                   })), "s");
    report->Detail("eval_wall_s", Median(PassSums(phase, [](const ProgramRun& run) {
                     return run.eval.wall_s();
                   })), "s");
    report->Detail("calibration_us", phase.calibration.median_us(), "us");
    for (size_t j = 0; j < battery.size(); ++j) {
      report->Detail(battery[j].name + "_s", Median(ProgramEvals(phase, j)), "s");
    }
    return;
  }

  // Phase 0 (untraced) and phase A (bench spans) split the window with the
  // replay; their difference is the tracing overhead.
  const Clock::time_point epoch = Clock::now();
  const int passes = PassesFor(config.seconds / 3);
  PhaseResult plain = RunPhase(battery, passes, nullptr, report);
  SpanLog log_a(1, epoch);
  PhaseResult traced = RunPhase(battery, passes, &log_a, report);
  LayerTimes times;
  SpanLog log_b(2, epoch);
  Replay(battery, &times, &log_b);

  SetLayerMetrics(times, report);
  SetCounterMetrics(traced.counters, static_cast<double>(traced.derived),
                    static_cast<double>(traced.facts), 0,
                    static_cast<double>(traced.requests), report);
  report->Set("storage.bytes_per_tuple",
              traced.live_tuples > 0 ? traced.arena_bytes / traced.live_tuples : 0);
  // The replay is one pass: its sums are per pass.
  report->Set("plan.compile_s", times.Sum("plan.compile") / 1e9);
  report->Set("storage.edb_load_s", times.Sum("api.mutate") / 1e9);
  for (size_t j = 0; j < battery.size(); ++j) {
    report->Set(battery[j].time_metric, Median(ProgramEvals(traced, j)));
  }
  std::vector<double> eval_s = PassSums(
      traced, [&traced](const ProgramRun& run) { return traced.EvalS(run); });
  report->Set("nail.derived_per_s",
              static_cast<double>(traced.derived) / Sum(eval_s));
  const double plain_eval_s = Median(PassSums(
      plain, [&plain](const ProgramRun& run) { return plain.EvalS(run); }));
  report->Set("obs.trace_overhead_frac", Median(eval_s) / plain_eval_s - 1);
  std::string trace_path = config.work_dir + "/trace-deductive_batch.json";
  if (WriteChromeTrace(trace_path, {&log_a, &log_b})) {
    report->Context("chrome_trace", trace_path);
  }
}

}  // namespace workloads
}  // namespace gluenail
