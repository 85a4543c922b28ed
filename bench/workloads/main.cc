/// bench_workloads: runs one workload of the end-to-end benchmark and
/// prints its metrics.
///
///   bench_workloads --workload W --seed S --seconds N --trace 0|1
///                   [--tiny] [--work DIR] [--out FILE] [--commit ID]
///
/// Every metric is printed as `name value unit`, then the last line of
/// standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// holding the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). The same object, with the run's context, is written to the
/// result file. Exit status: 0 when every answer checked out, 1 when one
/// did not, 2 on bad arguments or a failed set-up (no result printed).

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench/workloads/workloads.h"
#include "src/common/strings.h"

namespace gluenail {
namespace workloads {
namespace {

[[noreturn]] void Usage(const std::string& error) {
  fprintf(stderr,
          "bench_workloads: %s\n"
          "usage: bench_workloads --workload "
          "deductive_batch|served_reads|write_ivm --seed S --seconds N "
          "--trace 0|1 [--tiny] [--work DIR] [--out FILE] [--commit ID]\n",
          error.c_str());
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Report::Entry>& entries) {
  std::string out = "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Report::Entry& e = entries[i];
    out += StrCat(i ? ", " : "", JsonString(e.name), ": {\"value\": ",
                  JsonNumber(e.value), ", \"unit\": ", JsonString(e.unit), "}");
  }
  return out + "}";
}

/// Confines the process to the last CPU it may run on, before it starts
/// any thread, so every thread it starts inherits that one CPU. A request
/// then hands over from client to server worker (and commit pump) on one
/// CPU: on a VM a wake-up on another CPU is an inter-processor interrupt,
/// whose cost depends on how busy the host is and, unpinned, was half the
/// CPU time of a served read. Returns the CPU, or -1 if pinning failed.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? last : -1;
}

void MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      std::string prefix = path.substr(0, i);
      if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        Usage(StrCat("cannot create ", prefix, ": ", strerror(errno)));
      }
    }
  }
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string out_path, commit = "unknown", trace_arg;
  bool have_seed = false, have_seconds = false;
  std::string work_root = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    auto next = [&]() -> std::string {
      if (eq != std::string::npos) return value;
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = next();
    } else if (arg == "--seed") {
      config.seed = std::stoull(next());
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::stod(next());
      have_seconds = true;
    } else if (arg == "--trace") {
      trace_arg = next();
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--work") {
      work_root = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--commit") {
      commit = next();
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (trace_arg != "0" && trace_arg != "1") Usage("--trace must be 0 or 1");
  config.trace = trace_arg == "1";
  if (!have_seed || !have_seconds || !(config.seconds > 0)) {
    Usage("--seed and a positive --seconds are required");
  }
  void (*run)(const RunConfig&, Report*) = nullptr;
  if (config.workload == "deductive_batch") run = RunDeductiveBatch;
  if (config.workload == "served_reads") run = RunServedReads;
  if (config.workload == "write_ivm") run = RunWriteIvm;
  if (run == nullptr) Usage("unknown workload '" + config.workload + "'");

  config.work_dir = StrCat(work_root, "/", config.workload, "-", getpid());
  MakeDirs(config.work_dir);
  if (out_path.empty()) {
    out_path = StrCat(work_root, "/results/", config.workload, "-seed",
                      config.seed, "-trace", trace_arg, ".json");
    MakeDirs(work_root + "/results");
  }

  const int cpu = PinToOneCpu();
  Report report(config.trace);
  report.Context("workload", config.workload);
  report.Context("seed", std::to_string(config.seed));
  report.Context("seconds", JsonNumber(config.seconds));
  report.Context("trace", trace_arg);
  report.Context("scale", config.tiny ? "tiny" : "full");
  report.Context("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Context("pinned_cpu", cpu >= 0 ? std::to_string(cpu) : "none");
  report.Context("build_type", WORKLOADS_BUILD_TYPE);
  report.Context("compiler", WORKLOADS_COMPILER);
  report.Context("commit", commit);
  // What a workload that runs differently overrides.
  report.Context("engine_options", "defaults");
  report.Context("flush_policy", "none (no WAL)");
  report.Context("data_dir_fs", "none (no data directory)");
  report.Context("timing",
                 "process CPU time (CLOCK_PROCESS_CPUTIME_ID) scaled by the "
                 "calibration routine to a reference speed; wall and raw CPU "
                 "times are details");
  run(config, &report);
  rmdir(config.work_dir.c_str());  // empty unless a trace was written there

  bool complete = true;
  for (const Report::Entry& e : report.metrics()) {
    if (!e.set || !std::isfinite(e.value) || (!config.trace && e.value <= 0)) {
      fprintf(stderr, "bench_workloads: metric %s was not measured (%g)\n",
              e.name.c_str(), e.value);
      complete = false;
    }
  }
  if (!complete) return 2;
  if (report.attempted() == 0) Usage("the workload attempted nothing");

  for (const auto* list : {&report.metrics(), &report.details()}) {
    for (const Report::Entry& e : *list) {
      printf("%s %s %s\n", e.name.c_str(), JsonNumber(e.value).c_str(),
             e.unit.c_str());
    }
  }
  const double failed_frac = static_cast<double>(report.failed()) /
                             static_cast<double>(report.attempted());
  printf("failed_frac %s ratio\n", JsonNumber(failed_frac).c_str());
  std::string result =
      StrCat("{\"correct\": ", report.correct() ? "true" : "false",
             ", \"attempted\": ", report.attempted(),
             ", \"failed\": ", report.failed(),
             ", \"metrics\": ", MetricsJson(report.metrics()), "}");

  std::string context = "{";
  for (size_t i = 0; i < report.context().size(); ++i) {
    const auto& [k, v] = report.context()[i];
    context += StrCat(i ? ", " : "", JsonString(k), ": ", JsonString(v));
  }
  context += "}";
  FILE* f = fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    fprintf(f, "{\"result\": %s,\n \"details\": %s,\n \"context\": %s}\n",
            result.c_str(), MetricsJson(report.details()).c_str(),
            context.c_str());
    fclose(f);
  } else {
    fprintf(stderr, "bench_workloads: cannot write %s\n", out_path.c_str());
  }
  printf("%s\n", result.c_str());
  fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace workloads
}  // namespace gluenail

int main(int argc, char** argv) { return gluenail::workloads::Main(argc, argv); }
