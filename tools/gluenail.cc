/// \file gluenail.cc
/// \brief The gluenail command-line shell and server launcher.
///
/// Usage:
///   gluenail                          interactive shell
///   gluenail program.gn ...           load programs, then shell
///   gluenail --edb data.facts         preload the EDB
///   gluenail -e 'stmt.'               execute and exit (repeatable)
///   gluenail -q 'goal'                query and exit (repeatable)
///   gluenail --script file            run shell commands from a file
///   gluenail --serve PORT             serve the wire protocol on PORT
///   gluenail --admin-port PORT        also serve HTTP /metrics /slowlog
///   gluenail --max-connections N      admission-control the wire port
///   gluenail --data DIR               durable mode: recover from DIR's
///                                     checkpoint+WAL at boot, log every
///                                     mutation, checkpoint at shutdown
///   gluenail --durability LEVEL       none|async|sync|group (default:
///                                     group when --data is given)
///   gluenail --fsync-interval-us N    async-durability sync spacing in
///                                     microseconds
///   gluenail --group-linger-us N      extra group-commit linger before
///                                     the leader's fsync (default 0:
///                                     sync immediately, absorb late
///                                     committers into the next group)
///   gluenail --salvage                recover past mid-log WAL corruption
///   gluenail --replicate-from H:P     run as a read replica of the
///                                     primary at host H, port P: tail
///                                     its WAL, refuse mutations, serve
///                                     queries (requires --serve)
///
/// Everything the shell accepts is described under :help.
/// `--serve` runs until SIGINT/SIGTERM, then shuts down gracefully:
/// in-flight commands finish and their responses are written before the
/// process exits; with --data, a final checkpoint rotates the log.

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "src/api/engine.h"
#include "src/api/repl.h"
#include "src/server/replication.h"
#include "src/server/server.h"

namespace {

int Fail(const gluenail::Status& s) {
  std::cerr << "gluenail: " << s << "\n";
  return 1;
}

/// Self-pipe written by the signal handler; ServeForever blocks on it.
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  char byte = 1;
  // write(2) is async-signal-safe; a full pipe just means a signal is
  // already pending, which is all we need.
  ssize_t ignored = write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

int ServeForever(gluenail::Engine* engine, int port, int admin_port,
                 int max_connections, const std::string& primary_host,
                 int primary_port) {
  if (pipe(g_signal_pipe) != 0) {
    std::cerr << "gluenail: pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  gluenail::ServerOptions opts;
  opts.port = static_cast<uint16_t>(port);
  opts.admin_port = admin_port;
  opts.max_connections = max_connections;
  gluenail::Server server(engine, opts);
  gluenail::Status s = server.Start();
  if (!s.ok()) return Fail(s);

  gluenail::ReplicationClientOptions repl_opts;
  repl_opts.host = primary_host;
  repl_opts.port = static_cast<uint16_t>(primary_port);
  gluenail::ReplicationClient replication(engine, repl_opts);
  if (!primary_host.empty()) {
    gluenail::Status rs = replication.Start();
    if (!rs.ok()) return Fail(rs);
  }

  std::cout << "gluenail: serving on port " << server.port();
  if (admin_port >= 0) {
    std::cout << " (admin http on " << server.admin_port() << ")";
  }
  if (!primary_host.empty()) {
    std::cout << " as a replica of " << primary_host << ":" << primary_port;
  }
  std::cout << "\n";

  struct sigaction sa = {};
  sa.sa_handler = OnSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  // Block until a signal arrives (EINTR restarts the read).
  char byte;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  std::cout << "gluenail: shutting down (draining "
            << server.connections_live() << " connection(s))\n";
  replication.Stop();  // stop applying before the query surface drains
  server.Stop();
  std::cout << "gluenail: served " << server.commands_served()
            << " command(s) over " << server.connections_accepted()
            << " connection(s)\n";
  if (engine->wal_status().open) {
    // Final checkpoint: the next boot replays no log at all.
    gluenail::Status cp = engine->Checkpoint();
    if (!cp.ok()) return Fail(cp);
    std::cout << "gluenail: checkpointed\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Durability flags decide how the engine is *constructed*, so they are
  // pulled out in a pre-pass; the main pass then skips them.
  gluenail::EngineOptions eng_opts;
  bool durability_set = false;
  int max_connections = 0;
  std::string primary_host;
  int primary_port = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "gluenail: " << arg << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--data") {
      eng_opts.data_dir = next();
    } else if (arg == "--durability") {
      std::string level = next();
      durability_set = true;
      if (level == "none") {
        eng_opts.durability = gluenail::DurabilityLevel::kNone;
      } else if (level == "async") {
        eng_opts.durability = gluenail::DurabilityLevel::kAsync;
      } else if (level == "sync") {
        eng_opts.durability = gluenail::DurabilityLevel::kSync;
      } else if (level == "group") {
        eng_opts.durability = gluenail::DurabilityLevel::kGroupCommit;
      } else {
        std::cerr << "gluenail: --durability needs none|async|sync|group\n";
        return 2;
      }
    } else if (arg == "--fsync-interval-us") {
      eng_opts.wal_fsync_interval =
          std::chrono::microseconds(std::atoll(next()));
    } else if (arg == "--group-linger-us") {
      eng_opts.wal_group_linger =
          std::chrono::microseconds(std::atoll(next()));
    } else if (arg == "--salvage") {
      eng_opts.wal_recovery = gluenail::RecoveryMode::kSalvage;
    } else if (arg == "--max-connections") {
      max_connections = std::atoi(next());
    } else if (arg == "--replicate-from") {
      std::string target = next();
      size_t colon = target.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        std::cerr << "gluenail: --replicate-from needs HOST:PORT\n";
        return 2;
      }
      primary_host = target.substr(0, colon);
      primary_port = std::atoi(target.c_str() + colon + 1);
      if (primary_port <= 0 || primary_port > 65535) {
        std::cerr << "gluenail: --replicate-from needs a port in "
                     "[1, 65535]\n";
        return 2;
      }
      eng_opts.replica = true;
      eng_opts.primary_hint = target;
    } else if (arg == "--edb" || arg == "-e" || arg == "-q" ||
               arg == "--script" || arg == "--serve" ||
               arg == "--admin-port") {
      next();  // skip the flag's argument in this pass
    }
  }
  if (!eng_opts.data_dir.empty() && !durability_set) {
    eng_opts.durability = gluenail::DurabilityLevel::kGroupCommit;
  }
  if (eng_opts.data_dir.empty() &&
      eng_opts.durability != gluenail::DurabilityLevel::kNone) {
    std::cerr << "gluenail: --durability needs --data DIR\n";
    return 2;
  }
  if (eng_opts.replica && !eng_opts.data_dir.empty()) {
    // A replica's state comes from the primary's stream, not its own
    // log; mixing in local recovery would fork the two histories.
    std::cerr << "gluenail: --replicate-from cannot be combined with "
                 "--data\n";
    return 2;
  }

  gluenail::Engine engine(eng_opts);
  if (!eng_opts.data_dir.empty()) {
    auto recovered = engine.Recover();
    if (!recovered.ok()) return Fail(recovered.status());
    std::cout << "gluenail: " << recovered->Summary() << "\n";
  }

  bool ran_batch = false;
  int serve_port = -1;
  int admin_port = -1;
  std::vector<std::string> scripts;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "gluenail: " << arg << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--edb") {
      gluenail::Status s = engine.LoadEdbFile(next()).status();
      if (!s.ok()) return Fail(s);
    } else if (arg == "-e") {
      ran_batch = true;
      gluenail::Status s = engine.ExecuteStatement(next());
      if (!s.ok()) return Fail(s);
    } else if (arg == "-q") {
      ran_batch = true;
      auto r = engine.Query(next());
      if (!r.ok()) return Fail(r.status());
      for (const gluenail::Tuple& row : r->rows) {
        for (size_t c = 0; c < row.size(); ++c) {
          if (c != 0) std::cout << ", ";
          std::cout << r->vars[c] << " = "
                    << engine.terms().ToString(row[c]);
        }
        std::cout << "\n";
      }
    } else if (arg == "--script") {
      scripts.push_back(next());
    } else if (arg == "--serve") {
      serve_port = std::atoi(next());
      if (serve_port < 0 || serve_port > 65535) {
        std::cerr << "gluenail: --serve needs a port in [0, 65535]\n";
        return 2;
      }
    } else if (arg == "--admin-port") {
      admin_port = std::atoi(next());
      if (admin_port < 0 || admin_port > 65535) {
        std::cerr << "gluenail: --admin-port needs a port in [0, 65535]\n";
        return 2;
      }
    } else if (arg == "--data" || arg == "--durability" ||
               arg == "--fsync-interval-us" || arg == "--group-linger-us" ||
               arg == "--max-connections" || arg == "--replicate-from") {
      next();  // consumed by the pre-pass
    } else if (arg == "--salvage") {
      // consumed by the pre-pass
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: gluenail [program.gn ...] [--edb FILE] "
                   "[-e STMT] [-q GOAL] [--script FILE]\n"
                   "       gluenail --serve PORT [--admin-port PORT] "
                   "[--max-connections N] [program.gn ...] [--edb FILE]\n"
                   "       gluenail --data DIR [--durability "
                   "none|async|sync|group] [--fsync-interval-us N] "
                   "[--group-linger-us N] [--salvage] ...\n"
                   "       gluenail --serve PORT --replicate-from "
                   "HOST:PORT [program.gn ...]\n";
      return 0;
    } else {
      std::ifstream f(arg);
      if (!f.is_open()) {
        std::cerr << "gluenail: cannot open " << arg << "\n";
        return 1;
      }
      std::ostringstream text;
      text << f.rdbuf();
      gluenail::Status s = engine.LoadProgram(text.str());
      if (!s.ok()) return Fail(s);
      std::cout << "loaded " << arg << ": "
                << gluenail::FormatCompileStats(engine.compile_stats())
                << "\n";
    }
  }

  for (const std::string& path : scripts) {
    ran_batch = true;
    std::ifstream f(path);
    if (!f.is_open()) {
      std::cerr << "gluenail: cannot open " << path << "\n";
      return 1;
    }
    gluenail::ReplOptions opts;
    opts.prompt = false;
    gluenail::Repl repl(&engine, &f, &std::cout, opts);
    gluenail::Status s = repl.Run();
    if (!s.ok()) return Fail(s);
  }

  if (serve_port >= 0) {
    return ServeForever(&engine, serve_port, admin_port, max_connections,
                        primary_host, primary_port);
  }
  if (admin_port >= 0) {
    std::cerr << "gluenail: --admin-port requires --serve\n";
    return 2;
  }
  if (eng_opts.replica) {
    std::cerr << "gluenail: --replicate-from requires --serve\n";
    return 2;
  }

  if (ran_batch) return 0;

  std::cout << "Glue-Nail shell — :help for commands, :quit to leave\n";
  gluenail::Repl repl(&engine, &std::cin, &std::cout);
  gluenail::Status s = repl.Run();
  return s.ok() ? 0 : Fail(s);
}
