/// \file options.h
/// \brief Engine-wide configuration knobs.
///
/// Every paper-relevant design choice is switchable so the benchmarks can
/// ablate it: execution strategy and early duplicate elimination (§9),
/// subgoal reordering (§3.1), NAIL! evaluation mode (§1/§10), and the
/// back-end index policy (§10).

#ifndef GLUENAIL_API_OPTIONS_H_
#define GLUENAIL_API_OPTIONS_H_

#include <chrono>
#include <cstddef>
#include <string>

#include "src/exec/executor.h"
#include "src/nail/seminaive.h"
#include "src/plan/planner.h"
#include "src/storage/adaptive.h"
#include "src/storage/persistence.h"
#include "src/storage/wal.h"

namespace gluenail {

struct EngineOptions {
  ExecOptions exec;
  PlannerOptions planner;
  /// How NAIL! predicates are evaluated. kDirect drives the per-SCC plans
  /// from C++ and is the only runtime path the engine needs; kCompiledGlue
  /// (§1: compilation into generated Glue procedures) is the E10 artifact
  /// and kNaive the E5 baseline, both selected only on request.
  NailMode nail_mode = NailMode::kDirect;
  /// Back-end index policy for newly created relations (§10).
  IndexPolicy index_policy = IndexPolicy::kAdaptive;

  // --- Incremental view maintenance (src/nail/ivm.cc,
  // docs/ARCHITECTURE.md "Incremental view maintenance") ------------------
  /// How stale NAIL! memos are refreshed. kAuto (the default) patches the
  /// memo from the EDB change journal's net deltas — DRed over every
  /// affected SCC — when the deltas are small; anything else (an
  /// overflowed capture, a negated relation that changed, Recover or a
  /// program reload) falls back to the full recompute. kOff restores the old
  /// always-recompute behavior; kForce skips the delta-size guard
  /// (tests/benches).
  IvmMode ivm_mode = IvmMode::kAuto;
  /// Per-relation cap on captured delta rows. An overflowing capture is
  /// dropped (bounded memory) and forces the next refresh to recompute.
  uint64_t ivm_max_delta_rows = 1u << 20;

  // --- Observability (src/obs/, docs/ARCHITECTURE.md "Observability") ----
  /// Queries and statements slower than this are captured in the engine's
  /// slow-query log (text, chosen plan with est vs. actual rows, replan
  /// count, top-3 spans). Zero (the default) disarms the log; while armed,
  /// every query is traced so slow ones have a trace to mine.
  std::chrono::nanoseconds slow_query_threshold{0};
  /// Finished traces kept per ring (the engine has one ring; each session
  /// has its own). Oldest evicted first.
  size_t trace_ring_capacity = 16;

  // --- Durability (src/storage/wal.h, docs/ARCHITECTURE.md "Failure
  // model & recovery") ----------------------------------------------------
  /// Directory holding the engine's durable state: `checkpoint.facts`
  /// (atomic EDB image) and `wal.log` (MutationBatch records appended
  /// since), owned by a DataDir (storage/recovery.h). Empty (the default)
  /// disables the WAL entirely. When set and durability > kNone,
  /// Engine::Recover() rebuilds from it and is the only call that opens
  /// the log; after it, every batch applied through Session::Execute /
  /// Engine::ApplyBatch is logged before it touches memory, and before it
  /// ApplyBatch, Checkpoint and LoadEdbFile refuse.
  std::string data_dir;
  /// What a mutation ack promises (see DurabilityLevel): nothing (kNone),
  /// logged-not-yet-synced (kAsync), per-batch fsync (kSync), or shared
  /// leader fsync (kGroupCommit).
  DurabilityLevel durability = DurabilityLevel::kNone;
  /// kAsync only: minimum spacing between the piggybacked background
  /// fsyncs that bound how much a crash can lose.
  std::chrono::microseconds wal_fsync_interval{500};
  /// kGroupCommit only: cap on how long the commit pump lingers collecting
  /// followers before issuing a group's fsync. The linger is an adaptive
  /// yield-spin that keeps extending only while new appends keep arriving,
  /// so a solo writer stops after one empty grace slice and a full writer
  /// pool is collected into a single fsync; the cap only bounds the worst
  /// case. 0 disables it (pure absorption: the in-flight fsync is the
  /// only group window — smaller groups, slightly lower latency).
  std::chrono::microseconds wal_group_linger{50};
  /// How Engine::Recover() treats damage beyond a torn WAL tail: kStrict
  /// refuses, kSalvage keeps every record that checksums and rotates to a
  /// fresh log.
  RecoveryMode wal_recovery = RecoveryMode::kStrict;

  // --- Replication (src/server/replication.h, docs/ARCHITECTURE.md
  // "Replication") ---------------------------------------------------------
  /// Run as a read replica: client mutations are refused with
  /// kFailedPrecondition (apply them at the primary), and state arrives
  /// instead as WAL batches shipped from the primary, applied through
  /// Engine::ApplyReplicatedBatch — the same ApplyBatch/IVM path, so
  /// NAIL! memos stay incrementally fresh on replicas too.
  bool replica = false;
  /// Where the refusal points the client ("host:port"); advisory text
  /// only, set by --replicate-from.
  std::string primary_hint;
};

}  // namespace gluenail

#endif  // GLUENAIL_API_OPTIONS_H_
