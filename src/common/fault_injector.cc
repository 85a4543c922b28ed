#include "src/common/fault_injector.h"

#include "src/common/strings.h"

namespace gluenail {

std::atomic<bool> FaultInjector::enabled_{false};

std::string_view FaultOpName(FaultOp op) {
  switch (op) {
    case FaultOp::kWrite:
      return "write";
    case FaultOp::kFsync:
      return "fsync";
    case FaultOp::kRename:
      return "rename";
    case FaultOp::kAlloc:
      return "alloc";
    case FaultOp::kTruncate:
      return "truncate";
    case FaultOp::kThreadStart:
      return "thread_start";
  }
  return "unknown";
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

void FaultInjector::ArmNth(FaultOp op, uint64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  int i = static_cast<int>(op);
  trigger_[i] = ops_[i] + (nth == 0 ? 1 : nth);
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ArmSeeded(uint64_t seed, uint64_t period) {
  std::lock_guard<std::mutex> lock(mu_);
  seeded_ = true;
  // Avoid the all-zero LCG fixed point.
  lcg_ = seed == 0 ? 0x9e3779b97f4a7c15ULL : seed;
  period_ = period == 0 ? 1 : period;
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < kNumFaultOps; ++i) {
    trigger_[i] = 0;
    ops_[i] = 0;
    injected_[i] = 0;
  }
  seeded_ = false;
  lcg_ = 0;
  period_ = 0;
  enabled_.store(false, std::memory_order_relaxed);
}

uint64_t FaultInjector::operations(FaultOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_[static_cast<int>(op)];
}

uint64_t FaultInjector::injected(FaultOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_[static_cast<int>(op)];
}

bool FaultInjector::ShouldFail(FaultOp op) {
  std::lock_guard<std::mutex> lock(mu_);
  int i = static_cast<int>(op);
  ++ops_[i];
  bool fail = false;
  if (trigger_[i] != 0 && ops_[i] == trigger_[i]) {
    trigger_[i] = 0;  // one-shot
    fail = true;
  }
  if (seeded_) {
    // Knuth MMIX LCG: deterministic draw per operation, any kind.
    lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((lcg_ >> 33) % period_ == 0) fail = true;
  }
  if (fail) ++injected_[i];
  return fail;
}

Status InjectFault(FaultOp op, std::string_view what) {
  if (!FaultInjector::enabled()) return Status::OK();
  if (!FaultInjector::Instance().ShouldFail(op)) return Status::OK();
  return Status::IoError(
      StrCat("injected fault: ", FaultOpName(op), " failed (", what, ")"));
}

}  // namespace gluenail
