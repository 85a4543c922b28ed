/// \file workloads.h
/// \brief The three workloads of the benchmark (README.md says why each
/// exists and what it bypasses). Each fills \p report with the end-to-end
/// metrics (config.trace false) or the per-layer metrics (true), and with
/// the answer checks it ran.

#ifndef GLUENAIL_BENCH_WORKLOADS_WORKLOADS_H_
#define GLUENAIL_BENCH_WORKLOADS_WORKLOADS_H_

#include <string_view>

#include "bench/workloads/harness.h"

namespace gluenail {
namespace workloads {

void RunDeductiveBatch(const RunConfig& config, Report* report);
void RunServedReads(const RunConfig& config, Report* report);
void RunWriteIvm(const RunConfig& config, Report* report);

}  // namespace workloads
}  // namespace gluenail

#endif  // GLUENAIL_BENCH_WORKLOADS_WORKLOADS_H_
