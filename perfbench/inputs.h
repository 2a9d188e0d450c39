// Seeded inputs of the benchmark workloads, and the model artifact the
// serving workloads load.
//
// All inputs share one generated Grab-like schema, so request plans and the
// serving model's training corpus name the same tables. The serving model is
// trained once per checkout from a fixed corpus and cached; the workload seed
// only changes the requests (or, for retrain, the trace being learned).
#ifndef PRESTROID_PERFBENCH_INPUTS_H_
#define PRESTROID_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "util/status.h"
#include "workload/schema_generator.h"
#include "workload/trace.h"

namespace perfbench {

/// The Grab profile the paper's serving numbers are quoted at: N=15, K=9,
/// P_f=32, three 32-channel tree convolutions, dense 32-16.
prestroid::core::PipelineConfig GrabPipelineConfig();

/// The schema every workload's queries are drawn from.
prestroid::workload::GeneratedSchema BenchSchema();

/// A Grab-like trace of `num_queries` queries over BenchSchema(), generated
/// from `seed` (with the paper's 1-60 CPU-minute filter).
prestroid::Result<std::vector<prestroid::workload::QueryRecord>> GrabTrace(
    size_t num_queries, uint64_t seed);

/// Paths of the cached serving model and the trace it was trained on.
struct ModelFiles {
  std::string trace_path;
  std::string model_path;
};

/// Returns the serving model artifact under `work_dir`, training and saving
/// it first when it is not there yet (a one-off cost of a fresh checkout,
/// outside every timed region).
prestroid::Result<ModelFiles> PrepareServingModel(const std::string& work_dir);

/// `recurring` bodies: the plan texts of the `count` largest plans of a
/// seeded trace, among plans of at most 80 nodes.
prestroid::Result<std::vector<std::string>> RecurringPlanTexts(uint64_t seed,
                                                               size_t count);

/// `churn` bodies: `count` distinct generated SQL statements.
std::vector<std::string> ChurnSql(uint64_t seed, size_t count);

}  // namespace perfbench

#endif  // PRESTROID_PERFBENCH_INPUTS_H_
