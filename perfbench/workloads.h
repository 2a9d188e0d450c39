// Entry points of the benchmark's workloads.
#ifndef PRESTROID_PERFBENCH_WORKLOADS_H_
#define PRESTROID_PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "util/status.h"

namespace perfbench {

/// `recurring` (churn = false) or `churn` (churn = true).
Report RunServing(const Options& options, bool churn);

/// `retrain`: ingest, Fit, Train, test MSE and scoring on a seeded trace.
Report RunRetrain(const Options& options);

// Helper processes a measured run starts, so that it never holds what only
// the harness needs and each set-up sample is a cold start.

/// `--child inputs`: writes the run's seeded inputs under the work dir. For
/// serving these are the request bodies with their reference answers (fp32
/// PredictPlan on the cached model); for retrain, the trace file.
prestroid::Status WriteServingInputs(const Options& options, bool churn);
prestroid::Status WriteRetrainInputs(const Options& options);

/// `--child setup`: one cold set-up, timed. Serving: LoadFile and
/// FitFallbacks for every shard, runtime and server Start, the event loop
/// running. Retrain: the trace ingest.
prestroid::Result<SetupTimes> ProbeServingSetup(const Options& options);
prestroid::Result<SetupTimes> ProbeRetrainSetup(const Options& options);

}  // namespace perfbench

#endif  // PRESTROID_PERFBENCH_WORKLOADS_H_
