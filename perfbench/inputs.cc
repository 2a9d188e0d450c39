#include "inputs.h"

#include <sys/stat.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>

#include "nn/trainer.h"
#include "plan/plan_stats.h"
#include "plan/plan_text.h"
#include "util/random.h"
#include "workload/dataset.h"
#include "workload/query_generator.h"

namespace perfbench {

namespace pc = prestroid::core;
namespace pw = prestroid::workload;
using prestroid::Result;
using prestroid::Status;

namespace {

constexpr uint64_t kSchemaSeed = 1001;
constexpr size_t kSchemaTables = 80;
constexpr int kSchemaDays = 60;

// The serving model's fixed training corpus and budget. Bump kModelTag when
// any of these change so stale cached artifacts are not reused.
constexpr uint64_t kModelTraceSeed = 4242;
constexpr size_t kModelTraceQueries = 400;
constexpr size_t kModelEpochs = 3;
constexpr const char* kModelTag = "grab32-v1";

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/// Cap on recurring plans: the largest plans under it make a pool of similar
/// size for every seed, where the uncapped top of a heavy-tailed trace would
/// differ several-fold between seeds.
constexpr size_t kRecurringMaxNodes = 80;

}  // namespace

pc::PipelineConfig GrabPipelineConfig() {
  pc::PipelineConfig config;
  config.sampler.node_limit = 15;
  config.sampler.conv_layers = 3;
  config.num_subtrees = 9;
  config.word2vec.dim = 32;
  config.word2vec.min_count = 2;
  config.word2vec.epochs = 5;
  config.conv_channels = {32, 32, 32};
  config.dense_units = {32, 16};
  config.learning_rate = 3e-3f;
  config.seed = 7;
  return config;
}

pw::GeneratedSchema BenchSchema() {
  pw::SchemaGenConfig config;
  config.num_tables = kSchemaTables;
  config.num_days = kSchemaDays;
  config.seed = kSchemaSeed;
  return pw::GenerateSchema(config);
}

Result<std::vector<pw::QueryRecord>> GrabTrace(size_t num_queries,
                                               uint64_t seed) {
  const pw::GeneratedSchema schema = BenchSchema();
  pw::TraceConfig config;
  config.num_queries = num_queries;
  config.num_days = kSchemaDays;
  config.seed = seed;
  return pw::GenerateGrabTrace(schema, config);
}

Result<ModelFiles> PrepareServingModel(const std::string& work_dir) {
  ModelFiles files;
  files.trace_path = work_dir + "/model-" + kModelTag + ".trace";
  files.model_path = work_dir + "/model-" + kModelTag + ".bin";
  if (FileExists(files.trace_path) && FileExists(files.model_path)) {
    return files;
  }
  PRESTROID_ASSIGN_OR_RETURN(std::vector<pw::QueryRecord> records,
                             GrabTrace(kModelTraceQueries, kModelTraceSeed));
  prestroid::Rng rng(kModelTraceSeed + 1);
  const pw::DatasetSplits splits =
      pw::SplitRandom(records.size(), 0.8, 0.1, &rng);
  PRESTROID_ASSIGN_OR_RETURN(
      std::unique_ptr<pc::PrestroidPipeline> pipeline,
      pc::PrestroidPipeline::Fit(records, splits.train, GrabPipelineConfig()));
  prestroid::TrainConfig train;
  train.max_epochs = kModelEpochs;
  train.patience = kModelEpochs;
  train.batch_size = 64;
  const prestroid::TrainResult trained = pipeline->Train(splits, train);
  if (trained.diverged) {
    return Status::Internal("serving model training diverged");
  }
  // The model is written last: its presence marks a complete cache entry.
  PRESTROID_RETURN_NOT_OK(pw::WriteTraceFile(files.trace_path, records));
  PRESTROID_RETURN_NOT_OK(pipeline->SaveFile(files.model_path));
  return files;
}

Result<std::vector<std::string>> RecurringPlanTexts(uint64_t seed,
                                                    size_t count) {
  PRESTROID_ASSIGN_OR_RETURN(std::vector<pw::QueryRecord> records,
                             GrabTrace(16 * count, seed));
  std::vector<size_t> order(records.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<size_t> nodes(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    nodes[i] = prestroid::plan::ComputePlanStats(*records[i].plan).node_count;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return nodes[a] > nodes[b]; });
  std::vector<std::string> texts;
  std::set<std::string> seen;
  for (size_t i : order) {
    if (texts.size() == count) break;
    if (nodes[i] > kRecurringMaxNodes) continue;
    std::string text = prestroid::plan::PlanToText(*records[i].plan);
    if (seen.insert(text).second) texts.push_back(std::move(text));
  }
  return texts;
}

std::vector<std::string> ChurnSql(uint64_t seed, size_t count) {
  const pw::GeneratedSchema schema = BenchSchema();
  const pw::QueryGenerator generator(&schema);
  prestroid::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<std::string> sql;
  std::set<std::string> seen;
  while (sql.size() < count) {
    const int day = static_cast<int>(rng.NextUint64(kSchemaDays));
    const uint64_t structure_seed = rng.Next();
    const uint64_t literal_seed = rng.Next();
    std::string text = generator.Generate(day, structure_seed, literal_seed);
    if (seen.insert(text).second) sql.push_back(std::move(text));
  }
  return sql;
}

}  // namespace perfbench
