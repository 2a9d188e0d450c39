// google-benchmark microbenchmarks for the performance-critical kernels:
// matmul, tree convolution, sub-tree sampling, Word2Vec training steps, and
// plan parsing/featurization throughput.
//
// Invoked with --sweep, runs a serial-vs-parallel scaling sweep instead:
// the destination-passing matmul and tree-convolution kernels at
// threads in {1, 2, 4, hardware}, reporting per-shape speedup over the
// single-thread baseline (which is bit-identical to the historical serial
// kernels).
//
// Invoked with --json <path>, times the scalar and blocked kernel backends
// on model-shaped GEMMs and end-to-end tree-convolution forward+backward
// (median-of-N with warmup), the resident-panel serving GEMMs, and the
// Grab-shaped tree-convolution trunk over real against padded rows, and
// writes the machine-readable records plus geomean speedups to <path>
// (BENCH_kernels.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/featurizer.h"
#include "core/model_blocks.h"
#include "embed/word2vec.h"
#include "nn/tree_conv.h"
#include "otp/otp_tree.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "subtree/subtree_sampler.h"
#include "tensor/execution_context.h"
#include "tensor/kernels/resident_weights.h"
#include "tensor/ops.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/query_generator.h"
#include "workload/schema_generator.h"

namespace prestroid {
namespace {

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::Random({n, n}, &rng);
  Tensor b = Tensor::Random({n, n}, &rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128)->Arg(256);

/// `trees` complete binary trees of `nodes` nodes each over `features`
/// ([trees * nodes, dim]), in one flat batch.
TreeBatch HeapTrees(const Tensor& features, size_t trees, size_t nodes) {
  std::vector<int> left(nodes, -1), right(nodes, -1);
  for (size_t i = 0; 2 * i + 2 < nodes; ++i) {
    left[i] = static_cast<int>(2 * i + 1);
    right[i] = static_cast<int>(2 * i + 2);
  }
  const std::vector<float> votes(nodes, 1.0f);
  TreeBatch batch;
  batch.Reset(trees * nodes, features.dim(1));
  for (size_t b = 0; b < trees; ++b) {
    batch.AddTree(features.data() + b * nodes * features.dim(1), nodes,
                  left.data(), right.data(), votes.data());
  }
  return batch;
}

void BM_TreeConvForward(benchmark::State& state) {
  const size_t batch = 32, nodes = static_cast<size_t>(state.range(0));
  const size_t in_dim = 64, out_dim = 64;
  Rng rng(2);
  TreeConvLayer conv(in_dim, out_dim, &rng);
  Tensor features = Tensor::Random({batch * nodes, in_dim}, &rng);
  const TreeBatch trees = HeapTrees(features, batch, nodes);
  for (auto _ : state) {
    const Tensor& out = conv.Forward(features, trees);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TreeConvForward)->Arg(15)->Arg(63)->Arg(255);

void BM_TreeConvBackward(benchmark::State& state) {
  const size_t batch = 32, nodes = static_cast<size_t>(state.range(0));
  Rng rng(3);
  TreeConvLayer conv(64, 64, &rng);
  Tensor features = Tensor::Random({batch * nodes, 64}, &rng);
  Tensor grad = Tensor::Random({batch * nodes, 64}, &rng);
  const TreeBatch trees = HeapTrees(features, batch, nodes);
  conv.Forward(features, trees);
  for (auto _ : state) {
    const Tensor& gx = conv.Backward(grad);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_TreeConvBackward)->Arg(15)->Arg(63);

void BM_SubtreeSampling(benchmark::State& state) {
  // Complete binary tree with state.range(0) levels.
  std::function<otp::OtpNodePtr(size_t)> build = [&](size_t depth) {
    auto node = std::make_unique<otp::OtpNode>();
    node->type = otp::OtpNodeType::kOperator;
    if (depth > 0) {
      node->left = build(depth - 1);
      node->right = build(depth - 1);
    }
    return node;
  };
  otp::OtpNodePtr root = build(static_cast<size_t>(state.range(0)));
  subtree::SubtreeSamplerConfig config;
  config.node_limit = 16;
  config.conv_layers = 3;
  for (auto _ : state) {
    auto samples = subtree::SampleSubtrees(*root, config).ValueOrDie();
    benchmark::DoNotOptimize(samples.data());
  }
}
BENCHMARK(BM_SubtreeSampling)->Arg(6)->Arg(9)->Arg(11);

void BM_ParseAndPlan(benchmark::State& state) {
  workload::SchemaGenConfig schema_config;
  schema_config.num_tables = 40;
  schema_config.seed = 4;
  workload::GeneratedSchema schema = workload::GenerateSchema(schema_config);
  workload::QueryGenerator generator(&schema);
  plan::Planner planner(&schema.catalog);
  std::vector<std::string> queries;
  for (uint64_t i = 0; i < 32; ++i) {
    queries.push_back(generator.Generate(30, i * 7 + 1, i));
  }
  size_t cursor = 0;
  for (auto _ : state) {
    auto stmt = sql::ParseSelect(queries[cursor % queries.size()]).ValueOrDie();
    auto plan_tree = planner.Plan(*stmt).ValueOrDie();
    benchmark::DoNotOptimize(plan_tree.get());
    ++cursor;
  }
}
BENCHMARK(BM_ParseAndPlan);

void BM_Word2VecEpoch(benchmark::State& state) {
  std::vector<std::vector<std::string>> corpus;
  Rng rng(5);
  for (int s = 0; s < 400; ++s) {
    std::vector<std::string> sentence;
    for (int t = 0; t < 6; ++t) {
      sentence.push_back("tok" + std::to_string(rng.NextUint64(80)));
    }
    corpus.push_back(std::move(sentence));
  }
  for (auto _ : state) {
    embed::Word2VecConfig config;
    config.dim = 32;
    config.min_count = 1;
    config.epochs = 1;
    embed::Word2Vec model(config);
    benchmark::DoNotOptimize(model.Train(corpus).ok());
  }
}
BENCHMARK(BM_Word2VecEpoch);

void BM_RecastPlan(benchmark::State& state) {
  workload::SchemaGenConfig schema_config;
  schema_config.num_tables = 40;
  schema_config.seed = 6;
  workload::GeneratedSchema schema = workload::GenerateSchema(schema_config);
  workload::QueryGenerator generator(&schema);
  plan::Planner planner(&schema.catalog);
  auto stmt = sql::ParseSelect(generator.Generate(30, 12345, 1)).ValueOrDie();
  auto plan_tree = planner.Plan(*stmt).ValueOrDie();
  for (auto _ : state) {
    auto tree = otp::RecastPlan(*plan_tree).ValueOrDie();
    benchmark::DoNotOptimize(tree.root.get());
  }
}
BENCHMARK(BM_RecastPlan);

}  // namespace

// ---------------------------------------------------------------------------
// --sweep: serial-vs-parallel scaling of the ExecutionContext kernels.
// ---------------------------------------------------------------------------

namespace {

/// Best-of-`reps` wall time of `fn` in milliseconds (one untimed warm-up).
template <typename Fn>
double BestMs(const Fn& fn, int reps = 3) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    best = std::min(best, ms);
  }
  return best;
}

/// The sweep's thread ladder: 1, 2, 4, and the machine, deduplicated.
std::vector<size_t> ThreadLadder() {
  std::vector<size_t> ladder = {1, 2, 4, ThreadPool::HardwareConcurrency()};
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  return ladder;
}

}  // namespace

void RunScalingSweep() {
  const std::vector<size_t> ladder = ThreadLadder();
  TablePrinter table({"kernel", "shape", "threads", "best ms", "speedup"});

  // Matmul at pipeline-realistic shapes: [batch*K, N*C] x [N*C, units] style
  // products from the dense head plus one deliberately large shape.
  const size_t matmul_shapes[][3] = {
      {128, 256, 256}, {256, 512, 512}, {512, 512, 512}};
  for (const auto& s : matmul_shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    Rng rng(1);
    const Tensor a = Tensor::Random({m, k}, &rng);
    const Tensor b = Tensor::Random({k, n}, &rng);
    Tensor out;
    double serial_ms = 0.0;
    for (size_t threads : ladder) {
      ExecutionContext ctx(threads);
      const double ms = BestMs([&] { MatMulInto(&out, a, b, &ctx); });
      if (threads == 1) serial_ms = ms;
      table.AddRow({"matmul", StrFormat("%zux%zux%zu", m, k, n),
                    StrFormat("%zu", threads), StrFormat("%.2f", ms),
                    StrFormat("%.2fx", serial_ms / ms)});
    }
  }

  // Tree convolution, forward + backward, at the sub-tree pipeline's shape
  // regime (node_limit 15) and a full-tree-sized variant.
  const size_t conv_shapes[][3] = {{256, 15, 128}, {64, 255, 64}};
  for (const auto& s : conv_shapes) {
    const size_t batch = s[0], nodes = s[1], dim = s[2];
    Rng rng(2);
    TreeConvLayer conv(dim, dim, &rng);
    const Tensor features = Tensor::Random({batch * nodes, dim}, &rng);
    const Tensor grad = Tensor::Random({batch * nodes, dim}, &rng);
    const TreeBatch structure = HeapTrees(features, batch, nodes);
    double serial_ms = 0.0;
    for (size_t threads : ladder) {
      ExecutionContext ctx(threads);
      conv.set_context(&ctx);
      const double ms = BestMs([&] {
        conv.Forward(features, structure);
        conv.Backward(grad);
      });
      if (threads == 1) serial_ms = ms;
      table.AddRow({"tree-conv fwd+bwd",
                    StrFormat("%zux%zux%zu", batch, nodes, dim),
                    StrFormat("%zu", threads), StrFormat("%.2f", ms),
                    StrFormat("%.2fx", serial_ms / ms)});
    }
    conv.set_context(nullptr);
  }

  table.Print(std::cout);
  std::cout << "hardware threads: " << ThreadPool::HardwareConcurrency()
            << "\n";
  if (ThreadPool::HardwareConcurrency() == 1) {
    std::cout << "NOTE: single hardware thread — all thread counts time-share "
                 "one core, so speedups are bounded at ~1.0x; ratios near "
                 "1.0x measure the pool's overhead, not its scaling.\n";
  }
}

// ---------------------------------------------------------------------------
// --json <path>: machine-readable scalar-vs-blocked kernel benchmark.
// ---------------------------------------------------------------------------

namespace {

struct KernelBenchRecord {
  std::string op;      // "gemm" | "tree_conv_fwd_bwd" | "serving_gemm" |
                       // "grab_trunk_b1_real_rows" | "..._padded_rows"
  std::string shape;   // "MxKxN" / "BATCHxNODESxDIM" / "F..-C..-N..-K.."
  std::string kernel;  // "scalar" | "blocked" | "resident"
  size_t threads = 1;
  double ns_per_iter = 0.0;
  double gflops = 0.0;
  double rows_per_plan = 0.0;  // grab_trunk records only
};

/// Node features, tree-local children and votes of the first K Algorithm 1
/// sub-trees of every plan in `records` (random node features of width
/// `dim`; the blocked kernels do the same work for any values). With
/// `padded`, every sub-tree is widened to N rows (zero features, no
/// children, vote 0) and missing sub-trees become all-padding trees: the
/// [K, N, F] layout the padded tensor had.
std::vector<std::vector<core::TreeFeatures>> GrabSubtrees(
    const std::vector<workload::QueryRecord>& records, size_t dim, size_t k,
    bool padded) {
  subtree::SubtreeSamplerConfig sampler;  // N = 15, C = 3
  const size_t n = sampler.node_limit;
  Rng rng(4);
  std::vector<std::vector<core::TreeFeatures>> plans;
  for (const workload::QueryRecord& record : records) {
    const otp::OtpTree tree = otp::RecastPlan(*record.plan).ValueOrDie();
    const std::vector<subtree::SubtreeSample> samples =
        subtree::SampleSubtrees(*tree.root, sampler).ValueOrDie();
    std::vector<core::TreeFeatures> trees;
    for (size_t s = 0; s < (padded ? k : std::min(k, samples.size())); ++s) {
      const size_t count = s < samples.size() ? samples[s].size() : 0;
      const size_t rows = padded ? n : count;
      core::TreeFeatures features;
      features.features = Tensor({rows, dim});
      features.left.assign(rows, -1);
      features.right.assign(rows, -1);
      features.votes.assign(rows, 0.0f);
      for (size_t i = 0; i < count; ++i) {
        for (size_t f = 0; f < dim; ++f) {
          features.features.At(i, f) =
              static_cast<float>(rng.Uniform(-1.0, 1.0));
        }
        features.left[i] = samples[s].left[i];
        features.right[i] = samples[s].right[i];
        features.votes[i] = samples[s].votes[i];
      }
      trees.push_back(std::move(features));
    }
    plans.push_back(std::move(trees));
  }
  return plans;
}

constexpr int kJsonReps = 5;    // timed runs per record (median taken)
constexpr int kJsonWarmup = 1;  // untimed warm-up runs per record

/// Median wall time of `fn` in nanoseconds: `kJsonWarmup` untimed runs, then
/// the median of `kJsonReps` timed ones.
template <typename Fn>
double MedianNs(const Fn& fn) {
  for (int w = 0; w < kJsonWarmup; ++w) fn();
  std::vector<double> ns;
  ns.reserve(kJsonReps);
  for (int r = 0; r < kJsonReps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    ns.push_back(std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Geomean of base/fast time ratios over the records of `op` that share a
/// shape and thread count.
double GeomeanSpeedup(const std::vector<KernelBenchRecord>& records,
                      const std::string& op, const std::string& base_kernel,
                      const std::string& fast_kernel) {
  double log_sum = 0.0;
  size_t count = 0;
  for (const KernelBenchRecord& fast : records) {
    if (fast.op != op || fast.kernel != fast_kernel) continue;
    for (const KernelBenchRecord& base : records) {
      if (base.op != op || base.kernel != base_kernel ||
          base.shape != fast.shape || base.threads != fast.threads) {
        continue;
      }
      log_sum += std::log(base.ns_per_iter / fast.ns_per_iter);
      ++count;
    }
  }
  return count == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(count));
}

}  // namespace

int RunJsonBench(const std::string& path) {
  // The acceptance criteria are single-thread (kernel quality, not pool
  // scaling), and both backends are bit-identical across thread counts, so
  // one thread is the honest comparison on any machine.
  const size_t threads = 1;
  const KernelBackend backends[] = {KernelBackend::kScalar,
                                    KernelBackend::kBlocked};
  std::vector<KernelBenchRecord> records;

  // Model-shaped GEMMs: the dense head over conv channels, the lowered tree
  // convolution ([batch*nodes, 3C] x [3C, C]), and a square reference.
  const size_t gemm_shapes[][3] = {
      {128, 256, 256},  // dense head at conv-channel width
      {256, 512, 512},  // paper-scale conv channels / dense input
      {960, 384, 128},  // im2col tree conv: 64 trees x 15 nodes, C=128
      {512, 512, 512},  // square reference
  };
  for (const auto& s : gemm_shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    Rng rng(1);
    const Tensor a = Tensor::Random({m, k}, &rng);
    const Tensor b = Tensor::Random({k, n}, &rng);
    Tensor out;
    for (KernelBackend backend : backends) {
      ExecutionContext ctx(threads);
      ctx.mutable_kernels()->SetAllBackends(backend);
      KernelBenchRecord rec;
      rec.op = "gemm";
      rec.shape = StrFormat("%zux%zux%zu", m, k, n);
      rec.kernel = KernelRegistry::BackendName(backend);
      rec.threads = threads;
      rec.ns_per_iter = MedianNs([&] { MatMulInto(&out, a, b, &ctx); });
      rec.gflops = 2.0 * static_cast<double>(m * k * n) / rec.ns_per_iter;
      std::cout << "gemm " << rec.shape << " " << rec.kernel << ": "
                << StrFormat("%.2f", rec.gflops) << " GFLOP/s\n";
      records.push_back(std::move(rec));
    }
  }

  // End-to-end tree convolution forward+backward at the sub-tree pipeline's
  // shape regime and a full-tree-sized variant. Nominal FLOPs: three GEMMs
  // of [batch*nodes, 3*dim] x [3*dim, dim] (forward, dW, dX).
  const size_t conv_shapes[][3] = {{256, 15, 128}, {64, 255, 64}};
  for (const auto& s : conv_shapes) {
    const size_t batch = s[0], nodes = s[1], dim = s[2];
    Rng rng(2);
    TreeConvLayer conv(dim, dim, &rng);
    const Tensor features = Tensor::Random({batch * nodes, dim}, &rng);
    const Tensor grad = Tensor::Random({batch * nodes, dim}, &rng);
    const TreeBatch structure = HeapTrees(features, batch, nodes);
    const double flops =
        3.0 * 2.0 * static_cast<double>(batch * nodes) * (3.0 * dim) * dim;
    for (KernelBackend backend : backends) {
      ExecutionContext ctx(threads);
      ctx.mutable_kernels()->SetAllBackends(backend);
      conv.set_context(&ctx);
      KernelBenchRecord rec;
      rec.op = "tree_conv_fwd_bwd";
      rec.shape = StrFormat("%zux%zux%zu", batch, nodes, dim);
      rec.kernel = KernelRegistry::BackendName(backend);
      rec.threads = threads;
      rec.ns_per_iter = MedianNs([&] {
        conv.Forward(features, structure);
        conv.Backward(grad);
      });
      rec.gflops = flops / rec.ns_per_iter;
      std::cout << "tree_conv_fwd_bwd " << rec.shape << " " << rec.kernel
                << ": " << StrFormat("%.2f", rec.gflops) << " GFLOP/s\n";
      records.push_back(std::move(rec));
      conv.set_context(nullptr);
    }
  }

  // Serving-shaped GEMMs (m <= 32 plus one batch-1152 im2col row block):
  // the per-call-packing blocked path vs the resident pre-packed panels
  // serving freezes at attach (tensor/kernels/resident_weights.h). Same
  // kernel and bits; the difference is the per-call B pack.
  const size_t serving_shapes[][3] = {
      {1, 1152, 128},    // single request through the dense head (3C -> C)
      {8, 1152, 128},    // small fused batch
      {32, 1152, 128},   // max_batch=32 fused forward
      {32, 128, 64},     // dense head tail (C -> units)
  };
  for (const auto& s : serving_shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    Rng rng(3);
    const Tensor a = Tensor::Random({m, k}, &rng);
    const Tensor b = Tensor::Random({k, n}, &rng);
    const Tensor bias = Tensor::Random({n}, &rng);
    Tensor out;
    const std::string shape = StrFormat("%zux%zux%zu", m, k, n);
    const double flops = 2.0 * static_cast<double>(m * k * n);

    ExecutionContext ctx(threads);
    ctx.mutable_kernels()->SetAllBackends(KernelBackend::kBlocked);
    KernelBenchRecord blocked;
    blocked.op = "serving_gemm";
    blocked.shape = shape;
    blocked.kernel = "blocked";
    blocked.threads = threads;
    blocked.ns_per_iter =
        MedianNs([&] { MatMulBiasInto(&out, a, b, bias, &ctx); });
    blocked.gflops = flops / blocked.ns_per_iter;
    const double blocked_ns = blocked.ns_per_iter;
    std::cout << "serving_gemm " << shape << " blocked: "
              << StrFormat("%.2f", blocked.gflops) << " GFLOP/s\n";
    records.push_back(std::move(blocked));

    const ResidentWeights resident = ResidentWeights::Build(b);
    KernelBenchRecord rec;
    rec.op = "serving_gemm";
    rec.shape = shape;
    rec.kernel = "resident";
    rec.threads = threads;
    rec.ns_per_iter = MedianNs(
        [&] { resident.Gemm(&out, a, &bias, GemmEpilogue::kBias, &ctx); });
    rec.gflops = flops / rec.ns_per_iter;
    std::cout << "serving_gemm " << shape << " resident: "
              << StrFormat("%.2f", rec.gflops) << " GFLOP/s ("
              << StrFormat("%.2fx", blocked_ns / rec.ns_per_iter)
              << " vs blocked)\n";
    records.push_back(std::move(rec));
  }
  // The tree-convolution trunk at the perfbench serving model's Grab shapes
  // (F = 125 node features, 3 x 32 convolutions, N = 15, K = 9), one plan
  // per forward as a direct PredictPlan runs it, over the Algorithm 1
  // sub-trees of the Grab-like bench trace: the flat batch of real rows
  // against the same trees padded to N rows and K sub-trees, through the
  // same kernels, per-call packed ("blocked") and frozen ("resident").
  {
    constexpr size_t kDim = 125, kChannels = 32, kSubtrees = 9;
    const bench::BenchDataset data =
        bench::BuildGrabDataset(bench::GetBenchScale());
    const auto real = GrabSubtrees(data.records, kDim, kSubtrees, false);
    const auto padded = GrabSubtrees(data.records, kDim, kSubtrees, true);
    Rng rng(5);
    core::TreeConvStack stack(kDim, {kChannels, kChannels, kChannels}, &rng);
    std::vector<FreezableLayer*> layers;
    stack.CollectFreezableLayers(&layers);
    MaskedDynamicPooling pooling;
    TreeBatch batch;
    std::vector<const core::TreeFeatures*> slots;
    const std::string shape = StrFormat("F%zu-C%zux3-N15-K%zu", kDim,
                                        kChannels, kSubtrees);
    for (const char* kernel : {"blocked", "resident"}) {
      ExecutionContext ctx(threads);
      ctx.mutable_kernels()->SetAllBackends(KernelBackend::kBlocked);
      stack.BindContext(&ctx);
      pooling.set_context(&ctx);
      for (FreezableLayer* layer : layers) {
        if (std::string(kernel) == "resident") {
          layer->FreezeWeights();
        } else {
          layer->ThawWeights();
        }
      }
      for (const auto* plans : {&real, &padded}) {
        size_t rows = 0;
        auto forward_all = [&] {
          rows = 0;
          for (const std::vector<core::TreeFeatures>& trees : *plans) {
            slots.assign(kSubtrees, nullptr);
            for (size_t s = 0; s < trees.size(); ++s) slots[s] = &trees[s];
            core::AssembleTreeBatch(slots, kDim, &batch);
            rows += batch.num_rows();
            benchmark::DoNotOptimize(
                pooling.Forward(stack.Forward(batch), batch).data());
          }
        };
        ctx.ResetStats();
        forward_all();
        const double count = static_cast<double>(plans->size());
        const double flops = static_cast<double>(ctx.stats().flops) / count;
        KernelBenchRecord rec;
        rec.op = plans == &real ? "grab_trunk_b1_real_rows"
                                : "grab_trunk_b1_padded_rows";
        rec.shape = shape;
        rec.kernel = kernel;
        rec.threads = threads;
        rec.rows_per_plan = static_cast<double>(rows) / count;
        rec.ns_per_iter = MedianNs(forward_all) / count;
        rec.gflops = flops / rec.ns_per_iter;
        std::cout << rec.op << " " << shape << " " << kernel << ": "
                  << StrFormat("%.1f rows/plan, %.0f ns/plan",
                               rec.rows_per_plan, rec.ns_per_iter)
                  << "\n";
        records.push_back(std::move(rec));
      }
    }
  }
  double trunk_rows_ratio = 0.0, trunk_log_speedup = 0.0;
  size_t trunk_pairs = 0;
  for (const KernelBenchRecord& fast : records) {
    if (fast.op != "grab_trunk_b1_real_rows") continue;
    for (const KernelBenchRecord& base : records) {
      if (base.op != "grab_trunk_b1_padded_rows" ||
          base.kernel != fast.kernel) {
        continue;
      }
      trunk_rows_ratio = fast.rows_per_plan / base.rows_per_plan;
      trunk_log_speedup += std::log(base.ns_per_iter / fast.ns_per_iter);
      ++trunk_pairs;
    }
  }
  const double trunk_speedup =
      trunk_pairs == 0
          ? 0.0
          : std::exp(trunk_log_speedup / static_cast<double>(trunk_pairs));

  const double gemm_speedup =
      GeomeanSpeedup(records, "gemm", "scalar", "blocked");
  const double conv_speedup =
      GeomeanSpeedup(records, "tree_conv_fwd_bwd", "scalar", "blocked");
  const double resident_speedup =
      GeomeanSpeedup(records, "serving_gemm", "blocked", "resident");

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  {
    bench::JsonWriter json(out);
    json.BeginObject();
    json.Field("generated_by", "bench/micro_ops --json");
    json.Provenance();
    json.Field("reps", kJsonReps);
    json.Field("warmup", kJsonWarmup);
    json.Key("records");
    json.BeginArray();
    for (const KernelBenchRecord& r : records) {
      json.BeginObject();
      json.Field("op", r.op);
      json.Field("shape", r.shape);
      json.Field("kernel", r.kernel);
      json.Field("threads", r.threads);
      json.FieldDouble("gflops", r.gflops);
      json.FieldDouble("ns_per_iter", r.ns_per_iter, "%.1f");
      if (r.rows_per_plan > 0.0) {
        json.FieldDouble("rows_per_plan", r.rows_per_plan, "%.2f");
      }
      json.EndObject();
    }
    json.EndArray();
    json.Key("summary");
    json.BeginObject();
    json.FieldDouble("gemm_geomean_speedup_blocked_over_scalar", gemm_speedup);
    json.FieldDouble("tree_conv_geomean_speedup_blocked_over_scalar",
                     conv_speedup);
    json.FieldDouble("serving_resident_geomean_speedup_over_blocked",
                     resident_speedup);
    json.FieldDouble("grab_trunk_real_over_padded_rows", trunk_rows_ratio);
    json.FieldDouble("grab_trunk_geomean_speedup_real_over_padded_rows",
                     trunk_speedup);
    json.EndObject();
    json.EndObject();
  }

  std::cout << "\ngemm geomean speedup (blocked/scalar): "
            << StrFormat("%.2fx", gemm_speedup) << "\n";
  std::cout << "tree-conv fwd+bwd geomean speedup (blocked/scalar): "
            << StrFormat("%.2fx", conv_speedup) << "\n";
  std::cout << "serving geomean speedup (resident/blocked): "
            << StrFormat("%.2fx", resident_speedup) << "\n";
  std::cout << "grab trunk: real rows are "
            << StrFormat("%.1f%%", 100.0 * trunk_rows_ratio)
            << " of padded rows; geomean speedup (padded/real) "
            << StrFormat("%.2fx", trunk_speedup) << "\n";
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace prestroid

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sweep") {
      prestroid::RunScalingSweep();
      return 0;
    }
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "--json requires an output path\n";
        return 1;
      }
      return prestroid::RunJsonBench(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
