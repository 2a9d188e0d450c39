/// Tests for the low-precision inference tier (DESIGN.md §5.8):
///   - bf16 conversion and symmetric int8 quantization primitives;
///   - the pair-interleaved int8 GEMM matches an exact integer reference
///     (bit-for-bit, whichever ISA dispatch picked);
///   - ResidentWeights fp32 is bit-identical to the blocked path; bf16/int8
///     track it within the relaxed tolerance contract;
///   - an all-zero weight channel dequantizes to exactly the bias;
///   - calibration edge cases (empty, single sample, constant, all-zero,
///     percentile clip);
///   - quantization-profile save/load, CRC corruption, and the fp32
///     fallback ladder at pipeline and shard level;
///   - KernelRegistry::ValidateEnv fail-fast on typo'd PRESTROID_KERNEL.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/quant_profile.h"
#include "cost/serving_estimator.h"
#include "nn/quantize.h"
#include "serve/sharded_runtime.h"
#include "tensor/execution_context.h"
#include "tensor/kernels/gemm_quant.h"
#include "tensor/kernels/kernel_registry.h"
#include "tensor/kernels/resident_weights.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "workload/dataset.h"

namespace prestroid {
namespace {

// --------------------------------------------------------------------------
// Conversion primitives
// --------------------------------------------------------------------------

TEST(Bf16Test, RoundTripAndRounding) {
  // Values representable in bf16 survive exactly.
  for (float v : {0.0f, 1.0f, -2.5f, 0.15625f, 65536.0f}) {
    EXPECT_EQ(Bf16ToFloat(FloatToBf16(v)), v) << v;
  }
  // Round-to-nearest-even on the dropped mantissa bits: 1.0 + 2^-8 sits
  // exactly between bf16 neighbours 1.0 and 1.0078125 (spacing 2^-7); RNE
  // picks the even mantissa (1.0).
  const float halfway = 1.00390625f;
  EXPECT_EQ(Bf16ToFloat(FloatToBf16(halfway)), 1.0f);
  // Just above the tie rounds up.
  const float above = 1.004f;
  EXPECT_EQ(Bf16ToFloat(FloatToBf16(above)), 1.0078125f);
  // NaN stays NaN; infinity stays infinite.
  EXPECT_TRUE(std::isnan(Bf16ToFloat(FloatToBf16(NAN))));
  EXPECT_TRUE(std::isinf(Bf16ToFloat(FloatToBf16(INFINITY))));
  // Relative error of any normal value is bounded by the 8-bit mantissa.
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.Uniform(-50.0, 50.0));
    const float r = Bf16ToFloat(FloatToBf16(v));
    EXPECT_LE(std::fabs(r - v), std::fabs(v) * (1.0f / 256.0f) + 1e-30f);
  }
}

TEST(QuantizeSymmetricTest, RoundingClampAndZeroScale) {
  const float src[] = {0.0f, 1.0f, -1.0f, 126.4f, 126.6f, 300.0f, -300.0f,
                       0.5f, 1.5f, -0.5f};
  int8_t dst[10];
  QuantizeSymmetric(src, 10, 1.0f, dst);
  EXPECT_EQ(dst[0], 0);
  EXPECT_EQ(dst[1], 1);
  EXPECT_EQ(dst[2], -1);
  EXPECT_EQ(dst[3], 126);
  EXPECT_EQ(dst[4], 127);
  EXPECT_EQ(dst[5], 127);    // clamped, never wraps
  EXPECT_EQ(dst[6], -127);   // symmetric clamp: -127, never -128
  EXPECT_EQ(dst[7], 0);      // 0.5 -> round-to-even -> 0
  EXPECT_EQ(dst[8], 2);      // 1.5 -> round-to-even -> 2
  EXPECT_EQ(dst[9], 0);
  // inv_scale == 0 (all-zero tensor convention) quantizes everything to 0.
  QuantizeSymmetric(src, 10, 0.0f, dst);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(dst[i], 0) << i;
}

// --------------------------------------------------------------------------
// Pair-interleaved int8 GEMM vs an exact integer reference
// --------------------------------------------------------------------------

TEST(GemmInt8Test, MatchesExactIntegerReferenceAcrossShapes) {
  Rng rng(7);
  for (size_t m : {1, 3, 8, 32}) {
    for (size_t k : {2, 7, 17, 64}) {      // odd k exercises the pad row
      for (size_t n : {1, 5, 63, 64, 65, 128}) {  // straddle the 64-col block
        const Tensor w = Tensor::Random({k, n}, &rng);
        std::vector<float> channel_scale(n, 0.0f);
        for (size_t kk = 0; kk < k; ++kk) {
          for (size_t j = 0; j < n; ++j) {
            channel_scale[j] =
                std::max(channel_scale[j], std::fabs(w.At(kk, j)));
          }
        }
        for (size_t j = 0; j < n; ++j) channel_scale[j] /= 127.0f;
        std::vector<int8_t> packed(Int8PairPackedSize(k, n));
        PackInt8PairsB(k, n, w.data(), channel_scale.data(), packed.data());

        const size_t k_pad = (k + 1) & ~static_cast<size_t>(1);
        std::vector<int8_t> a(m * k_pad, 0);
        for (size_t i = 0; i < m * k_pad; ++i) {
          if (i % k_pad < k) {
            a[i] = static_cast<int8_t>(rng.UniformInt(-127, 127));
          }
        }
        std::vector<float> scale(n), bias(n);
        for (size_t j = 0; j < n; ++j) {
          scale[j] = 0.01f * channel_scale[j];
          bias[j] = static_cast<float>(rng.Uniform(-0.5, 0.5));
        }

        std::vector<float> got(m * n, -1.0f);
        GemmInt8Rows(0, m, k_pad, n, a.data(), packed.data(), scale.data(),
                     bias.data(), GemmEpilogue::kBias, got.data(), n);

        // Exact reference over the same packed operand, same epilogue order.
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            int32_t acc = 0;
            for (size_t p = 0; p < k_pad / 2; ++p) {
              acc += static_cast<int32_t>(a[i * k_pad + 2 * p]) *
                         packed[p * 2 * n + 2 * j] +
                     static_cast<int32_t>(a[i * k_pad + 2 * p + 1]) *
                         packed[p * 2 * n + 2 * j + 1];
            }
            // The int32 accumulator is exact on every ISA; the dequant
            // epilogue may differ by one ulp from this reference because the
            // AVX2 TU's compiler is free to contract the mul+add into an FMA.
            const double want =
                static_cast<double>(acc) * scale[j] + bias[j];
            ASSERT_NEAR(got[i * n + j], want,
                        1e-6 * std::max(1.0, std::abs(want)))
                << m << "x" << k << "x" << n << " @ " << i << "," << j;
          }
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// ResidentWeights parity with the legacy blocked path
// --------------------------------------------------------------------------

/// The §5.8 relaxed-parity envelope: bf16 carries an 8-bit mantissa
/// (rel ~2^-8 per operand) and int8 a 7-bit symmetric grid; both compound
/// over the reduction, so the tolerances are scaled by the output magnitude
/// with a small absolute floor.
void ExpectRelaxedClose(const Tensor& got, const Tensor& want, double rel,
                        double abs_floor, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const double tol =
        abs_floor + rel * std::abs(static_cast<double>(want[i]));
    ASSERT_NEAR(got[i], want[i], tol) << what << " element " << i;
  }
}

TEST(ResidentWeightsTest, Fp32IsBitIdenticalToBlockedPath) {
  Rng rng(21);
  ExecutionContext ctx(1);
  for (size_t m : {1, 8, 32}) {
    for (size_t k : {7, 64}) {
      for (size_t n : {5, 65}) {
        const Tensor a = Tensor::Random({m, k}, &rng);
        const Tensor b = Tensor::Random({k, n}, &rng);
        const Tensor bias = Tensor::Random({n}, &rng);
        Tensor want, got;
        MatMulBiasInto(&want, a, b, bias, &ctx);
        const ResidentWeights rw =
            ResidentWeights::Build(b, Precision::kFp32);
        rw.Gemm(&got, a, &bias, GemmEpilogue::kBias, &ctx);
        ASSERT_EQ(got.shape(), want.shape());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "element " << i;
        }
      }
    }
  }
}

TEST(ResidentWeightsTest, Bf16AndInt8TrackFp32WithinRelaxedTolerance) {
  Rng rng(22);
  ExecutionContext ctx(1);
  for (size_t m : {1, 8, 32}) {
    for (size_t k : {17, 128}) {  // odd k covers the int8 pair padding
      for (size_t n : {9, 64, 128}) {
        const Tensor a = Tensor::Random({m, k}, &rng);
        const Tensor b = Tensor::Random({k, n}, &rng);
        const Tensor bias = Tensor::Random({n}, &rng);
        Tensor want;
        MatMulBiasReluInto(&want, a, b, bias, &ctx);
        Tensor got;
        const ResidentWeights bf16 =
            ResidentWeights::Build(b, Precision::kBf16);
        bf16.Gemm(&got, a, &bias, GemmEpilogue::kBiasRelu, &ctx);
        ExpectRelaxedClose(got, want, /*rel=*/0.02, /*abs_floor=*/0.02,
                           "bf16");
        const ResidentWeights int8 =
            ResidentWeights::Build(b, Precision::kInt8);
        int8.Gemm(&got, a, &bias, GemmEpilogue::kBiasRelu, &ctx);
        ExpectRelaxedClose(got, want, /*rel=*/0.05, /*abs_floor=*/0.05,
                           "int8");
        EXPECT_LT(int8.resident_bytes(), int8.fp32_bytes() / 3)
            << "int8 must shed at least 3x weight memory";
      }
    }
  }
}

TEST(ResidentWeightsTest, AllZeroWeightChannelDequantizesToExactBias) {
  Rng rng(23);
  const size_t k = 33, n = 10, zero_col = 4;
  Tensor b = Tensor::Random({k, n}, &rng);
  for (size_t kk = 0; kk < k; ++kk) b.At(kk, zero_col) = 0.0f;
  const Tensor a = Tensor::Random({6, k}, &rng);
  Tensor bias = Tensor::Random({n}, &rng);
  bias[zero_col] = -0.75f;
  ExecutionContext ctx(1);
  const ResidentWeights rw = ResidentWeights::Build(b, Precision::kInt8);
  Tensor out;
  rw.Gemm(&out, a, &bias, GemmEpilogue::kBias, &ctx);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out.At(i, zero_col), -0.75f) << "row " << i;
  }
  // Under ReLU the negative bias clamps to exactly zero.
  rw.Gemm(&out, a, &bias, GemmEpilogue::kBiasRelu, &ctx);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out.At(i, zero_col), 0.0f) << "row " << i;
  }
}

TEST(ResidentWeightsTest, Int8DeterministicAcrossThreadCounts) {
  Rng rng(24);
  const Tensor a = Tensor::Random({32, 96}, &rng);
  const Tensor b = Tensor::Random({96, 40}, &rng);
  const Tensor bias = Tensor::Random({40}, &rng);
  const ResidentWeights rw = ResidentWeights::Build(b, Precision::kInt8);
  ExecutionContext one(1);
  Tensor ref;
  rw.Gemm(&ref, a, &bias, GemmEpilogue::kBias, &one);
  for (size_t threads : {2u, 4u}) {
    ExecutionContext ctx(threads);
    Tensor got;
    rw.Gemm(&got, a, &bias, GemmEpilogue::kBias, &ctx);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(got[i], ref[i]);
  }
}

// --------------------------------------------------------------------------
// Calibration edge cases
// --------------------------------------------------------------------------

TEST(QuantCalibrationTest, EmptyRecordingFailsToResolve) {
  QuantCalibration cal;
  EXPECT_EQ(cal.Resolve(99.0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QuantCalibrationTest, SingleSampleUsesItsOwnAbsMax) {
  QuantCalibration cal;
  const float row[] = {0.5f, -3.0f, 1.0f};
  cal.RecordRows(row, 1, 3);
  const QuantRange range = cal.Resolve(99.0).ValueOrDie();
  EXPECT_FLOAT_EQ(range.act_scale, 3.0f / 127.0f);
  EXPECT_FLOAT_EQ(range.act_min, -3.0f);
  EXPECT_FLOAT_EQ(range.act_max, 1.0f);
}

TEST(QuantCalibrationTest, ConstantActivationsGiveConstantScale) {
  QuantCalibration cal;
  std::vector<float> rows(40, 2.5f);
  cal.RecordRows(rows.data(), 10, 4);
  const QuantRange range = cal.Resolve(99.0).ValueOrDie();
  EXPECT_FLOAT_EQ(range.act_scale, 2.5f / 127.0f);
  EXPECT_FLOAT_EQ(range.act_min, 2.5f);
  EXPECT_FLOAT_EQ(range.act_max, 2.5f);
}

TEST(QuantCalibrationTest, AllZeroActivationsGiveZeroScale) {
  QuantCalibration cal;
  std::vector<float> rows(24, 0.0f);
  cal.RecordRows(rows.data(), 8, 3);
  const QuantRange range = cal.Resolve(99.0).ValueOrDie();
  EXPECT_EQ(range.act_scale, 0.0f);
}

TEST(QuantCalibrationTest, PercentileClipDropsOutlierRows) {
  QuantCalibration cal;
  // 99 ordinary rows at absmax 1.0, one spike at 1000.
  std::vector<float> row(4, 1.0f);
  for (int i = 0; i < 99; ++i) cal.RecordRows(row.data(), 1, 4);
  std::vector<float> spike = {1000.0f, 0.0f, 0.0f, 0.0f};
  cal.RecordRows(spike.data(), 1, 4);
  const QuantRange clipped = cal.Resolve(99.0).ValueOrDie();
  EXPECT_FLOAT_EQ(clipped.act_scale, 1.0f / 127.0f);
  // At the 100th percentile the spike dominates.
  const QuantRange unclipped = cal.Resolve(100.0).ValueOrDie();
  EXPECT_FLOAT_EQ(unclipped.act_scale, 1000.0f / 127.0f);
}

// --------------------------------------------------------------------------
// Pipeline-level calibration, precision switching, and the profile artifact
// --------------------------------------------------------------------------

class QuantPipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 25;
    schema_config.num_days = 20;
    schema_config.seed = 31;
    workload::GeneratedSchema schema = GenerateSchema(schema_config);
    workload::TraceConfig trace_config;
    trace_config.num_queries = 60;
    trace_config.num_days = 20;
    trace_config.seed = 32;
    records_ = new std::vector<workload::QueryRecord>(
        GenerateGrabTrace(schema, trace_config).ValueOrDie());

    core::PipelineConfig config;
    config.word2vec.dim = 16;
    config.word2vec.min_count = 2;
    config.word2vec.epochs = 2;
    config.sampler.node_limit = 16;
    config.sampler.conv_layers = 3;
    config.num_subtrees = 3;
    config.use_subtrees = true;
    config.conv_channels = {8, 8, 8};
    config.dense_units = {8};
    std::vector<size_t> train_indices(records_->size());
    for (size_t i = 0; i < train_indices.size(); ++i) train_indices[i] = i;
    auto pipeline =
        core::PrestroidPipeline::Fit(*records_, train_indices, config)
            .ValueOrDie();
    artifact_path_ =
        new std::string(::testing::TempDir() + "/quant_test_model.bin");
    ASSERT_TRUE(pipeline->SaveFile(*artifact_path_).ok());
  }
  static void TearDownTestSuite() {
    delete records_;
    delete artifact_path_;
  }

  static std::unique_ptr<core::PrestroidPipeline> LoadPipeline() {
    return core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  }

  /// Featurizes the first `count` trace plans through `pipeline`.
  static std::vector<core::PlanFeatures> Featurize(
      core::PrestroidPipeline* pipeline, size_t count) {
    std::vector<core::PlanFeatures> features;
    for (size_t i = 0; i < records_->size() && features.size() < count; ++i) {
      auto featurized = pipeline->FeaturizePlan(*(*records_)[i].plan);
      if (featurized.ok()) features.push_back(std::move(*featurized));
    }
    return features;
  }

  static std::vector<const core::PlanFeatures*> Pointers(
      const std::vector<core::PlanFeatures>& features) {
    std::vector<const core::PlanFeatures*> ptrs;
    for (const auto& f : features) ptrs.push_back(&f);
    return ptrs;
  }

  static std::vector<workload::QueryRecord>* records_;
  static std::string* artifact_path_;
};

std::vector<workload::QueryRecord>* QuantPipelineFixture::records_ = nullptr;
std::string* QuantPipelineFixture::artifact_path_ = nullptr;

TEST_F(QuantPipelineFixture, CalibrateFreezeAndServeAllPrecisions) {
  auto pipeline = LoadPipeline();
  const auto features = Featurize(pipeline.get(), 16);
  ASSERT_GE(features.size(), 4u);
  const auto batch = Pointers(features);

  const std::vector<double> fp32 = pipeline->PredictFeaturized(batch);
  const size_t fp32_bytes = pipeline->InferenceWeightBytes();

  core::QuantizationProfile profile =
      pipeline->CalibrateQuantization(batch, 99.0).ValueOrDie();
  EXPECT_EQ(profile.samples, batch.size());
  ASSERT_FALSE(profile.layers.empty());
  // Calibration leaves the pipeline serving fp32 bit-identically.
  const std::vector<double> after_cal = pipeline->PredictFeaturized(batch);
  for (size_t i = 0; i < fp32.size(); ++i) EXPECT_EQ(after_cal[i], fp32[i]);

  // bf16 and int8 predictions stay within the relaxed envelope.
  ASSERT_TRUE(
      pipeline->SetInferencePrecision(Precision::kBf16, nullptr).ok());
  EXPECT_EQ(pipeline->inference_precision(), Precision::kBf16);
  const std::vector<double> bf16 = pipeline->PredictFeaturized(batch);
  for (size_t i = 0; i < fp32.size(); ++i) {
    EXPECT_NEAR(bf16[i], fp32[i], 0.05 + 0.05 * std::abs(fp32[i])) << i;
  }

  ASSERT_TRUE(
      pipeline->SetInferencePrecision(Precision::kInt8, &profile).ok());
  EXPECT_EQ(pipeline->inference_precision(), Precision::kInt8);
  const std::vector<double> int8 = pipeline->PredictFeaturized(batch);
  for (size_t i = 0; i < fp32.size(); ++i) {
    EXPECT_NEAR(int8[i], fp32[i], 0.1 + 0.1 * std::abs(fp32[i])) << i;
  }
  // The acceptance floor: int8 resident weights shed >= 3x memory.
  EXPECT_LT(pipeline->InferenceWeightBytes(), fp32_bytes / 3);

  // Thawing back to fp32 restores the exact historical path.
  ASSERT_TRUE(
      pipeline->SetInferencePrecision(Precision::kFp32, nullptr).ok());
  const std::vector<double> thawed = pipeline->PredictFeaturized(batch);
  for (size_t i = 0; i < fp32.size(); ++i) EXPECT_EQ(thawed[i], fp32[i]);
}

TEST_F(QuantPipelineFixture, MismatchedProfileIsRejectedAndStaysFp32) {
  auto pipeline = LoadPipeline();
  core::QuantizationProfile bogus;
  bogus.layers.resize(1);  // the model has conv trunk + dense head > 1
  const Status status =
      pipeline->SetInferencePrecision(Precision::kInt8, &bogus);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline->inference_precision(), Precision::kFp32);
}

TEST_F(QuantPipelineFixture, CalibrationRequiresFp32AndNonEmptySample) {
  auto pipeline = LoadPipeline();
  const auto features = Featurize(pipeline.get(), 4);
  const auto batch = Pointers(features);
  EXPECT_EQ(pipeline->CalibrateQuantization({}, 99.0).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      pipeline->SetInferencePrecision(Precision::kInt8, nullptr).ok());
  EXPECT_EQ(pipeline->CalibrateQuantization(batch, 99.0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(QuantPipelineFixture, ProfileRoundTripCorruptionAndMissingFile) {
  auto pipeline = LoadPipeline();
  const auto features = Featurize(pipeline.get(), 8);
  const auto batch = Pointers(features);
  core::QuantizationProfile profile =
      pipeline->CalibrateQuantization(batch, 99.0).ValueOrDie();

  const std::string path = ::testing::TempDir() + "/quant_test.qprof";
  ASSERT_TRUE(core::SaveQuantizationProfile(path, profile).ok());
  core::QuantizationProfile loaded =
      core::LoadQuantizationProfile(path).ValueOrDie();
  ASSERT_EQ(loaded.layers.size(), profile.layers.size());
  EXPECT_EQ(loaded.clip_percentile, profile.clip_percentile);
  EXPECT_EQ(loaded.samples, profile.samples);
  for (size_t i = 0; i < profile.layers.size(); ++i) {
    EXPECT_EQ(loaded.layers[i].act_scale, profile.layers[i].act_scale) << i;
    EXPECT_EQ(loaded.layers[i].act_min, profile.layers[i].act_min) << i;
    EXPECT_EQ(loaded.layers[i].act_max, profile.layers[i].act_max) << i;
  }
  // A loaded profile must be usable as-is.
  ASSERT_TRUE(
      pipeline->SetInferencePrecision(Precision::kInt8, &loaded).ok());
  ASSERT_TRUE(
      pipeline->SetInferencePrecision(Precision::kFp32, nullptr).ok());

  // Flip one payload byte: the container CRC must catch it and the loader
  // must report corruption (the caller then serves fp32 — never crashes).
  {
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 16);
    f.seekp(size - 8);
    char byte = 0;
    f.seekg(size - 8);
    f.read(&byte, 1);
    byte ^= 0x5A;
    f.seekp(size - 8);
    f.write(&byte, 1);
  }
  EXPECT_EQ(core::LoadQuantizationProfile(path).status().code(),
            StatusCode::kDataCorruption);

  // Missing file: an error, but not corruption (the CLI treats it as "no
  // profile calibrated yet" and falls back to dynamic scales).
  const auto missing =
      core::LoadQuantizationProfile(path + ".does-not-exist");
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.status().code(), StatusCode::kDataCorruption);
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Shard-level precision: freeze at Start, fall back on a bad profile
// --------------------------------------------------------------------------

TEST_F(QuantPipelineFixture, ShardServesInt8AndCountsQuantizedBatches) {
  auto estimator = std::make_unique<cost::ServingEstimator>();
  ASSERT_TRUE(estimator->FitFallbacks(*records_).ok());
  auto reference = LoadPipeline();
  estimator->AttachPipeline(LoadPipeline());

  serve::ShardedRuntimeConfig config;
  config.shard.max_batch = 8;
  config.shard.batch_window_us = 100;
  config.shard.precision = Precision::kInt8;  // no profile: dynamic scales
  serve::ShardedServingRuntime runtime({estimator.get()}, config);
  ASSERT_TRUE(runtime.Start().ok());
  EXPECT_EQ(runtime.shard(0).active_precision(), Precision::kInt8);
  EXPECT_GT(runtime.shard(0).resident_weight_bytes(), 0u);

  constexpr size_t kPlans = 12;
  std::vector<std::future<cost::ServingEstimate>> futures;
  for (size_t i = 0; i < kPlans; ++i) {
    auto submitted = runtime.Submit(*(*records_)[i].plan, 1e9);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  for (size_t i = 0; i < kPlans; ++i) {
    const cost::ServingEstimate estimate = futures[i].get();
    ASSERT_EQ(estimate.tier, cost::ServingTier::kModel)
        << estimate.degradation_reason.ToString();
    const double want = reference->PredictPlan(*(*records_)[i].plan)
                            .ValueOrDie();
    EXPECT_NEAR(estimate.cpu_minutes, want, 0.1 + 0.1 * std::abs(want)) << i;
  }
  runtime.Shutdown();
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_GT(stats.quantized_batches, 0u);
  EXPECT_EQ(stats.precision_fallbacks, 0u);
}

TEST_F(QuantPipelineFixture, ShardFallsBackToFp32OnBadProfile) {
  auto estimator = std::make_unique<cost::ServingEstimator>();
  ASSERT_TRUE(estimator->FitFallbacks(*records_).ok());
  estimator->AttachPipeline(LoadPipeline());

  serve::ShardedRuntimeConfig config;
  config.shard.max_batch = 4;
  config.shard.batch_window_us = 100;
  config.shard.precision = Precision::kInt8;
  auto bogus = std::make_shared<core::QuantizationProfile>();
  bogus->layers.resize(1);  // layer-count mismatch
  config.shard.quant_profile = bogus;
  serve::ShardedServingRuntime runtime({estimator.get()}, config);
  ASSERT_TRUE(runtime.Start().ok());
  // The shard must keep serving (fp32), not crash or refuse.
  EXPECT_EQ(runtime.shard(0).active_precision(), Precision::kFp32);
  auto submitted = runtime.Submit(*(*records_)[0].plan, 1e9);
  ASSERT_TRUE(submitted.ok());
  const cost::ServingEstimate estimate = submitted->get();
  EXPECT_EQ(estimate.tier, cost::ServingTier::kModel)
      << estimate.degradation_reason.ToString();
  runtime.Shutdown();
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_GE(stats.precision_fallbacks, 1u);
  EXPECT_EQ(stats.quantized_batches, 0u);
}

// --------------------------------------------------------------------------
// KernelRegistry environment validation (fail-fast on typos)
// --------------------------------------------------------------------------

TEST(KernelRegistryEnvTest, ValidateEnvAcceptsKnownAndUnsetValues) {
  unsetenv("PRESTROID_KERNEL");
  EXPECT_TRUE(KernelRegistry::ValidateEnv().ok());
  setenv("PRESTROID_KERNEL", "scalar", 1);
  EXPECT_TRUE(KernelRegistry::ValidateEnv().ok());
  setenv("PRESTROID_KERNEL", "blocked", 1);
  EXPECT_TRUE(KernelRegistry::ValidateEnv().ok());
  unsetenv("PRESTROID_KERNEL");
}

TEST(KernelRegistryEnvTest, ValidateEnvRejectsTyposListingAcceptedSet) {
  setenv("PRESTROID_KERNEL", "blokced", 1);
  const Status status = KernelRegistry::ValidateEnv();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("blokced"), std::string::npos);
  EXPECT_NE(status.message().find("scalar"), std::string::npos);
  EXPECT_NE(status.message().find("blocked"), std::string::npos);
  unsetenv("PRESTROID_KERNEL");
}

TEST(KernelRegistryEnvTest, PrecisionNamesRoundTrip) {
  EXPECT_EQ(KernelRegistry::ParsePrecision("fp32"), Precision::kFp32);
  EXPECT_EQ(KernelRegistry::ParsePrecision("bf16"), Precision::kBf16);
  EXPECT_EQ(KernelRegistry::ParsePrecision("int8"), Precision::kInt8);
  EXPECT_FALSE(KernelRegistry::ParsePrecision("fp16").has_value());
  EXPECT_STREQ(KernelRegistry::PrecisionName(Precision::kFp32), "fp32");
  EXPECT_STREQ(KernelRegistry::PrecisionName(Precision::kBf16), "bf16");
  EXPECT_STREQ(KernelRegistry::PrecisionName(Precision::kInt8), "int8");
}

}  // namespace
}  // namespace prestroid
