#include <gtest/gtest.h>

#include "llm/engine.h"
#include "llm/model_profile.h"
#include "sim/rng.h"

namespace ebs::llm {
namespace {

TEST(ModelProfile, PresetsAreOrderedByCapability)
{
    const auto gpt4 = ModelProfile::gpt4Api();
    const auto l8 = ModelProfile::llama3_8bLocal();
    const auto l70 = ModelProfile::llama70bLocal();
    EXPECT_GT(gpt4.plan_quality, l70.plan_quality);
    EXPECT_GT(l70.plan_quality, l8.plan_quality);
    EXPECT_TRUE(gpt4.remote);
    EXPECT_FALSE(l8.remote);
    // Local models decode faster per token than the API model here (small
    // models on a dedicated GPU).
    EXPECT_GT(l8.decode_tok_per_s, gpt4.decode_tok_per_s);
}

TEST(ModelProfile, DilutionFactorMonotone)
{
    const auto p = ModelProfile::gpt4Api();
    EXPECT_DOUBLE_EQ(p.dilutionFactor(0), 1.0);
    EXPECT_DOUBLE_EQ(p.dilutionFactor(1000), 1.0);
    const double mid = p.dilutionFactor(20000);
    const double far = p.dilutionFactor(60000);
    EXPECT_LT(mid, 1.0);
    EXPECT_LT(far, mid);
    EXPECT_GT(far, 0.0);
}

TEST(ModelProfile, QuantizedIsFasterSlightlyWorse)
{
    const auto base = ModelProfile::llama3_8bLocal();
    const auto q = ModelProfile::quantized(base);
    EXPECT_GT(q.decode_tok_per_s, base.decode_tok_per_s);
    EXPECT_LT(q.plan_quality, base.plan_quality);
    EXPECT_NE(q.name, base.name);
}

TEST(ModelProfile, LoraTuningClosesQualityGap)
{
    const auto base = ModelProfile::llama3_8bLocal();
    const auto tuned = ModelProfile::loraTuned(base, 0.5);
    EXPECT_NEAR(tuned.plan_quality,
                base.plan_quality + 0.5 * (1.0 - base.plan_quality), 1e-9);
    EXPECT_GT(tuned.comm_quality, base.comm_quality);
    EXPECT_GT(tuned.format_compliance, base.format_compliance);
    // Inference speed unchanged: LoRA adds negligible compute.
    EXPECT_DOUBLE_EQ(tuned.decode_tok_per_s, base.decode_tok_per_s);
    // Gain is clamped.
    const auto maxed = ModelProfile::loraTuned(base, 5.0);
    EXPECT_DOUBLE_EQ(maxed.plan_quality, 1.0);
    const auto zero = ModelProfile::loraTuned(base, 0.0);
    EXPECT_DOUBLE_EQ(zero.plan_quality, base.plan_quality);
}

TEST(SampleCompletion, LatencyCompositionRemote)
{
    const auto profile = ModelProfile::gpt4Api();
    LlmRequest req;
    req.tokens_in = 5000;
    req.tokens_out_mean = 110;
    const double expected = expectedCompletionLatency(profile, req);
    // RTT + prefill + decode, using means.
    EXPECT_NEAR(expected,
                profile.api_rtt_mean_s + 5000 / profile.prefill_tok_per_s +
                    110 / profile.decode_tok_per_s,
                1e-9);
}

TEST(SampleCompletion, SampledLatencyNearExpected)
{
    const auto profile = ModelProfile::gpt4Api();
    sim::Rng rng(2);
    LlmRequest req;
    req.tokens_in = 2000;
    req.tokens_out_mean = 100;
    double sum = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        sum += sampleCompletion(profile, req, rng).latency_s;
    const double expected = expectedCompletionLatency(profile, req);
    EXPECT_NEAR(sum / n, expected, expected * 0.1);
}

TEST(SampleCompletion, TruncatesAtContextLimit)
{
    auto profile = ModelProfile::llama3_8bLocal();
    profile.context_limit = 1000;
    sim::Rng rng(3);
    LlmRequest req;
    req.tokens_in = 5000;
    const auto resp = sampleCompletion(profile, req, rng);
    EXPECT_TRUE(resp.truncated);
    EXPECT_EQ(resp.tokens_in, 1000);
}

TEST(SampleCompletion, QualityDropsWithDilution)
{
    const auto profile = ModelProfile::gpt4Api();
    sim::Rng short_rng(4);
    sim::Rng long_rng(4);
    int short_good = 0, long_good = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        LlmRequest small;
        small.tokens_in = 500;
        short_good += sampleCompletion(profile, small, short_rng).good;
        LlmRequest large;
        large.tokens_in = 30000;
        long_good += sampleCompletion(profile, large, long_rng).good;
    }
    EXPECT_GT(short_good, long_good + n / 20);
}

TEST(SampleCompletion, ComplexityReducesQuality)
{
    const auto profile = ModelProfile::gpt4Api();
    sim::Rng a(5);
    sim::Rng b(5);
    int easy = 0, complex_good = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        LlmRequest req;
        req.tokens_in = 500;
        easy += sampleCompletion(profile, req, a).good;
        req.complexity = 0.5;
        complex_good += sampleCompletion(profile, req, b).good;
    }
    EXPECT_GT(easy, complex_good + n / 10);
}

/** Property sweep: latency is monotone in both token dimensions for every
 * model preset. */
class EngineMonotoneSweep : public ::testing::TestWithParam<int>
{
  protected:
    ModelProfile
    profileFor(int index)
    {
        switch (index) {
          case 0:
            return ModelProfile::gpt4Api();
          case 1:
            return ModelProfile::llama3_8bLocal();
          case 2:
            return ModelProfile::llama13bLocal();
          case 3:
            return ModelProfile::llama70bLocal();
          default:
            return ModelProfile::llava7bLocal();
        }
    }
};

TEST_P(EngineMonotoneSweep, ExpectedLatencyMonotone)
{
    const ModelProfile profile = profileFor(GetParam());
    LlmRequest small;
    small.tokens_in = 100;
    small.tokens_out_mean = 20;
    LlmRequest more_in = small;
    more_in.tokens_in = 2000;
    LlmRequest more_out = small;
    more_out.tokens_out_mean = 200;
    EXPECT_LT(expectedCompletionLatency(profile, small),
              expectedCompletionLatency(profile, more_in));
    EXPECT_LT(expectedCompletionLatency(profile, small),
              expectedCompletionLatency(profile, more_out));
}

INSTANTIATE_TEST_SUITE_P(AllModels, EngineMonotoneSweep,
                         ::testing::Range(0, 5));

} // namespace
} // namespace ebs::llm
