#include <gtest/gtest.h>

#include "llm/engine.h"
#include "llm/model_profile.h"
#include "llm/token.h"
#include "sim/rng.h"

namespace ebs::llm {
namespace {

TEST(Token, EmptyIsZero)
{
    EXPECT_EQ(approxTokens(""), 0);
}

TEST(Token, ScalesWithLength)
{
    const int small = approxTokens("hello world");
    const int big = approxTokens(
        "the quick brown fox jumps over the lazy dog again and again");
    EXPECT_GT(small, 0);
    EXPECT_GT(big, small);
}

TEST(Token, RoughlyFourCharsPerToken)
{
    const std::string text(400, 'x');
    EXPECT_EQ(approxTokens(text), 100);
}

TEST(Token, ListTokens)
{
    EXPECT_EQ(listTokens(5), 30);
    EXPECT_EQ(listTokens(0), 0);
    EXPECT_EQ(listTokens(-3), 0);
    EXPECT_EQ(listTokens(4, 10), 40);
}

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

TEST(LlmEngine, LatencyCompositionRemote)
{
    const auto profile = ModelProfile::gpt4Api();
    LlmEngine engine(profile, sim::Rng(1));
    LlmRequest req;
    req.tokens_in = 5000;
    req.tokens_out_mean = 110;
    const double expected = engine.expectedLatency(req);
    // RTT + prefill + decode, using means.
    EXPECT_NEAR(expected,
                profile.api_rtt_mean_s + 5000 / profile.prefill_tok_per_s +
                    110 / profile.decode_tok_per_s,
                1e-9);
}

TEST(LlmEngine, SampledLatencyNearExpected)
{
    LlmEngine engine(ModelProfile::gpt4Api(), sim::Rng(2));
    LlmRequest req;
    req.tokens_in = 2000;
    req.tokens_out_mean = 100;
    double sum = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        sum += engine.complete(req).latency_s;
    EXPECT_NEAR(sum / n, engine.expectedLatency(req),
                engine.expectedLatency(req) * 0.1);
}

TEST(LlmEngine, TruncatesAtContextLimit)
{
    auto profile = ModelProfile::llama3_8bLocal();
    profile.context_limit = 1000;
    LlmEngine engine(profile, sim::Rng(3));
    LlmRequest req;
    req.tokens_in = 5000;
    const auto resp = engine.complete(req);
    EXPECT_TRUE(resp.truncated);
    EXPECT_EQ(resp.tokens_in, 1000);
}

TEST(LlmEngine, QualityDropsWithDilution)
{
    auto profile = ModelProfile::gpt4Api();
    LlmEngine short_engine(profile, sim::Rng(4));
    LlmEngine long_engine(profile, sim::Rng(4));
    int short_good = 0, long_good = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        LlmRequest small;
        small.tokens_in = 500;
        short_good += short_engine.complete(small).good;
        LlmRequest large;
        large.tokens_in = 30000;
        long_good += long_engine.complete(large).good;
    }
    EXPECT_GT(short_good, long_good + n / 20);
}

TEST(LlmEngine, ComplexityReducesQuality)
{
    LlmEngine a(ModelProfile::gpt4Api(), sim::Rng(5));
    LlmEngine b(ModelProfile::gpt4Api(), sim::Rng(5));
    int easy = 0, complex_good = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        LlmRequest req;
        req.tokens_in = 500;
        easy += a.complete(req).good;
        req.complexity = 0.5;
        complex_good += b.complete(req).good;
    }
    EXPECT_GT(easy, complex_good + n / 10);
}

TEST(LlmEngine, UsageAccounting)
{
    LlmEngine engine(ModelProfile::gpt4Api(), sim::Rng(6));
    LlmRequest req;
    req.tokens_in = 100;
    req.tokens_out_mean = 10;
    engine.complete(req);
    engine.complete(req);
    EXPECT_EQ(engine.usage().calls, 2u);
    EXPECT_EQ(engine.usage().tokens_in, 200);
    EXPECT_GT(engine.usage().tokens_out, 0);
    EXPECT_GT(engine.usage().total_latency_s, 0.0);
    engine.resetUsage();
    EXPECT_EQ(engine.usage().calls, 0u);
}

TEST(LlmEngine, BatchIsFasterThanSequential)
{
    LlmEngine seq(ModelProfile::gpt4Api(), sim::Rng(7));
    LlmEngine bat(ModelProfile::gpt4Api(), sim::Rng(7));
    std::vector<LlmRequest> requests(6);
    for (auto &r : requests) {
        r.tokens_in = 800;
        r.tokens_out_mean = 80;
    }
    double sequential = 0.0;
    for (const auto &r : requests)
        sequential += seq.complete(r).latency_s;
    const auto batched = bat.completeBatch(requests);
    ASSERT_EQ(batched.size(), requests.size());
    EXPECT_LT(batched.front().latency_s, sequential * 0.6);
}

TEST(LlmEngine, BatchEmptyIsEmpty)
{
    LlmEngine engine(ModelProfile::gpt4Api(), sim::Rng(8));
    EXPECT_TRUE(engine.completeBatch({}).empty());
    // An empty batch costs nothing: no usage, no RNG consumption.
    EXPECT_EQ(engine.usage().calls, 0u);
    LlmEngine untouched(ModelProfile::gpt4Api(), sim::Rng(8));
    LlmRequest req;
    req.tokens_in = 500;
    EXPECT_EQ(engine.complete(req).latency_s,
              untouched.complete(req).latency_s);
}

TEST(LlmEngine, BatchOfOneIsExactlyComplete)
{
    LlmRequest req;
    req.tokens_in = 1200;
    req.tokens_out_mean = 70;

    LlmEngine single(ModelProfile::gpt4Api(), sim::Rng(21));
    LlmEngine batched(ModelProfile::gpt4Api(), sim::Rng(21));
    const auto a = single.complete(req);
    const auto batch = batched.completeBatch({req});
    ASSERT_EQ(batch.size(), 1u);
    const auto &b = batch.front();
    EXPECT_EQ(a.latency_s, b.latency_s); // bitwise: same draws, same math
    EXPECT_EQ(a.tokens_in, b.tokens_in);
    EXPECT_EQ(a.tokens_out, b.tokens_out);
    EXPECT_EQ(a.parse_ok, b.parse_ok);
    EXPECT_EQ(a.good, b.good);
    EXPECT_EQ(single.usage().calls, batched.usage().calls);
    EXPECT_EQ(single.usage().total_latency_s,
              batched.usage().total_latency_s);
}

TEST(LlmEngine, BatchResponseStreamMatchesSequential)
{
    // Batching is a latency optimization only: every non-latency response
    // field must be bit-identical to issuing the same requests one by one
    // on the same stream.
    std::vector<LlmRequest> requests(5);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].tokens_in = 400 + 300 * static_cast<int>(i);
        requests[i].tokens_out_mean = 40 + 10 * static_cast<int>(i);
    }
    LlmEngine seq(ModelProfile::gpt4Api(), sim::Rng(22));
    LlmEngine bat(ModelProfile::gpt4Api(), sim::Rng(22));
    const auto batched = bat.completeBatch(requests);
    ASSERT_EQ(batched.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto a = seq.complete(requests[i]);
        EXPECT_EQ(a.tokens_in, batched[i].tokens_in);
        EXPECT_EQ(a.tokens_out, batched[i].tokens_out);
        EXPECT_EQ(a.parse_ok, batched[i].parse_ok);
        EXPECT_EQ(a.good, batched[i].good);
        EXPECT_EQ(a.truncated, batched[i].truncated);
        // Batch members all report the shared completion time.
        EXPECT_EQ(batched[i].latency_s, batched.front().latency_s);
    }
}

TEST(LlmEngine, BatchTruncatesOversizedMemberOnly)
{
    auto profile = ModelProfile::llama3_8bLocal();
    profile.context_limit = 1000;
    LlmEngine engine(profile, sim::Rng(23));

    std::vector<LlmRequest> requests(3);
    requests[0].tokens_in = 300;
    requests[1].tokens_in = 5000; // exceeds the window
    requests[2].tokens_in = 800;
    const auto batched = engine.completeBatch(requests);
    ASSERT_EQ(batched.size(), 3u);
    EXPECT_FALSE(batched[0].truncated);
    EXPECT_TRUE(batched[1].truncated);
    EXPECT_FALSE(batched[2].truncated);
    EXPECT_EQ(batched[1].tokens_in, 1000);
    // Usage counts the clamped prompt sizes.
    EXPECT_EQ(engine.usage().tokens_in, 300 + 1000 + 800);
    EXPECT_EQ(engine.usage().calls, 3u);
}

TEST(LlmEngine, BatchLatencyNeverExceedsSequentialSum)
{
    LlmEngine seq(ModelProfile::gpt4Api(), sim::Rng(24));
    LlmEngine bat(ModelProfile::gpt4Api(), sim::Rng(24));
    for (int round = 0; round < 20; ++round) {
        std::vector<LlmRequest> requests(
            static_cast<std::size_t>(2 + round % 5));
        for (auto &r : requests) {
            r.tokens_in = 300 + 100 * (round % 7);
            r.tokens_out_mean = 30 + 10 * (round % 4);
        }
        double sequential = 0.0;
        for (const auto &r : requests)
            sequential += seq.complete(r).latency_s;
        const auto batched = bat.completeBatch(requests);
        EXPECT_LE(batched.front().latency_s, sequential);
    }
}

TEST(LlmEngine, ExpectedBatchLatencyMatchesSampledMean)
{
    const auto profile = ModelProfile::gpt4Api();
    std::vector<LlmRequest> requests(4);
    for (auto &r : requests) {
        r.tokens_in = 1500;
        r.tokens_out_mean = 20;
    }
    // One member dominates decode so the sampled max is centered on the
    // model's max-of-means (the max over several same-mean lognormals
    // would sit systematically above it).
    requests.front().tokens_out_mean = 240;
    const double expected = expectedBatchLatency(profile, requests);
    // Joint model: one mean RTT + summed prefill + longest decode.
    EXPECT_GT(expected, profile.api_rtt_mean_s);
    EXPECT_LT(expected, 4 * expectedCompletionLatency(profile,
                                                      requests.front()));

    LlmEngine engine(profile, sim::Rng(25));
    double sum = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        sum += engine.completeBatch(requests).front().latency_s;
    EXPECT_NEAR(sum / n, expected, expected * 0.1);
}

TEST(LlmEngine, ExpectedBatchLatencyEmptyIsZero)
{
    EXPECT_EQ(expectedBatchLatency(ModelProfile::gpt4Api(), {}), 0.0);
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
    LlmEngine engine(profileFor(GetParam()), sim::Rng(9));
    LlmRequest small;
    small.tokens_in = 100;
    small.tokens_out_mean = 20;
    LlmRequest more_in = small;
    more_in.tokens_in = 2000;
    LlmRequest more_out = small;
    more_out.tokens_out_mean = 200;
    EXPECT_LT(engine.expectedLatency(small),
              engine.expectedLatency(more_in));
    EXPECT_LT(engine.expectedLatency(small),
              engine.expectedLatency(more_out));
}

INSTANTIATE_TEST_SUITE_P(AllModels, EngineMonotoneSweep,
                         ::testing::Range(0, 5));

} // namespace
} // namespace ebs::llm
