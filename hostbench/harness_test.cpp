#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "trace_summarize/summarize_core.h"

namespace {

using namespace ebs;
using namespace ebs::hostbench;

TEST(Quantile, RefusesP99WithFewerThanTenSamplesBeyond)
{
    std::vector<double> samples(999);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = static_cast<double>(i);
    EXPECT_FALSE(quantileWithTail(samples, 0.99).has_value());
    samples.push_back(999.0);
    const auto p99 = quantileWithTail(samples, 0.99);
    ASSERT_TRUE(p99.has_value());
    EXPECT_NEAR(*p99, 989.01, 1e-9);
}

TEST(Quantile, MedianNeedsTwentySamples)
{
    EXPECT_FALSE(quantileWithTail(std::vector<double>(19, 1.0), 0.5));
    EXPECT_TRUE(quantileWithTail(std::vector<double>(20, 1.0), 0.5));
    EXPECT_FALSE(quantileWithTail({}, 0.5));
}

std::vector<std::uint64_t>
someDigests()
{
    return {0x0123456789abcdefULL, 0xfedcba9876543210ULL, 0x1ULL,
            0xdeadbeefULL};
}

TEST(Reference, RoundTripsWithoutMismatches)
{
    const auto digests = someDigests();
    const Reference ref = parseReference(
        "# comment\n" + formatReferenceLine("team_scale", 1, digests) +
        "\n");
    EXPECT_TRUE(referenceMismatches(ref, "team_scale", 1, digests).empty());
}

TEST(Reference, CorruptedDigestsFailTheirEpisodesOnly)
{
    const auto digests = someDigests();
    std::string line = formatReferenceLine("team_scale", 1, digests);
    // Flip one hex digit of episode 1 and make episode 3 unparseable.
    const std::size_t second = line.find("fedcba");
    line[second] = 'e';
    line.replace(line.rfind(' ') + 1, std::string::npos, "not-a-digest");
    const Reference ref = parseReference(line);
    EXPECT_EQ(referenceMismatches(ref, "team_scale", 1, digests),
              (std::vector<std::size_t>{1, 3}));
}

TEST(Reference, TruncatedOrMissingEntriesFailEveryUncoveredEpisode)
{
    const auto digests = someDigests();
    const std::vector<std::uint64_t> head(digests.begin(),
                                          digests.begin() + 2);
    const Reference ref =
        parseReference(formatReferenceLine("team_scale", 1, head));
    EXPECT_EQ(referenceMismatches(ref, "team_scale", 1, digests),
              (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(referenceMismatches(ref, "team_scale", 2, digests).size(),
              digests.size());
    EXPECT_EQ(referenceMismatches(parseReference("\x01garbage 7x\n\n# x"),
                                  "solo_explore", 1, digests)
                  .size(),
              digests.size());
}

TEST(Plans, SeedChangesJobsButNotTheWorkloadShape)
{
    for (const std::string &name : workloadNames()) {
        const auto shape = workloadShape(name);
        ASSERT_TRUE(shape.has_value()) << name;
        const auto a = planEpisodes(*shape, 1);
        const auto b = planEpisodes(*shape, 2);
        ASSERT_EQ(a.size(), shape->episodes());
        EXPECT_GE(a.size(), 1000u) << "every list carries a p99 on its own";
        ASSERT_EQ(a.size(), b.size());
        std::set<std::uint64_t> seeds_a;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].variant, b[i].variant);
            EXPECT_NE(a[i].seed, b[i].seed);
            seeds_a.insert(a[i].seed);
        }
        EXPECT_EQ(seeds_a.size(), a.size()) << "episode seeds must differ";
        const auto again = planEpisodes(*shape, 1);
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].seed, again[i].seed);
    }
    EXPECT_FALSE(workloadShape("no_such_workload").has_value());
}

TEST(Plans, RoundsRunFreshEpisodesFromTheWorkloadSeed)
{
    EXPECT_EQ(roundSeed(7, 0), 7u);
    std::set<std::uint64_t> seeds;
    for (int round = 0; round < 16; ++round)
        seeds.insert(roundSeed(7, round));
    EXPECT_EQ(seeds.size(), 16u);
    EXPECT_EQ(roundSeed(7, 3), roundSeed(7, 3));
    EXPECT_NE(roundSeed(7, 3), roundSeed(8, 3));
}

TEST(Digest, CoversEveryCheckedField)
{
    core::EpisodeResult base;
    base.steps = 10;
    base.sim_seconds = 12.5;
    const std::uint64_t d = episodeDigest(base);
    auto changed = [&](auto mutate) {
        core::EpisodeResult r = base;
        mutate(r);
        return episodeDigest(r) != d;
    };
    EXPECT_TRUE(changed([](auto &r) { r.success = true; }));
    EXPECT_TRUE(changed([](auto &r) { r.steps = 11; }));
    EXPECT_TRUE(changed([](auto &r) { r.sim_seconds = 12.500001; }));
    EXPECT_TRUE(changed([](auto &r) { r.llm.calls = 3; }));
    EXPECT_TRUE(changed([](auto &r) { r.llm.tokens_out = 3; }));
    EXPECT_TRUE(changed([](auto &r) { r.spec_exec.committed = 1; }));
    EXPECT_TRUE(changed([](auto &r) { r.spec_exec.exec_critical_s = 1; }));
}

TEST(TraceWriter, NestedSpansValidateUnderTraceSummarize)
{
    TraceWriter trace;
    trace.processName(1, "team_scale");
    trace.threadName(1, 2, "worker 1");
    // Recorded out of order, with shared begin and end instants.
    trace.span(1, 2, "CoELA Easy n=2 #9", "episode", 1.5, 2.0);
    trace.span(1, 2, "pass.full_load", "pass", 1.0, 3.0);
    trace.span(1, 2, "CoELA Easy n=2 #7", "episode", 1.0, 1.5);
    trace.span(1, 2, "team_scale", "workload", 1.0, 4.0);
    trace.span(1, 1, "memory.retrieve.w40 x256", "layer", 3.5, 3.6);
    trace.span(1, 1, "probe", "probe", 3.5, 4.0);
    const auto parsed = tracetool::parseTraceText(trace.json(1.0));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(tracetool::validate(parsed.events).empty());
    const std::string rollup = tracetool::summarize(parsed.events);
    EXPECT_NE(rollup.find("2x  total_s=1.000000  "
                          "team_scale;pass.full_load;episode"),
              std::string::npos)
        << rollup;
    EXPECT_NE(rollup.find("probe;memory.retrieve.w40 x256"),
              std::string::npos);
}

} // namespace
