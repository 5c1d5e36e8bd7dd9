#include <cstddef>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet_plan.h"

/**
 * Unit tests for bench/fleet_plan.h — the pure planning helpers behind
 * run_all: previous-run timeline parsing, longest-first schedule
 * ordering, --suites list splitting, and suite-name resolution with
 * near-miss suggestions.
 */

namespace {

using ebs::bench::editDistance;
using ebs::bench::nearMissCandidates;
using ebs::bench::readTimelineDurations;
using ebs::bench::resolveSuite;
using ebs::bench::scheduleOrder;
using ebs::bench::splitList;

const std::vector<std::string> kNames = {
    "bench_engine_service", "bench_fig2_latency", "bench_fig6_tokens",
    "bench_fig7_scalability", "bench_table1_paradigms"};

std::string
tempFile(const std::string &name, const std::string &content)
{
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream out(path);
    out << content;
    return path;
}

TEST(SplitList, DropsEmptyItems)
{
    EXPECT_EQ(splitList("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitList("a,,b,"), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(splitList("one"), (std::vector<std::string>{"one"}));
    EXPECT_TRUE(splitList("").empty());
    EXPECT_TRUE(splitList(",,,").empty());
}

TEST(EditDistance, Levenshtein)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("", "abc"), 3u);
    EXPECT_EQ(editDistance("abc", ""), 3u);
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(editDistance("fig6", "fig6"), 0u);
    EXPECT_EQ(editDistance("fig6_tokenz", "fig6_tokens"), 1u);
}

TEST(NearMiss, ClosestFirstWithPrefixStripping)
{
    // "fig6_tokenz" is distance 1 from the prefix-stripped
    // "fig6_tokens" — the full name (distance 7) alone would miss the
    // max(2, len/3) = 3 budget.
    const auto hits = nearMissCandidates("fig6_tokenz", kNames);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0], "bench_fig6_tokens");
}

TEST(NearMiss, BudgetAndLimit)
{
    EXPECT_TRUE(nearMissCandidates("zzzzzz", kNames).empty());
    // Every name is within distance 2 of its own prefix-stripped self;
    // an entry near several names respects the cap.
    const auto hits = nearMissCandidates("fig2_latency", kNames, 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], "bench_fig2_latency");
}

TEST(ResolveSuite, ExactWithAndWithoutPrefix)
{
    EXPECT_EQ(resolveSuite("bench_fig6_tokens", kNames).index, 2u);
    EXPECT_EQ(resolveSuite("fig6_tokens", kNames).index, 2u);
}

TEST(ResolveSuite, UniqueSubstring)
{
    const auto r = resolveSuite("scalab", kNames);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.index, 3u);
}

TEST(ResolveSuite, AmbiguousSubstringListsCandidates)
{
    const auto r = resolveSuite("fig", kNames);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.ambiguous);
    EXPECT_EQ(r.candidates,
              (std::vector<std::string>{"bench_fig2_latency",
                                        "bench_fig6_tokens",
                                        "bench_fig7_scalability"}));
}

TEST(ResolveSuite, MissCarriesNearMissSuggestions)
{
    const auto r = resolveSuite("fig6_tokenz", kNames);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.ambiguous);
    ASSERT_FALSE(r.candidates.empty());
    EXPECT_EQ(r.candidates[0], "bench_fig6_tokens");
}

TEST(ReadTimeline, ParsesNameWallPairs)
{
    const std::string path = tempFile(
        "timeline_ok.json",
        "{\n  \"suites\": [\n"
        "    {\"name\": \"bench_a\", \"start_s\": 0.0, "
        "\"wall_seconds\": 1.500000, \"exit_code\": 0},\n"
        "    {\"name\": \"bench_b\", \"wall_seconds\": 0.25}\n"
        "  ]\n}\n");
    const auto durations = readTimelineDurations(path);
    ASSERT_EQ(durations.size(), 2u);
    EXPECT_DOUBLE_EQ(durations.at("bench_a"), 1.5);
    EXPECT_DOUBLE_EQ(durations.at("bench_b"), 0.25);
}

TEST(ReadTimeline, MissingFileAndCorruptEntriesDegrade)
{
    EXPECT_TRUE(
        readTimelineDurations(testing::TempDir() + "/no_such_timeline")
            .empty());
    // A corrupt wall_seconds falls back to "unknown duration" for that
    // entry only; zero and negative walls are equally unusable.
    const std::string path = tempFile(
        "timeline_bad.json",
        "{\"suites\": ["
        "{\"name\": \"bench_a\", \"wall_seconds\": oops},"
        "{\"name\": \"bench_b\", \"wall_seconds\": 0.0},"
        "{\"name\": \"bench_c\", \"wall_seconds\": 2.0}]}\n");
    const auto durations = readTimelineDurations(path);
    ASSERT_EQ(durations.size(), 1u);
    EXPECT_DOUBLE_EQ(durations.at("bench_c"), 2.0);
}

TEST(ReadTimeline, DeviceIsNotATimeline)
{
    // `--timeline /dev/full` names a write target whose read side is an
    // endless stream of zeros; it must read as "no previous timeline".
    for (const char *device : {"/dev/zero", "/dev/full", "/dev/null"})
        EXPECT_TRUE(readTimelineDurations(device).empty()) << device;
}

TEST(ScheduleOrder, LongestFirstUnknownsLead)
{
    const std::vector<std::string> names = {"a", "b", "c"};
    // No timeline: list order.
    EXPECT_EQ(scheduleOrder(names, {}),
              (std::vector<std::size_t>{0, 1, 2}));
    // b is unknown (treated as possibly-long), c outweighs a.
    const std::map<std::string, double> durations = {{"a", 1.0},
                                                     {"c", 5.0}};
    EXPECT_EQ(scheduleOrder(names, durations),
              (std::vector<std::size_t>{1, 2, 0}));
}

TEST(ScheduleOrder, StableForTies)
{
    const std::vector<std::string> names = {"a", "b", "c"};
    const std::map<std::string, double> durations = {
        {"a", 1.0}, {"b", 1.0}, {"c", 1.0}};
    EXPECT_EQ(scheduleOrder(names, durations),
              (std::vector<std::size_t>{0, 1, 2}));
}

} // namespace
