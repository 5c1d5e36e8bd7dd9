#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "sim/rng.h"
#include "stats/aggregate.h"

namespace ebs::hostbench {

namespace {

const env::Difficulty kAllDifficulties[] = {env::Difficulty::Easy,
                                            env::Difficulty::Medium,
                                            env::Difficulty::Hard};

// Every list holds at least 1000 episodes, so even a single pass would
// have a p99 with ten samples beyond it; the reported tail pools the
// full-load passes of a run and rests on many more.

/** The fig7 team grid: centralized MindAgent and decentralized CoELA and
 * COMBO at 2-12 agents, default serial pipeline. */
WorkloadShape
teamScale()
{
    WorkloadShape shape;
    shape.name = "team_scale";
    shape.reps = 20;
    for (const char *system : {"MindAgent", "CoELA", "COMBO"})
        for (const env::Difficulty difficulty : kAllDifficulties)
            for (const int n : {2, 4, 6, 8, 10, 12})
                shape.variants.push_back(
                    {&workloads::workload(system), difficulty, n});
    return shape;
}

/** Single-agent modular systems: short, exploration-bound episodes. */
WorkloadShape
soloExplore()
{
    WorkloadShape shape;
    shape.name = "solo_explore";
    shape.reps = 67;
    for (const char *system :
         {"EmbodiedGPT", "JARVIS-1", "DaDu-E", "MP5", "DEPS"})
        for (const env::Difficulty difficulty : kAllDifficulties)
            shape.variants.push_back(
                {&workloads::workload(system), difficulty, 1});
    return shape;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void
fnvMix(std::uint64_t &hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xffU;
        hash *= kFnvPrime;
    }
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

std::optional<std::uint64_t>
parseHex(const std::string &token)
{
    if (token.empty() || token.size() > 16)
        return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : token) {
        int digit = 0;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return std::nullopt;
        value = (value << 4) | static_cast<std::uint64_t>(digit);
    }
    return value;
}

void
appendEscaped(std::string &out, const std::string &text)
{
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
}

void
appendEvent(std::string &out, const std::string &name,
            const std::string &cat, char ph, double ts_us, int pid,
            int tid)
{
    char buf[96];
    out += out.back() == '[' ? "\n" : ",\n";
    out += "{\"name\":\"";
    appendEscaped(out, name);
    out += "\",\"cat\":\"";
    appendEscaped(out, cat);
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d}", ph,
                  ts_us, pid, tid);
    out += buf;
}

void
appendMetadata(std::string &out, const char *kind, int pid, int tid,
               const std::string &name)
{
    out += out.back() == '[' ? "\n" : ",\n";
    out += std::string("{\"name\":\"") + kind +
           "\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(tid) + ",\"args\":{\"name\":\"";
    appendEscaped(out, name);
    out += "\"}}";
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "team_scale", "solo_explore"};
    return names;
}

std::optional<WorkloadShape>
workloadShape(const std::string &name)
{
    if (name == "team_scale")
        return teamScale();
    if (name == "solo_explore")
        return soloExplore();
    return std::nullopt;
}

std::vector<EpisodePlan>
planEpisodes(const WorkloadShape &shape, std::uint64_t workload_seed)
{
    sim::Rng rng(workload_seed);
    std::vector<EpisodePlan> plans;
    plans.reserve(shape.episodes());
    for (int rep = 0; rep < shape.reps; ++rep)
        for (std::size_t v = 0; v < shape.variants.size(); ++v)
            plans.push_back({v, rng.next()});
    return plans;
}

std::uint64_t
roundSeed(std::uint64_t workload_seed, int round)
{
    if (round == 0)
        return workload_seed;
    return sim::Rng(workload_seed).fork(static_cast<std::uint64_t>(round))
        .next();
}

std::uint64_t
episodeDigest(const core::EpisodeResult &result)
{
    std::uint64_t hash = kFnvOffset;
    fnvMix(hash, result.success ? 1 : 0);
    fnvMix(hash, static_cast<std::uint64_t>(result.steps));
    fnvMix(hash, bitsOf(result.sim_seconds));
    fnvMix(hash, result.llm.calls);
    fnvMix(hash, static_cast<std::uint64_t>(result.llm.tokens_in));
    fnvMix(hash, static_cast<std::uint64_t>(result.llm.tokens_out));
    const core::SpeculativeExecStats &spec = result.spec_exec;
    fnvMix(hash, static_cast<std::uint64_t>(spec.turns));
    fnvMix(hash, static_cast<std::uint64_t>(spec.speculated));
    fnvMix(hash, static_cast<std::uint64_t>(spec.committed));
    fnvMix(hash, static_cast<std::uint64_t>(spec.conflicts));
    fnvMix(hash, static_cast<std::uint64_t>(spec.aborted));
    fnvMix(hash, bitsOf(spec.exec_total_s));
    fnvMix(hash, bitsOf(spec.exec_critical_s));
    return hash;
}

Reference
parseReference(const std::string &text)
{
    Reference reference;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string workload;
        std::string seed_text;
        if (!(fields >> workload) || workload[0] == '#' ||
            !(fields >> seed_text))
            continue;
        char *end = nullptr;
        const std::uint64_t seed =
            std::strtoull(seed_text.c_str(), &end, 10);
        if (end == seed_text.c_str() || *end != '\0')
            continue;
        auto &digests = reference[{workload, seed}];
        std::string token;
        while (fields >> token)
            digests.push_back(parseHex(token));
    }
    return reference;
}

std::string
formatReferenceLine(const std::string &workload, std::uint64_t seed,
                    const std::vector<std::uint64_t> &digests)
{
    std::string line = workload + " " + std::to_string(seed);
    char buf[24];
    for (const std::uint64_t digest : digests) {
        std::snprintf(buf, sizeof buf, " %016" PRIx64, digest);
        line += buf;
    }
    return line;
}

std::vector<std::size_t>
referenceMismatches(const Reference &reference, const std::string &workload,
                    std::uint64_t seed,
                    const std::vector<std::uint64_t> &digests)
{
    std::vector<std::size_t> mismatched;
    const auto it = reference.find({workload, seed});
    for (std::size_t i = 0; i < digests.size(); ++i) {
        const bool match = it != reference.end() &&
                           i < it->second.size() &&
                           it->second[i] == digests[i];
        if (!match)
            mismatched.push_back(i);
    }
    return mismatched;
}

std::optional<double>
quantileWithTail(std::vector<double> samples, double q)
{
    const double beyond =
        static_cast<double>(samples.size()) * std::min(q, 1.0 - q);
    if (samples.empty() || beyond < 10.0)
        return std::nullopt;
    return stats::percentile(std::move(samples), 100.0 * q);
}

double
median(std::vector<double> samples)
{
    return stats::percentile(std::move(samples), 50.0);
}

void
TraceWriter::processName(int pid, const std::string &name)
{
    process_names_[pid] = name;
}

void
TraceWriter::threadName(int pid, int tid, const std::string &name)
{
    thread_names_[{pid, tid}] = name;
}

void
TraceWriter::span(int pid, int tid, const std::string &name,
                  const std::string &cat, double begin_s, double end_s)
{
    tracks_[{pid, tid}].push_back(
        {name, cat, begin_s, std::max(begin_s, end_s)});
}

std::string
TraceWriter::json(double origin_s) const
{
    std::string out = "{\"traceEvents\":[";
    for (const auto &[pid, name] : process_names_)
        appendMetadata(out, "process_name", pid, 0, name);
    for (const auto &[track, name] : thread_names_)
        appendMetadata(out, "thread_name", track.first, track.second,
                       name);

    const auto us = [origin_s](double t) { return (t - origin_s) * 1e6; };
    for (const auto &[track, recorded] : tracks_) {
        // Outer spans first at equal begins, so a parent opens before
        // the children that share its start.
        std::vector<Span> spans = recorded;
        std::stable_sort(spans.begin(), spans.end(),
                         [](const Span &a, const Span &b) {
                             if (a.begin_s != b.begin_s)
                                 return a.begin_s < b.begin_s;
                             return a.end_s > b.end_s;
                         });
        std::vector<Span> open;
        const auto closeUntil = [&](double t) {
            while (!open.empty() && open.back().end_s <= t) {
                appendEvent(out, open.back().name, open.back().cat, 'E',
                            us(open.back().end_s), track.first,
                            track.second);
                open.pop_back();
            }
        };
        for (Span span : spans) {
            closeUntil(span.begin_s);
            // A child may not outlive its parent on the same track.
            if (!open.empty())
                span.end_s = std::min(span.end_s, open.back().end_s);
            appendEvent(out, span.name, span.cat, 'B', us(span.begin_s),
                        track.first, track.second);
            open.push_back(std::move(span));
        }
        closeUntil(1e300);
    }
    out += "\n]}\n";
    return out;
}

} // namespace ebs::hostbench
