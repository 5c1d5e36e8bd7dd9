#ifndef EBS_HOSTBENCH_HARNESS_H
#define EBS_HOSTBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/episode.h"
#include "env/task.h"
#include "workloads/workload.h"

/**
 * Pure helpers of the host-performance benchmark (hostbench/main.cpp):
 * the workload shapes, seed-derived episode plans, the per-episode
 * output digest and its stored reference, the percentile rule, and the
 * Chrome trace-event writer. Kept apart from main.cpp so the
 * benchmark's own tests can call them directly.
 */
namespace ebs::hostbench {

/** One cell of a workload's grid: a system at a difficulty and team
 * size, run with the default serial pipeline. */
struct Variant
{
    const workloads::WorkloadSpec *spec = nullptr;
    env::Difficulty difficulty = env::Difficulty::Medium;
    int n_agents = 1;
};

/** A workload: its variant grid, run `reps` times with distinct seeds. */
struct WorkloadShape
{
    std::string name;
    std::vector<Variant> variants;
    int reps = 1;

    std::size_t episodes() const { return variants.size() * reps; }
};

/** The benchmark's workloads, in report order. */
const std::vector<std::string> &workloadNames();

/** Shape of a named workload; nullopt for an unknown name. */
std::optional<WorkloadShape> workloadShape(const std::string &name);

/** One planned episode: which variant, with which episode seed. */
struct EpisodePlan
{
    std::size_t variant = 0;
    std::uint64_t seed = 0;
};

/**
 * The workload's episode list for a workload seed: `reps` sweeps over
 * the variant grid, each episode with a seed drawn from a sim::Rng
 * seeded by `workload_seed`. Sweeps interleave heavy and light variants,
 * so the heaviest episodes do not all run side by side at the end of a
 * pass. The seed changes the episode seeds only, never the variant
 * sequence.
 */
std::vector<EpisodePlan> planEpisodes(const WorkloadShape &shape,
                                      std::uint64_t workload_seed);

/** Workload seed of measurement round `round`: the run's seed for round
 * 0, then a stream forked from it, so every round runs new episodes. */
std::uint64_t roundSeed(std::uint64_t workload_seed, int round);

/** FNV-1a over one episode's simulated outcome: success, steps,
 * sim_seconds, LLM calls and tokens, and the speculation tallies. */
std::uint64_t episodeDigest(const core::EpisodeResult &result);

/**
 * Stored per-episode digests, keyed by (workload, workload seed). An
 * entry that did not parse as a digest is kept as nullopt so it fails
 * its episode instead of aborting the run.
 */
using ReferenceKey = std::pair<std::string, std::uint64_t>;
using Reference =
    std::map<ReferenceKey, std::vector<std::optional<std::uint64_t>>>;

/** Parse the reference text: one line per (workload, seed),
 * `<workload> <seed> <hex digest>...`; '#' starts a comment line. */
Reference parseReference(const std::string &text);

/** Render digests as one reference line (no trailing newline). */
std::string formatReferenceLine(const std::string &workload,
                                std::uint64_t seed,
                                const std::vector<std::uint64_t> &digests);

/**
 * Indices of the episodes whose digest differs from the reference for
 * (workload, seed), including episodes the reference lacks or holds an
 * unparseable entry for. A missing key fails every episode.
 */
std::vector<std::size_t>
referenceMismatches(const Reference &reference, const std::string &workload,
                    std::uint64_t seed,
                    const std::vector<std::uint64_t> &digests);

/**
 * The q-quantile (q in (0, 1)) of `samples` with linear interpolation,
 * or nullopt when fewer than ten samples lie beyond it — a p99 needs at
 * least 1000 samples, a median at least 20.
 */
std::optional<double> quantileWithTail(std::vector<double> samples,
                                       double q);

/** Median of a non-empty sample (no tail rule; for per-round figures). */
double median(std::vector<double> samples);

/**
 * Chrome trace-event writer for the benchmark's own spans. Spans are
 * kept in memory as begin/end pairs per (pid, tid) track and written at
 * the end; each track's events are emitted in timestamp order, begins
 * before ends at equal times, so trace_summarize --validate holds.
 */
class TraceWriter
{
  public:
    /** Name a process (one per workload). */
    void processName(int pid, const std::string &name);

    /** Name a thread track within a process. */
    void threadName(int pid, int tid, const std::string &name);

    /** One closed span [begin_s, end_s] (host seconds) on a track;
     * spans on a track must nest. */
    void span(int pid, int tid, const std::string &name,
              const std::string &cat, double begin_s, double end_s);

    /** Trace JSON with timestamps relative to `origin_s`. */
    std::string json(double origin_s) const;

  private:
    struct Span
    {
        std::string name;
        std::string cat;
        double begin_s = 0.0;
        double end_s = 0.0;
    };

    std::map<int, std::string> process_names_;
    std::map<std::pair<int, int>, std::string> thread_names_;
    std::map<std::pair<int, int>, std::vector<Span>> tracks_;
};

} // namespace ebs::hostbench

#endif // EBS_HOSTBENCH_HARNESS_H
