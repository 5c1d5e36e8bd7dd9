/**
 * @file
 * Host-performance benchmark of the simulator: how fast it runs episodes
 * (end to end, at full load and on one worker) and what each layer's
 * public entry points cost on inputs taken from the workload.
 *
 *     hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *               [--reference FILE] [--trace-out FILE] [--setup-only 1]
 *     hostbench --write-reference FILE
 *
 * The benchmark drives the system only through public calls. Episodes
 * are runner::EpisodeJobs whose custom entry point calls
 * WorkloadSpec::runWithConfig between two stats::hostNow() reads; the
 * whole episode list of a workload is submitted as one batch to an
 * EpisodeRunner capped at one episode in flight per hardware thread
 * (closed loop, one process), then re-run on a one-worker pool. Every episode's
 * simulated outcome must match between the two passes and, for the
 * reference seeds, the digests stored with the benchmark; a mismatch or
 * an exception fails that episode.
 *
 * `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
 * metrics and writes the benchmark's own spans as Chrome trace-event
 * JSON. `--setup-only 1` stops after set-up and reports `setup_s` alone,
 * so run.py can time several cold set-ups. The last stdout line is one
 * JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "llm/backend_queue.h"
#include "llm/engine.h"
#include "llm/engine_service.h"
#include "memory/memory.h"
#include "plan/astar.h"
#include "runner/episode_runner.h"
#include "sched/fleet_scheduler.h"
#include "sim/rng.h"
#include "stats/host_clock.h"
#include "stats/phase_wall.h"

namespace {

using namespace ebs;
using namespace ebs::hostbench;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 2;
constexpr int kMinRounds = 3;
/** Share of a traced run's time spent on the episode passes; the rest
 * goes to the layer probes. */
constexpr double kTracedPassShare = 0.6;
constexpr int kMaxThreads = 1024;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string reference_path;
    std::string trace_out;
    std::string write_reference;
    bool setup_only = false;
};

/** Small dense id of the calling thread, in first-use order (the main
 * thread asks first and is 0). Trace tracks only; never feeds results. */
int
threadOrdinal()
{
    static std::atomic<int> next{0};
    thread_local const int ordinal = next.fetch_add(1);
    return ordinal;
}

struct EpisodeTiming
{
    double begin_s = 0.0;
    double end_s = 0.0;
    int thread = -1;
};

/** A traced episode as its worker recorded it. */
struct EpisodeSpan
{
    std::string label;
    double begin_s = 0.0;
    double end_s = 0.0;
};

/** One pass of the episode list through one runner. */
struct PassOutcome
{
    std::vector<core::EpisodeResult> results;
    std::vector<std::uint64_t> digests;
    std::vector<char> threw;
    std::vector<EpisodeTiming> timings;
    double begin_s = 0.0;
    double end_s = 0.0;
    long long tasks = 0;
    stats::PhaseWallClock::Snapshot phase;

    double wall() const { return end_s - begin_s; }
};

/** What every pass shares: the engine service, the phase clock, and the
 * span buffers of traced passes (one per thread ordinal; each thread
 * appends only to its own, so recording takes no lock). */
struct PassContext
{
    const WorkloadShape *shape = nullptr;
    llm::LlmEngineService service;
    stats::PhaseWallClock phase_wall;
    std::vector<std::vector<EpisodeSpan>> spans =
        std::vector<std::vector<EpisodeSpan>>(kMaxThreads);
};

std::string
variantLabel(const Variant &v)
{
    return v.spec->name + " " + env::difficultyName(v.difficulty) +
           " n=" + std::to_string(v.n_agents);
}

/** Run `plans` once through `runner` as one batch. A traced pass also
 * records each episode's span and keeps its results. */
PassOutcome
runPass(const runner::EpisodeRunner &runner, PassContext &ctx,
        const std::vector<EpisodePlan> &plans, bool traced)
{
    const WorkloadShape &shape = *ctx.shape;
    PassOutcome pass;
    pass.threw.assign(plans.size(), 0);
    pass.timings.resize(plans.size());

    std::vector<runner::EpisodeJob> jobs(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const Variant &variant = shape.variants[plans[i].variant];
        runner::EpisodeJob &job = jobs[i];
        job.workload = variant.spec;
        job.config = variant.spec->config;
        job.difficulty = variant.difficulty;
        job.seed = plans[i].seed;
        job.n_agents = variant.n_agents;
        job.engine_service = &ctx.service;
        job.phase_wall = &ctx.phase_wall;
        job.custom = [&variant, &pass, &ctx, traced,
                      i](const core::EpisodeOptions &options) {
            const double begin = stats::hostNow();
            core::EpisodeResult result;
            try {
                result = variant.spec->runWithConfig(
                    variant.spec->config, variant.difficulty, options,
                    variant.n_agents);
            } catch (...) {
                pass.threw[i] = 1;
            }
            const double end = stats::hostNow();
            const int thread = threadOrdinal();
            pass.timings[i] = {begin, end, thread};
            if (traced && thread < kMaxThreads)
                ctx.spans[thread].push_back(
                    {variantLabel(variant) + " #" +
                         std::to_string(options.seed),
                     begin, end});
            return result;
        };
    }

    const long long tasks_before = runner.scheduler()->tasksExecuted();
    const auto phase_before = ctx.phase_wall.snapshot();
    pass.begin_s = stats::hostNow();
    pass.results = runner.run(jobs);
    pass.end_s = stats::hostNow();
    const auto phase_after = ctx.phase_wall.snapshot();
    pass.tasks = runner.scheduler()->tasksExecuted() - tasks_before;
    pass.phase = {phase_after.compute_s - phase_before.compute_s,
                  phase_after.execute_s - phase_before.execute_s,
                  phase_after.episodes - phase_before.episodes};

    pass.digests.reserve(pass.results.size());
    for (const auto &result : pass.results)
        pass.digests.push_back(episodeDigest(result));
    // Only traced passes feed per-layer figures from their results;
    // dropping the rest keeps one batch of results alive at a time, so
    // peak RSS reflects the workload rather than the benchmark's records.
    if (!traced)
        pass.results = {};
    return pass;
}

/** Attempted/failed episode tally of a run. */
struct Tally
{
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::string> notes;

    /** Count a pass; episodes that threw or whose index is in
     * `mismatched` fail. */
    void
    add(const PassOutcome &pass, const std::vector<std::size_t> &mismatched,
        const std::string &what)
    {
        std::vector<char> bad = pass.threw;
        for (const std::size_t i : mismatched)
            bad[i] = 1;
        long long n_bad = 0;
        for (const char b : bad)
            n_bad += b;
        attempted += static_cast<long long>(bad.size());
        failed += n_bad;
        if (n_bad > 0)
            notes.push_back(what + ": " + std::to_string(n_bad) +
                            " episode(s) failed");
    }
};

std::vector<std::size_t>
digestMismatches(const std::vector<std::uint64_t> &a,
                 const std::vector<std::uint64_t> &b)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (i >= b.size() || a[i] != b[i])
            out.push_back(i);
    return out;
}

std::string
readFile(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    ok = static_cast<bool>(in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** A `name` span over a traced pass on the track of every thread that
 * ran one of its episodes. */
void
tracePass(TraceWriter &trace, int pid, const std::string &name,
          const PassOutcome &pass)
{
    std::vector<char> seen(kMaxThreads, 0);
    for (const EpisodeTiming &t : pass.timings)
        if (t.thread >= 0 && t.thread < kMaxThreads)
            seen[t.thread] = 1;
    for (int thread = 0; thread < kMaxThreads; ++thread)
        if (seen[thread] != 0)
            trace.span(pid, thread + 1, name, "pass", pass.begin_s,
                       pass.end_s);
}

/** Pools and plans built by set-up. */
struct Rig
{
    std::unique_ptr<sched::FleetScheduler> pool;
    std::unique_ptr<sched::FleetScheduler> pool_1w;
    std::unique_ptr<runner::EpisodeRunner> runner;
    std::unique_ptr<runner::EpisodeRunner> runner_1w;
    std::vector<EpisodePlan> plans;
};

/**
 * Set-up: spawn the pools, generate the run's jobs, load the reference,
 * and run the reference seeds' episode lists against it (which also
 * warms every code path the measured passes take).
 */
Rig
setUp(const Options &opt, PassContext &ctx, Tally &tally)
{
    Rig rig;
    rig.pool = std::make_unique<sched::FleetScheduler>();
    rig.pool_1w = std::make_unique<sched::FleetScheduler>(1);
    rig.runner =
        std::make_unique<runner::EpisodeRunner>(0, rig.pool.get());
    rig.runner_1w =
        std::make_unique<runner::EpisodeRunner>(1, rig.pool_1w.get());
    rig.plans = planEpisodes(*ctx.shape, opt.seed);

    bool read_ok = false;
    const Reference reference =
        parseReference(readFile(opt.reference_path, read_ok));
    if (!read_ok)
        tally.notes.push_back("cannot read reference " +
                              opt.reference_path);
    for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
        const PassOutcome pass = runPass(
            *rig.runner, ctx, planEpisodes(*ctx.shape, seed), false);
        tally.add(pass,
                  referenceMismatches(reference, ctx.shape->name, seed,
                                      pass.digests),
                  "reference seed " + std::to_string(seed));
    }
    return rig;
}

/** Metric output: name → (value, unit), printed in insertion order. */
struct Report
{
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::string note;
    };
    std::vector<Entry> entries;

    void
    add(std::string name, double value, std::string unit,
        std::string note = {})
    {
        entries.push_back(
            {std::move(name), value, std::move(unit), std::move(note)});
    }
};

/** ", passes min..max" note for a per-pass figure. */
std::string
rangeNote(const std::vector<double> &values)
{
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    char buf[64];
    std::snprintf(buf, sizeof buf, ", passes %.4g..%.4g", *lo, *hi);
    return buf;
}

// ------------------------------------------------------------------ probes

/**
 * Time `batch` (which makes `calls` calls) until `budget_s` has passed
 * and at least five timed units ran; returns the median microseconds per
 * call. A unit repeats the batch enough to last about a millisecond and
 * is one span on the main track, named with its call count so the
 * rollup's total over count and calls gives the layer's self time.
 */
template <typename Batch>
double
probe(TraceWriter &trace, int pid, const std::string &layer,
      double budget_s, std::size_t calls, Batch &&batch)
{
    const double once_begin = stats::hostNow();
    batch();
    const double once_s = stats::hostNow() - once_begin;
    const std::size_t reps = std::max<std::size_t>(
        1, static_cast<std::size_t>(1e-3 / std::max(once_s, 1e-9)));
    const std::size_t unit_calls = std::max<std::size_t>(calls, 1) * reps;
    const std::string name = layer + " x" + std::to_string(unit_calls);
    const int tid = threadOrdinal() + 1;

    std::vector<double> per_call_us;
    const double begin = stats::hostNow();
    double now = begin;
    while (per_call_us.size() < 5 || now - begin < budget_s) {
        const double t0 = stats::hostNow();
        for (std::size_t r = 0; r < reps; ++r)
            batch();
        now = stats::hostNow();
        trace.span(pid, tid, name, "layer", t0, now);
        per_call_us.push_back((now - t0) * 1e6 /
                              static_cast<double>(unit_calls));
    }
    return median(per_call_us);
}

/** What an agent touring the rooms in order would observe at `step`. */
env::Observation
tourObservation(const env::Environment &environment, int step)
{
    const env::World &world = environment.world();
    const int rooms = std::max(1, world.grid().roomCount());
    env::Observation obs;
    obs.agent_id = 0;
    obs.step = step;
    obs.room = step % rooms;
    for (const env::Object &o : world.objects()) {
        if (o.room != obs.room)
            continue;
        env::ObservedObject seen;
        seen.id = o.id;
        seen.cls = o.cls;
        seen.kind = o.kind;
        seen.state = o.state;
        seen.pos = o.pos;
        seen.room = o.room;
        seen.inside = o.inside;
        seen.held_by = o.held_by;
        seen.openable = o.openable;
        seen.open = o.open;
        obs.objects.push_back(std::move(seen));
    }
    return obs;
}

/** Memory config of the workload: the first system with memory on. */
memory::MemoryModule::Config
workloadMemoryConfig(const WorkloadShape &shape)
{
    for (const Variant &v : shape.variants)
        if (v.spec->config.has_memory && v.spec->config.memory.enabled)
            return v.spec->config.memory;
    return shape.variants.front().spec->config.memory;
}

void
runProbes(const Options &opt, const WorkloadShape &shape, const Rig &rig,
          PassContext &ctx, const std::vector<core::EpisodeResult> &sample,
          double budget_s, TraceWriter &trace, int pid, Report &report)
{
    const int tid = threadOrdinal() + 1;
    const double probe_begin = stats::hostNow();
    const double slice = budget_s / 11.0;
    volatile long long sink = 0;

    // Environments of every variant, built the way runWithConfig does.
    std::vector<std::unique_ptr<env::Environment>> envs;
    std::vector<sim::Rng> env_rngs;
    for (std::size_t v = 0; v < shape.variants.size(); ++v)
        env_rngs.push_back(sim::Rng(rig.plans[v].seed).fork(7)); // sweep 0
    const auto buildEnvs = [&] {
        envs.clear();
        for (std::size_t v = 0; v < shape.variants.size(); ++v) {
            const Variant &variant = shape.variants[v];
            envs.push_back(variant.spec->make_env(
                variant.difficulty, variant.n_agents, env_rngs[v]));
        }
    };
    report.add("envs.make_env_us",
               probe(trace, pid, "envs.make_env", slice,
                     shape.variants.size(), buildEnvs),
               "us");

    std::size_t rooms_total = 0;
    for (const auto &e : envs)
        rooms_total += static_cast<std::size_t>(
            e->world().grid().roomCount());
    report.add("env.room_anchor_us",
               probe(trace, pid, "env.roomAnchor", slice, rooms_total,
                     [&] {
                         for (const auto &e : envs)
                             for (int r = 0;
                                  r < e->world().grid().roomCount(); ++r)
                                 sink = sink + e->roomAnchor(r).x;
                     }),
               "us");

    // A* between every pair of room anchors of each variant's grid.
    struct Query
    {
        const env::GridMap *grid;
        env::Vec2i from;
        env::Vec2i to;
    };
    std::vector<Query> queries;
    std::size_t largest = 0;
    for (std::size_t v = 0; v < envs.size(); ++v) {
        if (shape.variants[v].n_agents >
            shape.variants[largest].n_agents)
            largest = v;
        const env::Environment &e = *envs[v];
        std::vector<env::Vec2i> anchors;
        for (int r = 0; r < e.world().grid().roomCount(); ++r) {
            const env::Vec2i a = e.roomAnchor(r);
            if (a.x >= 0)
                anchors.push_back(a);
        }
        for (std::size_t i = 0; i < anchors.size(); ++i)
            for (std::size_t j = i + 1; j < anchors.size(); ++j)
                queries.push_back({&e.world().grid(), anchors[i],
                                   anchors[j]});
    }
    double expanded = 0.0;
    for (const Query &q : queries) {
        plan::aStar(*q.grid, q.from, q.to);
        expanded += static_cast<double>(plan::aStarLastExpanded());
    }
    report.add("plan.astar_us",
               probe(trace, pid, "plan.aStar", slice, queries.size(),
                     [&] {
                         for (const Query &q : queries)
                             sink = sink + (plan::aStar(*q.grid, q.from,
                                                        q.to)
                                                ? 1
                                                : 0);
                     }),
               "us", std::to_string(queries.size()) + " queries");
    report.add("plan.astar_expanded",
               queries.empty() ? 0.0
                               : expanded /
                                     static_cast<double>(queries.size()),
               "count", "cells expanded per query");

    // Copy-assigned into one long-lived snapshot, as speculation
    // refreshes its per-agent worlds, so the copy cannot be elided.
    const env::World &big_world = envs[largest]->world();
    env::World snapshot(big_world);
    report.add("env.world_copy_us",
               probe(trace, pid, "env.World.copy", slice, 64,
                     [&] {
                         for (int k = 0; k < 64; ++k) {
                             snapshot = big_world;
                             sink = sink + snapshot.agentCount();
                         }
                     }),
               "us",
               std::to_string(big_world.agentCount()) + " agents, " +
                   std::to_string(big_world.objects().size()) +
                   " objects");

    // Memory windows filled by a room tour of the largest environment.
    const env::Environment &tour_env = *envs[largest];
    const int rooms = std::max(1, tour_env.world().grid().roomCount());
    std::vector<env::Observation> tour;
    for (int r = 0; r < rooms; ++r)
        tour.push_back(tourObservation(tour_env, r));
    const auto observationAt = [&](int step) {
        env::Observation obs = tour[static_cast<std::size_t>(step % rooms)];
        obs.step = step;
        return obs;
    };
    const auto filledMemory = [&](int window) {
        memory::MemoryModule::Config cfg = workloadMemoryConfig(shape);
        cfg.enabled = true;
        cfg.capacity_steps = window;
        auto mem =
            std::make_unique<memory::MemoryModule>(cfg, sim::Rng(opt.seed));
        for (int step = 0; step < window; ++step) {
            mem->advanceStep(step);
            mem->recordObservation(observationAt(step));
        }
        return mem;
    };
    for (const int window : {40, 512, 4096}) {
        auto mem = filledMemory(window);
        const int calls = window >= 4096 ? 16 : 256;
        const std::string name = "memory.retrieve.w" +
                                 std::to_string(window);
        report.add("memory.retrieve_us.w" + std::to_string(window),
                   probe(trace, pid, name, slice,
                         static_cast<std::size_t>(calls),
                         [&] {
                             for (int k = 0; k < calls; ++k)
                                 sink = sink +
                                        mem->retrieve(window).known_objects;
                         }),
                   "us",
                   std::to_string(mem->liveRecords()) + " live records");
    }
    {
        auto mem = filledMemory(512);
        int step = 512;
        report.add("memory.record_us",
                   probe(trace, pid, "memory.record", slice, 256,
                         [&] {
                             for (int k = 0; k < 256; ++k, ++step) {
                                 mem->advanceStep(step);
                                 mem->recordObservation(
                                     observationAt(step));
                             }
                         }),
                   "us", "advanceStep + recordObservation, window 512");
    }

    report.add("sched.task_us",
               probe(trace, pid, "sched.parallelFor", slice, 12 * 16,
                     [&] {
                         for (int k = 0; k < 16; ++k)
                             rig.pool->parallelFor(
                                 12, [](std::size_t) {});
                     }),
               "us", "no-op tasks at fan-out 12");

    // LLM layer on the batch records the measured episodes produced.
    struct Call
    {
        llm::ModelProfile profile;
        llm::LlmRequest request;
    };
    std::vector<Call> calls;
    std::vector<const std::vector<llm::BatchRecord> *> logs;
    std::size_t records = 0;
    for (const auto &result : sample) {
        if (records >= 4096)
            break;
        if (result.llm_batches.empty())
            continue;
        logs.push_back(&result.llm_batches);
        for (const llm::BatchRecord &rec : result.llm_batches) {
            ++records;
            if (calls.size() >= 1024)
                continue;
            llm::LlmRequest request;
            request.tokens_in = static_cast<int>(
                rec.kv_tokens / std::max(1, rec.requests));
            calls.push_back(
                {ctx.service.backendProfile(rec.backend), request});
        }
    }
    sim::Rng llm_rng(opt.seed);
    report.add("llm.sample_us",
               probe(trace, pid, "llm.sampleCompletion", slice,
                     calls.size(),
                     [&] {
                         for (const Call &c : calls)
                             sink = sink + llm::sampleCompletion(
                                               c.profile, c.request,
                                               llm_rng)
                                               .tokens_out;
                     }),
               "us", std::to_string(calls.size()) + " requests");

    // Queue admission: each episode's log replayed into a fresh,
    // already-ensured model, so only submit() is timed.
    const auto ensuredModels = [&] {
        std::vector<llm::BackendQueueModel> models(logs.size());
        for (std::size_t k = 0; k < logs.size(); ++k)
            for (const llm::BatchRecord &rec : *logs[k])
                models[k].ensureBackend(
                    rec.backend, ctx.service.backendProfile(rec.backend));
        return models;
    };
    std::vector<double> submit_us;
    const std::string submit_name =
        "llm.BackendQueueModel.submit x" + std::to_string(records);
    for (const double begin = stats::hostNow();
         submit_us.size() < 5 || stats::hostNow() - begin < slice;) {
        std::vector<llm::BackendQueueModel> models = ensuredModels();
        const double t0 = stats::hostNow();
        for (std::size_t k = 0; k < logs.size(); ++k)
            for (const llm::BatchRecord &rec : *logs[k])
                sink = sink + (models[k].submit(rec).complete_s > 0 ? 1 : 0);
        const double t1 = stats::hostNow();
        trace.span(pid, tid, submit_name, "layer", t0, t1);
        submit_us.push_back(
            (t1 - t0) * 1e6 /
            static_cast<double>(std::max<std::size_t>(records, 1)));
    }
    report.add("llm.queue_submit_us", median(submit_us), "us",
               std::to_string(records) + " batch records");
    trace.span(pid, tid, "probe", "probe", probe_begin, stats::hostNow());
}

// ------------------------------------------------------------------ modes

int
writeReference(const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
        return 1;
    }
    out << "# Per-episode output digests (see hostbench/README.md): one "
           "line per workload and\n# reference seed, episodes in plan "
           "order. Regenerate only when the model changes.\n";
    for (const std::string &name : workloadNames()) {
        PassContext ctx;
        const WorkloadShape shape = *workloadShape(name);
        ctx.shape = &shape;
        sched::FleetScheduler pool;
        runner::EpisodeRunner runner(0, &pool);
        for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
            const PassOutcome pass =
                runPass(runner, ctx, planEpisodes(shape, seed), false);
            for (const char threw : pass.threw)
                if (threw != 0) {
                    std::fprintf(stderr,
                                 "hostbench: %s seed %llu: an episode "
                                 "threw\n",
                                 name.c_str(),
                                 static_cast<unsigned long long>(seed));
                    return 1;
                }
            out << formatReferenceLine(name, seed, pass.digests) << "\n";
        }
    }
    return out ? 0 : 1;
}

void
printReport(const Options &opt, const Tally &tally, const Report &report)
{
    for (const std::string &note : tally.notes)
        std::printf("hostbench %s: %s\n", opt.workload.c_str(),
                    note.c_str());
    for (const auto &e : report.entries)
        std::printf("hostbench %-16s %-28s %14.6f %-6s %s\n",
                    opt.workload.c_str(), e.name.c_str(), e.value,
                    e.unit.c_str(), e.note.c_str());
    std::string json = "{\"correct\": ";
    json += tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < report.entries.size(); ++i) {
        const auto &e = report.entries[i];
        std::snprintf(buf, sizeof buf, "%.9g", e.value);
        json += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " +
                buf + ", \"unit\": \"" + e.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** `process_begin_s` is the hostNow() reading taken on entry to main(),
 * so set-up time includes the workload registry's first use. */
int
runWorkload(const Options &opt, double process_begin_s)
{
    const std::optional<WorkloadShape> maybe_shape =
        workloadShape(opt.workload);
    if (!maybe_shape) {
        std::fprintf(stderr, "hostbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const WorkloadShape &shape = *maybe_shape;
    PassContext ctx;
    ctx.shape = &shape;
    Tally tally;
    Report report;

    const Rig rig = setUp(opt, ctx, tally);
    const int workers = rig.runner->jobs();

    // One trace process per workload, numbered in report order.
    TraceWriter trace;
    int pid = 1;
    for (std::size_t w = 0; w < workloadNames().size(); ++w)
        if (workloadNames()[w] == shape.name)
            pid = static_cast<int>(w) + 1;
    trace.processName(pid, shape.name);
    double traced_begin = 1e300;

    // Process start to the first timed episode.
    const double setup_s = stats::hostNow() - process_begin_s;
    if (opt.setup_only) {
        report.add("setup_s", setup_s, "s",
                   "main() entry to the first timed episode");
        printReport(opt, tally, report);
        return 0;
    }

    const double start = stats::hostNow();
    const double pass_budget =
        opt.trace ? opt.seconds * kTracedPassShare : opt.seconds;
    std::vector<double> rate_n, rate_1;
    std::vector<double> full_load_ms; // every full-load episode of the run
    std::vector<double> traced_wall, untraced_wall, idle_frac;
    std::vector<double> tasks_per_episode, compute_ms, execute_ms;
    std::vector<double> us_per_agent_step;
    std::vector<core::EpisodeResult> sample;
    double sample_busy_s = 0.0;
    const double n_episodes = static_cast<double>(rig.plans.size());

    // Each round runs a fresh episode list (same variants, new seeds)
    // through two full-load passes and one one-worker pass; the passes
    // of a round must agree episode by episode.
    for (int round = 0;
         round < kMinRounds || stats::hostNow() - start < pass_budget;
         ++round) {
        const std::vector<EpisodePlan> plans =
            round == 0 ? rig.plans
                       : planEpisodes(shape, roundSeed(opt.seed, round));
        const PassOutcome first = runPass(*rig.runner, ctx, plans, false);
        const PassOutcome second =
            runPass(*rig.runner, ctx, plans, opt.trace);
        const PassOutcome one =
            runPass(*rig.runner_1w, ctx, plans, opt.trace);
        tally.add(one, {}, "one-worker pass");
        tally.add(first, digestMismatches(first.digests, one.digests),
                  "full-load pass vs one-worker pass");
        tally.add(second, digestMismatches(second.digests, one.digests),
                  "full-load pass vs one-worker pass");

        rate_1.push_back(n_episodes / one.wall());
        for (const PassOutcome *full : {&first, &second}) {
            rate_n.push_back(n_episodes / full->wall());
            for (const EpisodeTiming &t : full->timings)
                full_load_ms.push_back((t.end_s - t.begin_s) * 1e3);
        }
        if (!opt.trace)
            continue;

        // Traced run: the second full-load pass and the one-worker pass
        // record spans; the first is the untraced twin.
        const PassOutcome &traced = second;
        untraced_wall.push_back(first.wall());
        traced_wall.push_back(traced.wall());
        double busy = 0.0;
        for (const EpisodeTiming &t : traced.timings)
            busy += t.end_s - t.begin_s;
        idle_frac.push_back(1.0 - busy / (workers * traced.wall()));
        tasks_per_episode.push_back(static_cast<double>(traced.tasks) /
                                    n_episodes);
        compute_ms.push_back(traced.phase.compute_s * 1e3 / n_episodes);
        execute_ms.push_back(traced.phase.execute_s * 1e3 / n_episodes);
        double one_busy = 0.0;
        double agent_steps = 0.0;
        for (std::size_t i = 0; i < one.results.size(); ++i) {
            one_busy += one.timings[i].end_s - one.timings[i].begin_s;
            agent_steps += static_cast<double>(one.results[i].steps) *
                           shape.variants[plans[i].variant].n_agents;
        }
        us_per_agent_step.push_back(one_busy * 1e6 /
                                    std::max(agent_steps, 1.0));
        if (sample.empty()) {
            sample = one.results;
            sample_busy_s = one_busy;
        }
        tracePass(trace, pid, "pass.full_load", traced);
        tracePass(trace, pid, "pass.one_worker", one);
        traced_begin = std::min(traced_begin, traced.begin_s);
    }

    if (!opt.trace) {
        const double eps = median(rate_n);
        const double eps_1w = median(rate_1);
        const std::string passes = std::to_string(rate_n.size()) +
                                   " passes of " +
                                   std::to_string(rig.plans.size()) +
                                   " episodes";
        report.add("episodes_per_s", eps, "1/s",
                   std::to_string(workers) + " workers, " + passes +
                       rangeNote(rate_n));
        report.add("episodes_per_s_1w", eps_1w, "1/s",
                   "1 worker" + rangeNote(rate_1));
        report.add("scaling_eff", eps / (workers * eps_1w), "ratio");
        // The tail pools every full-load episode of the run: at least
        // 60 samples past the p99 rather than one pass's ten.
        const auto p50 = quantileWithTail(full_load_ms, 0.50);
        const auto p99 = quantileWithTail(full_load_ms, 0.99);
        if (!p50 || !p99) {
            std::fprintf(stderr,
                         "hostbench: %zu full-load episodes are too few "
                         "for a p99\n",
                         full_load_ms.size());
            return 1;
        }
        const std::string pooled =
            "pooled over " + std::to_string(full_load_ms.size()) +
            " episodes of " + passes;
        report.add("episode_ms_p50", *p50, "ms", pooled);
        report.add("episode_ms_p99", *p99, "ms", pooled);
        report.add("setup_s", setup_s, "s",
                   "main() entry to the first timed episode");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        printReport(opt, tally, report);
        return 0;
    }

    // Traced run: per-layer metrics and the span file.
    const double probe_budget = opt.seconds * (1.0 - kTracedPassShare);
    runProbes(opt, shape, rig, ctx, sample, probe_budget, trace, pid,
              report);

    report.add("sched.idle_frac", median(idle_frac), "ratio",
               std::to_string(workers) + " workers");
    report.add("sched.tasks_per_episode", median(tasks_per_episode),
               "count");
    report.add("core.compute_ms_per_episode", median(compute_ms), "ms");
    report.add("core.execute_ms_per_episode", median(execute_ms), "ms");
    report.add("core.us_per_agent_step", median(us_per_agent_step), "us",
               "1 worker");
    double llm_calls = 0.0;
    for (const core::EpisodeResult &result : sample)
        llm_calls += static_cast<double>(result.llm.calls);
    // Host share of sampleCompletion alone: calls × cost over the time
    // the same episodes took on one worker. The engine session's usage
    // and batch-record accounting around each call is not included.
    double sample_us = 0.0;
    for (const auto &e : report.entries)
        if (e.name == "llm.sample_us")
            sample_us = e.value;
    report.add("llm.sample_host_share",
               sample_us * llm_calls / std::max(sample_busy_s * 1e6, 1e-9),
               "ratio", "sampleCompletion share of 1-worker episode time");
    report.add("trace.overhead_frac",
               median(traced_wall) / median(untraced_wall) - 1.0, "ratio",
               "traced vs untraced full-load pass wall");

    // Spans: workload → pass → episode on each worker track, and
    // workload → probe → layer call on the main track.
    const int main_tid = threadOrdinal() + 1;
    const double traced_end = stats::hostNow();
    for (int thread = 0; thread < kMaxThreads; ++thread) {
        if (ctx.spans[thread].empty() && thread + 1 != main_tid)
            continue;
        trace.threadName(pid, thread + 1,
                         thread + 1 == main_tid
                             ? "main"
                             : "worker " + std::to_string(thread));
        for (const EpisodeSpan &s : ctx.spans[thread])
            trace.span(pid, thread + 1, s.label, "episode", s.begin_s,
                       s.end_s);
        trace.span(pid, thread + 1, shape.name, "workload", traced_begin,
                   traced_end);
    }
    if (!opt.trace_out.empty()) {
        std::ofstream out(opt.trace_out);
        out << trace.json(traced_begin);
        if (!out) {
            std::fprintf(stderr, "hostbench: cannot write %s\n",
                         opt.trace_out.c_str());
            return 1;
        }
    }
    printReport(opt, tally, report);
    return 0;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            opt.trace = value == "1";
            if (value != "0" && value != "1")
                return false;
        } else if (arg == "--reference") {
            opt.reference_path = value;
        } else if (arg == "--trace-out") {
            opt.trace_out = value;
        } else if (arg == "--write-reference") {
            opt.write_reference = value;
        } else if (arg == "--setup-only") {
            opt.setup_only = value == "1";
            if (value != "0" && value != "1")
                return false;
        } else {
            return false;
        }
        if (end != nullptr && (end == value.c_str() || *end != '\0'))
            return false;
    }
    return opt.seconds > 0.0 &&
           (!opt.write_reference.empty() || !opt.workload.empty());
}

} // namespace

int
main(int argc, char **argv)
{
    const double process_begin_s = stats::hostNow();
    threadOrdinal(); // the main thread is ordinal 0
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME [--seed N] [--seconds S] "
                     "[--trace 0|1] [--reference FILE] [--trace-out FILE]\n"
                     "                 [--setup-only 0|1]\n"
                     "       %s --write-reference FILE\n",
                     argv[0], argv[0]);
        return 2;
    }
    if (!opt.write_reference.empty())
        return writeReference(opt.write_reference);
    return runWorkload(opt, process_begin_s);
}
