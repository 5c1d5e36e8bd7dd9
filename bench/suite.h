#ifndef EBS_BENCH_SUITE_H
#define EBS_BENCH_SUITE_H

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "llm/engine_service.h"
#include "obs/trace.h"
#include "runner/averaged.h"
#include "runner/episode_runner.h"
#include "sched/fleet_scheduler.h"
#include "stats/phase_wall.h"

/**
 * The in-process suite registry. Every bench is a library function
 * `int fn(SuiteContext &)` registered under its binary name; `run_all`
 * runs the whole registry as one dependency-free TaskGraph on a single
 * FleetScheduler pool, and a thin generated wrapper (suite_main.cpp)
 * keeps each `bench_*` target runnable standalone.
 *
 * SuiteContext carries everything a suite would otherwise take from
 * process-global state:
 *
 *  - the **output sinks**: all stdout emission (tables, EBS_METRIC
 *    lines) goes through ctx.printf()/ctx.vprintf() and all stderr
 *    diagnostics (host timings, EBS_PHASE_WALL) through ctx.eprintf(),
 *    so a suite's captured log is byte-identical whether it runs
 *    in-process or as its standalone binary (the `suite-io` lint rule
 *    bans direct printf/stdout writes under bench/ to keep it that
 *    way);
 *  - the **metric payloads** it printed (metrics()), which run_all
 *    folds into BENCH_results.json as they are;
 *  - **smoke mode** as a flag instead of the EBS_BENCH_SMOKE env read;
 *  - the **scheduler** episodes fan out on (one shared pool for the
 *    whole fleet in-process — stragglers absorb freed capacity);
 *  - a per-suite **LlmEngineService**, **PhaseWallClock**, and
 *    **Tracer**, substituted for the process-wide defaults when a
 *    variant/job left them at `::shared()`, so per-suite service
 *    summaries, phase-wall splits, and trace tracks survive the loss of
 *    process isolation bit-for-bit.
 */
namespace ebs::bench {

class SuiteContext
{
  public:
    struct Config
    {
        // EBS_LINT_ALLOW(suite-io): the sink defaults themselves
        std::FILE *out = stdout; ///< stdout sink (captured log)
        // EBS_LINT_ALLOW(suite-io): the sink defaults themselves
        std::FILE *err = stderr; ///< stderr sink (diagnostics log)
        bool smoke = false;      ///< single-seed CI mode
        /** Suite arguments (argv[1..] standalone; empty under run_all,
         * which never passes per-suite arguments). */
        std::vector<std::string> args;
        /** Pool episodes fan out on; nullptr = FleetScheduler::shared().
         * run_all passes its own budget-sized pool. */
        sched::FleetScheduler *scheduler = nullptr;
        /** In-flight episode cap of the context's runner; <= 0 selects
         * EpisodeRunner::defaultJobs() (EBS_JOBS). */
        int jobs = 0;
    };

    explicit SuiteContext(const Config &config);

    SuiteContext(const SuiteContext &) = delete;
    SuiteContext &operator=(const SuiteContext &) = delete;

    /** Smoke mode: run a single seed per variant (see seedCount). */
    bool smoke() const { return smoke_; }

    /** Requested seed count, clamped to 1 in smoke mode. */
    int seedCount(int requested) const { return smoke_ ? 1 : requested; }

    /** Suite arguments (never includes the program name). */
    const std::vector<std::string> &args() const { return args_; }

    /** The suite's stdout sink — every byte the standalone binary
     * writes to stdout goes here. */
    std::FILE *out() const { return out_; }

    /** The suite's stderr sink (host timings, EBS_PHASE_WALL). */
    std::FILE *err() const { return err_; }

    /** printf to the suite's stdout sink. */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    // EBS_LINT_ALLOW(suite-io): the sink's own declaration
    void printf(const char *format, ...);

    /** printf to the suite's stderr sink. */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    void eprintf(const char *format, ...);

    /** The pool this suite's episodes fan out on (never null). */
    sched::FleetScheduler &scheduler() { return *scheduler_; }

    /** The suite's episode runner: bound to scheduler() and tracer(). */
    const runner::EpisodeRunner &runner() const { return runner_; }

    /** The suite's engine service — what LlmEngineService::shared() is
     * to a standalone binary. Variants/jobs left at the shared default
     * are re-pointed here by the stamping runners below. */
    llm::LlmEngineService &engineService() { return service_; }

    /** The suite's phase-wall accumulator (see engineService()). */
    stats::PhaseWallClock &phaseWall() { return phase_wall_; }

    /** The suite's private trace sink; run_all merges its
     * chromeLines() into BENCH_trace.json after the fleet completes. */
    obs::Tracer &tracer() { return tracer_; }

    /** The JSON payload of every EBS_METRIC line this suite printed, in
     * emission order (run_all's paper_metrics). Emission happens on the
     * suite's own thread, so the vector needs no lock. */
    const std::vector<std::string> &metrics() const { return metrics_; }

    /**
     * Re-point a job's process-global defaults at this suite's
     * instances: an engine_service left at LlmEngineService::shared()
     * becomes engineService(), a phase_wall left at
     * PhaseWallClock::shared() becomes phaseWall(), and an unset tracer
     * becomes tracer(). Deliberately stamped fields (a bench's private
     * charged/queued service) pass through untouched.
     */
    runner::EpisodeJob stamped(runner::EpisodeJob job);

    /** See stamped(EpisodeJob) — the RunVariant equivalent. */
    runner::RunVariant stamped(runner::RunVariant variant);

    /** Stamp every variant and fan out through the suite's runner. */
    std::vector<RunStats>
    runAveragedMany(std::vector<runner::RunVariant> variants);

    /** Single-variant convenience over runAveragedMany(). */
    RunStats runAveraged(runner::RunVariant variant);

    /** Grid-free convenience: build the variant inline (the historical
     * bench_util runAveraged signature). */
    RunStats runAveraged(const workloads::WorkloadSpec &spec,
                         const core::AgentConfig &config,
                         env::Difficulty difficulty, int seeds,
                         int n_agents = -1,
                         const core::PipelineOptions &pipeline = {});

    /** Stamp every job and run the batch on the suite's runner. */
    std::vector<core::EpisodeResult>
    run(std::vector<runner::EpisodeJob> jobs);

    /** Stamp every job and run the batch on a caller-built runner (the
     * serial timing-measurement paths). */
    std::vector<core::EpisodeResult>
    run(const runner::EpisodeRunner &custom_runner,
        std::vector<runner::EpisodeJob> jobs);

    /** Emit one EBS_METRIC headline line (see bench_util.h history). */
    void emitMetric(const std::string &bench_case, const RunStats &r);

    /** Emit a single named scalar as an EBS_METRIC line. */
    void emitScalarMetric(const std::string &bench_case,
                          const std::string &name, double value);

    /** Emit the charged-batching metric pair; returns the saved
     * fraction for the suite's own table. */
    double emitChargedMetrics(const std::string &bench_case,
                              double sequential_s_per_step,
                              double charged_s_per_step);

    /** Emit the speculative-execute metric triple. */
    void emitSpeculativeMetrics(const std::string &bench_case,
                                const RunStats &r);

    /**
     * Report what this suite's engine service saw (call volume,
     * cross-agent batch occupancy). The printed label predates the
     * in-process registry — a standalone binary's "shared" service sees
     * exactly one suite's traffic, which is exactly what engineService()
     * sees here, so the wording (and the bytes) are unchanged.
     */
    void emitSharedServiceSummary(const std::string &bench_case);

    /** Report the suite's compute/execute host wall-clock split to the
     * stderr sink as one EBS_PHASE_WALL line. */
    void emitPhaseWallSummary();

  private:
    /** Print `EBS_METRIC <payload>` to the stdout sink and keep the
     * payload for metrics(). */
    void emitPayload(std::string payload);

    std::FILE *out_;
    std::FILE *err_;
    bool smoke_;
    std::vector<std::string> args_;
    sched::FleetScheduler *scheduler_;
    obs::Tracer tracer_;
    llm::LlmEngineService service_;
    stats::PhaseWallClock phase_wall_;
    runner::EpisodeRunner runner_;
    std::vector<std::string> metrics_;
};

/** A registered suite: its fn plus what --list-suites prints. The name
 * doubles as the standalone binary name (bench/<name> in the build
 * tree). */
struct SuiteInfo
{
    std::string name;
    std::string description;
    int (*fn)(SuiteContext &) = nullptr;
};

/**
 * Run `suite` on `context` with its exceptions contained: a throw is
 * reported on the context's stderr sink as `suite <name> threw: <what>`
 * and becomes exit code 1. Both drivers (run_all and the standalone
 * wrapper) run suites through here, so a throwing suite fails the same
 * way in-process and standalone, and never takes down the fleet.
 */
int runSuite(const SuiteInfo &suite, SuiteContext &context);

/**
 * The process-wide suite registry. Registration happens from static
 * initializers (EBS_BENCH_SUITE), so link order decides insertion
 * order; suites() sorts by name so fleet listings and logs are stable.
 */
class SuiteRegistry
{
  public:
    static SuiteRegistry &instance();

    void add(SuiteInfo info);

    /** Every registered suite, sorted by name. */
    const std::vector<SuiteInfo> &suites() const;

    /** Exact-name lookup; nullptr when absent. */
    const SuiteInfo *find(const std::string &name) const;

  private:
    SuiteRegistry() = default;

    mutable std::vector<SuiteInfo> suites_;
    mutable bool sorted_ = false;
};

/** Registers one suite from a static initializer. */
struct SuiteRegistrar
{
    SuiteRegistrar(const char *name, const char *description,
                   int (*fn)(SuiteContext &));
};

/**
 * Register `fn` (an `int(SuiteContext &)`) under `name`. Use at
 * namespace scope, once per translation unit:
 *
 *     EBS_BENCH_SUITE("bench_fig2_latency", "Fig. 2 ...", suiteMain);
 */
#define EBS_BENCH_SUITE(name, description, fn)                             \
    static const ::ebs::bench::SuiteRegistrar kEbsSuiteRegistrar {         \
        (name), (description), (fn)                                       \
    }

} // namespace ebs::bench

#endif // EBS_BENCH_SUITE_H
