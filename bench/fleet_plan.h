#ifndef EBS_BENCH_FLEET_PLAN_H
#define EBS_BENCH_FLEET_PLAN_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

/**
 * Pure fleet-planning helpers behind `run_all`, extracted so the
 * schedule-seeding and suite-selection logic is unit-testable without
 * spawning anything: previous-run timeline parsing, longest-first
 * schedule ordering, --suites list splitting, and suite-name resolution
 * with near-miss suggestions. Everything here is a pure function of its
 * inputs (the one file reader takes a path and degrades to "empty" on
 * any mismatch).
 */
namespace ebs::bench {

/**
 * Per-suite wall-clock of a previous fleet run, read back from the
 * BENCH_timeline.json that run wrote. Used to seed the schedule order:
 * submitting the longest suites first shaves the straggler tail versus
 * the default alphabetical order (a long suite started last overhangs
 * the makespan by almost its whole duration). The parser is a minimal
 * scan over the file run_all itself writes — on any mismatch, or when
 * `path` is not a regular file, it returns an empty map and the
 * schedule falls back to list order.
 */
std::map<std::string, double>
readTimelineDurations(const std::string &path);

/**
 * The order suite tasks are submitted to the scheduler: previous-run
 * longest first (suites absent from the previous timeline are treated
 * as unknown-and-possibly-long and go first, keeping their relative
 * order), or plain list order when no usable timeline exists. Returns
 * indices into `names`.
 */
std::vector<std::size_t>
scheduleOrder(const std::vector<std::string> &names,
              const std::map<std::string, double> &durations);

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string>
splitList(const std::string &list);

/** Levenshtein edit distance (insert/delete/substitute, unit cost). */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * Suite names ranked as near-misses of a failed --suites entry: every
 * name (also matched without its "bench_" prefix) whose edit distance
 * to the entry is within max(2, entry length / 3), closest first, ties
 * in list order, capped at `limit`. Powers run_all's "did you mean"
 * diagnostics so a typo'd suite name fails with the fix in hand.
 */
std::vector<std::string>
nearMissCandidates(const std::string &entry,
                   const std::vector<std::string> &names,
                   std::size_t limit = 3);

/** Outcome of resolving one --suites entry against the suite list. */
struct SuiteResolution
{
    static constexpr std::size_t kNotFound =
        static_cast<std::size_t>(-1);

    std::size_t index = kNotFound; ///< resolved index into the names
    bool ambiguous = false;        ///< multiple substring matches
    /** On failure: the ambiguous substring matches, or (when nothing
     * matched at all) the near-miss suggestions. */
    std::vector<std::string> candidates;

    bool ok() const { return index != kNotFound; }
};

/**
 * Resolve one --suites entry: exact name first (with or without the
 * bench_ prefix), then unique substring. A failed resolution carries
 * candidates — the ambiguous matches, or near-miss suggestions for a
 * name that matched nothing — so the caller can fail loudly with the
 * correction instead of silently shrinking the fleet.
 */
SuiteResolution resolveSuite(const std::string &entry,
                             const std::vector<std::string> &names);

} // namespace ebs::bench

#endif // EBS_BENCH_FLEET_PLAN_H
