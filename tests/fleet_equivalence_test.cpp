#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "stats/metric_diff.h"

/**
 * The fleet's determinism and standalone-equivalence gates, driving the
 * built `run_all` and `bench_*` binaries on the smoke fleet:
 *
 *  - the in-process fleet at --jobs 1 and --jobs 8 produces
 *    byte-identical per-suite stdout and exactly equal paper metrics
 *    (zero tolerance);
 *  - every standalone `bench_*` binary run with EBS_BENCH_SMOKE=1
 *    prints exactly the bytes its suite's run_all log holds.
 *
 * Both byte comparisons cover every suite `run_all --list-suites`
 * names, with no exception: a suite whose log goes missing fails them.
 * The `.err.log` diagnostics (host timings, EBS_PHASE_WALL) are
 * host-dependent and deliberately outside the determinism contract.
 */

namespace {

namespace fs = std::filesystem;

struct FleetRun
{
    fs::path json;
    fs::path logs;
};

fs::path
benchBinary(const std::string &name)
{
    return fs::path(EBS_BENCH_BIN_DIR) / name;
}

fs::path
scratchDir(const std::string &label)
{
    const fs::path dir = fs::path(testing::TempDir()) / ("fleet_" + label);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

FleetRun
runFleet(const std::string &label, const std::string &flags)
{
    const fs::path dir = scratchDir(label);
    FleetRun run{dir / "results.json", dir / "logs"};
    std::ostringstream cmd;
    cmd << benchBinary("run_all") << " --smoke " << flags << " --out "
        << run.json << " --logs " << run.logs << " --timeline "
        << (dir / "timeline.json") << " > " << (dir / "driver.out")
        << " 2> " << (dir / "driver.err");
    const int rc = std::system(cmd.str().c_str());
    EXPECT_EQ(rc, 0) << cmd.str();
    return run;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** The byte-compared per-suite stdout logs of one fleet run. */
std::set<std::string>
suiteLogs(const FleetRun &run)
{
    std::set<std::string> names;
    for (const auto &entry : fs::directory_iterator(run.logs)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 4 && name.ends_with(".log") &&
            !name.ends_with(".err.log"))
            names.insert(name);
    }
    return names;
}

/** `<suite>.log` for every suite `run_all --list-suites` prints: the
 * exact log set a full fleet run must produce. */
std::set<std::string>
registeredSuiteLogs()
{
    const fs::path listing = scratchDir("list_suites") / "suites.txt";
    std::ostringstream cmd;
    cmd << benchBinary("run_all") << " --list-suites > " << listing;
    EXPECT_EQ(std::system(cmd.str().c_str()), 0) << cmd.str();
    std::set<std::string> names;
    std::istringstream lines(readFile(listing));
    for (std::string line; std::getline(lines, line);) {
        std::istringstream fields(line);
        std::string name;
        if (fields >> name)
            names.insert(name + ".log");
    }
    return names;
}

/** (suite, case) -> exact metric values of one BENCH_results.json. */
std::map<std::pair<std::string, std::string>,
         std::map<std::string, double>>
paperMetrics(const fs::path &json_path)
{
    std::string error;
    const auto entries =
        ebs::stats::parseBenchResults(readFile(json_path), &error);
    EXPECT_TRUE(error.empty()) << json_path << ": " << error;
    std::map<std::pair<std::string, std::string>,
             std::map<std::string, double>>
        by_case;
    for (const auto &entry : entries)
        by_case[{entry.suite, entry.case_name}] = entry.values;
    return by_case;
}

TEST(FleetEquivalence, WorkerCountNeverChangesLogsOrMetrics)
{
    if (!fs::exists(benchBinary("run_all")))
        GTEST_SKIP() << "bench targets not built";

    const FleetRun wide = runFleet("jobs8", "--jobs 8");
    const FleetRun narrow = runFleet("jobs1", "--jobs 1");

    const auto logs = suiteLogs(wide);
    ASSERT_FALSE(logs.empty()) << "smoke fleet wrote no logs";
    ASSERT_EQ(logs, registeredSuiteLogs());
    EXPECT_EQ(suiteLogs(narrow), logs);
    for (const auto &name : logs)
        EXPECT_EQ(readFile(narrow.logs / name), readFile(wide.logs / name))
            << "per-suite stdout diverged in " << name;

    const auto metrics = paperMetrics(wide.json);
    ASSERT_GE(metrics.size(), 50u) << "paper metrics unexpectedly sparse";
    // Exact equality — the zero-tolerance paper-metric gate.
    EXPECT_EQ(paperMetrics(narrow.json), metrics);
}

TEST(FleetEquivalence, StandaloneBinariesMatchInProcessLogs)
{
    if (!fs::exists(benchBinary("run_all")))
        GTEST_SKIP() << "bench targets not built";

    const FleetRun fleet = runFleet("standalone_ref", "--jobs 8");
    const auto logs = suiteLogs(fleet);
    ASSERT_FALSE(logs.empty()) << "smoke fleet wrote no logs";
    ASSERT_EQ(logs, registeredSuiteLogs());

    const fs::path dir = scratchDir("standalone");
    for (const auto &log : logs) {
        const std::string suite = log.substr(0, log.size() - 4);
        const fs::path binary = benchBinary(suite);
        ASSERT_TRUE(fs::exists(binary)) << binary;
        const fs::path out = dir / log;
        std::ostringstream cmd;
        cmd << "EBS_BENCH_SMOKE=1 " << binary << " > " << out << " 2> "
            << (dir / (suite + ".err.log"));
        EXPECT_EQ(std::system(cmd.str().c_str()), 0) << cmd.str();
        EXPECT_EQ(readFile(out), readFile(fleet.logs / log))
            << "standalone stdout diverged from the run_all log of "
            << suite;
    }
}

TEST(RunAll, FailedOutputWriteExitsNonzero)
{
    if (!fs::exists(benchBinary("run_all")))
        GTEST_SKIP() << "bench targets not built";
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";

    // Each output in turn goes to /dev/full (every write fails with
    // ENOSPC); the others go to a scratch directory.
    for (const std::string flag : {"--out", "--timeline", "--trace-out"}) {
        const fs::path dir = scratchDir("dev_full" + flag);
        const auto target = [&](const std::string &option,
                                const char *file) {
            return option == flag ? fs::path("/dev/full") : dir / file;
        };
        std::ostringstream cmd;
        cmd << "EBS_TRACE=1 " << benchBinary("run_all")
            << " --smoke --suites table1 --logs " << (dir / "logs")
            << " --out " << target("--out", "results.json")
            << " --timeline " << target("--timeline", "timeline.json")
            << " --trace-out " << target("--trace-out", "trace.json")
            << " > " << (dir / "driver.out") << " 2> "
            << (dir / "driver.err");
        const int rc = std::system(cmd.str().c_str());
        ASSERT_TRUE(WIFEXITED(rc)) << cmd.str();
        EXPECT_NE(WEXITSTATUS(rc), 0) << cmd.str();
        EXPECT_EQ(readFile(dir / "driver.out").find("wrote /dev/full"),
                  std::string::npos)
            << flag;
        EXPECT_NE(readFile(dir / "driver.err")
                      .find("run_all: cannot write /dev/full"),
                  std::string::npos)
            << flag;
    }
}

TEST(RunAll, UnwritableCsvDirectoryExitsTwo)
{
    if (!fs::exists(benchBinary("run_all")))
        GTEST_SKIP() << "bench targets not built";

    // The CSV directory does not exist, so the open fails; each suite
    // must say so and exit 2 before running any episode.
    for (const std::string suite :
         {"bench_fig5_memory", "bench_fig7_scalability"}) {
        const fs::path dir = scratchDir("csv_" + suite);
        const fs::path missing = dir / "missing";
        std::ostringstream cmd;
        cmd << "EBS_BENCH_SMOKE=1 " << benchBinary(suite) << " "
            << missing << " > " << (dir / "suite.out") << " 2> "
            << (dir / "suite.err");
        const int rc = std::system(cmd.str().c_str());
        ASSERT_TRUE(WIFEXITED(rc)) << cmd.str();
        EXPECT_EQ(WEXITSTATUS(rc), 2) << cmd.str();
        EXPECT_NE(readFile(dir / "suite.err")
                      .find(suite + ": cannot write " + missing.string()),
                  std::string::npos)
            << suite;
        EXPECT_EQ(readFile(dir / "suite.out"), "") << suite;
    }
}

} // namespace
