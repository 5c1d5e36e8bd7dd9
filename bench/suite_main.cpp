#include <cstdio>

#include "suite.h"

/**
 * Thin standalone wrapper: each `bench_*` CMake target compiles this TU
 * with -DEBS_SUITE_NAME="<suite name>" and links the suite library, so
 * every registered suite stays runnable (and debuggable) as its own
 * binary. The wrapper binds the process-global environment a
 * SuiteContext abstracts: real stdout/stderr as the sinks,
 * EBS_BENCH_SMOKE for smoke mode and FleetScheduler::shared() as the
 * pool. Its stdout is byte-identical to the suite's run_all log (the
 * fleet equivalence test pins this).
 */
int
main(int argc, char **argv)
{
    using ebs::bench::SuiteContext;
    using ebs::bench::SuiteInfo;
    using ebs::bench::SuiteRegistry;

    const SuiteInfo *suite = SuiteRegistry::instance().find(EBS_SUITE_NAME);
    if (suite == nullptr) {
        // EBS_LINT_ALLOW(suite-io): wrapper failure before any sink exists
        std::fprintf(stderr, "%s: suite \"%s\" is not registered\n",
                     argv[0], EBS_SUITE_NAME);
        return 2;
    }

    SuiteContext::Config config;
    // EBS_LINT_ALLOW(suite-io): the wrapper binds the real process streams
    config.out = stdout;
    // EBS_LINT_ALLOW(suite-io): the wrapper binds the real process streams
    config.err = stderr;
    config.smoke = ebs::bench::smokeMode();
    for (int i = 1; i < argc; ++i)
        config.args.emplace_back(argv[i]);

    SuiteContext context(config);
    return ebs::bench::runSuite(*suite, context);
}
