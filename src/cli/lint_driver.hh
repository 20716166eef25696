/**
 * @file
 * The `ullint` command-line driver: static analysis of the gate-level
 * core netlist, built on src/lint.
 *
 * One run executes both lint passes (docs/architecture.md "Static
 * netlist analysis"):
 *
 *  - structural lint: combinational loops, floating fanin slots,
 *    multi-driven nets (overlapping behavioral-hook outputs), dead
 *    gates, fanout hotspots -- scenario-independent connectivity
 *    checks whose Error count is the process exit status;
 *  - scenario-aware constant analysis, once per --scenario: the
 *    gates provably constant under that deployment scenario, their
 *    settle depths, the prune set (the quiescent cone a settled
 *    simulator could skip), and the static energy split (quiescent vs still-switchable
 *    upper bound) with per-module quiescent cones.
 *
 * Scenarios are analyzed by a --jobs worker pool; the report (stdout
 * and --json) is ordered by scenario index and is byte-identical for
 * every --jobs value (pinned by tests/test_lint.cc). There is no
 * disk cache: a full run is a few milliseconds, far below the cost
 * of validating one.
 *
 * Exit status: 0 = no structural errors, 1 = structural errors
 * found, 2 = usage error.
 */

#ifndef ULPEAK_CLI_LINT_DRIVER_HH
#define ULPEAK_CLI_LINT_DRIVER_HH

#include <string>
#include <vector>

namespace ulpeak {
namespace cli {

/** Parsed command line of the `ullint` tool. */
struct LintCliOptions {
    /** --scenario: names or .json files (scenario::Scenario::resolve
     *  specs); empty = the unconstrained default scenario. */
    std::vector<std::string> scenarioSpecs;
    unsigned jobs = 1;          ///< --jobs: scenario analysis workers
    double freqHz = 100e6;      ///< --freq: static peak power clock
    unsigned fanoutThreshold = 0; ///< --fanout-threshold (0 = auto)
    unsigned maxDeadListed = 16;  ///< --dead-limit sample size
    std::string jsonPath;       ///< --json FILE ("-" = stdout)
    bool noTimings = false;     ///< --no-timings: reproducible JSON
    bool quiet = false;         ///< --quiet: suppress stdout report
    bool help = false;          ///< --help
};

std::string lintUsage();

/** Parse @p argv; on bad usage returns false and sets @p err. */
bool parseLintArgs(int argc, const char *const *argv,
                   LintCliOptions &out, std::string &err);

/** The complete driver behind tools/ullint_main.cc. */
int runLintCli(int argc, const char *const *argv);

} // namespace cli
} // namespace ulpeak

#endif // ULPEAK_CLI_LINT_DRIVER_HH
