/**
 * @file
 * The `ulpeak` command-line driver: batch peak-power/energy analysis
 * of application suites from the shell, built on peak::analyzeBatch.
 *
 * Programs are resolved from three spellings, freely mixed:
 *  - `all` -- every program of the bench430 registry
 *    (bench430::allBenchmarkNames());
 *  - a registry name (`mult`, `FFT`, ...), comma-separated lists
 *    allowed;
 *  - a path to an MSP430 assembly file (anything containing a '/' or
 *    ending in .s/.asm), assembled with isa::assemble.
 *
 * With --scenario the suite is swept across deployment scenarios
 * (preset names or scenario .json files; src/scenario): every
 * program is analyzed once per scenario and the reports carry the
 * matrix plus per-scenario suite maxima and tightening ratios.
 *
 * Output: a human-readable table on stdout plus machine-readable
 * JSON (--json) and CSV (--csv) suite reports. The JSON carries
 * per-(program, scenario) requirements, suite aggregates (the
 * supply-sizing maxima) and the sizing::sizeSuiteSupply component
 * table. Timing and
 * cache-provenance fields are isolated so that reports from runs with
 * different worker counts or cache states are comparable: serializing
 * with @p include_timings = false must produce byte-identical JSON
 * for any (jobs, numThreads, cache) combination
 * (tests/test_batch.cc pins this).
 *
 * Usage summary: see usage(), or run `ulpeak --help`.
 */

#ifndef ULPEAK_CLI_DRIVER_HH
#define ULPEAK_CLI_DRIVER_HH

#include <string>
#include <vector>

#include "peak/batch.hh"
#include "peak/modes.hh"

namespace ulpeak {
namespace cli {

/** Parsed command line of the `ulpeak` tool. */
struct CliOptions {
    std::vector<std::string> programSpecs; ///< names / "all" / paths
    /** The batch and engine options, written by parseArgs directly:
     *  --jobs, --cache-dir and --fail-fast set the BatchOptions
     *  fields of those names; --threads (numThreads), --freq,
     *  --loop-bound (inputDependentLoopBound), --max-cycles
     *  (maxTotalCycles), --envelope (recordEnvelope) and --windows
     *  (envelopeWindows) set batch.analysis, whose knobs are
     *  documented on sym::SymbolicConfig. --jobs and --threads are
     *  the only strategy flags: the kernel, snapshot form and
     *  exploration frontier keep their defaults, and the reference
     *  settings stay reachable through the library only. Its one
     *  CLI-specific default: results cache in .ulpeak-cache. */
    peak::BatchOptions batch;
    std::string jsonPath;       ///< --json FILE ("" = no JSON output)
    std::string csvPath;        ///< --csv FILE ("" = no CSV output)
    /** --envelope[=json|csv]: json embeds the envelopes in the
     *  --json report (plus a table summary); csv additionally
     *  streams per-cycle rows to stdout (cli::toEnvelopeCsv). */
    std::string envelopeFormat = "json";
    /** --modes[=table|json|csv]: per-operating-mode report of
     *  mode-scheduled scenarios (peak::buildModeReport): per-mode
     *  envelope slices, schedule transitions with settling-window
     *  peaks, assertion verdicts and sizing findings. Implies
     *  envelope recording. table appends sections to the stdout
     *  table; json/csv print a standalone report to stdout
     *  (toModesJson / toModesCsv). Assertion failures are findings,
     *  never a nonzero exit. */
    bool modes = false;
    std::string modesFormat = "table"; ///< table | json | csv
    /** --no-timings: omit wall-time / cache-provenance fields from
     *  the --json report (toJson's include_timings = false), so
     *  reports from different --jobs/--threads/cache runs are
     *  byte-identical. */
    bool noTimings = false;
    /** --scenario SPEC[,SPEC...]: deployment scenarios to sweep the
     *  suite across. Each spec is a preset name
     *  (scenario::Scenario::presetNames()) or a path to a scenario
     *  JSON file (anything containing '/' or ending in .json).
     *  Empty = unconstrained only. */
    std::vector<std::string> scenarioSpecs;
    bool noCache = false;       ///< --no-cache
    bool quiet = false;         ///< --quiet: suppress the table
    bool help = false;          ///< --help

    CliOptions() { batch.cacheDir = ".ulpeak-cache"; }
};

/** The --help text. */
std::string usage();

/** Parse @p argv into @p out; on bad usage returns false and sets
 *  @p err (no exit/abort so tests can drive it). */
bool parseArgs(int argc, const char *const *argv, CliOptions &out,
               std::string &err);

/** Resolve program specs into assembled suite entries; throws
 *  std::runtime_error on unknown names, unreadable files or assembly
 *  errors (message names the offending spec). */
std::vector<peak::BatchProgram>
resolvePrograms(const std::vector<std::string> &specs);

/** The batch options of a parsed command line: CliOptions::batch
 *  plus the resolved --scenario specs, --modes' envelope recording
 *  and --no-cache. Throws std::runtime_error on unknown presets or
 *  unreadable/malformed scenario files, naming the offending spec. */
peak::BatchOptions toBatchOptions(const CliOptions &cli);

/** Serialize a suite report as JSON. With @p include_timings = false
 *  all wall-time and cache-provenance fields are omitted, making the
 *  output deterministic across worker counts and cache states. */
std::string toJson(const peak::BatchReport &rep,
                   const peak::BatchOptions &opts,
                   bool include_timings = true);

/** One-row-per-program CSV (header included). */
std::string toCsv(const peak::BatchReport &rep);

/** Per-cycle envelope rows: program name (or "__suite__" for a
 *  composed per-scenario suite envelope), scenario, cycle, envelope
 *  power, and one windowed peak-energy column per window.
 *  Deterministic: byte-identical across --jobs / --threads / cache
 *  states. */
std::string toEnvelopeCsv(const peak::BatchReport &rep);

/** Per-(program, scenario) operating-mode reports
 *  (peak::buildModeReport over each row's envelope), parallel to
 *  rep.programs; rows without a mode schedule or envelope get a
 *  non-present report. @p scens must be the scenario list the batch
 *  ran (BatchOptions::scenarios, or the single analysis scenario);
 *  @p lib_vdd the analysis library's nominal rail. */
std::vector<peak::ModeReport>
buildModeReports(const peak::BatchReport &rep,
                 const std::vector<scenario::Scenario> &scens,
                 double lib_vdd);

/** Standalone JSON document of the --modes report. Deterministic:
 *  carries no timing or cache-provenance fields, so it is
 *  byte-identical across --jobs / --threads / kernels / snapshot
 *  modes / cache states. */
std::string toModesJson(const peak::BatchReport &rep,
                        const std::vector<peak::ModeReport> &reports);

/** CSV form of the --modes report: one row per mode slice,
 *  transition, assertion verdict and finding (kind column).
 *  Deterministic like toModesJson. */
std::string toModesCsv(const peak::BatchReport &rep,
                       const std::vector<peak::ModeReport> &reports);

/** The complete driver behind tools/ulpeak_main.cc: parse, resolve,
 *  analyze, emit. Returns the process exit code (0 = whole suite
 *  analyzed successfully, 1 = any failure, 2 = usage error). */
int runCli(int argc, const char *const *argv);

} // namespace cli
} // namespace ulpeak

#endif // ULPEAK_CLI_DRIVER_HH
