/**
 * @file
 * The `ulfault` command-line driver: deterministic SEU fault-injection
 * campaigns from the shell, built on fault::runCampaign.
 *
 * A campaign takes one program (same spellings as `ulpeak`: a
 * bench430 registry name or an assembly-file path), sweeps bit-flips
 * over the netlist's flops (plus optional random RAM bits) times
 * random injection cycles of the golden execution, and classifies
 * every faulted run against the golden ISS as masked / SDC / crash /
 * hang. Registry benchmarks keep their inputs in uninitialized RAM
 * (X on the gate side, which the lockstep would flag), so the driver
 * folds one deterministic concrete input set -- derived from the
 * campaign seed via Benchmark::makeInput -- into the image before the
 * campaign; the input thereby participates in the cache key through
 * the image contents. With --envelope the X-based per-cycle peak-power envelope is
 * analyzed first and faulted runs exceeding it are flagged as
 * *escapes* -- reported findings (the envelope guarantee quantifies
 * over inputs, not particle strikes), never exit-code failures.
 *
 * Output: a per-site vulnerability table on stdout plus
 * machine-readable JSON (--json) and CSV (--csv). Timing and
 * cache-provenance fields are isolated exactly like `ulpeak`'s:
 * serializing with @p include_timings = false produces byte-identical
 * JSON for any (--jobs, --scalar/packed, cache state) combination --
 * the campaign determinism contract, pinned by tests/test_fault.cc
 * and the CI smoke.
 *
 * `--replay SITE@CYCLE` re-runs a single injection through the scalar
 * runner and prints the full divergence report (first divergent
 * cycle, state diff, disassembled window) -- the reproduction recipe
 * for any row of a campaign report.
 */

#ifndef ULPEAK_CLI_FAULT_DRIVER_HH
#define ULPEAK_CLI_FAULT_DRIVER_HH

#include <string>

#include "fault/campaign.hh"

namespace ulpeak {
namespace cli {

/** Parsed command line of the `ulfault` tool. */
struct FaultCliOptions {
    /** The campaign, written by parseFaultArgs directly: --seed,
     *  --jobs, --scalar (packed = false), --cycles-per-site,
     *  --max-sites (maxFlopSites), --ram-sites, --hang-cycles,
     *  --port (portIn), --freq, --envelope (withEnvelope),
     *  --cache-dir. Its one CLI-specific default: the campaign
     *  cache lives in .ulpeak-cache. */
    fault::CampaignOptions campaign;
    std::string programSpec;   ///< registry name or .s path
    bool portSet = false;      ///< --port was given explicitly
    unsigned top = 20;         ///< --top N: table rows
    std::string jsonPath;      ///< --json FILE
    std::string csvPath;       ///< --csv FILE
    bool noTimings = false;    ///< --no-timings: deterministic JSON
    bool noCache = false;      ///< --no-cache
    bool replay = false;       ///< --replay SITE@CYCLE given
    uint32_t replaySite = 0;
    uint64_t replayCycle = 0;
    bool quiet = false;        ///< --quiet: suppress the table
    bool help = false;         ///< --help

    FaultCliOptions() { campaign.cacheDir = ".ulpeak-cache"; }
};

std::string faultUsage();

/** Parse @p argv; on bad usage returns false and sets @p err. */
bool parseFaultArgs(int argc, const char *const *argv,
                    FaultCliOptions &out, std::string &err);

/** The campaign of a parsed command line (--no-cache applied). */
fault::CampaignOptions toCampaignOptions(const FaultCliOptions &cli);

/** Serialize a campaign report as JSON. With @p include_timings =
 *  false the wall-time and cache-provenance fields are omitted: the
 *  output is byte-identical across --jobs, --scalar vs packed, and
 *  cache states. */
std::string toFaultJson(const fault::CampaignResult &res,
                        const fault::CampaignOptions &opts,
                        const std::string &program,
                        bool include_timings = true);

/** One-row-per-injection CSV (header included; deterministic). */
std::string toFaultCsv(const fault::CampaignResult &res);

/** The complete driver behind tools/ulfault_main.cc. Exit codes:
 *  0 = campaign ran (escapes are findings, not failures),
 *  1 = campaign error (golden divergence, bad program),
 *  2 = usage error. */
int runFaultCli(int argc, const char *const *argv);

} // namespace cli
} // namespace ulpeak

#endif // ULPEAK_CLI_FAULT_DRIVER_HH
