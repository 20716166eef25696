/**
 * @file
 * The `ulfuzz` command-line driver: seeded differential fuzzing of
 * the whole stack, built on src/fuzz and src/cosim.
 *
 * One run checks ten properties end-to-end (docs/testing.md):
 *
 *  1. cosim  -- ISS <-> gate-level lockstep equivalence on
 *               --programs random programs;
 *  2. kernel -- FullSweep <-> EventDriven bit-identity on
 *               --netlists random netlists;
 *  3. sym    -- 1-vs-K-thread peak-analysis determinism plus
 *               EventDriven-vs-FullSweep report identity (including
 *               the peak power envelope and windowed peak-energy
 *               curves) on --sym-programs random programs;
 *  4. envelope -- the per-cycle peak power envelope bounds every
 *               concrete execution: random programs analyzed with
 *               envelope recording, then re-run concretely with
 *               random per-cycle port schedules, on --env-programs
 *               random programs;
 *  5. scenario -- scenario dominance: random port-constraint
 *               scenarios must only tighten peak power / energy /
 *               envelope vs the unconstrained analysis, stay
 *               1-vs-K-thread deterministic, and bound every
 *               scenario-obeying concrete run, on --scn-programs
 *               random programs;
 *  6. packed -- bit-parallel kernel lane identity: one 64-lane
 *               PackedSimulator run vs 64 independent scalar runs on
 *               --packed-netlists random netlists (64 derived input
 *               schedules per item), and 64-lane batched concrete
 *               envelope validation on --packed-programs random
 *               programs;
 *  7. fault  -- SEU-injection identity and determinism: the packed
 *               lane-identity lockstep with per-lane random bit-flips
 *               injected through the fault API on --fault-netlists
 *               random netlists, and one small fault campaign run
 *               scalar-1-job vs packed-1-job vs packed-K-jobs with
 *               row-for-row classification identity required, on
 *               --fault-programs random programs;
 *  8. dvfs   -- operating-mode dominance: a random DVFS mode
 *               schedule vs a twin whose every (vdd, freq) is only
 *               lowered must only tighten peak power / energy /
 *               envelope, stay bit-identical across 1-vs-K threads,
 *               both kernels and both snapshot modes, and bound
 *               every mode-obeying concrete run, on --dvfs-programs
 *               random programs (`--mode dvfs` honors a bare
 *               --programs N as the item count too);
 *  9. lint   -- constant-claim soundness: the netlist passes
 *               structural lint, and every constant the
 *               scenario-aware const analysis proves is held by a
 *               concrete scenario-obeying run from its settle cycle
 *               on, on --lint-programs random programs (`--mode
 *               lint` honors a bare --programs N as the item count
 *               too);
 * 10. packed-sym -- packed-frontier exploration identity: the
 *               analyses with the Packed frontier (pending paths
 *               drained through the 64-lane kernel) and the Adaptive
 *               one (kernels switched by frontier width) report
 *               bit-identical numbers, traces, envelopes and
 *               activity sets to the scalar exploration under random
 *               scenarios / DVFS schedules / snapshot modes, and
 *               stays 1-vs-K-thread deterministic,
 *               on --psym-programs random programs
 *               (`--mode packed-sym` honors a bare --programs N as
 *               the item count too).
 *
 * Every work item derives its own PRNG stream from (--seed, index),
 * and each failure prints the item index, so
 * `ulfuzz --seed S --programs N --only I` replays one failing item
 * exactly. Exit code 0 = all properties hold, 1 = any divergence or
 * mismatch (the report is printed), 2 = usage error.
 */

#ifndef ULPEAK_CLI_FUZZ_DRIVER_HH
#define ULPEAK_CLI_FUZZ_DRIVER_HH

#include <cstdint>
#include <string>

namespace ulpeak {
namespace cli {

/** Parsed command line of the `ulfuzz` tool. */
struct FuzzCliOptions {
    uint64_t seed = 1;         ///< --seed
    unsigned programs = 50;    ///< --programs: cosim runs
    unsigned netlists = 50;    ///< --netlists: kernel-equivalence runs
    unsigned symPrograms = 8;  ///< --sym-programs: determinism runs
    unsigned envPrograms = 8;  ///< --env-programs: envelope-bound runs
    unsigned scnPrograms = 8;  ///< --scn-programs: scenario-dominance
                               ///< runs
    unsigned packedNetlists = 6; ///< --packed-netlists: packed
                                 ///< lane-identity netlists
    unsigned packedPrograms = 4; ///< --packed-programs: packed
                                 ///< envelope-batch programs
    unsigned faultNetlists = 4; ///< --fault-netlists: faulted
                                ///< lane-identity netlists
    unsigned faultPrograms = 3; ///< --fault-programs: campaign
                                ///< determinism programs
    unsigned dvfsPrograms = 8;  ///< --dvfs-programs: mode-dominance
                                ///< runs
    unsigned lintPrograms = 6;  ///< --lint-programs: constant-claim
                                ///< soundness runs
    unsigned psymPrograms = 6;  ///< --psym-programs: packed-frontier
                                ///< exploration identity runs
    unsigned instructions = 24; ///< --instr: body items per program
    unsigned threads = 4;      ///< --threads: K of the 1-vs-K check
    unsigned kernelCycles = 64; ///< --kernel-cycles per netlist
    long only = -1;            ///< --only INDEX: replay one item
    std::string mode = "all";  ///< --mode
                               ///< all|cosim|kernel|sym|envelope|
                               ///< scenario|packed|fault|dvfs|lint|
                               ///< packed-sym
    bool programsGiven = false; ///< --programs was on the command line
                                ///< (`--mode dvfs` / `--mode lint` /
                                ///< `--mode packed-sym` reuse it as
                                ///< their item count)
    bool dumpPrograms = false; ///< --dump-programs: print sources
    bool quiet = false;        ///< --quiet: only the summary line
    bool help = false;         ///< --help
};

std::string fuzzUsage();

/** Parse @p argv; on bad usage returns false and sets @p err. */
bool parseFuzzArgs(int argc, const char *const *argv,
                   FuzzCliOptions &out, std::string &err);

/** The complete driver behind tools/ulfuzz_main.cc. */
int runFuzzCli(int argc, const char *const *argv);

} // namespace cli
} // namespace ulpeak

#endif // ULPEAK_CLI_FUZZ_DRIVER_HH
