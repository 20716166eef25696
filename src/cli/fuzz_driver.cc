#include "cli/fuzz_driver.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli/parse_util.hh"
#include "cosim/cosim.hh"
#include "fuzz/program_gen.hh"
#include "fuzz/properties.hh"
#include "fuzz/rng.hh"

namespace ulpeak {
namespace cli {

namespace {

/** Disjoint PRNG stream namespaces per property, so adding programs
 *  to one property never reshuffles another's inputs. */
constexpr uint64_t kCosimStream = 0;
constexpr uint64_t kKernelStream = 1ull << 32;
constexpr uint64_t kSymStream = 2ull << 32;
constexpr uint64_t kEnvelopeStream = 3ull << 32;
constexpr uint64_t kScenarioStream = 4ull << 32;
constexpr uint64_t kPackedStream = 5ull << 32;
constexpr uint64_t kFaultStream = 6ull << 32;
constexpr uint64_t kDvfsStream = 7ull << 32;
constexpr uint64_t kLintStream = 8ull << 32;
constexpr uint64_t kPackedSymStream = 9ull << 32;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct Counters {
    unsigned run = 0;
    unsigned failed = 0;
};

} // namespace

std::string
fuzzUsage()
{
    return
        "usage: ulfuzz [options]\n"
        "\n"
        "Differential fuzzing of the ulpeak stack: random MSP430\n"
        "programs run in lockstep on the golden ISS and the\n"
        "gate-level core (cosim), random netlists lockstep the two\n"
        "simulation kernels (kernel), and random programs check\n"
        "parallel/kernel determinism of the peak analysis (sym).\n"
        "\n"
        "options:\n"
        "  --seed N          master seed (default 1)\n"
        "  --programs N      cosim programs (default 50)\n"
        "  --netlists N      kernel-equivalence netlists (default 50)\n"
        "  --sym-programs N  determinism programs (default 8)\n"
        "  --env-programs N  envelope-bound programs (default 8)\n"
        "  --scn-programs N  scenario-dominance programs (default 8)\n"
        "  --packed-netlists N  packed lane-identity netlists\n"
        "                    (default 6)\n"
        "  --packed-programs N  packed envelope-batch programs\n"
        "                    (default 4)\n"
        "  --fault-netlists N  faulted lane-identity netlists\n"
        "                    (default 4)\n"
        "  --fault-programs N  fault-campaign determinism programs\n"
        "                    (default 3)\n"
        "  --dvfs-programs N  operating-mode dominance programs\n"
        "                    (default 8; `--mode dvfs` also honors a\n"
        "                    bare --programs N as the item count)\n"
        "  --lint-programs N  constant-claim soundness programs\n"
        "                    (default 6; `--mode lint` also honors a\n"
        "                    bare --programs N as the item count)\n"
        "  --psym-programs N  packed-frontier exploration identity\n"
        "                    programs (default 6; `--mode packed-sym`\n"
        "                    also honors a bare --programs N as the\n"
        "                    item count)\n"
        "  --instr N         body items per program (default 24)\n"
        "  --threads K       K of the 1-vs-K thread check (default 4)\n"
        "  --kernel-cycles N cycles per netlist run (default 64)\n"
        "  --mode M          all|cosim|kernel|sym|envelope|scenario\n"
        "                    |packed|fault|dvfs|lint|packed-sym\n"
        "                    (default all)\n"
        "  --only I          run only item index I of the selected\n"
        "                    mode (replay a reported failure)\n"
        "  --dump-programs   print every generated program\n"
        "  --quiet           only the final summary\n"
        "  --help            this text\n"
        "\n"
        "Reproducing a failure: every report names the mode, item\n"
        "index and seed; rerun with the same --seed plus\n"
        "--mode M --only I (see docs/testing.md).\n";
}

bool
parseFuzzArgs(int argc, const char *const *argv, FuzzCliOptions &out,
              std::string &err)
{
    auto value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            err = std::string(flag) + " expects a value";
            return nullptr;
        }
        return argv[++i];
    };
    // Item counts and cycle budgets: whole unsigned token required
    // (trailing garbage rejected), zero allowed -- `--netlists 0`
    // legitimately skips a property.
    auto countArg = [&](int &i, const char *flag,
                        unsigned &dst) -> bool {
        const char *v = value(i, flag);
        if (!v)
            return false;
        uint64_t n = 0;
        if (!parseUnsignedInt(v, n) ||
            n > std::numeric_limits<unsigned>::max()) {
            err = std::string(flag) + " expects an unsigned count, "
                  "got \"" + v + "\"";
            return false;
        }
        dst = unsigned(n);
        return true;
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = nullptr;
        if (a == "--help" || a == "-h") {
            out.help = true;
        } else if (a == "--seed") {
            if (!(v = value(i, "--seed")))
                return false;
            if (!parseUnsignedInt(v, out.seed)) {
                err = std::string("--seed expects an unsigned "
                                  "integer, got \"") + v + "\"";
                return false;
            }
        } else if (a == "--programs") {
            if (!countArg(i, "--programs", out.programs))
                return false;
            out.programsGiven = true;
        } else if (a == "--netlists") {
            if (!countArg(i, "--netlists", out.netlists))
                return false;
        } else if (a == "--sym-programs") {
            if (!countArg(i, "--sym-programs", out.symPrograms))
                return false;
        } else if (a == "--env-programs") {
            if (!countArg(i, "--env-programs", out.envPrograms))
                return false;
        } else if (a == "--scn-programs") {
            if (!countArg(i, "--scn-programs", out.scnPrograms))
                return false;
        } else if (a == "--packed-netlists") {
            if (!countArg(i, "--packed-netlists", out.packedNetlists))
                return false;
        } else if (a == "--packed-programs") {
            if (!countArg(i, "--packed-programs", out.packedPrograms))
                return false;
        } else if (a == "--fault-netlists") {
            if (!countArg(i, "--fault-netlists", out.faultNetlists))
                return false;
        } else if (a == "--fault-programs") {
            if (!countArg(i, "--fault-programs", out.faultPrograms))
                return false;
        } else if (a == "--dvfs-programs") {
            if (!countArg(i, "--dvfs-programs", out.dvfsPrograms))
                return false;
        } else if (a == "--lint-programs") {
            if (!countArg(i, "--lint-programs", out.lintPrograms))
                return false;
        } else if (a == "--psym-programs") {
            if (!countArg(i, "--psym-programs", out.psymPrograms))
                return false;
        } else if (a == "--instr") {
            if (!countArg(i, "--instr", out.instructions))
                return false;
        } else if (a == "--threads") {
            if (!(v = value(i, "--threads")))
                return false;
            if (!parsePositiveInt(v, out.threads) ||
                out.threads < 2) {
                err = "--threads must be an integer >= 2 (it is the "
                      "K of the 1-vs-K comparison)";
                return false;
            }
        } else if (a == "--kernel-cycles") {
            if (!countArg(i, "--kernel-cycles", out.kernelCycles))
                return false;
        } else if (a == "--only") {
            if (!(v = value(i, "--only")))
                return false;
            uint64_t idx = 0;
            if (!parseUnsignedInt(v, idx) ||
                idx > uint64_t(std::numeric_limits<long>::max())) {
                err = std::string("--only expects an item index, "
                                  "got \"") + v + "\"";
                return false;
            }
            out.only = long(idx);
        } else if (a == "--mode") {
            if (!(v = value(i, "--mode")))
                return false;
            out.mode = v;
            if (out.mode != "all" && out.mode != "cosim" &&
                out.mode != "kernel" && out.mode != "sym" &&
                out.mode != "envelope" && out.mode != "scenario" &&
                out.mode != "packed" && out.mode != "fault" &&
                out.mode != "dvfs" && out.mode != "lint" &&
                out.mode != "packed-sym") {
                err = "--mode must be all, cosim, kernel, sym, "
                      "envelope, scenario, packed, fault, dvfs, "
                      "lint or packed-sym";
                return false;
            }
        } else if (a == "--dump-programs") {
            out.dumpPrograms = true;
        } else if (a == "--quiet") {
            out.quiet = true;
        } else {
            err = "unknown argument: " + a;
            return false;
        }
    }
    return true;
}

namespace {

/** Skip logic for --only. */
bool
selected(const FuzzCliOptions &cli, unsigned index)
{
    return cli.only < 0 || unsigned(cli.only) == index;
}

void
runCosim(const FuzzCliOptions &cli, msp::System &sys, Counters &c)
{
    fuzz::ProgramGenOptions gen;
    gen.instructions = cli.instructions;
    for (unsigned i = 0; i < cli.programs; ++i) {
        if (!selected(cli, i))
            continue;
        fuzz::Rng rng(
            fuzz::Rng::deriveStream(cli.seed, kCosimStream + i));
        fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, gen);
        if (cli.dumpPrograms)
            std::printf("--- cosim item %u ---\n%s\n", i,
                        prog.source.c_str());
        ++c.run;
        cosim::Options opts;
        opts.portIn = rng.word();
        try {
            isa::Image image = isa::assemble(prog.source);
            cosim::Result r = cosim::run(sys, image, opts);
            if (!r.ok) {
                ++c.failed;
                std::printf("cosim item %u (seed %llu) DIVERGED:\n%s",
                            i, (unsigned long long)cli.seed,
                            r.report().c_str());
                std::printf("program:\n%s\n", prog.source.c_str());
            }
        } catch (const std::exception &e) {
            ++c.failed;
            std::printf("cosim item %u (seed %llu) generator/assembler "
                        "error: %s\nprogram:\n%s\n",
                        i, (unsigned long long)cli.seed, e.what(),
                        prog.source.c_str());
        }
    }
}

void
runKernel(const FuzzCliOptions &cli, Counters &c)
{
    fuzz::NetlistGenOptions gen;
    for (unsigned i = 0; i < cli.netlists; ++i) {
        if (!selected(cli, i))
            continue;
        ++c.run;
        uint64_t seed =
            fuzz::Rng::deriveStream(cli.seed, kKernelStream + i);
        fuzz::PropertyResult r =
            fuzz::kernelEquivalenceCheck(seed, gen, cli.kernelCycles);
        if (!r.ok) {
            ++c.failed;
            std::printf("kernel item %u (seed %llu) MISMATCH:\n%s", i,
                        (unsigned long long)cli.seed,
                        r.detail.c_str());
        }
    }
}

void
runSym(const FuzzCliOptions &cli, msp::System &sys, Counters &c)
{
    fuzz::ProgramGenOptions gen;
    // Symbolic exploration forks at every X-dependent branch; keep the
    // bodies shorter than the cosim ones so trees stay small.
    gen.instructions = cli.instructions / 2 + 1;
    for (unsigned i = 0; i < cli.symPrograms; ++i) {
        if (!selected(cli, i))
            continue;
        fuzz::Rng rng(
            fuzz::Rng::deriveStream(cli.seed, kSymStream + i));
        fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, gen);
        if (cli.dumpPrograms)
            std::printf("--- sym item %u ---\n%s\n", i,
                        prog.source.c_str());
        ++c.run;
        try {
            isa::Image image = isa::assemble(prog.source);
            fuzz::PropertyResult det =
                fuzz::symDeterminismCheck(sys, image, cli.threads);
            fuzz::PropertyResult mode =
                fuzz::evalModeReportCheck(sys, image);
            if (!det.ok || !mode.ok) {
                ++c.failed;
                std::printf("sym item %u (seed %llu) MISMATCH:\n%s%s"
                            "program:\n%s\n",
                            i, (unsigned long long)cli.seed,
                            det.detail.c_str(), mode.detail.c_str(),
                            prog.source.c_str());
            }
        } catch (const std::exception &e) {
            ++c.failed;
            std::printf("sym item %u (seed %llu) generator/assembler "
                        "error: %s\nprogram:\n%s\n",
                        i, (unsigned long long)cli.seed, e.what(),
                        prog.source.c_str());
        }
    }
}

void
runEnvelope(const FuzzCliOptions &cli, msp::System &sys, Counters &c)
{
    fuzz::ProgramGenOptions gen;
    // Same sizing rationale as the sym mode: every X-dependent branch
    // forks the tree, so keep bodies short.
    gen.instructions = cli.instructions / 2 + 1;
    for (unsigned i = 0; i < cli.envPrograms; ++i) {
        if (!selected(cli, i))
            continue;
        fuzz::Rng rng(
            fuzz::Rng::deriveStream(cli.seed, kEnvelopeStream + i));
        fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, gen);
        if (cli.dumpPrograms)
            std::printf("--- envelope item %u ---\n%s\n", i,
                        prog.source.c_str());
        ++c.run;
        try {
            isa::Image image = isa::assemble(prog.source);
            fuzz::PropertyResult r =
                fuzz::envelopeBoundCheck(sys, image, rng);
            if (!r.ok) {
                ++c.failed;
                std::printf("envelope item %u (seed %llu) UNBOUNDED:"
                            "\n%sprogram:\n%s\n",
                            i, (unsigned long long)cli.seed,
                            r.detail.c_str(), prog.source.c_str());
            }
        } catch (const std::exception &e) {
            ++c.failed;
            std::printf("envelope item %u (seed %llu) "
                        "generator/assembler error: %s\nprogram:\n%s\n",
                        i, (unsigned long long)cli.seed, e.what(),
                        prog.source.c_str());
        }
    }
}

void
runScenario(const FuzzCliOptions &cli, msp::System &sys, Counters &c)
{
    fuzz::ProgramGenOptions gen;
    // Same sizing rationale as the sym mode: every X-dependent branch
    // forks the tree, so keep bodies short.
    gen.instructions = cli.instructions / 2 + 1;
    for (unsigned i = 0; i < cli.scnPrograms; ++i) {
        if (!selected(cli, i))
            continue;
        fuzz::Rng rng(
            fuzz::Rng::deriveStream(cli.seed, kScenarioStream + i));
        fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, gen);
        if (cli.dumpPrograms)
            std::printf("--- scenario item %u ---\n%s\n", i,
                        prog.source.c_str());
        ++c.run;
        try {
            isa::Image image = isa::assemble(prog.source);
            fuzz::PropertyResult r = fuzz::scenarioDominanceCheck(
                sys, image, rng, cli.threads);
            if (!r.ok) {
                ++c.failed;
                std::printf("scenario item %u (seed %llu) DOMINANCE "
                            "VIOLATION:\n%sprogram:\n%s\n",
                            i, (unsigned long long)cli.seed,
                            r.detail.c_str(), prog.source.c_str());
            }
        } catch (const std::exception &e) {
            ++c.failed;
            std::printf("scenario item %u (seed %llu) "
                        "generator/assembler error: %s\nprogram:\n%s\n",
                        i, (unsigned long long)cli.seed, e.what(),
                        prog.source.c_str());
        }
    }
}

void
runPacked(const FuzzCliOptions &cli, msp::System &sys, Counters &c)
{
    // Item index space: [0, packedNetlists) are lane-identity netlist
    // items, [packedNetlists, packedNetlists + packedPrograms) are
    // envelope-batch program items (--only addresses both).
    fuzz::NetlistGenOptions ngen;
    for (unsigned i = 0; i < cli.packedNetlists; ++i) {
        if (!selected(cli, i))
            continue;
        ++c.run;
        uint64_t seed =
            fuzz::Rng::deriveStream(cli.seed, kPackedStream + i);
        fuzz::PropertyResult r = fuzz::packedKernelEquivalenceCheck(
            seed, ngen, cli.kernelCycles);
        if (!r.ok) {
            ++c.failed;
            std::printf("packed item %u (seed %llu) LANE MISMATCH:"
                        "\n%s",
                        i, (unsigned long long)cli.seed,
                        r.detail.c_str());
        }
    }

    fuzz::ProgramGenOptions pgen;
    // Same sizing rationale as the sym mode: every X-dependent branch
    // forks the tree, so keep bodies short.
    pgen.instructions = cli.instructions / 2 + 1;
    for (unsigned p = 0; p < cli.packedPrograms; ++p) {
        unsigned i = cli.packedNetlists + p;
        if (!selected(cli, i))
            continue;
        fuzz::Rng rng(
            fuzz::Rng::deriveStream(cli.seed, kPackedStream + i));
        fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, pgen);
        if (cli.dumpPrograms)
            std::printf("--- packed item %u ---\n%s\n", i,
                        prog.source.c_str());
        ++c.run;
        try {
            isa::Image image = isa::assemble(prog.source);
            fuzz::PropertyResult r =
                fuzz::packedEnvelopeBatchCheck(sys, image, rng);
            if (!r.ok) {
                ++c.failed;
                std::printf("packed item %u (seed %llu) BATCH "
                            "MISMATCH:\n%sprogram:\n%s\n",
                            i, (unsigned long long)cli.seed,
                            r.detail.c_str(), prog.source.c_str());
            }
        } catch (const std::exception &e) {
            ++c.failed;
            std::printf("packed item %u (seed %llu) "
                        "generator/assembler error: %s\nprogram:\n%s\n",
                        i, (unsigned long long)cli.seed, e.what(),
                        prog.source.c_str());
        }
    }
}

void
runFault(const FuzzCliOptions &cli, Counters &c)
{
    // Item index space mirrors the packed mode: [0, faultNetlists)
    // are faulted lane-identity netlist items,
    // [faultNetlists, faultNetlists + faultPrograms) are campaign
    // determinism program items (--only addresses both).
    fuzz::NetlistGenOptions ngen;
    for (unsigned i = 0; i < cli.faultNetlists; ++i) {
        if (!selected(cli, i))
            continue;
        ++c.run;
        uint64_t seed =
            fuzz::Rng::deriveStream(cli.seed, kFaultStream + i);
        fuzz::PropertyResult r = fuzz::faultedPackedEquivalenceCheck(
            seed, ngen, cli.kernelCycles);
        if (!r.ok) {
            ++c.failed;
            std::printf("fault item %u (seed %llu) FAULTED LANE "
                        "MISMATCH:\n%s",
                        i, (unsigned long long)cli.seed,
                        r.detail.c_str());
        }
    }

    fuzz::ProgramGenOptions pgen;
    pgen.instructions = cli.instructions;
    for (unsigned p = 0; p < cli.faultPrograms; ++p) {
        unsigned i = cli.faultNetlists + p;
        if (!selected(cli, i))
            continue;
        fuzz::Rng rng(
            fuzz::Rng::deriveStream(cli.seed, kFaultStream + i));
        fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, pgen);
        if (cli.dumpPrograms)
            std::printf("--- fault item %u ---\n%s\n", i,
                        prog.source.c_str());
        ++c.run;
        try {
            isa::Image image = isa::assemble(prog.source);
            fuzz::PropertyResult r =
                fuzz::faultCampaignDeterminismCheck(
                    image, rng.next(), cli.threads);
            if (!r.ok) {
                ++c.failed;
                std::printf("fault item %u (seed %llu) CAMPAIGN "
                            "NONDETERMINISM:\n%sprogram:\n%s\n",
                            i, (unsigned long long)cli.seed,
                            r.detail.c_str(), prog.source.c_str());
            }
        } catch (const std::exception &e) {
            ++c.failed;
            std::printf("fault item %u (seed %llu) "
                        "generator/assembler error: %s\nprogram:\n%s\n",
                        i, (unsigned long long)cli.seed, e.what(),
                        prog.source.c_str());
        }
    }
}

void
runDvfs(const FuzzCliOptions &cli, msp::System &sys, Counters &c)
{
    fuzz::ProgramGenOptions gen;
    // Same sizing rationale as the sym mode: every X-dependent branch
    // forks the tree, so keep bodies short.
    gen.instructions = cli.instructions / 2 + 1;
    // `--mode dvfs --programs N` means N dvfs items: --programs is the
    // headline knob, and with dvfs selected alone there are no cosim
    // items for it to apply to.
    unsigned items = cli.dvfsPrograms;
    if (cli.mode == "dvfs" && cli.programsGiven)
        items = cli.programs;
    for (unsigned i = 0; i < items; ++i) {
        if (!selected(cli, i))
            continue;
        fuzz::Rng rng(
            fuzz::Rng::deriveStream(cli.seed, kDvfsStream + i));
        fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, gen);
        if (cli.dumpPrograms)
            std::printf("--- dvfs item %u ---\n%s\n", i,
                        prog.source.c_str());
        ++c.run;
        try {
            isa::Image image = isa::assemble(prog.source);
            fuzz::PropertyResult r = fuzz::modeDominanceCheck(
                sys, image, rng, cli.threads);
            if (!r.ok) {
                ++c.failed;
                std::printf("dvfs item %u (seed %llu) MODE DOMINANCE "
                            "VIOLATION:\n%sprogram:\n%s\n",
                            i, (unsigned long long)cli.seed,
                            r.detail.c_str(), prog.source.c_str());
            }
        } catch (const std::exception &e) {
            ++c.failed;
            std::printf("dvfs item %u (seed %llu) "
                        "generator/assembler error: %s\nprogram:\n%s\n",
                        i, (unsigned long long)cli.seed, e.what(),
                        prog.source.c_str());
        }
    }
}

void
runLint(const FuzzCliOptions &cli, msp::System &sys, Counters &c)
{
    fuzz::ProgramGenOptions gen;
    // Same sizing rationale as the sym mode: every X-dependent branch
    // forks the tree, so keep bodies short.
    gen.instructions = cli.instructions / 2 + 1;
    // `--mode lint --programs N` means N lint items, like dvfs.
    unsigned items = cli.lintPrograms;
    if (cli.mode == "lint" && cli.programsGiven)
        items = cli.programs;
    for (unsigned i = 0; i < items; ++i) {
        if (!selected(cli, i))
            continue;
        fuzz::Rng rng(
            fuzz::Rng::deriveStream(cli.seed, kLintStream + i));
        fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, gen);
        if (cli.dumpPrograms)
            std::printf("--- lint item %u ---\n%s\n", i,
                        prog.source.c_str());
        ++c.run;
        try {
            isa::Image image = isa::assemble(prog.source);
            fuzz::PropertyResult r =
                fuzz::constantClaimCheck(sys, image, rng);
            if (!r.ok) {
                ++c.failed;
                std::printf("lint item %u (seed %llu) CONSTANT CLAIM "
                            "UNSOUND:\n%sprogram:\n%s\n",
                            i, (unsigned long long)cli.seed,
                            r.detail.c_str(), prog.source.c_str());
            }
        } catch (const std::exception &e) {
            ++c.failed;
            std::printf("lint item %u (seed %llu) "
                        "generator/assembler error: %s\nprogram:\n%s\n",
                        i, (unsigned long long)cli.seed, e.what(),
                        prog.source.c_str());
        }
    }
}

void
runPackedSym(const FuzzCliOptions &cli, msp::System &sys, Counters &c)
{
    fuzz::ProgramGenOptions gen;
    // Same sizing rationale as the sym mode: every X-dependent branch
    // forks the tree, so keep bodies short.
    gen.instructions = cli.instructions / 2 + 1;
    // `--mode packed-sym --programs N` means N items, like dvfs/lint.
    unsigned items = cli.psymPrograms;
    if (cli.mode == "packed-sym" && cli.programsGiven)
        items = cli.programs;
    for (unsigned i = 0; i < items; ++i) {
        if (!selected(cli, i))
            continue;
        fuzz::Rng rng(
            fuzz::Rng::deriveStream(cli.seed, kPackedSymStream + i));
        fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, gen);
        if (cli.dumpPrograms)
            std::printf("--- packed-sym item %u ---\n%s\n", i,
                        prog.source.c_str());
        ++c.run;
        try {
            isa::Image image = isa::assemble(prog.source);
            fuzz::PropertyResult r = fuzz::packedExploreCheck(
                sys, image, rng, cli.threads);
            if (!r.ok) {
                ++c.failed;
                std::printf("packed-sym item %u (seed %llu) FRONTIER "
                            "MISMATCH:\n%sprogram:\n%s\n",
                            i, (unsigned long long)cli.seed,
                            r.detail.c_str(), prog.source.c_str());
            }
        } catch (const std::exception &e) {
            ++c.failed;
            std::printf("packed-sym item %u (seed %llu) "
                        "generator/assembler error: %s\nprogram:\n%s\n",
                        i, (unsigned long long)cli.seed, e.what(),
                        prog.source.c_str());
        }
    }
}

} // namespace

int
runFuzzCli(int argc, const char *const *argv)
{
    FuzzCliOptions cli;
    std::string err;
    if (!parseFuzzArgs(argc, argv, cli, err)) {
        std::fprintf(stderr, "ulfuzz: %s\n%s", err.c_str(),
                     fuzzUsage().c_str());
        return 2;
    }
    if (cli.help) {
        std::fputs(fuzzUsage().c_str(), stdout);
        return 0;
    }

    auto t0 = std::chrono::steady_clock::now();
    Counters cosimC, kernelC, symC, envC, scnC, packedC, faultC,
        dvfsC, lintC, psymC;

    // One System serves every property: the netlist is immutable, and
    // each run reloads the behavioral memory.
    msp::System sys(CellLibrary::tsmc65Like());

    if (cli.mode == "all" || cli.mode == "cosim")
        runCosim(cli, sys, cosimC);
    if (cli.mode == "all" || cli.mode == "kernel")
        runKernel(cli, kernelC);
    if (cli.mode == "all" || cli.mode == "sym")
        runSym(cli, sys, symC);
    if (cli.mode == "all" || cli.mode == "envelope")
        runEnvelope(cli, sys, envC);
    if (cli.mode == "all" || cli.mode == "scenario")
        runScenario(cli, sys, scnC);
    if (cli.mode == "all" || cli.mode == "packed")
        runPacked(cli, sys, packedC);
    if (cli.mode == "all" || cli.mode == "fault")
        runFault(cli, faultC);
    if (cli.mode == "all" || cli.mode == "dvfs")
        runDvfs(cli, sys, dvfsC);
    if (cli.mode == "all" || cli.mode == "lint")
        runLint(cli, sys, lintC);
    if (cli.mode == "all" || cli.mode == "packed-sym")
        runPackedSym(cli, sys, psymC);

    unsigned failed = cosimC.failed + kernelC.failed + symC.failed +
                      envC.failed + scnC.failed + packedC.failed +
                      faultC.failed + dvfsC.failed + lintC.failed +
                      psymC.failed;
    if (!cli.quiet || failed) {
        std::printf("ulfuzz seed %llu: cosim %u/%u ok, kernel %u/%u "
                    "ok, sym %u/%u ok, envelope %u/%u ok, scenario "
                    "%u/%u ok, packed %u/%u ok, fault %u/%u ok, dvfs "
                    "%u/%u ok, lint %u/%u ok, packed-sym %u/%u ok "
                    "(%.1fs)\n",
                    (unsigned long long)cli.seed,
                    cosimC.run - cosimC.failed, cosimC.run,
                    kernelC.run - kernelC.failed, kernelC.run,
                    symC.run - symC.failed, symC.run,
                    envC.run - envC.failed, envC.run,
                    scnC.run - scnC.failed, scnC.run,
                    packedC.run - packedC.failed, packedC.run,
                    faultC.run - faultC.failed, faultC.run,
                    dvfsC.run - dvfsC.failed, dvfsC.run,
                    lintC.run - lintC.failed, lintC.run,
                    psymC.run - psymC.failed, psymC.run,
                    secondsSince(t0));
    }
    return failed ? 1 : 0;
}

} // namespace cli
} // namespace ulpeak
