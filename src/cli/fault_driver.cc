#include "cli/fault_driver.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "bench430/benchmarks.hh"
#include "cli/driver.hh"
#include "cli/parse_util.hh"
#include "util/json.hh"

namespace ulpeak {
namespace cli {

namespace {

/**
 * Fold one deterministic concrete input set into @p image when
 * @p name is a bench430 registry benchmark: their inputs live in an
 * uninitialized RAM window, which reads X on the gate side and would
 * (rightly) diverge the golden lockstep. The set derives from the
 * campaign seed, so the whole campaign -- cache key included, via the
 * image contents -- is reproducible from (program, seed) alone. When
 * the benchmark reads the input port and no --port was given, the
 * generated port word is adopted too.
 */
void
foldBenchmarkInputs(const std::string &name, uint64_t seed,
                    isa::Image &image, uint16_t &port, bool port_set)
{
    for (const bench430::Benchmark &b : bench430::allBenchmarks()) {
        if (b.name != name)
            continue;
        fuzz::Rng rng(fuzz::Rng::deriveStream(seed, 3ull << 40));
        baseline::InputSet in = b.makeInput(rng);
        for (auto &[addr, words] : in.ram)
            image.segments.push_back({addr, words});
        if (b.usesPort && !port_set)
            port = in.portIn;
        return;
    }
}

using util::fmtDouble;
using util::jsonEscape;

/** Shared whole-token integer parsing (cli/parse_util.hh): rejects
 *  trailing garbage and "-1"-style wraparound like the other CLIs. */
bool
parseU64(const std::string &s, uint64_t &out)
{
    return parseUnsignedInt(s.c_str(), out);
}

const char *
siteKindName(fault::SiteKind k)
{
    return k == fault::SiteKind::Flop ? "flop" : "ram";
}

/** Vulnerability rank of a site: everything that is not masked. */
uint64_t
badness(const fault::SiteSummary &s)
{
    return s.sdc + s.crash + s.hang + s.escapes;
}

int
runReplay(const FaultCliOptions &cli)
{
    std::vector<peak::BatchProgram> progs =
        resolvePrograms({cli.programSpec});
    isa::Image image = progs.front().image;
    CellLibrary lib = CellLibrary::tsmc65Like();
    fault::CampaignOptions copts = toCampaignOptions(cli);
    foldBenchmarkInputs(progs.front().name, copts.seed, image,
                        copts.portIn, cli.portSet);

    msp::System sys(lib);
    std::vector<fault::Site> sites =
        fault::campaignSites(sys.netlist(), sys, copts);
    if (cli.replaySite >= sites.size()) {
        std::fprintf(stderr,
                     "ulfault: --replay site %u out of range "
                     "(%zu sites)\n",
                     cli.replaySite, sites.size());
        return 1;
    }
    const fault::Site &site = sites[cli.replaySite];

    cosim::Options gopts;
    gopts.maxCycles = copts.goldenMaxCycles;
    gopts.portIn = copts.portIn;
    gopts.evalMode = copts.evalMode;
    cosim::Result golden = cosim::run(sys, image, gopts);
    if (!golden.ok) {
        std::fprintf(stderr, "ulfault: golden run diverges:\n%s",
                     golden.report().c_str());
        return 1;
    }

    power::PowerContext ctx(sys.netlist(), copts.freqHz);
    fault::RunOptions ropts;
    ropts.maxCycles = copts.hangCycles ? copts.hangCycles
                                       : 4 * golden.gateCycles + 64;
    ropts.portIn = copts.portIn;
    ropts.evalMode = copts.evalMode;
    ropts.powerCtx = &ctx;

    peak::Envelope env;
    if (copts.withEnvelope) {
        peak::Options aopts = copts;
        aopts.recordEnvelope = true;
        peak::Report rep = peak::analyze(sys, image, aopts);
        if (rep.ok && rep.envelope.present) {
            env = std::move(rep.envelope);
            ropts.envelope = &env;
        } else {
            std::fprintf(stderr,
                         "ulfault: envelope analysis failed (%s); "
                         "replaying without escape check\n",
                         rep.error.c_str());
        }
    }

    std::vector<fault::Injection> faults{{site, cli.replayCycle}};
    fault::FaultResult r =
        fault::runFaulted(sys, image, faults, ropts);

    std::printf("replay: site %u (%s, %s) flipped at cycle %" PRIu64
                "\n",
                cli.replaySite,
                fault::siteName(sys.netlist(), site).c_str(),
                siteKindName(site.kind), cli.replayCycle);
    std::printf("outcome: %s%s\n", fault::outcomeName(r.outcome),
                r.applied ? "" : " (flip hit X state; not applied)");
    std::printf("gate cycles %" PRIu64 ", retired %" PRIu64
                ", peak %s W at cycle %" PRIu64 "\n",
                r.gateCycles, r.instructionsRetired,
                fmtDouble(r.peakPowerW).c_str(), r.peakCycle);
    if (r.envelopeEscape)
        std::printf("ENVELOPE ESCAPE at cycle %" PRIu64 "\n",
                    r.escapeCycle);
    if (!r.report.empty())
        std::printf("%s", r.report.c_str());
    return 0;
}

} // namespace

std::string
faultUsage()
{
    return "usage: ulfault [options] PROGRAM\n"
           "\n"
           "SEU fault-injection campaign on one program (a bench430\n"
           "name or an MSP430 assembly file). Flips flop / RAM bits\n"
           "at random cycles of the golden execution and classifies\n"
           "each faulted run against the golden ISS.\n"
           "\n"
           "options:\n"
           "  --seed N            campaign seed (default 1)\n"
           "  --jobs N            worker threads (default 1)\n"
           "  --scalar            use the scalar runner (default:\n"
           "                      64-lane packed; bit-identical)\n"
           "  --cycles-per-site N injections per site (default 1)\n"
           "  --max-sites N       cap flop sites, 0 = all (default)\n"
           "  --ram-sites N       extra random RAM-bit sites\n"
           "  --hang-cycles N     hang budget, 0 = 4*golden+64\n"
           "  --port VALUE        input port word (default 0)\n"
           "  --freq HZ           clock frequency (default 100e6)\n"
           "  --envelope          analyze the X-based envelope and\n"
           "                      report faulted-run escapes\n"
           "  --top N             vulnerability table rows "
           "(default 20)\n"
           "  --json FILE         write the JSON report\n"
           "  --csv FILE          write per-injection CSV rows\n"
           "  --cache-dir DIR     campaign cache (default "
           ".ulpeak-cache)\n"
           "  --no-cache          disable the disk cache\n"
           "  --no-timings        omit wall-time/cache fields from\n"
           "                      --json (byte-identical across\n"
           "                      --jobs / --scalar / cache state)\n"
           "  --replay S@C        re-run site S's flip at cycle C\n"
           "                      through the scalar runner and print\n"
           "                      the full divergence report\n"
           "  --quiet             suppress the stdout table\n"
           "  --help              this text\n";
}

bool
parseFaultArgs(int argc, const char *const *argv, FaultCliOptions &out,
               std::string &err)
{
    fault::CampaignOptions &c = out.campaign;
    auto need = [&](int i) -> const char * {
        if (i + 1 >= argc)
            return nullptr;
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = nullptr;
        if (a == "--help" || a == "-h") {
            out.help = true;
            return true;
        } else if (a == "--scalar") {
            c.packed = false;
        } else if (a == "--envelope") {
            c.withEnvelope = true;
        } else if (a == "--no-cache") {
            out.noCache = true;
        } else if (a == "--no-timings") {
            out.noTimings = true;
        } else if (a == "--quiet") {
            out.quiet = true;
        } else if (a == "--seed") {
            if (!(v = need(i)) || !parseU64(v, c.seed)) {
                err = "--seed needs an integer";
                return false;
            }
            ++i;
        } else if (a == "--jobs") {
            if (!(v = need(i)) || !parsePositiveInt(v, c.jobs)) {
                err = "--jobs needs a positive integer";
                return false;
            }
            ++i;
        } else if (a == "--cycles-per-site") {
            if (!(v = need(i)) ||
                !parsePositiveInt(v, c.cyclesPerSite)) {
                err = "--cycles-per-site needs a positive integer";
                return false;
            }
            ++i;
        } else if (a == "--max-sites") {
            uint64_t n;
            if (!(v = need(i)) || !parseU64(v, n)) {
                err = "--max-sites needs an integer";
                return false;
            }
            c.maxFlopSites = size_t(n);
            ++i;
        } else if (a == "--ram-sites") {
            uint64_t n;
            if (!(v = need(i)) || !parseU64(v, n)) {
                err = "--ram-sites needs an integer";
                return false;
            }
            c.ramSites = size_t(n);
            ++i;
        } else if (a == "--hang-cycles") {
            if (!(v = need(i)) || !parseU64(v, c.hangCycles)) {
                err = "--hang-cycles needs an integer";
                return false;
            }
            ++i;
        } else if (a == "--port") {
            uint64_t n;
            if (!(v = need(i)) || !parseU64(v, n) || n > 0xffff) {
                err = "--port needs a 16-bit integer";
                return false;
            }
            c.portIn = uint16_t(n);
            out.portSet = true;
            ++i;
        } else if (a == "--freq") {
            // parsePositiveDouble, not atof: atof("8e6x") silently
            // returned 8e6, so a typo ran the whole campaign at the
            // wrong idea of what was checked.
            if (!(v = need(i)) ||
                !parsePositiveDouble(v, c.freqHz)) {
                err = "--freq needs a positive frequency";
                return false;
            }
            ++i;
        } else if (a == "--top") {
            uint64_t n;
            if (!(v = need(i)) || !parseU64(v, n)) {
                err = "--top needs an integer";
                return false;
            }
            out.top = unsigned(n);
            ++i;
        } else if (a == "--json") {
            if (!(v = need(i))) {
                err = "--json needs a file path";
                return false;
            }
            out.jsonPath = v;
            ++i;
        } else if (a == "--csv") {
            if (!(v = need(i))) {
                err = "--csv needs a file path";
                return false;
            }
            out.csvPath = v;
            ++i;
        } else if (a == "--cache-dir") {
            if (!(v = need(i))) {
                err = "--cache-dir needs a directory";
                return false;
            }
            c.cacheDir = v;
            ++i;
        } else if (a == "--replay") {
            if (!(v = need(i))) {
                err = "--replay needs SITE@CYCLE";
                return false;
            }
            std::string spec = v;
            size_t at = spec.find('@');
            uint64_t s = 0, c = 0;
            if (at == std::string::npos ||
                !parseU64(spec.substr(0, at), s) ||
                !parseU64(spec.substr(at + 1), c)) {
                err = "--replay needs SITE@CYCLE (two integers)";
                return false;
            }
            out.replay = true;
            out.replaySite = uint32_t(s);
            out.replayCycle = c;
            ++i;
        } else if (!a.empty() && a[0] == '-') {
            err = "unknown option: " + a;
            return false;
        } else {
            if (!out.programSpec.empty()) {
                err = "exactly one PROGRAM expected";
                return false;
            }
            out.programSpec = a;
        }
    }
    if (out.programSpec.empty()) {
        err = "PROGRAM argument required";
        return false;
    }
    return true;
}

fault::CampaignOptions
toCampaignOptions(const FaultCliOptions &cli)
{
    fault::CampaignOptions o = cli.campaign;
    if (cli.noCache)
        o.cacheDir.clear();
    return o;
}

std::string
toFaultJson(const fault::CampaignResult &res,
            const fault::CampaignOptions &opts,
            const std::string &program, bool include_timings)
{
    util::Writer os;
    os << "{\n";
    os << "  \"program\": \"" << jsonEscape(program) << "\",\n";
    os << "  \"ok\": " << (res.ok ? "true" : "false") << ",\n";
    if (!res.error.empty())
        os << "  \"error\": \"" << jsonEscape(res.error) << "\",\n";
    os << "  \"seed\": " << opts.seed << ",\n"
       << "  \"cycles_per_site\": " << opts.cyclesPerSite << ",\n"
       << "  \"golden_cycles\": " << res.goldenCycles << ",\n"
       << "  \"golden_instructions\": " << res.goldenInstructions << ",\n"
       << "  \"hang_cycles\": " << res.hangCycles << ",\n";
    os << "  \"envelope\": {\n"
       << "    \"present\": "
       << (res.envelopePresent ? "true" : "false") << ",\n";
    if (!res.envelopeError.empty())
        os << "    \"error\": \"" << jsonEscape(res.envelopeError)
           << "\",\n";
    os << "    \"cycles\": " << res.envelopeCycles << ",\n"
       << "    \"peak_w\": " << res.envelopePeakW << "\n"
       << "  },\n";
    os << "  \"totals\": {\n"
       << "    \"injections\": " << res.injections.size() << ",\n"
       << "    \"masked\": " << res.masked << ",\n"
       << "    \"sdc\": " << res.sdc << ",\n"
       << "    \"crash\": " << res.crash << ",\n"
       << "    \"hang\": " << res.hang << ",\n"
       << "    \"not_applied\": " << res.notApplied << ",\n"
       << "    \"escapes\": " << res.escapes << "\n"
       << "  },\n";
    os << "  \"sites\": [\n";
    for (size_t s = 0; s < res.sites.size(); ++s) {
        const fault::SiteSummary &sum = res.summaries[s];
        os << "    {\"index\": " << s << ", \"name\": \""
           << jsonEscape(res.siteNames[s]) << "\", \"kind\": \""
           << siteKindName(res.sites[s].kind)
           << "\", \"masked\": " << sum.masked
           << ", \"sdc\": " << sum.sdc << ", \"crash\": " << sum.crash
           << ", \"hang\": " << sum.hang
           << ", \"escapes\": " << sum.escapes
           << ", \"max_peak_w\": " << sum.maxPeakPowerW
           << "}" << (s + 1 < res.sites.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"injections\": [\n";
    for (size_t i = 0; i < res.injections.size(); ++i) {
        const fault::InjectionResult &ir = res.injections[i];
        const fault::FaultResult &r = ir.r;
        os << "    {\"site\": " << ir.siteIndex
           << ", \"cycle\": " << ir.cycle << ", \"outcome\": \""
           << fault::outcomeName(r.outcome) << "\", \"applied\": "
           << (r.applied ? "true" : "false") << ", \"kind\": \""
           << cosim::divergenceKindName(r.kind)
           << "\", \"div_cycle\": " << r.divergenceCycle
           << ", \"instr_index\": " << r.instrIndex
           << ", \"pc\": " << r.pc
           << ", \"gate_cycles\": " << r.gateCycles
           << ", \"retired\": " << r.instructionsRetired
           << ", \"peak_w\": " << r.peakPowerW
           << ", \"peak_cycle\": " << r.peakCycle
           << ", \"trace_cycles\": " << r.traceCycles
           << ", \"escape\": " << (r.envelopeEscape ? "true" : "false")
           << ", \"escape_cycle\": " << r.escapeCycle << "}"
           << (i + 1 < res.injections.size() ? "," : "") << "\n";
    }
    os << "  ]";
    if (include_timings) {
        os << ",\n  \"run\": {\n"
           << "    \"cache_hit\": "
           << (res.cacheHit ? "true" : "false") << ",\n"
           << "    \"wall_seconds\": " << res.wallSeconds
           << "\n  }";
    }
    os << "\n}\n";
    return os.take();
}

std::string
toFaultCsv(const fault::CampaignResult &res)
{
    util::Writer os;
    os << "site,site_name,kind,cycle,outcome,applied,divergence,"
          "div_cycle,instr_index,pc,gate_cycles,retired,peak_w,"
          "peak_cycle,escape,escape_cycle\n";
    for (const fault::InjectionResult &ir : res.injections) {
        const fault::FaultResult &r = ir.r;
        os << ir.siteIndex << "," << res.siteNames[ir.siteIndex] << ","
           << siteKindName(res.sites[ir.siteIndex].kind) << ","
           << ir.cycle << "," << fault::outcomeName(r.outcome) << ","
           << (r.applied ? 1 : 0) << ","
           << cosim::divergenceKindName(r.kind) << ","
           << r.divergenceCycle << "," << r.instrIndex << "," << r.pc
           << "," << r.gateCycles << "," << r.instructionsRetired
           << "," << r.peakPowerW << "," << r.peakCycle
           << "," << (r.envelopeEscape ? 1 : 0) << ","
           << r.escapeCycle << "\n";
    }
    return os.take();
}

int
runFaultCli(int argc, const char *const *argv)
{
    FaultCliOptions cli;
    std::string err;
    if (!parseFaultArgs(argc, argv, cli, err)) {
        std::fprintf(stderr, "ulfault: %s\n%s", err.c_str(),
                     faultUsage().c_str());
        return 2;
    }
    if (cli.help) {
        std::printf("%s", faultUsage().c_str());
        return 0;
    }

    try {
        if (cli.replay)
            return runReplay(cli);

        std::vector<peak::BatchProgram> progs =
            resolvePrograms({cli.programSpec});
        const peak::BatchProgram &prog = progs.front();
        fault::CampaignOptions copts = toCampaignOptions(cli);
        isa::Image image = prog.image;
        foldBenchmarkInputs(prog.name, copts.seed, image, copts.portIn,
                            cli.portSet);
        fault::CampaignResult res = fault::runCampaign(
            CellLibrary::tsmc65Like(), image, copts);

        if (!res.ok) {
            std::fprintf(stderr, "ulfault: %s\n", res.error.c_str());
            return 1;
        }

        if (!cli.quiet) {
            std::printf("campaign: %s, %zu sites x %u cycles = %zu "
                        "injections%s\n",
                        prog.name.c_str(), res.sites.size(),
                        copts.cyclesPerSite, res.injections.size(),
                        res.cacheHit ? " (cached)" : "");
            std::printf("golden: %" PRIu64 " cycles, %" PRIu64
                        " instructions; hang budget %" PRIu64 "\n",
                        res.goldenCycles, res.goldenInstructions,
                        res.hangCycles);
            if (res.envelopePresent)
                std::printf("envelope: %" PRIu64
                            " cycles, peak %s W\n",
                            res.envelopeCycles,
                            fmtDouble(res.envelopePeakW).c_str());
            else if (!res.envelopeError.empty())
                std::printf("envelope: unavailable (%s)\n",
                            res.envelopeError.c_str());
            std::printf("totals: %" PRIu64 " masked, %" PRIu64
                        " sdc, %" PRIu64 " crash, %" PRIu64
                        " hang (%" PRIu64 " not applied, %" PRIu64
                        " escapes)\n",
                        res.masked, res.sdc, res.crash, res.hang,
                        res.notApplied, res.escapes);

            // Vulnerability table: most-unmasked sites first.
            std::vector<size_t> order(res.summaries.size());
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            std::sort(order.begin(), order.end(),
                      [&](size_t a, size_t b) {
                          uint64_t ba = badness(res.summaries[a]);
                          uint64_t bb = badness(res.summaries[b]);
                          if (ba != bb)
                              return ba > bb;
                          return a < b;
                      });
            size_t rows = std::min<size_t>(cli.top, order.size());
            if (rows) {
                std::printf("%-28s %6s %6s %6s %6s %7s %12s\n",
                            "site", "masked", "sdc", "crash", "hang",
                            "escapes", "max peak W");
                for (size_t i = 0; i < rows; ++i) {
                    const fault::SiteSummary &s =
                        res.summaries[order[i]];
                    std::printf(
                        "%-28s %6" PRIu64 " %6" PRIu64 " %6" PRIu64
                        " %6" PRIu64 " %7" PRIu64 " %12g\n",
                        res.siteNames[order[i]].c_str(), s.masked,
                        s.sdc, s.crash, s.hang, s.escapes,
                        double(s.maxPeakPowerW));
                }
            }
        }

        if (!cli.jsonPath.empty()) {
            std::ofstream out(cli.jsonPath);
            if (!out)
                throw std::runtime_error("cannot write " +
                                         cli.jsonPath);
            out << toFaultJson(res, copts, prog.name,
                               !cli.noTimings);
        }
        if (!cli.csvPath.empty()) {
            std::ofstream out(cli.csvPath);
            if (!out)
                throw std::runtime_error("cannot write " +
                                         cli.csvPath);
            out << toFaultCsv(res);
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ulfault: %s\n", e.what());
        return 1;
    }
}

} // namespace cli
} // namespace ulpeak
