#include "cli/lint_driver.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cli/parse_util.hh"
#include "lint/lint.hh"
#include "msp/cpu.hh"
#include "scenario/scenario.hh"
#include "util/json.hh"

namespace ulpeak {
namespace cli {

namespace {

using util::fmtDouble;
using util::jsonEscape;

/** One scenario's constant-analysis results, display-ready. */
struct ScenarioLint {
    std::string name;
    lint::ConstAnalysis analysis;
    std::vector<lint::QuiescentCone> cones;
};

ScenarioLint
analyzeScenario(msp::System &sys, const scenario::Scenario &scn,
                const std::string &name)
{
    lint::ConstAnalysisOptions lo;
    lo.scenario = scn;
    const msp::CpuHandles &h = sys.handles();
    lo.portBits.assign(h.portIn.begin(), h.portIn.end());
    lo.drivenConstants = {{h.rstn, V4::One}, {h.irq, V4::Zero}};

    ScenarioLint out;
    out.name = name;
    out.analysis = lint::analyzeConstants(sys.netlist(), lo);
    out.cones = lint::quiescentCones(sys.netlist(), out.analysis);
    return out;
}

std::string
toLintJson(const Netlist &nl, const lint::StructuralReport &sr,
           const std::vector<ScenarioLint> &scens, double freq_hz,
           double wall_seconds, bool include_timings)
{
    util::Writer os;
    os << "{\n";
    os << "  \"netlist\": {\"gates\": " << nl.numGates()
       << ", \"modules\": " << nl.numModules() << "},\n";

    os << "  \"structural\": {\n"
       << "    \"errors\": " << sr.errors() << ",\n"
       << "    \"dead_gates\": " << sr.deadGates << ",\n"
       << "    \"fanout_hotspot_threshold\": "
       << sr.fanoutHotspotThreshold << ",\n";
    os << "    \"issues\": [\n";
    for (size_t i = 0; i < sr.issues.size(); ++i) {
        const lint::Issue &is = sr.issues[i];
        os << "      {\"kind\": \"" << lint::issueKindName(is.kind)
           << "\", \"severity\": \""
           << lint::severityName(is.severity) << "\", \"gates\": [";
        for (size_t g = 0; g < is.gates.size(); ++g)
            os << (g ? ", " : "") << is.gates[g];
        os << "], \"message\": \"" << jsonEscape(is.message) << "\"}"
           << (i + 1 < sr.issues.size() ? "," : "") << "\n";
    }
    os << "    ]\n  },\n";

    os << "  \"scenarios\": [\n";
    for (size_t s = 0; s < scens.size(); ++s) {
        const ScenarioLint &sl = scens[s];
        const lint::ConstAnalysis &a = sl.analysis;
        os << "    {\"name\": \"" << jsonEscape(sl.name) << "\",\n"
           << "     \"proven_const\": " << a.provenConst << ",\n"
           << "     \"proven_seq\": " << a.provenSeq << ",\n"
           << "     \"prunable\": " << a.prunable << ",\n"
           << "     \"max_prune_depth\": " << a.maxPruneDepth << ",\n"
           << "     \"quiescent_energy_j\": " << a.quiescentEnergyJ << ",\n"
           << "     \"switching_bound_j\": " << a.switchingBoundJ << ",\n"
           << "     \"static_peak_power_w\": "
           << a.staticPeakPowerW(freq_hz, nl.totalLeakageW()) << ",\n";
        os << "     \"cones\": [\n";
        for (size_t c = 0; c < sl.cones.size(); ++c) {
            const lint::QuiescentCone &qc = sl.cones[c];
            os << "       {\"module\": \"" << jsonEscape(qc.module)
               << "\", \"gates\": " << qc.gates
               << ", \"const\": " << qc.constGates
               << ", \"pruned\": " << qc.pruned
               << ", \"quiescent_energy_j\": " << qc.quiescentEnergyJ << "}"
               << (c + 1 < sl.cones.size() ? "," : "") << "\n";
        }
        os << "     ]}" << (s + 1 < scens.size() ? "," : "") << "\n";
    }
    os << "  ]";
    if (include_timings)
        os << ",\n  \"run\": {\"wall_seconds\": " << wall_seconds << "}";
    os << "\n}\n";
    return os.take();
}

} // namespace

std::string
lintUsage()
{
    return
        "usage: ullint [options]\n"
        "\n"
        "Static analysis of the gate-level core netlist: structural\n"
        "lint (combinational loops, floating inputs, multi-driven\n"
        "nets, dead gates, fanout hotspots) and scenario-aware\n"
        "constant-cone analysis (gates provably constant under a\n"
        "deployment scenario, the prune set a settled simulator\n"
        "could skip, and the static quiescent/switching energy\n"
        "split).\n"
        "\n"
        "options:\n"
        "  --scenario S[,S...]  scenarios to analyze (names or\n"
        "                     scenario .json files; default: the\n"
        "                     unconstrained scenario)\n"
        "  --jobs N           analyze scenarios in N workers\n"
        "                     (default 1; output byte-identical)\n"
        "  --freq HZ          clock for the static peak power bound\n"
        "                     (default 100e6)\n"
        "  --fanout-threshold N  fanout hotspot threshold\n"
        "                     (default 0 = max(64, gates/16))\n"
        "  --dead-limit N     dead gates listed per issue "
        "(default 16)\n"
        "  --json FILE        write the JSON report (\"-\" = stdout)\n"
        "  --no-timings       omit wall-time fields from --json\n"
        "                     (byte-identical across --jobs)\n"
        "  --quiet            suppress the stdout report\n"
        "  --help             this text\n"
        "\n"
        "exit status: 0 = no structural errors, 1 = structural\n"
        "errors found, 2 = usage error.\n";
}

bool
parseLintArgs(int argc, const char *const *argv, LintCliOptions &out,
              std::string &err)
{
    auto value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            err = std::string(flag) + " expects a value";
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = nullptr;
        if (a == "--help" || a == "-h") {
            out.help = true;
        } else if (a == "--scenario") {
            if (!(v = value(i, "--scenario")))
                return false;
            std::stringstream ss(v);
            std::string item;
            while (std::getline(ss, item, ','))
                if (!item.empty())
                    out.scenarioSpecs.push_back(item);
            if (out.scenarioSpecs.empty()) {
                err = "--scenario: empty list";
                return false;
            }
        } else if (a == "--jobs") {
            if (!(v = value(i, "--jobs")))
                return false;
            if (!parsePositiveInt(v, out.jobs)) {
                err = std::string("--jobs expects a positive "
                                  "integer, got \"") + v + "\"";
                return false;
            }
        } else if (a == "--freq") {
            if (!(v = value(i, "--freq")))
                return false;
            if (!parsePositiveDouble(v, out.freqHz)) {
                err = std::string("--freq: bad frequency: ") + v;
                return false;
            }
        } else if (a == "--fanout-threshold") {
            if (!(v = value(i, "--fanout-threshold")))
                return false;
            uint64_t n = 0;
            if (!parseUnsignedInt(v, n) || n > 0xffffffffull) {
                err = std::string("--fanout-threshold expects an "
                                  "unsigned integer, got \"") +
                      v + "\"";
                return false;
            }
            out.fanoutThreshold = unsigned(n);
        } else if (a == "--dead-limit") {
            if (!(v = value(i, "--dead-limit")))
                return false;
            uint64_t n = 0;
            if (!parseUnsignedInt(v, n) || n > 0xffffffffull) {
                err = std::string("--dead-limit expects an unsigned "
                                  "integer, got \"") + v + "\"";
                return false;
            }
            out.maxDeadListed = unsigned(n);
        } else if (a == "--json") {
            if (!(v = value(i, "--json")))
                return false;
            out.jsonPath = v;
        } else if (a == "--no-timings") {
            out.noTimings = true;
        } else if (a == "--quiet") {
            out.quiet = true;
        } else {
            err = "unknown argument: " + a;
            return false;
        }
    }
    return true;
}

int
runLintCli(int argc, const char *const *argv)
{
    LintCliOptions cli;
    std::string err;
    if (!parseLintArgs(argc, argv, cli, err)) {
        std::fprintf(stderr, "ullint: %s\n%s", err.c_str(),
                     lintUsage().c_str());
        return 2;
    }
    if (cli.help) {
        std::fputs(lintUsage().c_str(), stdout);
        return 0;
    }

    try {
        auto t0 = std::chrono::steady_clock::now();
        msp::System sys(CellLibrary::tsmc65Like());
        const Netlist &nl = sys.netlist();

        lint::StructuralOptions sopts;
        sopts.fanoutHotspotThreshold = cli.fanoutThreshold;
        sopts.maxListedDeadGates = cli.maxDeadListed;
        lint::StructuralReport sr = lint::structuralLint(nl, sopts);

        // Resolve scenarios up front so a bad spec is a clean error
        // before any analysis output.
        std::vector<scenario::Scenario> scens;
        std::vector<std::string> names;
        if (cli.scenarioSpecs.empty()) {
            scens.emplace_back();
            names.emplace_back("unconstrained");
        } else {
            for (const std::string &spec : cli.scenarioSpecs) {
                scens.push_back(scenario::Scenario::resolve(spec));
                names.push_back(scens.back().name.empty()
                                    ? spec
                                    : scens.back().name);
            }
        }

        // Scenario analyses are independent; shard them over --jobs
        // threads. Results land by index, so the report is identical
        // for every job count. Each worker elaborates its own System
        // (analyzeConstants only reads the netlist, but handles()
        // lookups stay worker-local for symmetry with peak::Batch).
        std::vector<ScenarioLint> results(scens.size());
        unsigned jobs = std::min<unsigned>(
            cli.jobs, unsigned(scens.size() ? scens.size() : 1));
        if (jobs <= 1) {
            for (size_t i = 0; i < scens.size(); ++i)
                results[i] = analyzeScenario(sys, scens[i], names[i]);
        } else {
            std::atomic<size_t> next{0};
            std::vector<std::thread> pool;
            pool.reserve(jobs);
            for (unsigned t = 0; t < jobs; ++t) {
                pool.emplace_back([&]() {
                    msp::System worker(CellLibrary::tsmc65Like());
                    for (size_t i = next.fetch_add(1);
                         i < scens.size(); i = next.fetch_add(1))
                        results[i] = analyzeScenario(
                            worker, scens[i], names[i]);
                });
            }
            for (std::thread &th : pool)
                th.join();
        }

        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

        if (!cli.quiet) {
            std::printf("netlist: %zu gates, %zu modules\n",
                        nl.numGates(), nl.numModules());
            std::printf("structural: %zu issues (%zu errors), %zu "
                        "dead gates, hotspot threshold %u\n",
                        sr.issues.size(), sr.errors(), sr.deadGates,
                        sr.fanoutHotspotThreshold);
            for (const lint::Issue &is : sr.issues)
                std::printf("  [%s] %s: %s\n",
                            lint::severityName(is.severity),
                            lint::issueKindName(is.kind),
                            is.message.c_str());
            for (const ScenarioLint &sl : results) {
                const lint::ConstAnalysis &a = sl.analysis;
                std::printf(
                    "scenario %s: %zu proven const (%zu seq), %zu "
                    "prunable (depth %u), quiescent %s J/cycle, "
                    "switching bound %s J/cycle, static peak %s W\n",
                    sl.name.c_str(), a.provenConst, a.provenSeq,
                    a.prunable, a.maxPruneDepth,
                    fmtDouble(a.quiescentEnergyJ).c_str(),
                    fmtDouble(a.switchingBoundJ).c_str(),
                    fmtDouble(a.staticPeakPowerW(cli.freqHz,
                                                 nl.totalLeakageW()))
                        .c_str());
                for (const lint::QuiescentCone &qc : sl.cones)
                    if (qc.pruned)
                        std::printf("  %-12s %5zu gates, %5zu "
                                    "const, %5zu pruned\n",
                                    qc.module.c_str(), qc.gates,
                                    qc.constGates, qc.pruned);
            }
        }

        if (!cli.jsonPath.empty()) {
            std::string json = toLintJson(nl, sr, results, cli.freqHz,
                                          wall, !cli.noTimings);
            if (cli.jsonPath == "-") {
                std::fputs(json.c_str(), stdout);
            } else {
                std::ofstream out(cli.jsonPath);
                if (!out)
                    throw std::runtime_error("cannot write " +
                                             cli.jsonPath);
                out << json;
            }
        }
        return sr.errors() ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ullint: %s\n", e.what());
        return 1;
    }
}

} // namespace cli
} // namespace ulpeak
