#include "cli/driver.hh"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench430/benchmarks.hh"
#include "cli/parse_util.hh"
#include "util/json.hh"

namespace ulpeak {
namespace cli {
namespace {

using util::csvQuote;
using util::jsonEscape;

bool
looksLikePath(const std::string &spec)
{
    if (spec.find('/') != std::string::npos)
        return true;
    auto ends = [&](const char *suf) {
        size_t n = std::strlen(suf);
        return spec.size() > n &&
               spec.compare(spec.size() - n, n, suf) == 0;
    };
    return ends(".s") || ends(".asm");
}

std::string
pathStem(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    size_t dot = base.find_last_of('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
}

/** Append the "envelope": {...} JSON object (no surrounding key). */
void
envelopeJson(util::Writer &o, const ulpeak::peak::Envelope &env)
{
    o << "{\"cycles\": " << env.powerW.size()
      << ", \"peak_power_w\": " << env.peakPowerW() << ", \"windows\": [";
    for (size_t w = 0; w < env.windows.size(); ++w)
        o << (w ? ", " : "") << env.windows[w];
    o << "], \"peak_window_energy_j\": [";
    for (size_t w = 0; w < env.peakWindowEnergyJ.size(); ++w)
        o << (w ? ", " : "") << env.peakWindowEnergyJ[w];
    o << "], \"power_w\": [";
    for (size_t c = 0; c < env.powerW.size(); ++c)
        o << (c ? ", " : "") << double(env.powerW[c]);
    o << "], \"window_energy_j\": [";
    for (size_t w = 0; w < env.windowEnergyJ.size(); ++w) {
        o << (w ? ", [" : "[");
        for (size_t c = 0; c < env.windowEnergyJ[w].size(); ++c)
            o << (c ? ", " : "") << double(env.windowEnergyJ[w][c]);
        o << "]";
    }
    o << "]}";
}

/** Upper bound on the bytes envelopeJson spends on @p env's per-cycle
 *  numbers (each at most 24 characters plus a separator): toJson
 *  reserves it up front so the multi-megabyte document is not copied
 *  while it grows. */
size_t
envelopeBytes(const peak::Envelope &env)
{
    return 26 * env.powerW.size() * (1 + env.windowEnergyJ.size());
}

/** Shared whole-token integer parsing (cli/parse_util.hh): rejects
 *  trailing garbage and "-1"-style wraparound like the other CLIs. */
bool
parseUnsigned(const std::string &s, uint64_t &out)
{
    return parseUnsignedInt(s.c_str(), out);
}

} // namespace

std::string
usage()
{
    return
        "ulpeak -- guaranteed peak power/energy requirements of "
        "application suites\n"
        "\n"
        "usage: ulpeak [--programs SPEC[,SPEC...]] [SPEC...] [options]\n"
        "\n"
        "program specs (mixable):\n"
        "  all               every bench430 program (14 benchmarks)\n"
        "  NAME              a bench430 program by name (mult, FFT, ...)\n"
        "  PATH.s|PATH.asm   an MSP430 assembly file from disk\n"
        "\n"
        "options:\n"
        "  --jobs N          program-level workers         (default 1)\n"
        "  --threads N       symbolic workers per analysis (default 1)\n"
        "  --freq HZ         operating frequency [Hz]  (default 1e8)\n"
        "  --loop-bound N    input-dependent loop bound    (default 0)\n"
        "  --max-cycles N    total symbolic cycle budget "
        "(default 3000000)\n"
        "  --json FILE       write the suite report as JSON\n"
        "  --csv FILE        write per-program rows as CSV\n"
        "  --envelope[=json|csv]\n"
        "                    per-cycle peak power envelope + windowed\n"
        "                    peak-energy curves: json embeds them in\n"
        "                    the --json report, csv streams per-cycle\n"
        "                    rows to stdout (default json)\n"
        "  --windows LIST    envelope window lengths in cycles\n"
        "                    (default 1,10,100)\n"
        "  --modes[=table|json|csv]\n"
        "                    per-operating-mode report of mode-\n"
        "                    scheduled scenarios (implies envelope\n"
        "                    recording): per-mode envelope slices,\n"
        "                    schedule transitions with settling-window\n"
        "                    peaks, assertion verdicts and sizing\n"
        "                    findings; table appends sections to the\n"
        "                    stdout table, json/csv print a standalone\n"
        "                    deterministic report (default table)\n"
        "  --no-timings      omit wall-time / cache fields from the\n"
        "                    --json report (byte-identical output\n"
        "                    across --jobs/--threads/cache states)\n"
        "  --scenario S[,S...]\n"
        "                    deployment scenarios to sweep the suite\n"
        "                    across: preset names (unconstrained,\n"
        "                    ports-grounded, sensor-4bit,\n"
        "                    periodic-sensor, duty-cycled-dvfs) or\n"
        "                    scenario .json files; the report carries\n"
        "                    the scenario x program matrix and\n"
        "                    per-scenario suite maxima\n"
        "  --cache-dir DIR   result cache (default .ulpeak-cache)\n"
        "  --no-cache        disable the result cache\n"
        "  --fail-fast       stop claiming programs after a failure\n"
        "  --quiet           suppress the stdout table\n"
        "  --help            this text\n";
}

bool
parseArgs(int argc, const char *const *argv, CliOptions &out,
          std::string &err)
{
    auto splitSpecs = [&](const std::string &arg) {
        std::stringstream ss(arg);
        std::string item;
        while (std::getline(ss, item, ','))
            if (!item.empty())
                out.programSpecs.push_back(item);
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                err = std::string(flag) + " requires a value";
                return nullptr;
            }
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            out.help = true;
        } else if (a == "--programs") {
            const char *v = value("--programs");
            if (!v)
                return false;
            splitSpecs(v);
        } else if (a == "--jobs" || a == "--threads") {
            const char *v = value(a.c_str());
            if (!v)
                return false;
            // Worker counts: a whole positive integer (0 workers is
            // as much a typo as trailing garbage).
            unsigned n = 0;
            if (!parsePositiveInt(v, n)) {
                err = a + ": not a positive worker count: " + v;
                return false;
            }
            if (a == "--jobs")
                out.batch.jobs = n;
            else
                out.batch.analysis.numThreads = n;
        } else if (a == "--loop-bound" || a == "--max-cycles") {
            const char *v = value(a.c_str());
            if (!v)
                return false;
            uint64_t n = 0;
            if (!parseUnsigned(v, n)) {
                err = a + ": not a number: " + v;
                return false;
            }
            if (a == "--loop-bound")
                out.batch.analysis.inputDependentLoopBound =
                    unsigned(n);
            else
                out.batch.analysis.maxTotalCycles = n;
        } else if (a == "--freq") {
            const char *v = value("--freq");
            if (!v)
                return false;
            if (!parsePositiveDouble(v, out.batch.analysis.freqHz)) {
                err = std::string("--freq: bad frequency: ") + v;
                return false;
            }
        } else if (a == "--envelope" ||
                   a.rfind("--envelope=", 0) == 0) {
            out.batch.analysis.recordEnvelope = true;
            if (a.size() > std::strlen("--envelope")) {
                out.envelopeFormat =
                    a.substr(std::strlen("--envelope="));
                if (out.envelopeFormat != "json" &&
                    out.envelopeFormat != "csv") {
                    err = "--envelope: expected json|csv, got " +
                          out.envelopeFormat;
                    return false;
                }
            }
        } else if (a == "--modes" || a.rfind("--modes=", 0) == 0) {
            out.modes = true;
            if (a.size() > std::strlen("--modes")) {
                out.modesFormat = a.substr(std::strlen("--modes="));
                if (out.modesFormat != "table" &&
                    out.modesFormat != "json" &&
                    out.modesFormat != "csv") {
                    err = "--modes: expected table|json|csv, got " +
                          out.modesFormat;
                    return false;
                }
            }
        } else if (a == "--no-timings") {
            out.noTimings = true;
        } else if (a == "--scenario") {
            const char *v = value("--scenario");
            if (!v)
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
        } else if (a == "--windows") {
            const char *v = value("--windows");
            if (!v)
                return false;
            std::stringstream ss(v);
            std::string item;
            std::vector<unsigned> &windows =
                out.batch.analysis.envelopeWindows;
            windows.clear();
            while (std::getline(ss, item, ',')) {
                uint64_t n = 0;
                if (!parseUnsigned(item, n) || n == 0 ||
                    n > 0xffffffffull) {
                    err = std::string(
                              "--windows: bad window length: ") +
                          item;
                    return false;
                }
                windows.push_back(unsigned(n));
            }
            if (windows.empty()) {
                err = "--windows: empty list";
                return false;
            }
        } else if (a == "--json") {
            const char *v = value("--json");
            if (!v)
                return false;
            out.jsonPath = v;
        } else if (a == "--csv") {
            const char *v = value("--csv");
            if (!v)
                return false;
            out.csvPath = v;
        } else if (a == "--cache-dir") {
            const char *v = value("--cache-dir");
            if (!v)
                return false;
            out.batch.cacheDir = v;
        } else if (a == "--no-cache") {
            out.noCache = true;
        } else if (a == "--fail-fast") {
            out.batch.failFast = true;
        } else if (a == "--quiet") {
            out.quiet = true;
        } else if (!a.empty() && a[0] == '-') {
            err = "unknown option: " + a;
            return false;
        } else {
            splitSpecs(a);
        }
    }
    if (!out.help && out.programSpecs.empty()) {
        err = "no programs given (try --programs all)";
        return false;
    }
    return true;
}

std::vector<peak::BatchProgram>
resolvePrograms(const std::vector<std::string> &specs)
{
    std::vector<peak::BatchProgram> out;
    for (const std::string &spec : specs) {
        if (spec == "all") {
            for (const auto &b : bench430::allBenchmarks())
                out.push_back({b.name, b.assembleImage()});
        } else if (looksLikePath(spec)) {
            std::ifstream in(spec);
            if (!in)
                throw std::runtime_error("cannot read assembly file: " +
                                         spec);
            std::stringstream ss;
            ss << in.rdbuf();
            try {
                out.push_back({pathStem(spec),
                               isa::assemble(ss.str())});
            } catch (const std::exception &e) {
                throw std::runtime_error(spec + ": " + e.what());
            }
        } else {
            try {
                const bench430::Benchmark &b =
                    bench430::benchmarkByName(spec);
                out.push_back({b.name, b.assembleImage()});
            } catch (const std::out_of_range &) {
                std::string names;
                for (const std::string &n :
                     bench430::allBenchmarkNames())
                    names += (names.empty() ? "" : ", ") + n;
                throw std::runtime_error(
                    "unknown program '" + spec +
                    "' (known: all, " + names +
                    ", or a .s/.asm path)");
            }
        }
    }
    return out;
}

peak::BatchOptions
toBatchOptions(const CliOptions &cli)
{
    peak::BatchOptions b = cli.batch;
    // The mode report is sliced from the envelope, so --modes
    // records one even without an explicit --envelope.
    b.analysis.recordEnvelope |= cli.modes;
    for (const std::string &spec : cli.scenarioSpecs)
        b.scenarios.push_back(scenario::Scenario::resolve(spec));
    if (cli.noCache)
        b.cacheDir.clear();
    return b;
}

std::string
toJson(const peak::BatchReport &rep, const peak::BatchOptions &opts,
       bool include_timings)
{
    util::Writer o;
    size_t reserve = 4096 + 1024 * rep.programs.size() +
                     envelopeBytes(rep.suiteEnvelope);
    for (const peak::ProgramResult &r : rep.programs)
        reserve += envelopeBytes(r.envelope);
    o.reserve(reserve);
    o << "{\n";
    o << "  \"tool\": \"ulpeak\",\n  \"format_version\": 3,\n";
    o << "  \"options\": {\n"
      << "    \"freq_hz\": " << opts.analysis.freqHz << ",\n"
      << "    \"eval_mode\": \""
      << (opts.analysis.evalMode == EvalMode::EventDriven ? "event"
                                                          : "full")
      << "\",\n"
      << "    \"loop_bound\": " << opts.analysis.inputDependentLoopBound
      << ",\n"
      << "    \"max_total_cycles\": " << opts.analysis.maxTotalCycles
      << "\n  },\n";
    if (include_timings) {
        o << "  \"run\": {\n"
          << "    \"jobs\": " << opts.jobs << ",\n"
          << "    \"threads\": " << opts.analysis.numThreads << ",\n"
          << "    \"cache\": "
          << (opts.cacheDir.empty() ? "false" : "true") << ",\n"
          << "    \"cache_hits\": " << rep.cacheHits << ",\n"
          << "    \"cache_misses\": " << rep.cacheMisses << ",\n"
          << "    \"wall_seconds\": " << rep.wallSeconds
          << "\n  },\n";
    }
    o << "  \"programs\": [\n";
    for (size_t i = 0; i < rep.programs.size(); ++i) {
        const peak::ProgramResult &r = rep.programs[i];
        o << "    {\"name\": \"" << jsonEscape(r.name) << "\", "
          << "\"scenario\": \"" << jsonEscape(r.scenario) << "\", "
          << "\"ok\": " << (r.ok ? "true" : "false");
        if (!r.ok)
            o << ", \"error\": \"" << jsonEscape(r.error) << "\"";
        o << ", \"peak_power_w\": " << r.peakPowerW
          << ", \"peak_energy_j\": " << r.peakEnergyJ
          << ", \"npe_j_per_cycle\": " << r.npeJPerCycle
          << ", \"max_path_cycles\": " << r.maxPathCycles
          << ", \"total_cycles\": " << r.totalCycles
          << ", \"paths_explored\": " << r.pathsExplored
          << ", \"dedup_merges\": " << r.dedupMerges;
        if (r.envelope.present) {
            o << ", \"envelope\": ";
            envelopeJson(o, r.envelope);
        }
        if (include_timings) {
            // Run-provenance statistics live with the timing fields:
            // steals and the per-worker split are
            // scheduling-dependent, and all of them are zero on
            // cache hits, so they would break the byte-identity
            // contract anywhere else.
            o << ", \"cached\": " << (r.cached ? "true" : "false")
              << ", \"wall_seconds\": " << r.wallSeconds
              << ", \"stats\": {\"steals\": " << r.steals
              << ", \"snapshot_bytes_copied\": " << r.snapshotBytesCopied
              << ", \"snapshot_bytes_full\": " << r.snapshotBytesFull
              << ", \"packed_batches\": " << r.packedBatches
              << ", \"packed_sweeps\": " << r.packedSweeps
              << ", \"packed_lane_cycles\": " << r.packedLaneCycles
              << ", \"per_worker_cycles\": [";
            for (size_t w = 0; w < r.perWorkerCycles.size(); ++w)
                o << (w ? ", " : "") << r.perWorkerCycles[w];
            o << "]}";
        }
        o << "}" << (i + 1 < rep.programs.size() ? "," : "") << "\n";
    }
    o << "  ],\n";
    o << "  \"scenarios\": [\n";
    for (size_t s = 0; s < rep.scenarios.size(); ++s) {
        const peak::ScenarioSummary &sum = rep.scenarios[s];
        const peak::ScenarioSummary &first = rep.scenarios.front();
        o << "    {\"name\": \"" << jsonEscape(sum.scenario)
          << "\", \"summary\": \"" << jsonEscape(sum.summary)
          << "\", \"ok\": " << (sum.ok ? "true" : "false")
          << ", \"max_peak_power_w\": " << sum.maxPeakPowerW
          << ", \"max_peak_power_program\": \""
          << jsonEscape(sum.maxPeakPowerProgram)
          << "\", \"max_peak_energy_j\": " << sum.maxPeakEnergyJ
          << ", \"max_peak_energy_program\": \""
          << jsonEscape(sum.maxPeakEnergyProgram)
          << "\", \"max_npe_j_per_cycle\": "
          << sum.maxNpeJPerCycle << ", \"max_npe_program\": \""
          << jsonEscape(sum.maxNpeProgram) << "\"";
        // How much this scenario's constraints tighten the suite
        // bounds relative to the first listed scenario (1.0 = no
        // change; < 1 = tighter).
        if (s > 0 && first.maxPeakPowerW > 0 &&
            first.maxPeakEnergyJ > 0)
            o << ", \"vs_first\": {\"peak_power\": "
              << sum.maxPeakPowerW / first.maxPeakPowerW
              << ", \"peak_energy\": "
              << sum.maxPeakEnergyJ / first.maxPeakEnergyJ << "}";
        if (sum.suiteEnvelope.present) {
            const sizing::EnvelopeSupply &es = sum.envelopeSupply;
            o << ", \"envelope_sizing\": {\"peak_power_w\": " << es.peakPowerW
              << ", \"sustained_power_w\": " << es.sustainedPowerW << "}";
        }
        o << "}" << (s + 1 < rep.scenarios.size() ? "," : "") << "\n";
    }
    o << "  ],\n";
    o << "  \"suite\": {\n"
      << "    \"programs\": " << rep.programs.size() << ",\n"
      << "    \"ok\": " << (rep.ok ? "true" : "false") << ",\n"
      << "    \"max_peak_power_w\": " << rep.maxPeakPowerW << ",\n"
      << "    \"max_peak_power_program\": \""
      << jsonEscape(rep.maxPeakPowerProgram) << "\",\n"
      << "    \"max_peak_energy_j\": " << rep.maxPeakEnergyJ << ",\n"
      << "    \"max_peak_energy_program\": \""
      << jsonEscape(rep.maxPeakEnergyProgram) << "\",\n"
      << "    \"max_npe_j_per_cycle\": " << rep.maxNpeJPerCycle << ",\n"
      << "    \"max_npe_program\": \"" << jsonEscape(rep.maxNpeProgram)
      << "\"\n  },\n";
    o << "  \"sizing\": {\n"
      << "    \"peak_power_w\": " << rep.supply.peakPowerW << ",\n"
      << "    \"peak_energy_j\": " << rep.supply.peakEnergyJ
      << ",\n    \"harvesters\": [\n";
    for (size_t i = 0; i < rep.supply.harvesters.size(); ++i) {
        const auto &h = rep.supply.harvesters[i];
        o << "      {\"name\": \"" << jsonEscape(h.name)
          << "\", \"area_cm2\": " << h.areaCm2 << "}"
          << (i + 1 < rep.supply.harvesters.size() ? "," : "") << "\n";
    }
    o << "    ],\n    \"batteries\": [\n";
    for (size_t i = 0; i < rep.supply.batteries.size(); ++i) {
        const auto &b = rep.supply.batteries[i];
        o << "      {\"name\": \"" << jsonEscape(b.name)
          << "\", \"volume_l\": " << b.volumeL
          << ", \"mass_g\": " << b.massG << "}"
          << (i + 1 < rep.supply.batteries.size() ? "," : "") << "\n";
    }
    o << "    ]\n  }";
    if (rep.suiteEnvelope.present) {
        o << ",\n  \"suite_envelope\": ";
        envelopeJson(o, rep.suiteEnvelope);
        o << ",\n";
        const sizing::EnvelopeSupply &es = rep.envelopeSupply;
        o << "  \"envelope_sizing\": {\n"
          << "    \"peak_power_w\": " << es.peakPowerW << ",\n"
          << "    \"sustained_power_w\": " << es.sustainedPowerW << ",\n"
          << "    \"windows\": [";
        for (size_t w = 0; w < es.windows.size(); ++w)
            o << (w ? ", " : "") << es.windows[w];
        o << "],\n    \"peak_window_energy_j\": [";
        for (size_t w = 0; w < es.peakWindowEnergyJ.size(); ++w)
            o << (w ? ", " : "") << es.peakWindowEnergyJ[w];
        o << "],\n    \"decap_f\": [";
        for (size_t w = 0; w < es.decapF.size(); ++w)
            o << (w ? ", " : "") << es.decapF[w];
        o << "],\n    \"harvesters\": [\n";
        for (size_t i = 0; i < es.harvesters.size(); ++i) {
            const auto &h = es.harvesters[i];
            o << "      {\"name\": \"" << jsonEscape(h.name)
              << "\", \"area_cm2\": " << h.areaCm2 << "}"
              << (i + 1 < es.harvesters.size() ? "," : "") << "\n";
        }
        o << "    ]\n  }";
    }
    o << "\n}\n";
    return o.take();
}

std::string
toCsv(const peak::BatchReport &rep)
{
    util::Writer o;
    o << "name,scenario,ok,cached,peak_power_w,peak_energy_j,"
         "npe_j_per_cycle,max_path_cycles,total_cycles,"
         "paths_explored,dedup_merges,wall_seconds,error\n";
    for (const peak::ProgramResult &r : rep.programs) {
        o << csvQuote(r.name) << ',' << csvQuote(r.scenario) << ','
          << (r.ok ? 1 : 0) << ',' << (r.cached ? 1 : 0) << ','
          << r.peakPowerW << ',' << r.peakEnergyJ << ','
          << r.npeJPerCycle << ',' << r.maxPathCycles << ','
          << r.totalCycles << ',' << r.pathsExplored << ','
          << r.dedupMerges << ',' << r.wallSeconds << ','
          << csvQuote(r.error) << "\n";
    }
    return o.take();
}

std::string
toEnvelopeCsv(const peak::BatchReport &rep)
{
    util::Writer o;
    const peak::Envelope *any = nullptr;
    for (const peak::ProgramResult &r : rep.programs)
        if (r.envelope.present) {
            any = &r.envelope;
            break;
        }
    if (!any && rep.suiteEnvelope.present)
        any = &rep.suiteEnvelope;
    o << "program,scenario,cycle,envelope_w";
    if (any)
        for (unsigned w : any->windows)
            o << ",window_energy_j_w" << w;
    o << "\n";
    auto emit = [&o](const std::string &name,
                     const std::string &scenario,
                     const peak::Envelope &env) {
        for (size_t c = 0; c < env.powerW.size(); ++c) {
            o << csvQuote(name) << ',' << csvQuote(scenario) << ','
              << c << ',' << double(env.powerW[c]);
            for (const auto &curve : env.windowEnergyJ)
                o << ',' << (c < curve.size() ? double(curve[c]) : 0.0);
            o << "\n";
        }
    };
    for (const peak::ProgramResult &r : rep.programs)
        if (r.envelope.present)
            emit(r.name, r.scenario, r.envelope);
    for (const peak::ScenarioSummary &s : rep.scenarios)
        if (s.suiteEnvelope.present)
            emit("__suite__", s.scenario, s.suiteEnvelope);
    return o.take();
}

std::vector<peak::ModeReport>
buildModeReports(const peak::BatchReport &rep,
                 const std::vector<scenario::Scenario> &scens,
                 double lib_vdd)
{
    std::vector<peak::ModeReport> out(rep.programs.size());
    if (scens.empty() || rep.programs.empty())
        return out;
    // Rows are scenario-major: row i ran scenario i / (P programs).
    size_t nProg = rep.programs.size() / scens.size();
    if (nProg == 0)
        return out;
    for (size_t i = 0; i < rep.programs.size(); ++i) {
        size_t s = i / nProg;
        if (s >= scens.size() || !scens[s].hasModes())
            continue;
        const peak::ProgramResult &r = rep.programs[i];
        if (r.ok && r.envelope.present)
            out[i] =
                peak::buildModeReport(r.envelope, scens[s], lib_vdd);
    }
    return out;
}

std::string
toModesJson(const peak::BatchReport &rep,
            const std::vector<peak::ModeReport> &reports)
{
    util::Writer o;
    o << "{\n  \"tool\": \"ulpeak\",\n  \"report\": \"modes\",\n"
      << "  \"rows\": [\n";
    bool firstRow = true;
    for (size_t i = 0; i < rep.programs.size(); ++i) {
        if (i >= reports.size() || !reports[i].present)
            continue;
        const peak::ProgramResult &r = rep.programs[i];
        const peak::ModeReport &m = reports[i];
        o << (firstRow ? "" : ",\n");
        firstRow = false;
        o << "    {\"program\": \"" << jsonEscape(r.name)
          << "\", \"scenario\": \"" << jsonEscape(r.scenario)
          << "\", \"composite_peak_w\": " << m.compositePeakW
          << ", \"envelope_cycles\": " << m.envelopeCycles
          << ", \"all_assertions_pass\": "
          << (m.allAssertionsPass() ? "true" : "false")
          << ",\n     \"modes\": [";
        for (size_t k = 0; k < m.modes.size(); ++k) {
            const peak::ModeSlice &s = m.modes[k];
            o << (k ? ", " : "") << "{\"name\": \""
              << jsonEscape(s.name)
              << "\", \"vdd\": " << s.vdd << ", \"freq_hz\": " << s.freqHz
              << ", \"cycles\": " << s.cycles
              << ", \"peak_w\": " << s.peakW
              << ", \"peak_cycle\": " << s.peakCycle
              << ", \"avg_w\": " << s.avgW
              << ", \"energy_j\": " << s.energyJ << "}";
        }
        o << "],\n     \"transitions\": [";
        for (size_t k = 0; k < m.transitions.size(); ++k) {
            const peak::ModeTransition &t = m.transitions[k];
            o << (k ? ", " : "") << "{\"from\": \""
              << jsonEscape(t.from) << "\", \"to\": \""
              << jsonEscape(t.to) << "\", \"phase\": " << t.phase
              << ", \"occurrences\": " << t.occurrences
              << ", \"peak_entry_w\": " << t.peakEntryW
              << ", \"settle_cycles\": " << t.settleCycles
              << ", \"peak_settle_w\": " << t.peakSettleW << "}";
        }
        o << "],\n     \"assertions\": [";
        for (size_t k = 0; k < m.assertions.size(); ++k) {
            const peak::ModeAssertionResult &a = m.assertions[k];
            o << (k ? ", " : "") << "{\"mode\": \""
              << jsonEscape(a.assertion.mode)
              << "\", \"max_power_w\": " << a.assertion.maxPowerW
              << ", \"settle_cycles\": " << a.assertion.settleCycles
              << ", \"pass\": " << (a.pass ? "true" : "false")
              << ", \"checked_cycles\": " << a.checkedCycles
              << ", \"violations\": " << a.violations
              << ", \"first_violation_cycle\": " << a.firstViolationCycle
              << ", \"max_excess_w\": " << a.maxExcessW << "}";
        }
        o << "],\n     \"findings\": [";
        for (size_t k = 0; k < m.findings.size(); ++k)
            o << (k ? ", " : "") << "\"" << jsonEscape(m.findings[k])
              << "\"";
        o << "]}";
    }
    o << "\n  ]\n}\n";
    return o.take();
}

std::string
toModesCsv(const peak::BatchReport &rep,
           const std::vector<peak::ModeReport> &reports)
{
    util::Writer o;
    o << "program,scenario,kind,name,vdd,freq_hz,cycles,peak_w,"
         "avg_w,energy_j,pass,detail\n";
    for (size_t i = 0; i < rep.programs.size(); ++i) {
        if (i >= reports.size() || !reports[i].present)
            continue;
        const peak::ProgramResult &r = rep.programs[i];
        const peak::ModeReport &m = reports[i];
        auto row = [&](const char *kind, const std::string &name) {
            o << csvQuote(r.name) << ',' << csvQuote(r.scenario)
              << ',' << kind << ',' << csvQuote(name) << ',';
        };
        for (const peak::ModeSlice &s : m.modes) {
            row("mode", s.name);
            o << s.vdd << ',' << s.freqHz << ',' << s.cycles << ','
              << s.peakW << ',' << s.avgW << ',' << s.energyJ << ",,\n";
        }
        for (const peak::ModeTransition &t : m.transitions) {
            row("transition", t.from + "->" + t.to);
            o << ",," << t.occurrences << ',' << t.peakSettleW
              << ",,,,\"phase " << t.phase << " settle " << t.settleCycles
              << "\"\n";
        }
        for (const peak::ModeAssertionResult &a : m.assertions) {
            row("assertion", a.assertion.mode);
            o << ",," << a.checkedCycles << ',' << a.assertion.maxPowerW
              << ",,," << (a.pass ? 1 : 0) << ",\"violations "
              << a.violations << " max_excess_w " << a.maxExcessW
              << "\"\n";
        }
        for (const std::string &f : m.findings) {
            row("finding", "");
            o << ",,,,,,," << csvQuote(f) << "\n";
        }
    }
    return o.take();
}

int
runCli(int argc, const char *const *argv)
{
    CliOptions cli;
    std::string err;
    if (!parseArgs(argc, argv, cli, err)) {
        std::fprintf(stderr, "ulpeak: %s\n\n%s", err.c_str(),
                     usage().c_str());
        return 2;
    }
    if (cli.help) {
        std::fputs(usage().c_str(), stdout);
        return 0;
    }

    std::vector<peak::BatchProgram> suite;
    peak::BatchOptions opts;
    try {
        suite = resolvePrograms(cli.programSpecs);
        // Resolves --scenario specs too; bad presets / unreadable
        // or malformed scenario files are usage errors like bad
        // program specs, not crashes.
        opts = toBatchOptions(cli);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ulpeak: %s\n", e.what());
        return 2;
    }
    const CellLibrary &lib = CellLibrary::tsmc65Like();
    peak::BatchReport rep = peak::analyzeBatch(lib, suite, opts);

    std::vector<peak::ModeReport> modeReps;
    if (cli.modes) {
        std::vector<scenario::Scenario> scens = opts.scenarios;
        if (scens.empty())
            scens.push_back(opts.analysis.scenario);
        modeReps = buildModeReports(rep, scens, lib.vdd());
    }

    if (!cli.quiet) {
        const bool multi = rep.scenarios.size() > 1;
        std::printf("%-12s %-15s %3s %6s %12s %14s %13s %7s %9s %8s\n",
                    "program", "scenario", "ok", "cached", "peak [mW]",
                    "NPE [pJ/cyc]", "energy [nJ]", "paths", "cycles",
                    "wall [s]");
        for (const peak::ProgramResult &r : rep.programs) {
            if (r.ok)
                std::printf(
                    "%-12s %-15s %3s %6s %12.3f %14.2f %13.3f %7u "
                    "%9" PRIu64 " %8.2f\n",
                    r.name.c_str(), r.scenario.c_str(), "yes",
                    r.cached ? "yes" : "no",
                    r.peakPowerW * 1e3, r.npeJPerCycle * 1e12,
                    r.peakEnergyJ * 1e9, r.pathsExplored,
                    r.totalCycles, r.wallSeconds);
            else
                std::printf("%-12s %-15s %3s  FAILED: %s\n",
                            r.name.c_str(), r.scenario.c_str(), "no",
                            r.error.c_str());
        }
        std::printf("\nsuite: %zu programs x %zu scenario%s, %s "
                    "(%.2f s, %u cache hits / %u misses)\n",
                    rep.programs.size() /
                        (rep.scenarios.empty()
                             ? 1
                             : rep.scenarios.size()),
                    rep.scenarios.size(), multi ? "s" : "",
                    rep.ok ? "all ok" : "FAILURES", rep.wallSeconds,
                    rep.cacheHits, rep.cacheMisses);
        for (const peak::ScenarioSummary &sum : rep.scenarios) {
            if (sum.maxPeakPowerProgram.empty())
                continue;
            if (multi)
                std::printf("\nscenario %s (%s):\n",
                            sum.scenario.c_str(),
                            sum.summary.c_str());
            std::printf("suite peak power : %.3f mW (%s) -- the "
                        "supply-sizing number\n",
                        sum.maxPeakPowerW * 1e3,
                        sum.maxPeakPowerProgram.c_str());
            std::printf("suite peak energy: %.3f nJ (%s)\n",
                        sum.maxPeakEnergyJ * 1e9,
                        sum.maxPeakEnergyProgram.c_str());
            std::printf("suite max NPE    : %.2f pJ/cycle (%s)\n",
                        sum.maxNpeJPerCycle * 1e12,
                        sum.maxNpeProgram.c_str());
            if (multi && &sum != &rep.scenarios.front() &&
                rep.scenarios.front().maxPeakPowerW > 0)
                std::printf("tightening       : peak power %.1f%% of "
                            "%s\n",
                            100.0 * sum.maxPeakPowerW /
                                rep.scenarios.front().maxPeakPowerW,
                            rep.scenarios.front().scenario.c_str());
            for (const auto &h : sum.supply.harvesters)
                std::printf("  harvester %-22s %12.4f cm^2\n",
                            h.name.c_str(), h.areaCm2);
            if (sum.suiteEnvelope.present) {
                const sizing::EnvelopeSupply &es = sum.envelopeSupply;
                std::printf("suite envelope   : %zu cycles, peak "
                            "%.3f mW, sustained %.3f mW\n",
                            sum.suiteEnvelope.cycles(),
                            es.peakPowerW * 1e3,
                            es.sustainedPowerW * 1e3);
                for (size_t w = 0; w < es.windows.size(); ++w)
                    std::printf("  window %6u cyc: peak energy "
                                "%10.3f nJ, decap %10.3f nF\n",
                                es.windows[w],
                                es.peakWindowEnergyJ[w] * 1e9,
                                es.decapF[w] * 1e9);
            }
        }
    }
    if (!cli.quiet && cli.modes && cli.modesFormat == "table") {
        for (size_t i = 0; i < modeReps.size(); ++i) {
            const peak::ModeReport &m = modeReps[i];
            if (!m.present)
                continue;
            const peak::ProgramResult &r = rep.programs[i];
            std::printf("\nmodes: %s under %s (composite peak "
                        "%.3f mW over %" PRIu64 " cycles)\n",
                        r.name.c_str(), r.scenario.c_str(),
                        m.compositePeakW * 1e3, m.envelopeCycles);
            for (const peak::ModeSlice &s : m.modes)
                std::printf("  mode %-10s %5.2f V %9.3g Hz: "
                            "%8" PRIu64 " cyc, peak %9.3f mW @%-8"
                            PRIu64 " avg %9.3f mW, %10.3f nJ\n",
                            s.name.c_str(), s.vdd, s.freqHz,
                            s.cycles, s.peakW * 1e3, s.peakCycle,
                            s.avgW * 1e3, s.energyJ * 1e9);
            for (const peak::ModeTransition &t : m.transitions)
                std::printf("  switch %s -> %-10s phase %-4" PRIu64
                            " x%-5" PRIu64 " entry %9.3f mW, settle "
                            "%" PRIu64 " cyc peak %9.3f mW\n",
                            t.from.c_str(), t.to.c_str(), t.phase,
                            t.occurrences, t.peakEntryW * 1e3,
                            t.settleCycles, t.peakSettleW * 1e3);
            for (const peak::ModeAssertionResult &a : m.assertions) {
                if (a.pass)
                    std::printf("  assert %-10s <= %9.3f mW "
                                "(settle %" PRIu64 "): PASS over "
                                "%" PRIu64 " cycles\n",
                                a.assertion.mode.c_str(),
                                a.assertion.maxPowerW * 1e3,
                                a.assertion.settleCycles,
                                a.checkedCycles);
                else
                    std::printf("  assert %-10s <= %9.3f mW "
                                "(settle %" PRIu64 "): FAIL -- %"
                                PRIu64 " violation(s), first at "
                                "cycle %" PRIu64 ", worst +%.3f mW\n",
                                a.assertion.mode.c_str(),
                                a.assertion.maxPowerW * 1e3,
                                a.assertion.settleCycles,
                                a.violations, a.firstViolationCycle,
                                a.maxExcessW * 1e3);
            }
            for (const std::string &f : m.findings)
                std::printf("  finding: %s\n", f.c_str());
        }
    }
    if (cli.envelopeFormat == "csv")
        std::fputs(toEnvelopeCsv(rep).c_str(), stdout);
    if (cli.modes && cli.modesFormat == "json")
        std::fputs(toModesJson(rep, modeReps).c_str(), stdout);
    if (cli.modes && cli.modesFormat == "csv")
        std::fputs(toModesCsv(rep, modeReps).c_str(), stdout);

    if (!cli.jsonPath.empty()) {
        std::ofstream out(cli.jsonPath);
        if (!out) {
            std::fprintf(stderr, "ulpeak: cannot write %s\n",
                         cli.jsonPath.c_str());
            return 1;
        }
        out << toJson(rep, opts,
                      /*include_timings=*/!cli.noTimings);
    }
    if (!cli.csvPath.empty()) {
        std::ofstream out(cli.csvPath);
        if (!out) {
            std::fprintf(stderr, "ulpeak: cannot write %s\n",
                         cli.csvPath.c_str());
            return 1;
        }
        out << toCsv(rep);
    }
    return rep.ok ? 0 : 1;
}

} // namespace cli
} // namespace ulpeak
