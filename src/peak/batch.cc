#include "peak/batch.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string_view>
#include <thread>

#include "msp/cpu.hh"
#include "util/cache_file.hh"

namespace ulpeak {
namespace peak {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// @name Disk cache: one small text file per key
/// @{
// Format-version header. v2 added the envelope fields; v3 made the
// deployment scenario part of the key (a v2 entry was implicitly
// "unconstrained", so letting it satisfy a constrained lookup -- or
// the other way around -- would serve numbers from the wrong
// environment); v4 added operating-mode (DVFS) schedules to the
// scenario hash -- a v3 binary knows nothing about modes, so its
// entries must never satisfy a mode-scheduled lookup even if the
// rest of the scenario hashes equal. The version participates both
// in the cache key (stale files are simply never addressed) and in
// the content check below (a key collision or a hand-copied entry
// from an older binary is rejected as a miss instead of
// deserializing into a garbage report).
constexpr const char *kCacheMagic = "ulpeak-cache-v4";

/** Load a cached result into @p r; false on miss or a malformed /
 *  truncated entry (treated as a miss and overwritten). When
 *  @p expect_envelope, an entry without the envelope payload is a
 *  miss; window curves are rebuilt by the caller. The entry is read
 *  in one call and parsed in place, one "key value" line at a time. */
bool
loadCached(const fs::path &path, ProgramResult &r,
           bool expect_envelope)
{
    std::string buf;
    if (!util::readFile(path, buf))
        return false;
    std::string_view rest(buf);
    auto line = [&rest]() {
        size_t eol = std::min(rest.find('\n'), rest.size());
        std::string_view l = rest.substr(0, eol);
        rest.remove_prefix(std::min(eol + 1, rest.size()));
        return l;
    };
    if (line() != kCacheMagic)
        return false;
    bool ok = true;
    auto parseU64 = [&ok](std::string_view s) -> uint64_t {
        uint64_t v = 0;
        auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
        if (s.empty() || ec != std::errc() || end != s.data() + s.size())
            ok = false;
        return v;
    };
    unsigned seen = 0; // bitmask: each field must appear exactly once
    auto mark = [&](unsigned bit) {
        if (seen & (1u << bit))
            ok = false;
        seen |= 1u << bit;
    };
    uint64_t envCycles = 0;
    std::string_view envBits;
    while (!rest.empty()) {
        std::string_view k = line(), v;
        size_t sp = k.find(' ');
        if (sp != std::string_view::npos) {
            v = k.substr(sp + 1);
            k = k.substr(0, sp);
        }
        if (k == "peak_power_w_bits") {
            ok &= util::bitsValue(v, r.peakPowerW);
            mark(0);
        } else if (k == "peak_energy_j_bits") {
            ok &= util::bitsValue(v, r.peakEnergyJ);
            mark(1);
        } else if (k == "npe_j_per_cycle_bits") {
            ok &= util::bitsValue(v, r.npeJPerCycle);
            mark(2);
        } else if (k == "max_path_cycles") {
            r.maxPathCycles = parseU64(v);
            mark(3);
        } else if (k == "total_cycles") {
            r.totalCycles = parseU64(v);
            mark(4);
        } else if (k == "paths_explored") {
            r.pathsExplored = uint32_t(parseU64(v));
            mark(5);
        } else if (k == "dedup_merges") {
            r.dedupMerges = uint32_t(parseU64(v));
            mark(6);
        } else if (k == "envelope_cycles") {
            envCycles = parseU64(v);
            mark(7);
        } else if (k == "envelope_w_bits") {
            envBits = v;
            mark(8);
        }
        // Unknown keys are ignored (forward compatibility).
    }
    unsigned required = expect_envelope
                            ? (envCycles ? 0x1ffu : 0xffu)
                            : 0x7fu;
    if (!ok || seen != required)
        return false;
    if (expect_envelope) {
        r.envelope.present = true;
        if (!util::bitsFloats(envBits, size_t(envCycles),
                              r.envelope.powerW))
            return false;
    }
    r.ok = true;
    return true;
}

/** Atomically persist a successful result (temp sibling + rename). */
void
storeCached(const fs::path &path, const ProgramResult &r)
{
    util::Writer out;
    out << kCacheMagic << "\n"
        << "peak_power_w_bits " << util::doubleBits(r.peakPowerW) << "\n"
        << "peak_energy_j_bits " << util::doubleBits(r.peakEnergyJ)
        << "\n"
        << "npe_j_per_cycle_bits " << util::doubleBits(r.npeJPerCycle)
        << "\n"
        << "max_path_cycles " << r.maxPathCycles << "\n"
        << "total_cycles " << r.totalCycles << "\n"
        << "paths_explored " << r.pathsExplored << "\n"
        << "dedup_merges " << r.dedupMerges << "\n";
    if (r.envelope.present) {
        out << "envelope_cycles " << r.envelope.powerW.size() << "\n";
        if (!r.envelope.powerW.empty()) {
            out << "envelope_w_bits ";
            for (float f : r.envelope.powerW)
                out << util::floatBits(f);
            out << "\n";
        }
    }
    // The cache is best-effort: a failed write leaves a miss behind.
    util::writeFileAtomic(path, out.take());
}
/// @}

} // namespace

uint64_t
cacheKey(const CellLibrary &lib, const isa::Image &image,
         const Options &opts)
{
    uint64_t h = util::kFnvOffset;
    util::hashString(h, kCacheMagic);
    // The library participates by *content*, not just name: editing a
    // calibration constant must invalidate every cached entry.
    util::hashString(h, lib.name());
    util::hashDouble(h, lib.vdd());
    util::hashDouble(h, lib.wireCapPerFanoutF());
    for (size_t k = 0; k < kNumCellKinds; ++k) {
        const CellParams &p = lib.params(CellKind(k));
        util::hashDouble(h, p.inputCapF);
        util::hashDouble(h, p.riseEnergyJ);
        util::hashDouble(h, p.fallEnergyJ);
        util::hashDouble(h, p.leakageW);
        util::hashDouble(h, p.areaUm2);
        util::hashDouble(h, p.clkPinEnergyJ);
    }
    // Result-affecting options only (the rules are documented on
    // sym::SymbolicConfig). recordEnvelope and the window set
    // participate because they change what a cached entry must
    // contain; the scenario participates by content, not name.
    util::hashDouble(h, opts.freqHz);
    util::hashU64(h, opts.maxTotalCycles);
    util::hashU64(h, opts.maxPathCycles);
    util::hashU64(h, opts.maxNodes);
    util::hashU64(h, opts.inputDependentLoopBound);
    opts.scenario.hashInto(h);
    util::hashU64(h, opts.recordEnvelope ? 1 : 0);
    if (opts.recordEnvelope) {
        util::hashU64(h, opts.envelopeWindows.size());
        for (unsigned w : opts.envelopeWindows)
            util::hashU64(h, w);
    }
    // Image contents: flattened (address, word) pairs.
    auto words = image.flatten();
    util::hashU64(h, words.size());
    for (const auto &[addr, word] : words) {
        util::hashU64(h, addr);
        util::hashU64(h, word);
    }
    return h;
}

BatchReport
analyzeBatch(const CellLibrary &lib,
             const std::vector<BatchProgram> &programs,
             const BatchOptions &opts)
{
    Clock::time_point suite0 = Clock::now();

    BatchReport rep;
    // The work list is the scenario x program matrix, scenario-major
    // (a single implicit scenario reproduces the old flat suite).
    std::vector<scenario::Scenario> scens = opts.scenarios;
    if (scens.empty())
        scens.push_back(opts.analysis.scenario);
    const size_t nProg = programs.size();
    const size_t nItems = scens.size() * nProg;

    rep.programs.resize(nItems);
    std::vector<Options> scenOpts(scens.size(), opts.analysis);
    for (size_t s = 0; s < scens.size(); ++s) {
        scenOpts[s].scenario = scens[s];
        for (size_t p = 0; p < nProg; ++p) {
            rep.programs[s * nProg + p].name = programs[p].name;
            rep.programs[s * nProg + p].scenario = scens[s].name;
        }
    }

    const bool useCache = !opts.cacheDir.empty();
    if (useCache)
        fs::create_directories(opts.cacheDir);

    std::atomic<size_t> next{0};
    std::atomic<bool> abort{false};
    std::atomic<unsigned> hits{0}, misses{0};

    auto workerFn = [&]() {
        // Each worker elaborates at most one private System, lazily:
        // a fully-warm suite never pays for netlist construction.
        std::unique_ptr<msp::System> sys;
        for (;;) {
            if (opts.failFast && abort.load())
                break;
            size_t i = next.fetch_add(1);
            if (i >= nItems)
                break;
            const Options &aopts = scenOpts[i / nProg];
            const BatchProgram &prog = programs[i % nProg];
            ProgramResult &r = rep.programs[i];
            Clock::time_point t0 = Clock::now();

            fs::path entry;
            if (useCache) {
                entry = util::entryPath(opts.cacheDir, "",
                                        cacheKey(lib, prog.image, aopts));
                if (loadCached(entry, r, aopts.recordEnvelope)) {
                    if (r.envelope.present) {
                        // Window curves are derived data: rebuild
                        // them from the cached trace exactly as the
                        // cold path built them.
                        r.envelope.windows = aopts.envelopeWindows;
                        if (aopts.scenario.hasModes())
                            buildWindowCurves(
                                r.envelope,
                                aopts.scenario.phaseTclkS());
                        else
                            buildWindowCurves(r.envelope,
                                              1.0 / aopts.freqHz);
                    }
                    r.cached = true;
                    ++hits;
                    r.wallSeconds = secondsSince(t0);
                    continue;
                }
                ++misses;
            }

            try {
                if (!sys)
                    sys = std::make_unique<msp::System>(lib);
                Report full = analyze(*sys, prog.image, aopts);
                r.envelope = std::move(full.envelope);
                static_cast<sym::Summary &>(r) = std::move(full);
            } catch (const std::exception &e) {
                r.ok = false;
                r.error = e.what();
            }
            if (r.ok && useCache)
                storeCached(entry, r);
            if (!r.ok && opts.failFast)
                abort.store(true);
            r.wallSeconds = secondsSince(t0);
        }
    };

    unsigned jobs = opts.jobs < 1 ? 1 : opts.jobs;
    if (jobs > nItems)
        jobs = unsigned(nItems ? nItems : 1);
    if (jobs <= 1) {
        workerFn();
    } else {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t + 1 < jobs; ++t)
            pool.emplace_back(workerFn);
        workerFn();
        for (std::thread &t : pool)
            t.join();
    }

    rep.cacheHits = hits.load();
    rep.cacheMisses = misses.load();

    rep.ok = nItems > 0;
    for (ProgramResult &r : rep.programs) {
        if (!r.ok) {
            rep.ok = false;
            if (r.error.empty())
                r.error = "skipped (fail-fast after earlier failure)";
        }
    }

    // Per-scenario aggregates; the top-level fields mirror the first
    // scenario so single-scenario callers see the familiar report.
    rep.scenarios.resize(scens.size());
    for (size_t s = 0; s < scens.size(); ++s) {
        ScenarioSummary &sum = rep.scenarios[s];
        sum.scenario = scens[s].name;
        sum.summary = scens[s].summary();
        sum.ok = nProg > 0;
        bool anyOk = false;
        for (size_t p = 0; p < nProg; ++p) {
            const ProgramResult &r = rep.programs[s * nProg + p];
            if (!r.ok) {
                sum.ok = false;
                continue;
            }
            anyOk = true;
            if (r.peakPowerW > sum.maxPeakPowerW) {
                sum.maxPeakPowerW = r.peakPowerW;
                sum.maxPeakPowerProgram = r.name;
            }
            if (r.peakEnergyJ > sum.maxPeakEnergyJ) {
                sum.maxPeakEnergyJ = r.peakEnergyJ;
                sum.maxPeakEnergyProgram = r.name;
            }
            if (r.npeJPerCycle > sum.maxNpeJPerCycle) {
                sum.maxNpeJPerCycle = r.npeJPerCycle;
                sum.maxNpeProgram = r.name;
            }
        }
        if (anyOk)
            sum.supply = sizing::sizeSuiteSupply(sum.maxPeakPowerW,
                                                 sum.maxPeakEnergyJ);

        // Suite envelope: elementwise max of the scenario's
        // per-program envelopes, composed in input order (max is
        // order-independent, so any order would produce the same
        // bytes), then sized.
        if (opts.analysis.recordEnvelope && anyOk) {
            double tclk = 1.0 / opts.analysis.freqHz;
            // Under a mode schedule the cycles run at per-phase
            // clocks: the curves use the exact per-phase periods,
            // and the sizing's sustained-rate conversion uses the
            // schedule-mean period (energy per cycle over seconds
            // per cycle, averaged over one period).
            std::vector<double> phaseTclk;
            if (scens[s].hasModes()) {
                phaseTclk = scens[s].phaseTclkS();
                double acc = 0.0;
                for (double t : phaseTclk)
                    acc += t;
                tclk = acc / double(phaseTclk.size());
            }
            sum.suiteEnvelope.windows =
                opts.analysis.envelopeWindows;
            for (size_t p = 0; p < nProg; ++p) {
                const ProgramResult &r = rep.programs[s * nProg + p];
                if (r.ok)
                    maxComposeEnvelope(sum.suiteEnvelope, r.envelope);
            }
            if (sum.suiteEnvelope.present) {
                if (phaseTclk.empty())
                    buildWindowCurves(sum.suiteEnvelope, tclk);
                else
                    buildWindowCurves(sum.suiteEnvelope, phaseTclk);
                sum.envelopeSupply = sizing::sizeEnvelopeSupply(
                    sum.suiteEnvelope.windows,
                    sum.suiteEnvelope.peakWindowEnergyJ,
                    sum.suiteEnvelope.peakPowerW(), tclk, lib.vdd());
            }
        }
    }
    if (!rep.scenarios.empty()) {
        const ScenarioSummary &first = rep.scenarios.front();
        rep.maxPeakPowerW = first.maxPeakPowerW;
        rep.maxPeakPowerProgram = first.maxPeakPowerProgram;
        rep.maxPeakEnergyJ = first.maxPeakEnergyJ;
        rep.maxPeakEnergyProgram = first.maxPeakEnergyProgram;
        rep.maxNpeJPerCycle = first.maxNpeJPerCycle;
        rep.maxNpeProgram = first.maxNpeProgram;
        rep.supply = first.supply;
        rep.suiteEnvelope = first.suiteEnvelope;
        rep.envelopeSupply = first.envelopeSupply;
    }
    rep.wallSeconds = secondsSince(suite0);
    return rep;
}

} // namespace peak
} // namespace ulpeak
