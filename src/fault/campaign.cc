#include "fault/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "fuzz/rng.hh"
#include "util/cache_file.hh"

namespace ulpeak {
namespace fault {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// @name Disk cache: one text file per campaign key
/// @{
constexpr const char *kCacheMagic = "ulfault-cache-v1";

/** One row per injection, fixed field order; every numeric field is
 *  decimal except the hex-bit-pattern peak power (exact float
 *  round-trip, so a warm run reproduces the cold run bit for bit). */
void
storeCached(const fs::path &path, const CampaignResult &res)
{
    util::Writer out;
    out << kCacheMagic << "\n"
        << "golden_cycles " << res.goldenCycles << "\n"
        << "golden_instructions " << res.goldenInstructions << "\n"
        << "hang_cycles " << res.hangCycles << "\n"
        << "envelope_present " << (res.envelopePresent ? 1 : 0) << "\n"
        << "envelope_cycles " << res.envelopeCycles << "\n"
        << "envelope_peak_w_bits " << util::doubleBits(res.envelopePeakW)
        << "\n"
        << "rows " << res.injections.size() << "\n";
    for (const InjectionResult &ir : res.injections) {
        const FaultResult &r = ir.r;
        out << "row " << ir.siteIndex << " " << ir.cycle << " "
            << unsigned(r.outcome) << " " << (r.applied ? 1 : 0) << " "
            << unsigned(r.kind) << " " << r.divergenceCycle << " "
            << r.instrIndex << " " << r.pc << " " << r.gateCycles << " "
            << r.instructionsRetired << " "
            << util::floatBits(r.peakPowerW) << " " << r.peakCycle << " "
            << r.traceCycles << " " << (r.envelopeEscape ? 1 : 0) << " "
            << r.escapeCycle << "\n";
    }
    util::writeFileAtomic(path, out.take()); // cache is best-effort
}

/** Load the campaign body; false on miss/corruption (re-run). The
 *  row (site, cycle) pairs must match the freshly derived task list
 *  -- a key collision can never smuggle in rows of a different
 *  campaign shape. */
bool
loadCached(const fs::path &path, CampaignResult &res)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string magic;
    if (!std::getline(in, magic) || magic != kCacheMagic)
        return false;
    std::string k;
    uint64_t rows = UINT64_MAX;
    unsigned envPresent = 0;
    std::string peakBits;
    while (in >> k) {
        if (k == "golden_cycles") {
            if (!(in >> res.goldenCycles))
                return false;
        } else if (k == "golden_instructions") {
            if (!(in >> res.goldenInstructions))
                return false;
        } else if (k == "hang_cycles") {
            if (!(in >> res.hangCycles))
                return false;
        } else if (k == "envelope_present") {
            if (!(in >> envPresent))
                return false;
        } else if (k == "envelope_cycles") {
            if (!(in >> res.envelopeCycles))
                return false;
        } else if (k == "envelope_peak_w_bits") {
            if (!(in >> peakBits) ||
                !util::bitsValue(peakBits, res.envelopePeakW))
                return false;
        } else if (k == "rows") {
            if (!(in >> rows))
                return false;
            break;
        } else {
            return false;
        }
    }
    if (rows != res.injections.size())
        return false;
    res.envelopePresent = envPresent != 0;
    for (InjectionResult &ir : res.injections) {
        uint32_t site;
        uint64_t cycle;
        unsigned outcome, applied, kind, escape;
        std::string pBits;
        FaultResult &r = ir.r;
        if (!(in >> k >> site >> cycle >> outcome >> applied >> kind >>
              r.divergenceCycle >> r.instrIndex >> r.pc >>
              r.gateCycles >> r.instructionsRetired >> pBits >>
              r.peakCycle >> r.traceCycles >> escape >> r.escapeCycle))
            return false;
        if (k != "row" || site != ir.siteIndex || cycle != ir.cycle)
            return false;
        if (outcome > unsigned(Outcome::Hang) ||
            kind > unsigned(cosim::Divergence::Kind::Halt))
            return false;
        r.outcome = Outcome(outcome);
        r.applied = applied != 0;
        r.kind = cosim::Divergence::Kind(kind);
        r.envelopeEscape = escape != 0;
        if (!util::bitsValue(pBits, r.peakPowerW))
            return false;
    }
    return true;
}
/// @}

void
aggregate(CampaignResult &res)
{
    res.summaries.assign(res.sites.size(), SiteSummary{});
    for (size_t s = 0; s < res.sites.size(); ++s)
        res.summaries[s].siteIndex = uint32_t(s);
    for (const InjectionResult &ir : res.injections) {
        SiteSummary &sum = res.summaries[ir.siteIndex];
        switch (ir.r.outcome) {
          case Outcome::Masked: ++sum.masked; ++res.masked; break;
          case Outcome::Sdc: ++sum.sdc; ++res.sdc; break;
          case Outcome::Crash: ++sum.crash; ++res.crash; break;
          case Outcome::Hang: ++sum.hang; ++res.hang; break;
        }
        if (!ir.r.applied) {
            ++sum.notApplied;
            ++res.notApplied;
        }
        if (ir.r.envelopeEscape) {
            ++sum.escapes;
            ++res.escapes;
        }
        if (ir.r.peakPowerW > sum.maxPeakPowerW)
            sum.maxPeakPowerW = ir.r.peakPowerW;
    }
}

} // namespace

std::vector<Site>
campaignSites(const Netlist &nl, const msp::System &sys,
              const CampaignOptions &opts)
{
    std::vector<Site> sites = flopSites(nl);
    if (opts.maxFlopSites && sites.size() > opts.maxFlopSites) {
        // Even subsample of the seqGates order: stable under the cap,
        // spread across the whole flop population (every module).
        std::vector<Site> picked;
        picked.reserve(opts.maxFlopSites);
        for (size_t j = 0; j < opts.maxFlopSites; ++j)
            picked.push_back(sites[j * sites.size() /
                                   opts.maxFlopSites]);
        sites.swap(picked);
    }
    const Memory &mem = sys.memory();
    fuzz::Rng rng(fuzz::Rng::deriveStream(opts.seed, 2ull << 40));
    for (size_t j = 0; j < opts.ramSites; ++j) {
        Site s;
        s.kind = SiteKind::Ram;
        s.addr = mem.ramBase() +
                 2 * rng.below(uint32_t(mem.ramSize() / 2));
        s.bit = uint8_t(rng.below(16));
        sites.push_back(s);
    }
    return sites;
}

std::vector<uint64_t>
siteInjectionCycles(uint64_t seed, uint32_t site_index,
                    unsigned cycles_per_site, uint64_t golden_cycles)
{
    fuzz::Rng rng(
        fuzz::Rng::deriveStream(seed, (1ull << 40) + site_index));
    std::vector<uint64_t> cycles(cycles_per_site);
    for (uint64_t &c : cycles)
        c = rng.below(uint32_t(golden_cycles));
    return cycles;
}

uint64_t
campaignCacheKey(const CellLibrary &lib, const isa::Image &image,
                 const CampaignOptions &opts)
{
    uint64_t h = util::kFnvOffset;
    util::hashString(h, kCacheMagic);
    // Library by content (the batch layer's rule: a calibration edit
    // must invalidate everything).
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
    // Result-affecting campaign options. jobs, packed and the
    // engine's strategy knobs (evalMode, numThreads, ...) are
    // excluded: the determinism contract makes them
    // classification-invariant (and the tests lockstep them). The
    // analysis limits and the scenario only shape the envelope.
    util::hashU64(h, opts.seed);
    util::hashU64(h, opts.cyclesPerSite);
    util::hashU64(h, opts.maxFlopSites);
    util::hashU64(h, opts.ramSites);
    util::hashU64(h, opts.portIn);
    util::hashU64(h, opts.goldenMaxCycles);
    util::hashU64(h, opts.hangCycles);
    util::hashDouble(h, opts.freqHz);
    util::hashU64(h, opts.withEnvelope ? 1 : 0);
    if (opts.withEnvelope) {
        util::hashU64(h, opts.maxTotalCycles);
        util::hashU64(h, opts.maxPathCycles);
        util::hashU64(h, opts.maxNodes);
        util::hashU64(h, opts.inputDependentLoopBound);
        opts.scenario.hashInto(h);
    }
    auto words = image.flatten();
    util::hashU64(h, words.size());
    for (const auto &[addr, word] : words) {
        util::hashU64(h, addr);
        util::hashU64(h, word);
    }
    return h;
}

CampaignResult
runCampaign(const CellLibrary &lib, const isa::Image &image,
            const CampaignOptions &opts)
{
    Clock::time_point t0 = Clock::now();
    CampaignResult res;
    if (opts.cyclesPerSite == 0) {
        res.error = "cyclesPerSite must be nonzero";
        return res;
    }

    msp::System sys(lib);
    res.sites = campaignSites(sys.netlist(), sys, opts);
    res.siteNames.reserve(res.sites.size());
    for (const Site &s : res.sites)
        res.siteNames.push_back(siteName(sys.netlist(), s));
    if (res.sites.empty()) {
        res.error = "no injection sites";
        return res;
    }

    const bool useCache = !opts.cacheDir.empty();
    fs::path entry;
    if (useCache) {
        fs::create_directories(opts.cacheDir);
        entry = util::entryPath(opts.cacheDir, "fault-",
                                campaignCacheKey(lib, image, opts));
    }

    // Golden (unfaulted) lockstep run: defines the injection-cycle
    // space and the hang budget, and gates the whole campaign.
    cosim::Options gopts;
    gopts.maxCycles = opts.goldenMaxCycles;
    gopts.portIn = opts.portIn;
    gopts.evalMode = opts.evalMode;
    cosim::Result golden = cosim::run(sys, image, gopts);
    if (!golden.ok) {
        res.error = "golden run diverges (" +
                    std::string(cosim::divergenceKindName(
                        golden.divergence.kind)) +
                    "); campaign refused";
        return res;
    }
    res.goldenCycles = golden.gateCycles;
    res.goldenInstructions = golden.instructionsRetired;
    res.hangCycles = opts.hangCycles ? opts.hangCycles
                                     : 4 * res.goldenCycles + 64;

    // Task list: site-major (site, cycle) rows, derived from the seed
    // alone -- identical for every jobs/packed/evalMode combination.
    res.injections.resize(res.sites.size() * opts.cyclesPerSite);
    for (size_t s = 0; s < res.sites.size(); ++s) {
        std::vector<uint64_t> cycles = siteInjectionCycles(
            opts.seed, uint32_t(s), opts.cyclesPerSite,
            res.goldenCycles);
        for (unsigned c = 0; c < opts.cyclesPerSite; ++c) {
            InjectionResult &ir =
                res.injections[s * opts.cyclesPerSite + c];
            ir.siteIndex = uint32_t(s);
            ir.cycle = cycles[c];
        }
    }

    if (useCache && loadCached(entry, res)) {
        res.cacheHit = true;
        res.ok = true;
        aggregate(res);
        res.wallSeconds = secondsSince(t0);
        return res;
    }

    // Optional X-based envelope for escape detection (failure is a
    // note, not a campaign error: classification proceeds without).
    peak::Envelope envelope;
    if (opts.withEnvelope) {
        peak::Options aopts = opts;
        aopts.recordEnvelope = true;
        peak::Report rep = peak::analyze(sys, image, aopts);
        if (rep.ok && rep.envelope.present) {
            envelope = std::move(rep.envelope);
            res.envelopePresent = true;
            res.envelopeCycles = envelope.cycles();
            res.envelopePeakW = envelope.peakPowerW();
        } else {
            res.envelopeError =
                rep.error.empty() ? "envelope not recorded"
                                  : rep.error;
        }
    }

    RunOptions ropts;
    ropts.maxCycles = res.hangCycles;
    ropts.portIn = opts.portIn;
    ropts.evalMode = opts.evalMode;
    ropts.envelope = res.envelopePresent ? &envelope : nullptr;

    const size_t nTasks = res.injections.size();
    const size_t groupSize = opts.packed ? PackedSimulator::kLanes : 1;
    const size_t nGroups = (nTasks + groupSize - 1) / groupSize;
    std::atomic<size_t> nextGroup{0};

    auto workerFn = [&]() {
        std::unique_ptr<msp::System> wsys;
        std::unique_ptr<power::PowerContext> wctx;
        for (;;) {
            size_t g = nextGroup.fetch_add(1);
            if (g >= nGroups)
                break;
            if (!wsys) {
                wsys = std::make_unique<msp::System>(lib);
                wctx = std::make_unique<power::PowerContext>(
                    wsys->netlist(), opts.freqHz);
            }
            RunOptions wopts = ropts;
            wopts.powerCtx = wctx.get();
            size_t base = g * groupSize;
            size_t count = std::min(groupSize, nTasks - base);
            if (opts.packed) {
                std::array<std::vector<Injection>,
                           PackedSimulator::kLanes>
                    faults;
                for (size_t i = 0; i < count; ++i) {
                    const InjectionResult &ir =
                        res.injections[base + i];
                    faults[i].push_back(
                        {res.sites[ir.siteIndex], ir.cycle});
                }
                std::array<FaultResult, PackedSimulator::kLanes> out =
                    runFaultedPacked(*wsys, image, faults, wopts);
                for (size_t i = 0; i < count; ++i)
                    res.injections[base + i].r = std::move(out[i]);
            } else {
                for (size_t i = 0; i < count; ++i) {
                    InjectionResult &ir = res.injections[base + i];
                    std::vector<Injection> faults{
                        {res.sites[ir.siteIndex], ir.cycle}};
                    ir.r = runFaulted(*wsys, image, faults, wopts);
                    ir.r.report.clear(); // campaign rows carry none
                }
            }
        }
    };

    unsigned jobs = opts.jobs < 1 ? 1 : opts.jobs;
    if (jobs > nGroups)
        jobs = unsigned(nGroups ? nGroups : 1);
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

    res.ok = true;
    aggregate(res);
    if (useCache && res.envelopeError.empty())
        storeCached(entry, res);
    res.wallSeconds = secondsSince(t0);
    return res;
}

} // namespace fault
} // namespace ulpeak
