#include "fuzz/properties.hh"

#include <array>
#include <sstream>

#include "fault/campaign.hh"
#include "lint/lint.hh"
#include "peak/peak_analysis.hh"
#include "peak/validation.hh"
#include "power/analysis.hh"
#include "power/packed_run.hh"
#include "sim/packed_simulator.hh"

namespace ulpeak {
namespace fuzz {

namespace {

/** Compare complete simulator state after one lockstep cycle. */
bool
compareCycle(const Netlist &nl, const Simulator &a, const Simulator &b,
             const char *label_b, std::ostringstream &os)
{
    for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
        if (a.value(g) != b.value(g)) {
            os << "cycle " << a.cycle() << " gate " << g
               << ": value FullSweep=" << v4Char(a.value(g)) << " "
               << label_b << "=" << v4Char(b.value(g)) << "\n";
            return false;
        }
        if (a.isActive(g) != b.isActive(g)) {
            os << "cycle " << a.cycle() << " gate " << g
               << ": activity FullSweep=" << a.isActive(g) << " "
               << label_b << "=" << b.isActive(g) << "\n";
            return false;
        }
    }
    if (a.activeGates() != b.activeGates()) {
        os << "cycle " << a.cycle() << ": active-gate lists differ ("
           << a.activeGates().size() << " vs "
           << b.activeGates().size() << " entries)\n";
        return false;
    }
    if (a.actualEnergyJ() != b.actualEnergyJ() ||
        a.boundEnergyJ() != b.boundEnergyJ()) {
        os << "cycle " << a.cycle()
           << ": energy FullSweep=(" << a.actualEnergyJ() << ", "
           << a.boundEnergyJ() << ") " << label_b << "=("
           << b.actualEnergyJ() << ", " << b.boundEnergyJ() << ")\n";
        return false;
    }
    if (a.moduleBoundEnergyJ() != b.moduleBoundEnergyJ()) {
        os << "cycle " << a.cycle()
           << ": per-module energies differ\n";
        return false;
    }
    if (a.hashFullState() != b.hashFullState()) {
        os << "cycle " << a.cycle() << ": full-state hashes differ\n";
        return false;
    }
    return true;
}

} // namespace

PropertyResult
kernelEquivalenceCheck(uint64_t seed, const NetlistGenOptions &opts,
                       unsigned cycles)
{
    PropertyResult res;
    Rng rng(seed);
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    RandomNetlist rn = buildRandomNetlist(nl, rng, opts);
    auto sched = makeInputSchedule(rng, unsigned(rn.inputs.size()),
                                   cycles, opts.inputXPercent);

    Simulator full(nl, EvalMode::FullSweep);
    Simulator event(nl, EvalMode::EventDriven);
    Simulator forked(nl, EvalMode::EventDriven);

    // Fork point for the snapshot/restore transparency check.
    unsigned forkAt = cycles / 2;
    Simulator::Snapshot snap;

    std::ostringstream os;
    for (unsigned c = 0; c < cycles; ++c) {
        auto drive = [&](Simulator &s) {
            for (size_t i = 0; i < rn.inputs.size(); ++i)
                s.setInput(rn.inputs[i], sched[c][i]);
        };
        full.step(drive);
        event.step(drive);
        if (!compareCycle(nl, full, event, "EventDriven", os)) {
            res.ok = false;
            res.detail = "seed " + std::to_string(seed) + ": " +
                         os.str();
            return res;
        }
        if (c == forkAt)
            snap = event.snapshot();
    }

    // Replay the suffix from the snapshot on a third simulator: the
    // continuation must be indistinguishable from the original run.
    forked.restore(snap);
    for (unsigned c = forkAt + 1; c < cycles; ++c) {
        forked.step([&](Simulator &s) {
            for (size_t i = 0; i < rn.inputs.size(); ++i)
                s.setInput(rn.inputs[i], sched[c][i]);
        });
    }
    if (cycles > forkAt + 1 &&
        forked.hashFullState() != event.hashFullState()) {
        res.ok = false;
        res.detail = "seed " + std::to_string(seed) +
                     ": snapshot/restore replay diverged from the "
                     "straight-line run\n";
    }
    return res;
}

namespace {

/** Collects one "name: A=va B=vb" line per field two reports
 *  disagree on. */
struct ReportDiff {
    const char *whatA, *whatB;
    std::ostringstream os;

    ReportDiff(const char *what_a, const char *what_b)
        : whatA(what_a), whatB(what_b)
    {
    }

    void
    field(const char *name, double va, double vb)
    {
        if (va != vb)
            os << name << ": " << whatA << "=" << va << " " << whatB
               << "=" << vb << "\n";
    }
};

/**
 * The fields every report identity property pins: ok/error, the four
 * bounds, the envelope and the scheduling-independent tree
 * statistics.
 */
std::string
compareReports(const peak::Report &a, const peak::Report &b,
               const char *what_a, const char *what_b)
{
    ReportDiff d{what_a, what_b};
    std::ostringstream &os = d.os;
    if (!a.ok && !b.ok) {
        // Both analyses rejected the program the same way: the
        // determinism property holds trivially. Different errors mean
        // the outcome itself was scheduling/kernel-dependent.
        if (a.error != b.error)
            os << "errors differ: " << d.whatA << "=\"" << a.error
               << "\" " << d.whatB << "=\"" << b.error << "\"\n";
        return os.str();
    }
    if (!a.ok || !b.ok) {
        os << d.whatA << " ok=" << a.ok << " (" << a.error << "), "
           << d.whatB << " ok=" << b.ok << " (" << b.error << ")\n";
        return os.str();
    }
    d.field("peakPowerW", a.peakPowerW, b.peakPowerW);
    d.field("peakEnergyJ", a.peakEnergyJ, b.peakEnergyJ);
    d.field("npeJPerCycle", a.npeJPerCycle, b.npeJPerCycle);
    d.field("maxPathCycles", double(a.maxPathCycles),
            double(b.maxPathCycles));
    if (a.envelope.present != b.envelope.present) {
        os << "envelope.present: " << d.whatA << "="
           << a.envelope.present << " " << d.whatB << "="
           << b.envelope.present << "\n";
    } else if (a.envelope.present) {
        if (a.envelope.powerW != b.envelope.powerW)
            os << "envelope.powerW: traces differ (" << d.whatA << " "
               << a.envelope.powerW.size() << " cycles, " << d.whatB
               << " " << b.envelope.powerW.size() << " cycles)\n";
        if (a.envelope.windowEnergyJ != b.envelope.windowEnergyJ)
            os << "envelope.windowEnergyJ: curves differ\n";
        if (a.envelope.peakWindowEnergyJ !=
            b.envelope.peakWindowEnergyJ)
            os << "envelope.peakWindowEnergyJ: peaks differ\n";
    }
    d.field("totalCycles", double(a.totalCycles), double(b.totalCycles));
    d.field("pathsExplored", double(a.pathsExplored),
            double(b.pathsExplored));
    d.field("dedupMerges", double(a.dedupMerges), double(b.dedupMerges));
    return os.str();
}

} // namespace

PropertyResult
symDeterminismCheck(msp::System &sys, const isa::Image &image,
                    unsigned threads)
{
    PropertyResult res;
    peak::Options opts;
    opts.recordEnvelope = true;
    opts.numThreads = 1;
    peak::Report serial = peak::analyze(sys, image, opts);
    opts.numThreads = threads;
    peak::Report parallel = peak::analyze(sys, image, opts);
    std::string diff = compareReports(serial, parallel, "1-thread",
                                      "K-thread");
    if (!diff.empty()) {
        res.ok = false;
        res.detail = diff;
    }
    return res;
}

PropertyResult
evalModeReportCheck(msp::System &sys, const isa::Image &image)
{
    PropertyResult res;
    peak::Options opts;
    opts.recordEnvelope = true;
    opts.evalMode = EvalMode::EventDriven;
    peak::Report event = peak::analyze(sys, image, opts);
    opts.evalMode = EvalMode::FullSweep;
    peak::Report full = peak::analyze(sys, image, opts);
    std::string diff = compareReports(event, full, "EventDriven",
                                      "FullSweep");
    if (diff.empty() && event.ok && full.ok &&
        event.flatTraceW != full.flatTraceW)
        diff = "flatTraceW: per-cycle traces differ\n";
    if (!diff.empty()) {
        res.ok = false;
        res.detail = diff;
    }
    return res;
}

PropertyResult
envelopeBoundCheck(msp::System &sys, const isa::Image &image,
                   Rng &rng, unsigned concrete_runs)
{
    PropertyResult res;
    peak::Options opts;
    opts.recordEnvelope = true;
    peak::Report x = peak::analyze(sys, image, opts);
    if (!x.ok)
        return res; // rejected programs have nothing to bound
    const peak::Envelope &env = x.envelope;

    power::PowerContext ctx(sys.netlist(), opts.freqHz);
    for (unsigned run = 0; run < concrete_runs; ++run) {
        power::ConcreteRunOptions copts;
        // Fresh random port word every cycle: each concrete run is
        // one input assignment of the all-X symbolic port.
        copts.portSchedule.resize(64);
        for (uint16_t &w : copts.portSchedule)
            w = rng.word();
        // Enough room to *detect* a run outliving the envelope
        // rather than truncating at exactly its length.
        copts.maxCycles = env.powerW.size() + 256;
        power::ConcreteRunResult c =
            power::runConcrete(sys, image, ctx, copts);

        std::ostringstream os;
        if (!c.halted) {
            os << "concrete run " << run << " still live after "
               << copts.maxCycles << " cycles (envelope covers "
               << env.powerW.size() << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
        peak::TraceValidation v =
            peak::validateTraceBound(env.powerW, c.traceW);
        if (!v.bounds) {
            os << "concrete run " << run << ": envelope violated at "
               << v.violations << " of " << c.traceW.size()
               << " cycles, first at cycle " << v.firstViolationCycle
               << " (";
            if (v.firstViolationCycle < env.powerW.size())
                os << "env="
                   << env.powerW[size_t(v.firstViolationCycle)]
                   << " W, ";
            else
                os << "beyond the " << env.powerW.size()
                   << "-cycle envelope, ";
            os << "concrete="
               << c.traceW[size_t(v.firstViolationCycle)]
               << " W, max excess " << v.maxViolationW << " W)\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }
    return res;
}

PropertyResult
packedKernelEquivalenceCheck(uint64_t seed,
                             const NetlistGenOptions &opts,
                             unsigned cycles)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    PropertyResult res;
    Rng rng(seed);
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    RandomNetlist rn = buildRandomNetlist(nl, rng, opts);
    unsigned nin = unsigned(rn.inputs.size());

    // One independent input schedule per lane, derived so any single
    // lane reproduces from (seed, lane) alone.
    std::array<std::vector<std::vector<V4>>, kLanes> sched;
    for (unsigned l = 0; l < kLanes; ++l) {
        Rng lrng(Rng::deriveStream(seed, l));
        sched[l] =
            makeInputSchedule(lrng, nin, cycles, opts.inputXPercent);
    }

    PackedSimulator psim(nl);
    std::vector<Simulator> sims;
    sims.reserve(kLanes);
    for (unsigned l = 0; l < kLanes; ++l)
        sims.emplace_back(nl, (l % 2) ? EvalMode::FullSweep
                                      : EvalMode::EventDriven);

    std::ostringstream os;
    auto fail = [&]() {
        res.ok = false;
        res.detail = "seed " + std::to_string(seed) + ": " + os.str();
        return res;
    };

    for (unsigned c = 0; c < cycles; ++c) {
        psim.step([&](PackedSimulator &s) {
            for (unsigned i = 0; i < nin; ++i) {
                V64 v;
                for (unsigned l = 0; l < kLanes; ++l)
                    v.setLane(l, sched[l][c][i]);
                s.setInput(rn.inputs[i], v);
            }
        });
        for (unsigned l = 0; l < kLanes; ++l) {
            Simulator &sim = sims[l];
            sim.step([&](Simulator &s) {
                for (unsigned i = 0; i < nin; ++i)
                    s.setInput(rn.inputs[i], sched[l][c][i]);
            });
            for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
                if (psim.valueLane(g, l) != sim.value(g)) {
                    os << "cycle " << c << " lane " << l << " gate "
                       << g << ": value packed="
                       << v4Char(psim.valueLane(g, l)) << " scalar="
                       << v4Char(sim.value(g)) << "\n";
                    return fail();
                }
                bool pact = (psim.activeMask(g) >> l) & 1;
                if (pact != sim.isActive(g)) {
                    os << "cycle " << c << " lane " << l << " gate "
                       << g << ": activity packed=" << pact
                       << " scalar=" << sim.isActive(g) << "\n";
                    return fail();
                }
            }
            if (psim.actualEnergyJ(l) != sim.actualEnergyJ() ||
                psim.boundEnergyJ(l) != sim.boundEnergyJ()) {
                os << "cycle " << c << " lane " << l
                   << ": energy packed=(" << psim.actualEnergyJ(l)
                   << ", " << psim.boundEnergyJ(l) << ") scalar=("
                   << sim.actualEnergyJ() << ", "
                   << sim.boundEnergyJ() << ")\n";
                return fail();
            }
            if (psim.moduleBoundEnergyLaneJ(l) !=
                sim.moduleBoundEnergyJ()) {
                os << "cycle " << c << " lane " << l
                   << ": per-module energies differ\n";
                return fail();
            }
            if (psim.hashLaneState(l) != sim.hashFullState()) {
                os << "cycle " << c << " lane " << l
                   << ": full-state hashes differ\n";
                return fail();
            }
        }
    }
    return res;
}

PropertyResult
packedEnvelopeBatchCheck(msp::System &sys, const isa::Image &image,
                         Rng &rng, unsigned verify_lanes)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    PropertyResult res;
    peak::Options opts;
    opts.recordEnvelope = true;
    peak::Report x = peak::analyze(sys, image, opts);
    if (!x.ok)
        return res; // rejected programs have nothing to bound
    const peak::Envelope &env = x.envelope;

    power::PowerContext ctx(sys.netlist(), opts.freqHz);
    power::PackedRunOptions popts;
    popts.maxCycles = env.powerW.size() + 256;
    for (unsigned l = 0; l < kLanes; ++l) {
        popts.portSchedules[l].resize(64);
        for (uint16_t &w : popts.portSchedules[l])
            w = rng.word();
    }
    power::PackedRunResult pr =
        power::runConcretePacked(sys, image, ctx, popts);

    std::ostringstream os;
    for (unsigned l = 0; l < kLanes; ++l) {
        const power::PackedLaneResult &lane = pr.lanes[l];
        if (!lane.halted) {
            os << "packed lane " << l << " still live after "
               << popts.maxCycles << " cycles (envelope covers "
               << env.powerW.size() << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
        peak::TraceValidation v =
            peak::validateTraceBound(env.powerW, lane.traceW);
        if (!v.bounds) {
            os << "packed lane " << l << ": envelope violated at "
               << v.violations << " of " << lane.traceW.size()
               << " cycles, first at cycle " << v.firstViolationCycle
               << " (max excess " << v.maxViolationW << " W)\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }

    // Lane-identity spot check: re-run a few lanes on the scalar
    // path; trace floats must match exactly, not approximately.
    for (unsigned i = 0; i < verify_lanes; ++i) {
        unsigned l = (i * kLanes) / (verify_lanes ? verify_lanes : 1);
        power::ConcreteRunOptions copts;
        copts.maxCycles = popts.maxCycles;
        copts.portSchedule = popts.portSchedules[l];
        power::ConcreteRunResult c =
            power::runConcrete(sys, image, ctx, copts);
        const power::PackedLaneResult &lane = pr.lanes[l];
        if (c.halted != lane.halted || c.traceW != lane.traceW ||
            c.totalEnergyJ != lane.totalEnergyJ) {
            os << "lane " << l
               << " diverges from its scalar run (halted "
               << lane.halted << " vs " << c.halted << ", "
               << lane.traceW.size() << " vs " << c.traceW.size()
               << " trace cycles)\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }
    return res;
}

PropertyResult
faultedPackedEquivalenceCheck(uint64_t seed,
                              const NetlistGenOptions &opts,
                              unsigned cycles)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    PropertyResult res;
    Rng rng(seed);
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    RandomNetlist rn = buildRandomNetlist(nl, rng, opts);
    unsigned nin = unsigned(rn.inputs.size());
    const std::vector<GateId> &seq = nl.seqGates();

    // Per-lane input schedules and per-lane SEU flips, both derived
    // so any lane reproduces from (seed, lane) alone. Lane 0 stays
    // fault-free as the in-item control.
    struct Flip {
        GateId gate;
        unsigned cycle;
    };
    std::array<std::vector<std::vector<V4>>, kLanes> sched;
    std::array<std::vector<Flip>, kLanes> flips;
    for (unsigned l = 0; l < kLanes; ++l) {
        Rng lrng(Rng::deriveStream(seed, l));
        sched[l] =
            makeInputSchedule(lrng, nin, cycles, opts.inputXPercent);
        if (l == 0 || seq.empty())
            continue;
        unsigned n = 1 + lrng.below(3);
        for (unsigned f = 0; f < n; ++f)
            flips[l].push_back({seq[lrng.below(unsigned(seq.size()))],
                                lrng.below(cycles)});
    }

    PackedSimulator psim(nl);
    std::vector<Simulator> sims;
    sims.reserve(kLanes);
    for (unsigned l = 0; l < kLanes; ++l)
        sims.emplace_back(nl, (l % 2) ? EvalMode::FullSweep
                                      : EvalMode::EventDriven);

    std::ostringstream os;
    auto fail = [&]() {
        res.ok = false;
        res.detail = "seed " + std::to_string(seed) + ": " + os.str();
        return res;
    };

    for (unsigned c = 0; c < cycles; ++c) {
        // applied decisions (X-bit flips are no-ops) must agree
        // flip-for-flip between the two injection APIs.
        std::array<std::vector<bool>, kLanes> appP, appS;
        psim.step([&](PackedSimulator &s) {
            for (unsigned i = 0; i < nin; ++i) {
                V64 v;
                for (unsigned l = 0; l < kLanes; ++l)
                    v.setLane(l, sched[l][c][i]);
                s.setInput(rn.inputs[i], v);
            }
            for (unsigned l = 0; l < kLanes; ++l)
                for (const Flip &f : flips[l])
                    if (f.cycle == c)
                        appP[l].push_back(
                            s.injectSeuFlip(f.gate, 1ull << l) != 0);
        });
        for (unsigned l = 0; l < kLanes; ++l) {
            Simulator &sim = sims[l];
            sim.step([&](Simulator &s) {
                for (unsigned i = 0; i < nin; ++i)
                    s.setInput(rn.inputs[i], sched[l][c][i]);
                for (const Flip &f : flips[l])
                    if (f.cycle == c)
                        appS[l].push_back(s.injectSeuFlip(f.gate));
            });
            if (appP[l] != appS[l]) {
                os << "cycle " << c << " lane " << l
                   << ": applied-flip decisions differ\n";
                return fail();
            }
            for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
                if (psim.valueLane(g, l) != sim.value(g)) {
                    os << "cycle " << c << " lane " << l << " gate "
                       << g << ": value packed="
                       << v4Char(psim.valueLane(g, l)) << " scalar="
                       << v4Char(sim.value(g)) << "\n";
                    return fail();
                }
                bool pact = (psim.activeMask(g) >> l) & 1;
                if (pact != sim.isActive(g)) {
                    os << "cycle " << c << " lane " << l << " gate "
                       << g << ": activity packed=" << pact
                       << " scalar=" << sim.isActive(g) << "\n";
                    return fail();
                }
            }
            if (psim.actualEnergyJ(l) != sim.actualEnergyJ() ||
                psim.boundEnergyJ(l) != sim.boundEnergyJ()) {
                os << "cycle " << c << " lane " << l
                   << ": energy packed=(" << psim.actualEnergyJ(l)
                   << ", " << psim.boundEnergyJ(l) << ") scalar=("
                   << sim.actualEnergyJ() << ", "
                   << sim.boundEnergyJ() << ")\n";
                return fail();
            }
            if (psim.hashLaneState(l) != sim.hashFullState()) {
                os << "cycle " << c << " lane " << l
                   << ": full-state hashes differ\n";
                return fail();
            }
        }
    }
    return res;
}

namespace {

std::string
compareCampaigns(const fault::CampaignResult &a,
                 const fault::CampaignResult &b, const char *what_a,
                 const char *what_b)
{
    std::ostringstream os;
    if (a.ok != b.ok || (!a.ok && a.error != b.error)) {
        os << what_a << " ok=" << a.ok << " (" << a.error << "), "
           << what_b << " ok=" << b.ok << " (" << b.error << ")\n";
        return os.str();
    }
    if (!a.ok)
        return os.str(); // identical refusal: vacuously deterministic
    auto field = [&](const char *name, uint64_t va, uint64_t vb) {
        if (va != vb)
            os << name << ": " << what_a << "=" << va << " "
               << what_b << "=" << vb << "\n";
    };
    field("goldenCycles", a.goldenCycles, b.goldenCycles);
    field("goldenInstructions", a.goldenInstructions,
          b.goldenInstructions);
    field("hangCycles", a.hangCycles, b.hangCycles);
    field("sites", a.sites.size(), b.sites.size());
    field("injections", a.injections.size(), b.injections.size());
    field("masked", a.masked, b.masked);
    field("sdc", a.sdc, b.sdc);
    field("crash", a.crash, b.crash);
    field("hang", a.hang, b.hang);
    field("notApplied", a.notApplied, b.notApplied);
    field("escapes", a.escapes, b.escapes);
    if (!os.str().empty())
        return os.str();
    for (size_t i = 0; i < a.injections.size(); ++i) {
        const fault::InjectionResult &ra = a.injections[i];
        const fault::InjectionResult &rb = b.injections[i];
        if (ra.siteIndex != rb.siteIndex || ra.cycle != rb.cycle ||
            !ra.r.sameClassification(rb.r)) {
            os << "injection row " << i << " (site " << ra.siteIndex
               << " cycle " << ra.cycle << "): classification "
               << what_a << "=" << fault::outcomeName(ra.r.outcome)
               << "/" << ra.r.divergenceCycle << " " << what_b << "="
               << fault::outcomeName(rb.r.outcome) << "/"
               << rb.r.divergenceCycle << " differ\n";
            return os.str();
        }
    }
    return os.str();
}

} // namespace

PropertyResult
faultCampaignDeterminismCheck(const isa::Image &image, uint64_t seed,
                              unsigned threads)
{
    PropertyResult res;
    CellLibrary lib = CellLibrary::tsmc65Like();
    fault::CampaignOptions opts;
    opts.seed = seed;
    opts.cyclesPerSite = 1;
    opts.maxFlopSites = 24;
    opts.ramSites = 2;
    opts.goldenMaxCycles = 20000;
    // No cacheDir: the disk cache would trivialize the comparison.

    opts.packed = false;
    opts.jobs = 1;
    fault::CampaignResult scalar1 = runCampaign(lib, image, opts);
    opts.packed = true;
    fault::CampaignResult packed1 = runCampaign(lib, image, opts);
    opts.jobs = threads;
    fault::CampaignResult packedK = runCampaign(lib, image, opts);

    std::string diff = compareCampaigns(scalar1, packed1,
                                        "scalar-1job", "packed-1job");
    if (diff.empty())
        diff = compareCampaigns(packed1, packedK, "packed-1job",
                                "packed-Kjobs");
    if (!diff.empty()) {
        res.ok = false;
        res.detail = diff;
    }
    return res;
}

scenario::Scenario
randomScenario(Rng &rng)
{
    scenario::Scenario s;
    s.name = "fuzz-scenario";
    auto pattern = [&rng]() {
        scenario::PortPattern p;
        p.pinned = rng.word();
        p.value = uint16_t(rng.word() & p.pinned);
        return p;
    };
    if (rng.chance(40)) {
        // A repeating schedule: exercises the schedule-phase dedup
        // keys (the same simulator state is NOT interchangeable at
        // two different points of the period).
        unsigned period = 2 + rng.below(6);
        for (unsigned i = 0; i < period; ++i)
            s.portSchedule.push_back(pattern());
    } else {
        s.port = pattern();
    }
    return s;
}

PropertyResult
scenarioDominanceCheck(msp::System &sys, const isa::Image &image,
                       Rng &rng, unsigned threads,
                       unsigned concrete_runs)
{
    PropertyResult res;
    peak::Options uopts;
    uopts.recordEnvelope = true;
    peak::Report unc = peak::analyze(sys, image, uopts);
    if (!unc.ok)
        return res; // rejected programs have nothing to dominate

    scenario::Scenario scn = randomScenario(rng);
    peak::Options copts = uopts;
    copts.scenario = scn;
    peak::Report con = peak::analyze(sys, image, copts);
    if (!con.ok) {
        // A scheduled scenario multiplies distinct states (phase
        // joins the dedup key), so budget exhaustion is a legitimate
        // outcome, not a dominance violation.
        return res;
    }

    std::ostringstream os;

    // The constrained analysis must stay scheduling-independent.
    copts.numThreads = threads;
    peak::Report par = peak::analyze(sys, image, copts);
    std::string diff =
        compareReports(con, par, "1-thread", "K-thread");
    if (!diff.empty()) {
        res.ok = false;
        res.detail = "scenario " + scn.summary() +
                     ": determinism broke under constraints:\n" +
                     diff;
        return res;
    }

    // Bound dominance. Exact arithmetic guarantees <=; the analyses
    // sum different (nested) active sets in floating point, so allow
    // a relative whisker far below any real violation.
    const double slack = 1.0 + 1e-9;
    auto dominated = [&](const char *what, double c, double u) {
        if (c <= u * slack)
            return true;
        os << what << ": constrained " << c << " > unconstrained "
           << u << " (scenario " << scn.summary() << ")\n";
        return false;
    };
    if (!dominated("peakPowerW", con.peakPowerW, unc.peakPowerW) ||
        !dominated("peakEnergyJ", con.peakEnergyJ,
                   unc.peakEnergyJ)) {
        res.ok = false;
        res.detail = os.str();
        return res;
    }
    const std::vector<float> &envC = con.envelope.powerW;
    const std::vector<float> &envU = unc.envelope.powerW;
    if (envC.size() > envU.size()) {
        res.ok = false;
        res.detail = "constrained envelope outlives the "
                     "unconstrained one (" +
                     std::to_string(envC.size()) + " vs " +
                     std::to_string(envU.size()) + " cycles)\n";
        return res;
    }
    for (size_t c = 0; c < envC.size(); ++c) {
        if (double(envC[c]) > double(envU[c]) * slack) {
            os << "envelope cycle " << c << ": constrained "
               << envC[c] << " > unconstrained " << envU[c]
               << " (scenario " << scn.summary() << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }

    // Concrete runs obeying the scenario lie under *its* envelope.
    // runConcrete indexes its schedule by absolute simulator cycle,
    // so the first kResetCycles entries cover reset (values free:
    // the engine drives reset cycles itself) and entry
    // kResetCycles + c realizes the scenario pattern of cycle c.
    power::PowerContext ctx(sys.netlist(), copts.freqHz);
    for (unsigned run = 0; run < concrete_runs; ++run) {
        power::ConcreteRunOptions ropts;
        ropts.maxCycles =
            envC.size() + msp::System::kResetCycles + 256;
        ropts.portSchedule.resize(size_t(ropts.maxCycles));
        for (size_t a = 0; a < ropts.portSchedule.size(); ++a) {
            uint16_t w = rng.word();
            if (a >= msp::System::kResetCycles) {
                const scenario::PortPattern &p = scn.patternAt(
                    uint64_t(a) - msp::System::kResetCycles);
                w = uint16_t((w & ~p.pinned) | p.value);
            }
            ropts.portSchedule[a] = w;
        }
        power::ConcreteRunResult c = power::runConcrete(
            sys, image, ctx, ropts, scn.ramInit);
        if (!c.halted) {
            os << "scenario-obeying concrete run " << run
               << " still live after " << ropts.maxCycles
               << " cycles (envelope covers " << envC.size()
               << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
        peak::TraceValidation v =
            peak::validateTraceBound(envC, c.traceW);
        if (!v.bounds) {
            os << "scenario-obeying concrete run " << run
               << ": envelope violated at " << v.violations << " of "
               << c.traceW.size() << " cycles, first at cycle "
               << v.firstViolationCycle << " (max excess "
               << v.maxViolationW << " W, scenario " << scn.summary()
               << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }
    return res;
}

scenario::Scenario
randomModeScenario(Rng &rng)
{
    scenario::Scenario s;
    if (rng.chance(30))
        // A port constraint rides along so the mixed-radix
        // (portPhase, modePhase) dedup keys get exercised too.
        s = randomScenario(rng);
    s.name = "fuzz-dvfs";
    unsigned n_modes = 2 + rng.below(2);
    for (unsigned m = 0; m < n_modes; ++m) {
        scenario::OperatingMode om;
        om.name = "m" + std::to_string(m);
        om.vdd = 0.5 + 0.1 * double(rng.below(8));    // 0.5..1.2 V
        om.freqHz = 1e6 * double(1 + rng.below(100)); // 1..100 MHz
        s.modes.push_back(om);
    }
    unsigned period = 2 + rng.below(7);
    for (unsigned i = 0; i < period; ++i)
        s.modeSchedule.push_back(rng.below(n_modes));
    return s;
}

PropertyResult
modeDominanceCheck(msp::System &sys, const isa::Image &image,
                   Rng &rng, unsigned threads, unsigned concrete_runs)
{
    PropertyResult res;
    scenario::Scenario base = randomModeScenario(rng);

    // The lowered twin: every mode's (vdd, freq) scaled by a factor
    // <= 1 -- mode 0 strictly below 1 -- with the schedule (and any
    // port constraint) untouched.
    scenario::Scenario low = base;
    low.name = "fuzz-dvfs-low";
    for (size_t m = 0; m < low.modes.size(); ++m) {
        uint32_t span = m == 0 ? 5 : 6; // 0.5..0.9 vs 0.5..1.0
        low.modes[m].vdd *=
            double(5 + rng.below(span)) / 10.0;
        low.modes[m].freqHz *=
            double(5 + rng.below(span)) / 10.0;
    }

    peak::Options bopts;
    bopts.recordEnvelope = true;
    bopts.scenario = base;
    peak::Report rb = peak::analyze(sys, image, bopts);
    if (!rb.ok)
        return res; // rejected / budget-exhausted: vacuous

    peak::Options lopts = bopts;
    lopts.scenario = low;
    peak::Report rl = peak::analyze(sys, image, lopts);
    std::ostringstream os;
    if (!rl.ok) {
        // Operating modes only re-price cycles; the explored tree --
        // and therefore the cycle budget spent -- is identical, so a
        // lowered analysis can never fail where the base succeeded.
        res.ok = false;
        res.detail = "lowered-mode analysis failed (" + rl.error +
                     ") though the base mode analysis succeeded "
                     "(scenario " + base.summary() + ")";
        return res;
    }

    // The mode-scheduled analysis must stay bit-identical across
    // thread counts, kernels, and snapshot representations (mode
    // phases join the dedup keys; pricing must not disturb any of
    // the scheduling-independence machinery).
    {
        peak::Options o = lopts;
        o.numThreads = threads;
        std::string diff = compareReports(
            rl, peak::analyze(sys, image, o), "1-thread", "K-thread");
        if (diff.empty()) {
            o = lopts;
            o.evalMode = EvalMode::FullSweep;
            diff = compareReports(rl, peak::analyze(sys, image, o),
                                  "event", "full-sweep");
        }
        if (diff.empty()) {
            o = lopts;
            o.snapshotMode = sym::SnapshotMode::Full;
            diff = compareReports(rl, peak::analyze(sys, image, o),
                                  "delta-snap", "full-snap");
        }
        if (!diff.empty()) {
            res.ok = false;
            res.detail = "mode scenario " + low.summary() +
                         ": determinism broke:\n" + diff;
            return res;
        }
    }

    // Scalar dominance. Per-cycle powers are stored as float in the
    // tree nodes, and maxPathEnergy multiplies them back by 1/freq,
    // so the base and lowered path sums carry *independent* ~1e-7
    // relative float-narrowing noise on top of the freq * 1/freq
    // round-trip -- 1e-6 slack sits above that noise while still
    // catching any real mispricing (the smallest mode-factor step is
    // 10%). The per-cycle envelope powers themselves are monotone
    // rounding chains of the same bound, so they must dominate with
    // NO slack and equal length.
    const double slack = 1.0 + 1e-6;
    auto dominated = [&](const char *what, double l, double b) {
        if (l <= b * slack)
            return true;
        os << what << ": lowered " << l << " > base " << b
           << " (scenario " << base.summary() << ")\n";
        return false;
    };
    if (!dominated("peakPowerW", rl.peakPowerW, rb.peakPowerW) ||
        !dominated("peakEnergyJ", rl.peakEnergyJ, rb.peakEnergyJ)) {
        res.ok = false;
        res.detail = os.str();
        return res;
    }
    const std::vector<float> &envL = rl.envelope.powerW;
    const std::vector<float> &envB = rb.envelope.powerW;
    if (envL.size() != envB.size()) {
        res.ok = false;
        res.detail = "lowered envelope length " +
                     std::to_string(envL.size()) +
                     " != base length " + std::to_string(envB.size()) +
                     " (identical trees expected)\n";
        return res;
    }
    for (size_t c = 0; c < envL.size(); ++c) {
        if (envL[c] > envB[c]) {
            os << "envelope cycle " << c << ": lowered " << envL[c]
               << " > base " << envB[c] << " (scenario "
               << base.summary() << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }

    // Mode-obeying concrete runs lie under the mode-priced envelope:
    // the concrete side prices each cycle with the same (energy
    // scale, mode clock) schedule the symbolic side used.
    const CellLibrary &lib = sys.lib();
    std::vector<std::pair<double, double>> mf;
    for (uint64_t ph = 0; ph < low.modePeriod(); ++ph) {
        const scenario::OperatingMode &m = low.modeAt(ph);
        mf.emplace_back(lib.energyScale(m.vdd), m.freqHz);
    }
    power::PowerContext ctx(sys.netlist(), lopts.freqHz);
    for (unsigned run = 0; run < concrete_runs; ++run) {
        power::ConcreteRunOptions ropts;
        ropts.maxCycles =
            envL.size() + msp::System::kResetCycles + 256;
        ropts.modeSchedule = mf;
        ropts.portSchedule.resize(size_t(ropts.maxCycles));
        for (size_t a = 0; a < ropts.portSchedule.size(); ++a) {
            uint16_t w = rng.word();
            if (a >= msp::System::kResetCycles) {
                const scenario::PortPattern &p = low.patternAt(
                    uint64_t(a) - msp::System::kResetCycles);
                w = uint16_t((w & ~p.pinned) | p.value);
            }
            ropts.portSchedule[a] = w;
        }
        power::ConcreteRunResult c = power::runConcrete(
            sys, image, ctx, ropts, low.ramInit);
        if (!c.halted) {
            os << "mode-obeying concrete run " << run
               << " still live after " << ropts.maxCycles
               << " cycles (envelope covers " << envL.size()
               << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
        peak::TraceValidation v =
            peak::validateTraceBound(envL, c.traceW);
        if (!v.bounds) {
            os << "mode-obeying concrete run " << run
               << ": mode envelope violated at " << v.violations
               << " of " << c.traceW.size()
               << " cycles, first at cycle " << v.firstViolationCycle
               << " (max excess " << v.maxViolationW
               << " W, scenario " << low.summary() << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }
    return res;
}

PropertyResult
constantClaimCheck(msp::System &sys, const isa::Image &image, Rng &rng)
{
    PropertyResult res;
    std::ostringstream os;

    // 1 in 4 unconstrained (the ullint default, where only
    // reset/irq/Const seeds prove constants), else a random port
    // scenario so pinned-bit cones join the prune set.
    scenario::Scenario scn;
    if (!rng.chance(25))
        scn = randomScenario(rng);

    // --- Static claims validated against a concrete run -----------
    // The real core must be structurally clean: the constant
    // analysis (and the lint CLI's exit status) assume no comb loops,
    // no floating inputs, no overlapping hook drivers.
    const Netlist &nl = sys.netlist();
    lint::StructuralReport sr = lint::structuralLint(nl);
    if (sr.errors() != 0) {
        os << "structural lint found " << sr.errors()
           << " errors on the core netlist";
        for (const lint::Issue &is : sr.issues)
            if (is.severity == lint::Severity::Error)
                os << "\n  " << is.message;
        res.ok = false;
        res.detail = os.str();
        return res;
    }

    // The analysis ullint reports for this scenario.
    lint::ConstAnalysisOptions lo;
    lo.scenario = scn;
    const msp::CpuHandles &h = sys.handles();
    lo.portBits.assign(h.portIn.begin(), h.portIn.end());
    lo.drivenConstants = {{h.rstn, V4::One}, {h.irq, V4::Zero}};
    lint::ConstAnalysis ca = lint::analyzeConstants(nl, lo);

    // Drive one concrete scenario-obeying run and check every gate in
    // the prune set holds exactly its proven value from the settle
    // bound (reset end + 1 + maxPruneDepth) on. cycle_ increments at
    // the end of step(), so the claim is: after every step with
    // sim.cycle() >= settled the members equal the proven constants
    // (and from the next step on they never even toggle).
    sys.memory().reset();
    sys.loadImage(image);
    for (const auto &[addr, words] : scn.ramInit)
        sys.memory().loadRam(addr, words);
    sys.clearHalted();
    Simulator sim(nl);
    sys.attach(sim);
    sys.reset(sim);
    const uint64_t settled = sim.cycle() + 1 + ca.maxPruneDepth;
    const uint64_t maxCycles = sim.cycle() + 400;
    while (!sys.halted() && sim.cycle() < maxCycles) {
        const scenario::PortPattern &p =
            scn.patternAt(sim.cycle() - msp::System::kResetCycles);
        uint16_t w = uint16_t((rng.word() & ~p.pinned) | p.value);
        sim.step([&](Simulator &s) {
            sys.driveCycle(s, Word16::known(w));
        });
        if (sim.cycle() < settled)
            continue;
        for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
            if (!ca.pruneMask[g])
                continue;
            if (sim.value(g) != ca.value[g]) {
                os << "cycle " << (sim.cycle() - 1) << " gate " << g
                   << " (" << nl.gateName(g) << "): proven "
                   << v4Char(ca.value[g]) << " but concrete run has "
                   << v4Char(sim.value(g)) << " (settled " << settled
                   << ", scenario " << scn.summary() << ")\n";
                res.ok = false;
                res.detail = os.str();
                return res;
            }
            if (sim.cycle() > settled && sim.isActive(g)) {
                os << "cycle " << (sim.cycle() - 1) << " gate " << g
                   << " (" << nl.gateName(g)
                   << "): proven constant but toggled after the "
                      "settle cycle "
                   << settled << " (scenario " << scn.summary()
                   << ")\n";
                res.ok = false;
                res.detail = os.str();
                return res;
            }
        }
    }

    return res;
}

namespace {

/** The report fields compareReports skips because only some callers
 *  record them: the flattened trace and the activity sets. Both are
 *  part of the packed-frontier bit-identity contract. */
std::string
compareTraces(const peak::Report &a, const peak::Report &b,
              const char *what_a, const char *what_b)
{
    std::ostringstream os;
    if (!a.ok || !b.ok)
        return os.str();
    if (a.flatTraceW != b.flatTraceW)
        os << "flatTraceW: per-cycle traces differ (" << what_a << " "
           << a.flatTraceW.size() << " cycles, " << what_b << " "
           << b.flatTraceW.size() << " cycles)\n";
    if (a.everActive != b.everActive)
        os << "everActive: ever-toggled sets differ\n";
    if (a.peakActive != b.peakActive)
        os << "peakActive: peak-cycle activity sets differ\n";
    return os.str();
}

} // namespace

PropertyResult
packedExploreCheck(msp::System &sys, const isa::Image &image,
                   Rng &rng, unsigned threads)
{
    PropertyResult res;
    // A random analysis configuration: the packed and adaptive
    // frontiers must be invisible under every combination the scalar
    // engine supports.
    peak::Options opts;
    opts.frontier = sym::Frontier::Scalar;
    opts.recordEnvelope = true;
    opts.recordActiveSets = true;
    unsigned kind = rng.below(3);
    if (kind == 1)
        opts.scenario = randomScenario(rng);
    else if (kind == 2)
        opts.scenario = randomModeScenario(rng);
    if (rng.chance(50))
        opts.snapshotMode = sym::SnapshotMode::Full;

    peak::Report scalar = peak::analyze(sys, image, opts);
    peak::Options popts = opts;
    popts.frontier = sym::Frontier::Packed;
    peak::Report packed = peak::analyze(sys, image, popts);
    std::string diff =
        compareReports(scalar, packed, "scalar", "packed");
    diff += compareTraces(scalar, packed, "scalar", "packed");
    if (!diff.empty()) {
        res.ok = false;
        res.detail = "scenario " + opts.scenario.summary() +
                     ": scalar vs packed diverged:\n" + diff;
        return res;
    }
    if (!scalar.ok)
        return res; // identically rejected: nothing more to compare

    // The adaptive frontier, serial and with racing workers: one
    // exploration that switches kernels as deques widen and drain.
    peak::Options aopts = opts;
    aopts.frontier = sym::Frontier::Adaptive;
    for (unsigned t : {1u, threads}) {
        aopts.numThreads = t;
        peak::Report adaptive = peak::analyze(sys, image, aopts);
        diff = compareReports(scalar, adaptive, "scalar", "adaptive");
        diff += compareTraces(scalar, adaptive, "scalar", "adaptive");
        if (!diff.empty()) {
            res.ok = false;
            res.detail = "scenario " + opts.scenario.summary() +
                         ": scalar vs adaptive (" + std::to_string(t) +
                         " threads) diverged:\n" + diff;
            return res;
        }
    }

    // The packed runs among themselves: 1-vs-K-thread determinism of
    // the batched frontier (lane refills race across workers, the
    // reports must not notice).
    popts.numThreads = threads;
    peak::Report packedK = peak::analyze(sys, image, popts);
    diff = compareReports(packed, packedK, "packed-1-thread",
                          "packed-K-thread");
    diff += compareTraces(packed, packedK, "packed-1-thread",
                          "packed-K-thread");
    if (!diff.empty()) {
        res.ok = false;
        res.detail = "scenario " + opts.scenario.summary() +
                     ": packed determinism broke:\n" + diff;
    }
    return res;
}

} // namespace fuzz
} // namespace ulpeak
