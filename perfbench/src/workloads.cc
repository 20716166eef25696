/**
 * @file
 * The four workloads of the end-to-end benchmark and their per-layer
 * probes. Every workload draws its inputs from the workload seed
 * alone and checks each iteration's results against expected digests
 * outside the timed region.
 */

#include "workloads.hh"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench430/benchmarks.hh"
#include "cli/driver.hh"
#include "cosim/cosim.hh"
#include "fault/campaign.hh"
#include "fuzz/properties.hh"
#include "fuzz/rng.hh"
#include "power/analysis.hh"
#include "power/packed_run.hh"

namespace fs = std::filesystem;

namespace perfbench {

using namespace ulpeak;

namespace {

/// @name Result digests
/// @{

void
digestEnvelope(Digest &d, const peak::Envelope &e)
{
    d.u64(e.present);
    d.u64(e.powerW.size());
    for (float w : e.powerW)
        d.f32(w);
    d.u64(e.windows.size());
    for (unsigned w : e.windows)
        d.u64(w);
    for (const std::vector<float> &curve : e.windowEnergyJ) {
        d.u64(curve.size());
        for (float j : curve)
            d.f32(j);
    }
    for (double j : e.peakWindowEnergyJ)
        d.f64(j);
}

/** Peak, energy and NPE bit patterns, cycles, paths, merges and the
 *  envelope: everything scheduling- and cache-independent. */
void
digestResult(Digest &d, const peak::ProgramResult &r)
{
    d.str(r.name);
    d.str(r.scenario);
    d.u64(r.ok);
    d.f64(r.peakPowerW);
    d.f64(r.peakEnergyJ);
    d.f64(r.npeJPerCycle);
    d.u64(r.maxPathCycles);
    d.u64(r.totalCycles);
    d.u64(r.pathsExplored);
    d.u64(r.dedupMerges);
    digestEnvelope(d, r.envelope);
}

uint64_t
sliceDigest(const peak::BatchReport &rep, size_t first, size_t count)
{
    Digest d;
    for (size_t i = first; i < first + count && i < rep.programs.size();
         ++i)
        digestResult(d, rep.programs[i]);
    return d.value();
}

/** The campaign's classification rows (FaultResult's deterministic
 *  fields, as FaultResult::sameClassification compares them). */
uint64_t
rowsDigest(const fault::CampaignResult &c)
{
    Digest d;
    d.u64(c.ok);
    d.u64(c.goldenCycles);
    d.u64(c.goldenInstructions);
    d.u64(c.injections.size());
    for (const fault::InjectionResult &ir : c.injections) {
        const fault::FaultResult &r = ir.r;
        d.u64(ir.siteIndex);
        d.u64(ir.cycle);
        d.u64(uint64_t(r.outcome));
        d.u64(r.applied);
        d.u64(uint64_t(r.kind));
        d.u64(r.divergenceCycle);
        d.u64(r.instrIndex);
        d.u64(r.pc);
        d.u64(r.gateCycles);
        d.u64(r.instructionsRetired);
        d.f32(r.peakPowerW);
        d.u64(r.peakCycle);
        d.u64(r.traceCycles);
        d.u64(r.envelopeEscape);
        d.u64(r.escapeCycle);
    }
    return d.value();
}

/// @}

/// @name Seeded inputs
/// @{

/** The first static-pattern scenario fuzz::randomScenario draws from
 *  the seed's stream. Scheduled draws are skipped: the presets
 *  already cover schedules, and a scheduled draw multiplies the
 *  seeded slice's work up to 2x, which would make the suite's cost
 *  depend on the seed. */
scenario::Scenario
randomStaticScenario(uint64_t seed)
{
    fuzz::Rng rng(fuzz::Rng::deriveStream(seed, 0x5ce7));
    for (;;) {
        scenario::Scenario s = fuzz::randomScenario(rng);
        if (s.portSchedule.empty()) {
            s.name = "random";
            return s;
        }
    }
}

/** A concrete input set of a bench430 program, as `ulfault` folds
 *  one into the image (same stream derivation). */
baseline::InputSet
benchInput(const std::string &name, uint64_t seed)
{
    fuzz::Rng rng(fuzz::Rng::deriveStream(seed, 3ull << 40));
    return bench430::benchmarkByName(name).makeInput(rng);
}

/** One program with concrete inputs, for the concrete-kernel probes. */
struct ConcreteInput {
    isa::Image image;
    power::RamInit ram;
    uint16_t port = 0;
};

/// @}

/// @name Layer probes shared by the workloads
/// @{

template <class F>
double
medianTime(int reps, Tracer *tr, const char *name, F &&f)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        Span s(tr, name);
        Clock::time_point t0 = Clock::now();
        f();
        t.push_back(secondsSince(t0));
    }
    return median(t);
}

/** sim.*: the scalar and the 64-lane concrete kernels on @p ins. */
void
simProbes(Metrics &m, Tracer *tr, const CellLibrary &lib,
          const std::vector<ConcreteInput> &ins, uint64_t seed)
{
    msp::System sys(lib);
    power::PowerContext ctx(sys.netlist(), 100e6);

    double scalarS = 0.0;
    uint64_t scalarCycles = 0;
    // Short programs are repeated so the rate rests on >= 0.2 s.
    do {
        for (size_t i = 0; i < ins.size(); ++i) {
            power::ConcreteRunOptions o;
            o.portIn = ins[i].port;
            Span s(tr, "sim.runConcrete", long(i));
            Clock::time_point t0 = Clock::now();
            power::ConcreteRunResult r =
                power::runConcrete(sys, ins[i].image, ctx, o, ins[i].ram);
            scalarS += secondsSince(t0);
            scalarCycles += r.stats.cycles;
        }
    } while (scalarS < 0.2);
    m.set("sim.scalar_cycles_per_s", double(scalarCycles) / scalarS,
          "1/s");

    fuzz::Rng rng(fuzz::Rng::deriveStream(seed, 0x9ac4));
    double packedS = 0.0;
    uint64_t laneCycles = 0;
    for (size_t i = 0; i < ins.size(); ++i) {
        power::PackedRunOptions o;
        o.portIn = ins[i].port;
        for (auto &sched : o.portSchedules)
            sched = {rng.word()};
        Span s(tr, "sim.runConcretePacked", long(i));
        Clock::time_point t0 = Clock::now();
        power::PackedRunResult r =
            power::runConcretePacked(sys, ins[i].image, ctx, o, ins[i].ram);
        packedS += secondsSince(t0);
        for (const power::PackedLaneResult &l : r.lanes)
            laneCycles += l.stats.cycles;
    }
    m.set("sim.packed_lane_cycles_per_s", double(laneCycles) / packedS,
          "1/s");
}

/** (Re)build @p env's window curves as peak::analyze does. */
void
buildCurves(peak::Envelope &env, const scenario::Scenario &s,
            double freq_hz)
{
    if (s.hasModes())
        peak::buildWindowCurves(env, s.phaseTclkS());
    else
        peak::buildWindowCurves(env, 1.0 / freq_hz);
}

/** The SymbolicConfig peak::analyze builds from @p o. */
sym::SymbolicConfig
symConfig(const peak::Options &o)
{
    sym::SymbolicConfig cfg;
    cfg.freqHz = o.freqHz;
    cfg.recordActiveSets = o.recordActiveSets;
    cfg.recordModuleTrace = o.recordModuleTrace;
    cfg.inputDependentLoopBound = o.inputDependentLoopBound;
    cfg.maxTotalCycles = o.maxTotalCycles;
    cfg.evalMode = o.evalMode;
    cfg.numThreads = o.numThreads;
    cfg.recordEnvelope = o.recordEnvelope;
    cfg.scenario = o.scenario;
    cfg.snapshotMode = o.snapshotMode;
    cfg.staticPrune = o.staticPrune;
    cfg.packedExplore = o.packedExplore;
    return cfg;
}

/** Seconds spent in one layer call of a replay. */
template <class F>
double
timed(Tracer *tr, const char *name, long item, F &&f)
{
    Span s(tr, name, item);
    Clock::time_point t0 = Clock::now();
    f();
    return secondsSince(t0);
}

/** Per-scenario layer times of the replayed analyses. */
struct AnalysisReplay {
    double elaborateS = 0.0, keyS = 0.0, runS = 0.0, postS = 0.0,
           curvesS = 0.0;
    uint64_t cycles = 0, keys = 0;

    double
    total() const
    {
        return elaborateS + keyS + runS + postS;
    }
};

/**
 * What one cache-missing analyzeBatch call does for its items, one
 * public call at a time: the worker's msp::System elaboration, then
 * per item peak::cacheKey (when @p with_key), SymbolicEngine::run and
 * the post-pass peak::analyze adds to it (ExecTree::flatten plus the
 * envelope's window curves). @p first_item numbers the items' spans.
 */
AnalysisReplay
replayAnalyses(Tracer *tr, const CellLibrary &lib,
               const std::vector<peak::BatchProgram> &progs,
               const peak::Options &o, bool with_key, long first_item)
{
    AnalysisReplay r;
    std::unique_ptr<msp::System> sys;
    r.elaborateS = timed(tr, "msp.elaborate", first_item,
                         [&] { sys = std::make_unique<msp::System>(lib); });
    for (size_t p = 0; p < progs.size(); ++p) {
        long item = first_item + long(p);
        if (with_key) {
            r.keyS += timed(tr, "batch.cacheKey", item, [&] {
                peak::cacheKey(lib, progs[p].image, o);
            });
            ++r.keys;
        }
        sym::SymbolicResult res;
        r.runS += timed(tr, "sym.run", item, [&] {
            res = sym::SymbolicEngine(*sys, symConfig(o)).run(progs[p].image);
        });
        r.cycles += res.totalCycles;
        if (!res.ok)
            continue;
        r.postS += timed(tr, "peak.flatten", item,
                         [&] { res.tree.flatten(); });
        if (o.recordEnvelope) {
            peak::Envelope env;
            env.present = true;
            env.powerW = std::move(res.envelopeW);
            env.windows = o.envelopeWindows;
            double c = timed(tr, "peak.buildWindowCurves", item,
                             [&] { buildCurves(env, o.scenario, o.freqHz); });
            r.curvesS += c;
            r.postS += c;
        }
    }
    return r;
}

/** Exploration counters of analyzeBatch reports, summed over items. */
struct SymCounters {
    uint64_t paths = 0, merges = 0, copied = 0, full = 0, steals = 0;
    double worstImbalance = 1.0;

    void
    add(const peak::BatchReport &rep)
    {
        for (const peak::ProgramResult &r : rep.programs) {
            paths += r.pathsExplored;
            merges += r.dedupMerges;
            copied += r.snapshotBytesCopied;
            full += r.snapshotBytesFull;
            steals += r.steals;
            uint64_t mx = 0, sum = 0;
            for (uint64_t c : r.perWorkerCycles) {
                mx = std::max(mx, c);
                sum += c;
            }
            if (sum)
                worstImbalance = std::max(
                    worstImbalance, double(mx) *
                                        double(r.perWorkerCycles.size()) /
                                        double(sum));
        }
    }

    void
    report(Metrics &m) const
    {
        m.set("sym.paths", double(paths), "count");
        m.set("sym.dedup_merges", double(merges), "count");
        m.set("sym.dedup_ratio",
              paths + merges ? double(merges) / double(paths + merges)
                             : 0.0,
              "ratio");
        m.set("sym.snapshot_bytes_copied", double(copied), "bytes");
        m.set("sym.snapshot_copy_ratio",
              full ? double(copied) / double(full) : 0.0, "ratio");
        m.set("sym.steals", double(steals), "count");
        m.set("sym.worker_imbalance", worstImbalance, "ratio");
    }
};

/**
 * sym.explore_s, sym.cycles_per_s and sym.kernel_share from the
 * replayed exploration (@p run_s seconds for @p cycles cycles), and
 * sym.thread_scaling: the first scenario's slice re-run at 1 and at
 * min(4, nproc) threads.
 */
void
symMetrics(Metrics &m, Tracer *tr, const CellLibrary &lib,
           const std::vector<peak::BatchProgram> &progs,
           const peak::BatchOptions &bopts, double run_s, uint64_t cycles,
           double scalar_rate)
{
    m.set("sym.explore_s", run_s, "s");
    m.set("sym.cycles_per_s", double(cycles) / run_s, "1/s");

    peak::Options o = bopts.analysis;
    if (!bopts.scenarios.empty())
        o.scenario = bopts.scenarios[0];
    msp::System sys(lib);
    double one = 0.0, many = 0.0;
    for (size_t p = 0; p < progs.size(); ++p) {
        for (unsigned threads : {1u, defaultThreads()}) {
            o.numThreads = threads;
            (threads == 1 ? one : many) +=
                timed(tr, "sym.run.threads", long(p), [&] {
                    sym::SymbolicEngine(sys, symConfig(o)).run(progs[p].image);
                });
        }
    }
    m.set("sym.thread_scaling", one / many, "ratio");

    // Kernel share at one thread: the share of exploration time the
    // kernel at its concrete rate accounts for.
    double oneThreadRunS =
        bopts.analysis.numThreads <= 1 ? run_s : run_s * one / many;
    m.set("sym.kernel_share",
          double(cycles) / scalar_rate / oneThreadRunS, "ratio");
}

/** isa.assemble_ms / cli.resolve_ms / msp.elaborate_ms. */
void
setupProbes(Metrics &m, Tracer *tr, const CellLibrary &lib,
            const std::vector<std::string> &sources,
            const std::vector<std::string> &specs)
{
    m.set("isa.assemble_ms", 1e3 * medianTime(5, tr, "isa.assemble", [&] {
              for (const std::string &s : sources)
                  isa::assemble(s);
          }), "ms", 5);
    m.set("cli.resolve_ms", 1e3 * medianTime(5, tr, "cli.resolve", [&] {
              cli::resolvePrograms(specs);
          }), "ms", 5);
    m.set("msp.elaborate_ms", 1e3 * medianTime(5, tr, "msp.elaborate", [&] {
              msp::System sys(lib);
          }), "ms", 5);
}

/** Mean bytes per cache entry in @p dir (0 when empty). */
double
meanEntryBytes(const std::string &dir)
{
    uint64_t bytes = 0, n = 0;
    std::error_code ec;
    for (const fs::directory_entry &e : fs::directory_iterator(dir, ec)) {
        if (e.is_regular_file()) {
            bytes += e.file_size();
            ++n;
        }
    }
    return n ? double(bytes) / double(n) : 0.0;
}

/// @}

/** Golden-file key of a suite scenario slice. */
std::string
sliceKey(const std::string &scenario, uint64_t seed)
{
    return scenario == "random" ? "random." + std::to_string(seed)
                                : "preset." + scenario;
}

/** Per-item analysis checks shared by the batch-driven workloads:
 *  counts items that failed or whose slice digest differs. */
uint64_t
failedItems(const peak::BatchReport &rep, size_t slice,
            const std::vector<uint64_t> &expected)
{
    std::vector<bool> bad(rep.programs.size(), false);
    for (size_t i = 0; i < rep.programs.size(); ++i)
        bad[i] = !rep.programs[i].ok;
    for (size_t s = 0; s < expected.size(); ++s)
        if (sliceDigest(rep, s * slice, slice) != expected[s])
            for (size_t i = s * slice;
                 i < std::min((s + 1) * slice, bad.size()); ++i)
                bad[i] = true;
    return uint64_t(std::count(bad.begin(), bad.end(), true));
}

/** The reference configuration of an analysis: full-sweep kernel and
 *  full-copy fork snapshots (bit-identical to the default by
 *  contract). */
peak::BatchOptions
referenceOptions(peak::BatchOptions o)
{
    o.analysis.evalMode = EvalMode::FullSweep;
    o.analysis.snapshotMode = sym::SnapshotMode::Full;
    o.cacheDir.clear();
    return o;
}

// ---------------------------------------------------------------------------

/**
 * suite-cold / suite-warm: the 14 bench430 programs x 5 scenario
 * presets + one seeded random scenario, envelopes on, jobs = threads
 * = 1, each report serialized with cli::toJson. Cold analyzes one
 * scenario slice per iteration, rotating, into a fresh cache directory
 * (a rotation bounds the whole suite); warm serves the whole matrix
 * per iteration from a cache filled before timing.
 */
class SuiteWorkload : public Workload {
  public:
    SuiteWorkload(const RunConfig &cfg, bool warm)
        : cfg_(cfg), warm_(warm), warmDir_(cfg.workDir + "/warm-cache")
    {
    }

    void
    setup(Tracer *tr) override
    {
        Span s(tr, "setup");
        {
            Span a(tr, "cell.library");
            lib_ = std::make_unique<CellLibrary>(CellLibrary::tsmc65Like());
        }
        {
            Span a(tr, "cli.resolve");
            programs_ = cli::resolvePrograms({"all"});
        }
        Span a(tr, "scenario.generate");
        opts_ = suiteOptions(cfg_.seed);
        traced_.assign(period(), {});
    }

    void
    prepare(const Golden &golden) override
    {
        const size_t nScen = opts_.scenarios.size();
        expected_.assign(nScen, 0);
        std::vector<bool> have(nScen, false);
        for (size_t s = 0; s < nScen; ++s) {
            have[s] = golden.get(
                "suite", sliceKey(opts_.scenarios[s].name, cfg_.seed),
                expected_[s]);
        }
        // Slices the golden file lacks come from the reference
        // configuration (untimed).
        peak::BatchOptions ref = referenceOptions(opts_);
        ref.scenarios.clear();
        for (size_t s = 0; s < nScen; ++s)
            if (!have[s])
                ref.scenarios.push_back(opts_.scenarios[s]);
        if (!ref.scenarios.empty()) {
            peak::BatchReport rep =
                peak::analyzeBatch(*lib_, programs_, ref);
            for (size_t s = 0, r = 0; s < nScen; ++s)
                if (!have[s])
                    expected_[s] = sliceDigest(rep, (r++) * programs_.size(),
                                               programs_.size());
        }
        if (warm_ && (!fs::exists(warmDir_) || fs::is_empty(warmDir_))) {
            peak::BatchOptions o = opts_;
            o.cacheDir = warmDir_;
            peak::analyzeBatch(*lib_, programs_, o);
        }
    }

    std::vector<std::string>
    expectedLines() const override
    {
        std::vector<std::string> lines;
        for (size_t s = 0; s < expected_.size(); ++s)
            lines.push_back("suite " +
                            sliceKey(opts_.scenarios[s].name, cfg_.seed) +
                            " " + hex64(expected_[s]));
        return lines;
    }

    size_t
    period() const override
    {
        return warm_ ? 1 : opts_.scenarios.size();
    }

    IterStats
    iterate(Tracer *tr) override
    {
        IterStats st;
        st.slice = iter_ % period();
        peak::BatchOptions o = opts_;
        if (warm_) {
            o.cacheDir = warmDir_;
        } else {
            o.scenarios = {opts_.scenarios[st.slice]};
            o.cacheDir = cfg_.workDir + "/cold-" + std::to_string(iter_);
            fs::remove_all(o.cacheDir);
        }
        ++iter_;
        std::string json;
        double batchS = 0.0, jsonS = 0.0;
        Clock::time_point t0 = Clock::now();
        {
            Span it(tr, "iteration", long(st.slice));
            {
                Span a(tr, "batch.analyzeBatch");
                Clock::time_point b0 = Clock::now();
                last_ = peak::analyzeBatch(*lib_, programs_, o);
                batchS = secondsSince(b0);
            }
            Span b(tr, "cli.toJson");
            Clock::time_point j0 = Clock::now();
            json = cli::toJson(last_, o);
            jsonS = secondsSince(j0);
        }
        st.wallS = secondsSince(t0);

        st.items = last_.programs.size();
        st.workUnits = st.items;
        st.failed = verify(st.slice);
        double itemSum = 0.0;
        for (const peak::ProgramResult &r : last_.programs) {
            st.cycles += r.totalCycles;
            st.itemLatencyS.push_back(r.wallSeconds);
            itemSum += r.wallSeconds;
        }
        if (tr) {
            Traced &t = traced_[st.slice];
            t.batchSelfS.push_back(batchS - itemSum);
            t.itemsS.push_back(itemSum);
            t.toJsonS.push_back(jsonS);
            t.jsonBytes = json.size();
            for (const peak::ProgramResult &r : last_.programs)
                if (r.cached)
                    hitS_.push_back(r.wallSeconds);
            hits_ += last_.cacheHits;
            lookups_ += last_.cacheHits + last_.cacheMisses;
            entryBytes_ = meanEntryBytes(o.cacheDir);
            counters_[st.slice] = SymCounters{};
            counters_[st.slice].add(last_);
            // The iteration's own top-level calls, plus the replay of
            // what its analyzeBatch did for the items.
            Span r(tr, "replay", long(st.slice));
            st.layerS = batchS - itemSum + jsonS +
                        (warm_ ? replayWarm(tr, o) : replayCold(tr, st.slice));
        }
        if (!warm_)
            fs::remove_all(o.cacheDir);
        return st;
    }

    void
    layers(Metrics &m, Tracer *tr) override
    {
        std::vector<std::string> sources;
        std::vector<ConcreteInput> ins;
        for (const bench430::Benchmark &b : bench430::allBenchmarks()) {
            sources.push_back(b.source);
            baseline::InputSet in = benchInput(b.name, cfg_.seed);
            ins.push_back({b.assembleImage(), in.ram, in.portIn});
        }
        setupProbes(m, tr, *lib_, sources, {"all"});
        simProbes(m, tr, *lib_, ins, cfg_.seed);

        // Whole-suite figures: per slice the median over its traced
        // iterations, summed over the slices.
        std::vector<std::vector<double>> selfS, itemsS, jsonS;
        double jsonBytes = 0.0;
        size_t n = 0;
        for (const Traced &t : traced_) {
            selfS.push_back(t.batchSelfS);
            itemsS.push_back(t.itemsS);
            jsonS.push_back(t.toJsonS);
            jsonBytes += double(t.jsonBytes);
            n += t.toJsonS.size();
        }
        m.set("batch.self_ms", sumOfMedians(selfS) * 1e3, "ms", n);
        m.set("batch.items_ms", sumOfMedians(itemsS) * 1e3, "ms", n);
        m.set("cli.to_json_ms", sumOfMedians(jsonS) * 1e3, "ms", n);
        m.set("cli.json_bytes", jsonBytes, "bytes");
        m.set("batch.hit_us", median(hitS_) * 1e6, "us", hitS_.size());
        m.set("batch.cache_bytes", entryBytes_, "bytes");
        m.set("batch.hit_ratio",
              lookups_ ? double(hits_) / double(lookups_) : 0.0, "ratio");

        std::vector<std::vector<double>> keyS(replays_.size()),
            curvesS(replays_.size()), runS(replays_.size()),
            postS(replays_.size());
        uint64_t keys = 0, cycles = 0;
        for (size_t s = 0; s < replays_.size(); ++s) {
            for (const AnalysisReplay &r : replays_[s]) {
                keyS[s].push_back(r.keyS);
                curvesS[s].push_back(r.curvesS);
                runS[s].push_back(r.runS);
                postS[s].push_back(r.postS);
            }
            if (!replays_[s].empty()) {
                keys += replays_[s].back().keys;
                cycles += replays_[s].back().cycles;
            }
        }
        m.set("batch.cache_key_us",
              keys ? sumOfMedians(keyS) * 1e6 / double(keys) : 0.0, "us", n);
        m.set("peak.window_curves_ms", sumOfMedians(curvesS) * 1e3, "ms", n);
        if (warm_)
            return;
        m.set("peak.self_ms", sumOfMedians(postS) * 1e3, "ms", n);
        for (size_t s = 0; s < runS.size(); ++s)
            m.set("sym.explore_s." + opts_.scenarios[s].name,
                  median(runS[s]), "s", runS[s].size());
        SymCounters all;
        for (const auto &[slice, c] : counters_) {
            all.paths += c.paths;
            all.merges += c.merges;
            all.copied += c.copied;
            all.full += c.full;
            all.steals += c.steals;
            all.worstImbalance = std::max(all.worstImbalance,
                                          c.worstImbalance);
        }
        all.report(m);
        symMetrics(m, tr, *lib_, programs_, opts_, sumOfMedians(runS),
                   cycles, m.at("sim.scalar_cycles_per_s").value);
    }

    void
    crossCheck() override
    {
        peak::BatchReport def = peak::analyzeBatch(*lib_, programs_, opts_);
        if (failedItems(def, programs_.size(), expected_))
            throw std::runtime_error("suite: default and reference "
                                     "configurations disagree");
    }

  private:
    /** Observations of the traced iterations of one slice. */
    struct Traced {
        std::vector<double> batchSelfS, itemsS, toJsonS;
        size_t jsonBytes = 0;
    };

    uint64_t
    verify() const override
    {
        return verify(lastSlice());
    }

    size_t lastSlice() const { return (iter_ + period() - 1) % period(); }

    /** Failed items of the last report, which holds @p slice (cold)
     *  or the whole matrix (warm). */
    uint64_t
    verify(size_t slice) const
    {
        uint64_t f =
            warm_ ? failedItems(last_, programs_.size(), expected_)
                  : failedItems(last_, programs_.size(), {expected_[slice]});
        if (warm_) // a warm iteration must be served from the cache
            for (const peak::ProgramResult &r : last_.programs)
                f += r.ok && !r.cached;
        return std::min<uint64_t>(f, last_.programs.size());
    }

    /** Replay of a cold slice's analyses; returns their layer time. */
    double
    replayCold(Tracer *tr, size_t slice)
    {
        peak::Options o = opts_.analysis;
        o.scenario = opts_.scenarios[slice];
        AnalysisReplay r = replayAnalyses(tr, *lib_, programs_, o, true,
                                          long(slice * programs_.size()));
        replays_.resize(opts_.scenarios.size());
        replays_[slice].push_back(r);
        return r.total();
    }

    /** Replay of a warm hit's public calls (cache key and window-curve
     *  rebuild) for every item; the entry's file read and parse have no
     *  public entry point and stay unreplayed. */
    double
    replayWarm(Tracer *tr, const peak::BatchOptions &o)
    {
        AnalysisReplay r;
        const size_t nProg = programs_.size();
        for (size_t i = 0; i < last_.programs.size(); ++i) {
            peak::Options ao = o.analysis;
            ao.scenario = o.scenarios[i / nProg];
            r.keyS += timed(tr, "batch.cacheKey", long(i), [&] {
                peak::cacheKey(*lib_, programs_[i % nProg].image, ao);
            });
            ++r.keys;
            peak::Envelope env = last_.programs[i].envelope;
            if (env.present)
                r.curvesS += timed(tr, "peak.buildWindowCurves", long(i), [&] {
                    buildCurves(env, ao.scenario, ao.freqHz);
                });
        }
        replays_.resize(1);
        replays_[0].push_back(r);
        return r.keyS + r.curvesS;
    }

    RunConfig cfg_;
    bool warm_;
    std::string warmDir_;
    std::unique_ptr<CellLibrary> lib_;
    std::vector<peak::BatchProgram> programs_;
    peak::BatchOptions opts_;
    size_t iter_ = 0;
    peak::BatchReport last_;
    /// Traced-iteration observations, per slice.
    std::vector<Traced> traced_;
    std::vector<std::vector<AnalysisReplay>> replays_;
    std::map<size_t, SymCounters> counters_;
    std::vector<double> hitS_;
    uint64_t hits_ = 0, lookups_ = 0;
    double entryBytes_ = 0.0;
};

// ---------------------------------------------------------------------------

/**
 * fork-wide: the seeded fork stressmark through analyzeBatch over one
 * program, threads = min(4, nproc), default options, no cache (like
 * `ulpeak --threads N --no-cache fork.s`).
 */
class ForkWorkload : public Workload {
  public:
    explicit ForkWorkload(const RunConfig &cfg) : cfg_(cfg) {}

    void
    setup(Tracer *tr) override
    {
        Span s(tr, "setup");
        {
            Span a(tr, "cell.library");
            lib_ = std::make_unique<CellLibrary>(CellLibrary::tsmc65Like());
        }
        source_ = forkWideSource(cfg_.seed);
        path_ = cfg_.workDir + "/fork-wide.s";
        std::ofstream(path_) << source_;
        {
            Span a(tr, "cli.resolve");
            programs_ = cli::resolvePrograms({path_});
        }
        opts_ = peak::BatchOptions{};
        opts_.analysis.numThreads = defaultThreads();
    }

    void
    prepare(const Golden &golden) override
    {
        uint64_t d = 0;
        if (!golden.get("fork-wide", "seed." + std::to_string(cfg_.seed), d))
            d = sliceDigest(
                peak::analyzeBatch(*lib_, programs_, referenceOptions(opts_)),
                0, 1);
        expected_ = {d};
    }

    std::vector<std::string>
    expectedLines() const override
    {
        return {"fork-wide seed." + std::to_string(cfg_.seed) + " " +
                hex64(expected_[0])};
    }

    IterStats
    iterate(Tracer *tr) override
    {
        IterStats st;
        double batchS = 0.0;
        Clock::time_point t0 = Clock::now();
        {
            Span it(tr, "iteration");
            Span a(tr, "batch.analyzeBatch");
            last_ = peak::analyzeBatch(*lib_, programs_, opts_);
            batchS = secondsSince(t0);
        }
        st.wallS = secondsSince(t0);
        st.items = 1;
        st.failed = verify();
        const peak::ProgramResult &r = last_.programs.at(0);
        st.cycles = r.totalCycles;
        st.workUnits = r.pathsExplored;
        st.itemLatencyS.push_back(r.wallSeconds);
        if (tr) {
            batchSelfS_.push_back(batchS - r.wallSeconds);
            itemsS_.push_back(r.wallSeconds);
            counters_ = SymCounters{};
            counters_.add(last_);
            Span sp(tr, "replay");
            AnalysisReplay rep = replayAnalyses(tr, *lib_, programs_,
                                                opts_.analysis, false, 0);
            replays_.push_back(rep);
            st.layerS = batchS - r.wallSeconds + rep.total();
        }
        return st;
    }

    void
    layers(Metrics &m, Tracer *tr) override
    {
        fuzz::Rng rng(fuzz::Rng::deriveStream(cfg_.seed, 0xf04c));
        setupProbes(m, tr, *lib_, {source_}, {path_});
        simProbes(m, tr, *lib_,
                  {{programs_[0].image, {}, rng.word()}}, cfg_.seed);
        std::vector<double> runS, postS;
        for (const AnalysisReplay &r : replays_) {
            runS.push_back(r.runS);
            postS.push_back(r.postS);
        }
        std::string scen = "sym.explore_s." + opts_.analysis.scenario.name;
        if (m.has(scen))
            m.set(scen, median(runS), "s", runS.size());
        m.set("peak.self_ms", median(postS) * 1e3, "ms", postS.size());
        counters_.report(m);
        symMetrics(m, tr, *lib_, programs_, opts_, median(runS),
                   replays_.empty() ? 0 : replays_.back().cycles,
                   m.at("sim.scalar_cycles_per_s").value);
        m.set("batch.self_ms", median(batchSelfS_) * 1e3, "ms",
              batchSelfS_.size());
        m.set("batch.items_ms", median(itemsS_) * 1e3, "ms", itemsS_.size());
    }

    void
    crossCheck() override
    {
        if (failedItems(peak::analyzeBatch(*lib_, programs_, opts_), 1,
                        expected_))
            throw std::runtime_error("fork-wide: default and reference "
                                     "configurations disagree");
    }

  private:
    uint64_t
    verify() const override
    {
        return failedItems(last_, 1, expected_);
    }

    RunConfig cfg_;
    std::unique_ptr<CellLibrary> lib_;
    std::string source_, path_;
    std::vector<peak::BatchProgram> programs_;
    peak::BatchOptions opts_;
    peak::BatchReport last_;
    std::vector<double> batchSelfS_, itemsS_;
    std::vector<AnalysisReplay> replays_;
    SymCounters counters_;
};

// ---------------------------------------------------------------------------

/**
 * fault-campaign: fault::runCampaign on bench430 tea8 over every flop
 * site, default packed runner, jobs = 1, no cache; inputs and the
 * campaign seed come from the workload seed.
 */
class FaultWorkload : public Workload {
  public:
    explicit FaultWorkload(const RunConfig &cfg) : cfg_(cfg) {}

    void
    setup(Tracer *tr) override
    {
        Span s(tr, "setup");
        {
            Span a(tr, "cell.library");
            lib_ = std::make_unique<CellLibrary>(CellLibrary::tsmc65Like());
        }
        {
            Span a(tr, "cli.resolve");
            image_ = cli::resolvePrograms({kProgram}).at(0).image;
        }
        opts_ = fault::CampaignOptions{};
        opts_.seed = cfg_.seed;
        opts_.jobs = 1;
        input_ = benchInput(kProgram, cfg_.seed);
        for (const auto &[addr, words] : input_.ram)
            image_.segments.push_back({addr, words});
        if (bench430::benchmarkByName(kProgram).usesPort)
            opts_.portIn = input_.portIn;
    }

    void
    prepare(const Golden &golden) override
    {
        uint64_t d = 0;
        if (golden.get("fault-campaign", "seed." + std::to_string(cfg_.seed),
                       d)) {
            expected_ = {d};
            return;
        }
        // No golden rows for this seed: take one untimed packed
        // campaign as the expectation, after checking an even sample
        // of its rows against the scalar runner.
        fault::CampaignResult c = fault::runCampaign(*lib_, image_, opts_);
        expected_ = {scalarSampleAgrees(c, 32) ? rowsDigest(c) : 0};
    }

    std::vector<std::string>
    expectedLines() const override
    {
        return {"fault-campaign seed." + std::to_string(cfg_.seed) + " " +
                hex64(expected_[0])};
    }

    IterStats
    iterate(Tracer *tr) override
    {
        IterStats st;
        Clock::time_point t0 = Clock::now();
        {
            Span it(tr, "iteration");
            Span a(tr, "fault.runCampaign");
            last_ = fault::runCampaign(*lib_, image_, opts_);
        }
        st.wallS = secondsSince(t0);
        st.items = std::max<size_t>(last_.injections.size(), 1);
        st.failed = verify();
        for (const fault::InjectionResult &ir : last_.injections)
            st.cycles += ir.r.gateCycles;
        st.workUnits = last_.injections.size();
        st.itemLatencyS.push_back(last_.wallSeconds);
        if (tr) {
            Span sp(tr, "replay");
            st.layerS = replayCampaign(tr);
            selfFrac_.push_back(1.0 - st.layerS / st.wallS);
        }
        return st;
    }

    void
    layers(Metrics &m, Tracer *tr) override
    {
        setupProbes(m, tr, *lib_,
                    {bench430::benchmarkByName(kProgram).source}, {kProgram});
        simProbes(m, tr, *lib_, {{image_, {}, opts_.portIn}}, cfg_.seed);
        faultMetrics(m);
    }

    /** cosim.* and fault.* from the traced iterations' replays. */
    void
    faultMetrics(Metrics &m) const
    {
        m.set("cosim.golden_ms", median(goldenS_) * 1e3, "ms",
              goldenS_.size());
        m.set("cosim.instr_per_s",
              double(last_.goldenInstructions) / median(goldenS_), "1/s",
              goldenS_.size());
        m.set("fault.packed_batch_ms", median(batchS_) * 1e3, "ms",
              batchS_.size());
        m.set("fault.self_frac", median(selfFrac_), "ratio",
              selfFrac_.size());
    }

    void
    crossCheck() override
    {
        fault::CampaignOptions scalar = opts_;
        scalar.packed = false;
        if (rowsDigest(fault::runCampaign(*lib_, image_, scalar)) !=
            expected_[0])
            throw std::runtime_error("fault-campaign: packed and scalar "
                                     "runners disagree");
    }

  private:
    static constexpr const char *kProgram = "tea8";

    uint64_t
    verify() const override
    {
        if (!last_.ok || rowsDigest(last_) != expected_[0])
            return std::max<size_t>(last_.injections.size(), 1);
        return 0;
    }

    /**
     * The parts of the last campaign, one public call at a time, as
     * runCampaign makes them: its own System and the golden lockstep
     * run, then the worker's System and PowerContext and every packed
     * batch of 64 injections. Returns their summed time.
     */
    double
    replayCampaign(Tracer *tr)
    {
        std::unique_ptr<msp::System> sys, wsys;
        std::unique_ptr<power::PowerContext> ctx;
        double parts = timed(tr, "msp.elaborate", -1, [&] {
            sys = std::make_unique<msp::System>(*lib_);
        });
        cosim::Options gopts;
        gopts.maxCycles = opts_.goldenMaxCycles;
        gopts.portIn = opts_.portIn;
        goldenS_.push_back(timed(tr, "cosim.run", -1, [&] {
            cosim::run(*sys, image_, gopts);
        }));
        parts += goldenS_.back();
        parts += timed(tr, "msp.elaborate", -1, [&] {
            wsys = std::make_unique<msp::System>(*lib_);
            ctx = std::make_unique<power::PowerContext>(wsys->netlist(),
                                                        opts_.freqHz);
        });
        fault::RunOptions ro;
        ro.maxCycles = last_.hangCycles;
        ro.portIn = opts_.portIn;
        ro.powerCtx = ctx.get();
        const size_t lanes = PackedSimulator::kLanes;
        for (size_t b = 0; b * lanes < last_.injections.size(); ++b) {
            std::array<std::vector<fault::Injection>, PackedSimulator::kLanes>
                faults;
            for (size_t i = 0;
                 i < lanes && b * lanes + i < last_.injections.size(); ++i) {
                const fault::InjectionResult &ir =
                    last_.injections[b * lanes + i];
                faults[i].push_back({last_.sites[ir.siteIndex], ir.cycle});
            }
            batchS_.push_back(timed(tr, "fault.runFaultedPacked", long(b), [&] {
                fault::runFaultedPacked(*wsys, image_, faults, ro);
            }));
            parts += batchS_.back();
        }
        return parts;
    }

    /** Re-run @p n evenly spaced rows of @p c on the scalar runner. */
    bool
    scalarSampleAgrees(const fault::CampaignResult &c, size_t n) const
    {
        if (!c.ok || c.injections.empty())
            return false;
        msp::System sys(*lib_);
        power::PowerContext ctx(sys.netlist(), opts_.freqHz);
        fault::RunOptions ro;
        ro.maxCycles = c.hangCycles;
        ro.portIn = opts_.portIn;
        ro.powerCtx = &ctx;
        for (size_t k = 0; k < n; ++k) {
            const fault::InjectionResult &ir =
                c.injections[k * c.injections.size() / n];
            fault::FaultResult r = fault::runFaulted(
                sys, image_, {{c.sites[ir.siteIndex], ir.cycle}}, ro);
            if (!r.sameClassification(ir.r))
                return false;
        }
        return true;
    }

    RunConfig cfg_;
    std::unique_ptr<CellLibrary> lib_;
    isa::Image image_;
    baseline::InputSet input_;
    fault::CampaignOptions opts_;
    fault::CampaignResult last_;
    std::vector<double> goldenS_, batchS_, selfFrac_;
};

} // namespace

// ---------------------------------------------------------------------------

Golden
Golden::load(const std::string &path)
{
    Golden g;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, k, hex;
        if (ls >> w >> k >> hex)
            g.entries_[w + " " + k] = std::stoull(hex, nullptr, 16);
    }
    return g;
}

bool
Golden::get(const std::string &workload, const std::string &key,
            uint64_t &out) const
{
    auto it = entries_.find(workload + " " + key);
    if (it == entries_.end())
        return false;
    out = it->second;
    return true;
}

IterStats
faultLedger(Metrics &m, Tracer *tr, RunConfig cfg, const Golden &golden)
{
    cfg.workload = "fault-campaign";
    FaultWorkload w(cfg);
    w.setup(nullptr);
    w.prepare(golden);
    IterStats all;
    // The process's first campaigns run up to ~1.7x slower than later
    // ones; the first is left untraced so the ratios see steady ones.
    for (int i = 0; i <= kFaultLedgerIterations; ++i) {
        IterStats st = w.iterate(i ? tr : nullptr);
        all.items += st.items;
        all.failed += st.failed;
    }
    w.faultMetrics(m);
    return all;
}

std::unique_ptr<Workload>
makeWorkload(const RunConfig &cfg)
{
    if (cfg.workload == "suite-cold")
        return std::make_unique<SuiteWorkload>(cfg, false);
    if (cfg.workload == "suite-warm")
        return std::make_unique<SuiteWorkload>(cfg, true);
    if (cfg.workload == "fork-wide")
        return std::make_unique<ForkWorkload>(cfg);
    if (cfg.workload == "fault-campaign")
        return std::make_unique<FaultWorkload>(cfg);
    return nullptr;
}

unsigned
defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(4u, hw));
}

/**
 * The fork stressmark of bench_sym_explore with seeded rounds: each
 * round tests one seed-chosen port bit and adds or subtracts 1. After
 * round i the accumulator holds one of i+1 values whatever the signs,
 * so the tree keeps ~rounds^2/2 nodes for every seed. Bits are drawn
 * from 4..15, whose masks all need an extension word (bits 0..3 hit
 * the constant generator), so every seed runs the same cycle counts.
 */
std::string
forkWideSource(uint64_t seed, unsigned rounds)
{
    fuzz::Rng rng(fuzz::Rng::deriveStream(seed, 0xf0c4));
    std::string body = "        mov #0, r4\n";
    for (unsigned i = 0; i < rounds; ++i) {
        std::string skip = "fw_skip_" + std::to_string(i);
        unsigned bit = 4 + rng.below(12);
        body += "        mov &PIN, r5\n"
                "        and #" + std::to_string(1u << bit) + ", r5\n"
                "        jz " + skip + "\n" +
                (rng.chance(50) ? "        add #1, r4\n"
                                : "        sub #1, r4\n") +
                skip + ":\n";
    }
    body += "        mov r4, &OUT\n";
    return bench430::wrapBenchmarkBody(body);
}

peak::BatchOptions
suiteOptions(uint64_t seed)
{
    peak::BatchOptions o;
    o.analysis.recordEnvelope = true;
    o.jobs = 1;
    o.analysis.numThreads = 1;
    for (const std::string &n : scenario::Scenario::presetNames())
        o.scenarios.push_back(scenario::Scenario::preset(n));
    o.scenarios.push_back(randomStaticScenario(seed));
    return o;
}

} // namespace perfbench
