/**
 * @file
 * The per-layer metric table of the traced run and the knob ledger:
 * wall time with each result-neutral engine knob on vs off (median of
 * paired runs), plus a byte-compare of the deterministic
 * (--no-timings) reports.
 */

#include "workloads.hh"

#include "cli/driver.hh"

namespace perfbench {

using namespace ulpeak;

namespace {

struct LayerMetric {
    const char *name;
    const char *unit;
};

/** Every per-layer metric (BENCHMARK.json "per_layer" order). */
const LayerMetric kLayerMetrics[] = {
    {"isa.assemble_ms", "ms"},
    {"cli.resolve_ms", "ms"},
    {"msp.elaborate_ms", "ms"},
    {"sim.scalar_cycles_per_s", "1/s"},
    {"sim.packed_lane_cycles_per_s", "1/s"},
    {"sym.explore_s", "s"},
    {"sym.cycles_per_s", "1/s"},
    {"sym.explore_s.unconstrained", "s"},
    {"sym.explore_s.ports-grounded", "s"},
    {"sym.explore_s.sensor-4bit", "s"},
    {"sym.explore_s.periodic-sensor", "s"},
    {"sym.explore_s.duty-cycled-dvfs", "s"},
    {"sym.explore_s.random", "s"},
    {"sym.kernel_share", "ratio"},
    {"sym.paths", "count"},
    {"sym.dedup_merges", "count"},
    {"sym.dedup_ratio", "ratio"},
    {"sym.snapshot_bytes_copied", "bytes"},
    {"sym.snapshot_copy_ratio", "ratio"},
    {"sym.steals", "count"},
    {"sym.worker_imbalance", "ratio"},
    {"sym.thread_scaling", "ratio"},
    {"sym.packed_occupancy", "ratio"},
    {"peak.self_ms", "ms"},
    {"peak.window_curves_ms", "ms"},
    {"batch.self_ms", "ms"},
    {"batch.items_ms", "ms"},
    {"batch.cache_key_us", "us"},
    {"batch.hit_us", "us"},
    {"batch.cache_bytes", "bytes"},
    {"batch.hit_ratio", "ratio"},
    {"cli.to_json_ms", "ms"},
    {"cli.json_bytes", "bytes"},
    {"cosim.golden_ms", "ms"},
    {"cosim.instr_per_s", "1/s"},
    {"fault.packed_batch_ms", "ms"},
    {"fault.self_frac", "ratio"},
    {"knob.packed_explore.ratio.suite-cold", "ratio"},
    {"knob.packed_explore.ratio.fork-wide", "ratio"},
    {"knob.static_prune.ratio.suite-cold", "ratio"},
    {"knob.static_prune.ratio.fork-wide", "ratio"},
    {"knob.threads.ratio.suite-cold", "ratio"},
    {"knob.threads.ratio.fork-wide", "ratio"},
    {"knob.packed_explore.identical", "bool"},
    {"knob.static_prune.identical", "bool"},
    {"knob.threads.identical", "bool"},
    {"trace.wall_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"fail_frac", "ratio"},
};

/** On/off pairs per knob and slice; the order alternates per pair. */
constexpr int kKnobPairs = 3;

} // namespace

void
initLayerMetrics(Metrics &m)
{
    for (const LayerMetric &l : kLayerMetrics)
        m.set(l.name, 0.0, l.unit);
}

void
knobLedger(Metrics &m, Tracer *tr, uint64_t seed)
{
    const CellLibrary lib = CellLibrary::tsmc65Like();

    struct Slice {
        std::string name;
        std::vector<peak::BatchProgram> programs;
        peak::BatchOptions opts;
    };
    Slice suite{"suite-cold", cli::resolvePrograms({"all"}),
                suiteOptions(seed)};
    suite.opts.scenarios.resize(1); // the unconstrained preset
    Slice fork{"fork-wide",
               {{"fork-wide", isa::assemble(forkWideSource(seed))}},
               peak::BatchOptions{}};
    fork.opts.analysis.numThreads = defaultThreads();

    struct Knob {
        const char *name;
        void (*set)(peak::Options &, bool on);
    };
    const Knob knobs[] = {
        {"packed_explore",
         [](peak::Options &o, bool on) { o.packedExplore = on; }},
        {"static_prune",
         [](peak::Options &o, bool on) { o.staticPrune = on; }},
        {"threads",
         [](peak::Options &o, bool on) {
             o.numThreads = on ? defaultThreads() : 1;
         }},
    };

    long sliceId = 0;
    std::map<std::string, bool> identical;
    std::vector<double> occupancy;
    for (const Slice *s : {&suite, &fork}) {
        for (const Knob &k : knobs) {
            std::vector<double> ratios;
            std::string report[2];
            for (int pair = 0; pair < kKnobPairs; ++pair) {
                double wall[2];
                for (bool on : {pair % 2 == 1, pair % 2 == 0}) {
                    peak::BatchOptions o = s->opts;
                    k.set(o.analysis, on);
                    Span sp(tr, std::string("knob.") + k.name +
                                    (on ? ".on" : ".off"),
                            sliceId);
                    Clock::time_point t0 = Clock::now();
                    peak::BatchReport rep =
                        peak::analyzeBatch(lib, s->programs, o);
                    wall[on] = secondsSince(t0);
                    report[on] = cli::toJson(rep, o, false);
                    if (on && s == &fork && o.analysis.packedExplore)
                        for (const peak::ProgramResult &r : rep.programs)
                            if (r.packedSweeps)
                                occupancy.push_back(
                                    double(r.packedLaneCycles) /
                                    (64.0 * double(r.packedSweeps)));
                }
                ratios.push_back(wall[1] / wall[0]);
            }
            m.set(std::string("knob.") + k.name + ".ratio." + s->name,
                  median(ratios), "ratio", ratios.size());
            bool &same = identical.emplace(k.name, true).first->second;
            same = same && report[0] == report[1];
        }
        ++sliceId;
    }
    m.set("sym.packed_occupancy", median(occupancy), "ratio",
          occupancy.size());
    for (const auto &[name, same] : identical)
        m.set("knob." + name + ".identical", same ? 1.0 : 0.0, "bool");
}

} // namespace perfbench
