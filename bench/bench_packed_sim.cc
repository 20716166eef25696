/**
 * @file
 * Microbenchmark of the bit-parallel 64-pattern kernel: per-pattern
 * cycles/second of power::runConcretePacked (one PackedSimulator sweep
 * carrying 64 port schedules) against the scalar power::runConcrete
 * path run schedule-by-schedule, on the GA stressmark. Asserts that
 * the timed packed lanes are float-identical to the timed scalar runs
 * before trusting the numbers, prints the throughput row, and drops
 * machine-readable results in bench_out/BENCH_packed_sim.json (the
 * checked-in BENCH_packed_sim.json at the repository root is a copy).
 *
 * The two paths are timed in at least five alternating pairs (the
 * order flips every pair) and the reported ratio is the median of the
 * per-pair ratios, printed with its min/max.
 * `bench_packed_sim --min-ratio R` additionally exits 1 if that
 * median falls below R; CI runs it with `--min-ratio 8`.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/baselines.hh"
#include "bench/bench_util.hh"
#include "power/packed_run.hh"

namespace ulpeak {
namespace {

constexpr unsigned kLanes = PackedSimulator::kLanes;
constexpr uint64_t kMaxCycles = 3000;
constexpr unsigned kScalarLanes = 8; ///< scalar reference subset
constexpr unsigned kScheduleLen = 16;
constexpr int kPairs = 5; ///< alternating scalar/packed timings

struct Measurement {
    double sec = 0.0;
    uint64_t patternCycles = 0;
    double perPatternCyclesPerSec() const
    {
        return sec > 0 ? double(patternCycles) / sec : 0.0;
    }
};

} // namespace
} // namespace ulpeak

int
main(int argc, char **argv)
{
    using namespace ulpeak;

    double min_ratio = 0.0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--min-ratio" && i + 1 < argc) {
            min_ratio = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: bench_packed_sim [--min-ratio R]\n");
            return 2;
        }
    }

    bench_util::printHeader(
        "packed sim: 64-lane batch vs scalar per-pattern cycles/sec");

    msp::System sys(CellLibrary::tsmc65Like());
    baseline::StressmarkConfig scfg;
    scfg.population = 8;
    scfg.generations = 3;
    scfg.evalCycles = 400;
    baseline::StressmarkResult sm =
        baseline::generateStressmark(sys, bench_util::kFreq65, scfg);
    isa::Image image = isa::assemble(sm.bestSource);
    power::PowerContext ctx(sys.netlist(), bench_util::kFreq65);

    fuzz::Rng rng(7);
    power::PackedRunOptions popts;
    popts.maxCycles = kMaxCycles;
    for (unsigned l = 0; l < kLanes; ++l) {
        popts.portSchedules[l].resize(kScheduleLen);
        for (uint16_t &w : popts.portSchedules[l])
            w = rng.word();
    }

    // Warmup both paths (page in the netlist, stabilize the clock).
    {
        power::ConcreteRunOptions copts;
        copts.maxCycles = 500;
        copts.portSchedule = popts.portSchedules[0];
        power::runConcrete(sys, image, ctx, copts);
        power::PackedRunOptions wopts = popts;
        wopts.maxCycles = 500;
        power::runConcretePacked(sys, image, ctx, wopts);
    }

    // Scalar reference: the first kScalarLanes schedules, one run
    // each. These results double as the lane-identity check below.
    auto timeScalar = [&](std::vector<power::ConcreteRunResult> &refs) {
        Measurement m;
        auto t0 = std::chrono::steady_clock::now();
        for (unsigned l = 0; l < kScalarLanes; ++l) {
            power::ConcreteRunOptions copts;
            copts.maxCycles = kMaxCycles;
            copts.portSchedule = popts.portSchedules[l];
            refs[l] = power::runConcrete(sys, image, ctx, copts);
            m.patternCycles += refs[l].traceW.size();
        }
        m.sec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        return m;
    };
    // Packed batch: all 64 schedules in one sweep.
    auto timePacked = [&](power::PackedRunResult &pr) {
        Measurement m;
        auto t0 = std::chrono::steady_clock::now();
        pr = power::runConcretePacked(sys, image, ctx, popts);
        m.sec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        for (unsigned l = 0; l < kLanes; ++l)
            m.patternCycles += pr.lanes[l].traceW.size();
        return m;
    };

    std::vector<double> scalarRates, packedRates, scalarWalls,
        packedWalls;
    bench_util::PairedRatio ratio;
    Measurement scalar, packed;
    for (int i = 0; i < kPairs; ++i) {
        std::vector<power::ConcreteRunResult> refs(kScalarLanes);
        power::PackedRunResult pr;
        if (i % 2 == 0) {
            scalar = timeScalar(refs);
            packed = timePacked(pr);
        } else {
            packed = timePacked(pr);
            scalar = timeScalar(refs);
        }
        // Trust the timing only if the timed lanes are float-identical
        // to the timed scalar runs.
        for (unsigned l = 0; l < kScalarLanes; ++l) {
            if (refs[l].halted != pr.lanes[l].halted ||
                refs[l].traceW != pr.lanes[l].traceW ||
                refs[l].totalEnergyJ != pr.lanes[l].totalEnergyJ) {
                std::fprintf(stderr,
                             "FATAL: packed lane %u diverges from the "
                             "scalar run of the same schedule\n",
                             l);
                return 1;
            }
        }
        scalarRates.push_back(scalar.perPatternCyclesPerSec());
        packedRates.push_back(packed.perPatternCyclesPerSec());
        scalarWalls.push_back(scalar.sec);
        packedWalls.push_back(packed.sec);
        ratio.ratios.push_back(packed.perPatternCyclesPerSec() /
                               scalar.perPatternCyclesPerSec());
    }

    std::printf("%-16s %10s %16s %16s %9s\n", "workload", "lanes",
                "scalar pat-c/s", "packed pat-c/s", "ratio");
    std::printf("%-16s %7u/%2u %16.0f %16.0f %8.2fx\n", "stressmark",
                kScalarLanes, kLanes, bench_util::median(scalarRates),
                bench_util::median(packedRates), ratio.med());
    std::printf("packed/scalar ratio over %d alternating pairs: median "
                "%.2fx (min %.2fx, max %.2fx)\n",
                kPairs, ratio.med(), ratio.min(), ratio.max());

    char json[2048];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"bench\": \"packed_sim\",\n"
        "  \"workload\": {\n"
        "    \"description\": \"GA stressmark (population 8, "
        "generations 3, evalCycles 400) run concretely under %u-word "
        "random port schedules, max %llu cycles per pattern\",\n"
        "    \"scalar_reference_patterns\": %u,\n"
        "    \"packed_lanes\": %u\n"
        "  },\n"
        "  \"host_cpus\": %u,\n"
        "  \"methodology\": \"scalar = power::runConcrete once per "
        "schedule, sequentially; packed = one "
        "power::runConcretePacked sweep carrying all 64 schedules; "
        "per-pattern cycles/sec = sum of recorded per-lane trace "
        "cycles / wall seconds; the two are timed in %d alternating "
        "pairs, walls and rates are medians and the ratio is the "
        "median per-pair ratio; the timed packed lanes are checked "
        "float-identical to the timed scalar runs in every pair\",\n"
        "  \"scalar\": {\"pattern_cycles\": %llu, \"wall_s\": %.4f, "
        "\"pattern_cycles_per_sec\": %.0f},\n"
        "  \"packed\": {\"pattern_cycles\": %llu, \"wall_s\": %.4f, "
        "\"pattern_cycles_per_sec\": %.0f},\n"
        "  \"per_pattern_throughput_ratio\": %.2f,\n"
        "  \"ratio_pairs\": {\"pairs\": %d, \"median\": %.2f, "
        "\"min\": %.2f, \"max\": %.2f}\n"
        "}\n",
        kScheduleLen, (unsigned long long)kMaxCycles, kScalarLanes,
        kLanes, std::thread::hardware_concurrency(), kPairs,
        (unsigned long long)scalar.patternCycles,
        bench_util::median(scalarWalls),
        bench_util::median(scalarRates),
        (unsigned long long)packed.patternCycles,
        bench_util::median(packedWalls),
        bench_util::median(packedRates), ratio.med(), kPairs,
        ratio.med(), ratio.min(), ratio.max());

    std::ofstream out(bench_util::outDir() + "BENCH_packed_sim.json");
    out << json;
    std::printf("wrote %sBENCH_packed_sim.json\n",
                bench_util::outDir().c_str());

    if (min_ratio > 0.0 && ratio.med() < min_ratio) {
        std::fprintf(stderr,
                     "FATAL: median per-pattern throughput ratio %.2fx "
                     "is below the required %.2fx\n",
                     ratio.med(), min_ratio);
        return 1;
    }
    return 0;
}
