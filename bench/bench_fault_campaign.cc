/**
 * @file
 * Microbenchmark of the SEU campaign engines: faulted-run
 * injections/sec of fault::runFaultedPacked (64 faulted lockstep runs
 * per PackedSimulator sweep) against the scalar fault::runFaulted
 * path run injection-by-injection, on the bench430 `mult` benchmark
 * with its campaign-style folded input set. Asserts that the timed
 * packed lanes classify bit-identically to the timed scalar runs
 * before trusting the numbers, prints the throughput row, and drops
 * machine-readable results in bench_out/BENCH_fault_campaign.json
 * (the checked-in BENCH_fault_campaign.json at the repository root
 * is a copy).
 *
 * The two engines are timed in at least five alternating pairs (the
 * order flips every pair) and the reported ratio is the median of the
 * per-pair ratios, printed with its min/max.
 * `bench_fault_campaign --min-ratio R` additionally exits 1 if that
 * median falls below R; CI runs it with a conservative floor.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "bench430/benchmarks.hh"
#include "fault/fault.hh"
#include "fuzz/rng.hh"

namespace ulpeak {
namespace {

constexpr unsigned kLanes = PackedSimulator::kLanes;
constexpr unsigned kScalarRuns = 8; ///< scalar reference subset
constexpr int kPairs = 5; ///< alternating scalar/packed timings

struct Measurement {
    double sec = 0.0;
    uint64_t injections = 0;
    uint64_t gateCycles = 0;
    double injectionsPerSec() const
    {
        return sec > 0 ? double(injections) / sec : 0.0;
    }
};

/** The `mult` image with one deterministic concrete input set folded
 *  in (its inputs live in uninitialized RAM, which would diverge the
 *  golden lockstep) -- the same folding `ulfault` performs. */
isa::Image
multImage(uint16_t &port)
{
    for (const bench430::Benchmark &b : bench430::allBenchmarks()) {
        if (std::string(b.name) != "mult")
            continue;
        fuzz::Rng rng(fuzz::Rng::deriveStream(7, 3ull << 40));
        baseline::InputSet in = b.makeInput(rng);
        isa::Image image = isa::assemble(b.source);
        for (auto &[addr, words] : in.ram)
            image.segments.push_back({addr, words});
        if (b.usesPort)
            port = in.portIn;
        return image;
    }
    std::fprintf(stderr, "FATAL: no bench430 benchmark named mult\n");
    std::exit(1);
}

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
            std::fprintf(
                stderr,
                "usage: bench_fault_campaign [--min-ratio R]\n");
            return 2;
        }
    }

    bench_util::printHeader("fault campaign: 64-lane packed vs "
                            "scalar faulted injections/sec");

    msp::System sys(CellLibrary::tsmc65Like());
    uint16_t port = 0;
    isa::Image image = multImage(port);
    power::PowerContext ctx(sys.netlist(), bench_util::kFreq65);

    cosim::Options gopts;
    gopts.portIn = port;
    cosim::Result golden = cosim::run(sys, image, gopts);
    if (!golden.ok) {
        std::fprintf(stderr, "FATAL: golden run diverges:\n%s",
                     golden.report().c_str());
        return 1;
    }

    fault::RunOptions ropts;
    ropts.maxCycles = 4 * golden.gateCycles + 64;
    ropts.portIn = port;
    ropts.powerCtx = &ctx;

    // 64 distinct injections: random flop sites, random cycles of the
    // golden execution (the campaign's workload shape).
    std::vector<fault::Site> sites = fault::flopSites(sys.netlist());
    fuzz::Rng rng(7);
    std::array<std::vector<fault::Injection>, kLanes> lanes;
    for (unsigned l = 0; l < kLanes; ++l) {
        fault::Injection inj;
        inj.site = sites[rng.below(unsigned(sites.size()))];
        inj.cycle = rng.below(unsigned(golden.gateCycles));
        lanes[l].push_back(inj);
    }

    // Warmup both paths (page in the netlist, stabilize the clock).
    {
        fault::RunOptions wopts = ropts;
        wopts.maxCycles = golden.gateCycles / 2;
        fault::runFaulted(sys, image, lanes[0], wopts);
        std::array<std::vector<fault::Injection>, kLanes> wl = lanes;
        fault::runFaultedPacked(sys, image, wl, wopts);
    }

    // Scalar reference: the first kScalarRuns injections, one faulted
    // lockstep run each. These double as the identity check below.
    auto timeScalar = [&](std::vector<fault::FaultResult> &refs) {
        Measurement m;
        auto t0 = std::chrono::steady_clock::now();
        for (unsigned l = 0; l < kScalarRuns; ++l) {
            refs[l] = fault::runFaulted(sys, image, lanes[l], ropts);
            m.gateCycles += refs[l].gateCycles;
        }
        m.sec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        m.injections = kScalarRuns;
        return m;
    };
    // Packed batch: all 64 faulted runs in one sweep.
    auto timePacked = [&](std::array<fault::FaultResult, kLanes> &pr) {
        Measurement m;
        auto t0 = std::chrono::steady_clock::now();
        pr = fault::runFaultedPacked(sys, image, lanes, ropts);
        m.sec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        m.injections = kLanes;
        for (unsigned l = 0; l < kLanes; ++l)
            m.gateCycles += pr[l].gateCycles;
        return m;
    };

    std::vector<double> scalarRates, packedRates, scalarWalls,
        packedWalls;
    bench_util::PairedRatio ratio;
    Measurement scalar, packed;
    for (int i = 0; i < kPairs; ++i) {
        std::vector<fault::FaultResult> refs(kScalarRuns);
        std::array<fault::FaultResult, kLanes> pr;
        if (i % 2 == 0) {
            scalar = timeScalar(refs);
            packed = timePacked(pr);
        } else {
            packed = timePacked(pr);
            scalar = timeScalar(refs);
        }
        // Trust the timing only if the timed lanes classify
        // identically to the timed scalar runs (outcome, divergence
        // anatomy, power).
        for (unsigned l = 0; l < kScalarRuns; ++l) {
            if (!refs[l].sameClassification(pr[l])) {
                std::fprintf(stderr,
                             "FATAL: packed lane %u classifies "
                             "differently from the scalar run of the "
                             "same injection (%s vs %s)\n",
                             l, fault::outcomeName(pr[l].outcome),
                             fault::outcomeName(refs[l].outcome));
                return 1;
            }
        }
        scalarRates.push_back(scalar.injectionsPerSec());
        packedRates.push_back(packed.injectionsPerSec());
        scalarWalls.push_back(scalar.sec);
        packedWalls.push_back(packed.sec);
        ratio.ratios.push_back(packed.injectionsPerSec() /
                               scalar.injectionsPerSec());
    }

    std::printf("%-16s %10s %16s %16s %9s\n", "workload", "inj",
                "scalar inj/s", "packed inj/s", "ratio");
    std::printf("%-16s %7u/%2u %16.1f %16.1f %8.2fx\n", "mult",
                kScalarRuns, kLanes, bench_util::median(scalarRates),
                bench_util::median(packedRates), ratio.med());
    std::printf("packed/scalar ratio over %d alternating pairs: median "
                "%.2fx (min %.2fx, max %.2fx)\n",
                kPairs, ratio.med(), ratio.min(), ratio.max());

    char json[2048];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"bench\": \"fault_campaign\",\n"
        "  \"workload\": {\n"
        "    \"description\": \"bench430 mult with a seed-derived "
        "folded input set; one random flop SEU per run at a random "
        "cycle of the %llu-cycle golden execution, power recording "
        "on\",\n"
        "    \"scalar_reference_injections\": %u,\n"
        "    \"packed_lanes\": %u\n"
        "  },\n"
        "  \"host_cpus\": %u,\n"
        "  \"methodology\": \"scalar = fault::runFaulted once per "
        "injection, sequentially; packed = one "
        "fault::runFaultedPacked sweep carrying all 64 injections; "
        "injections/sec = faulted lockstep runs / wall seconds; the "
        "two are timed in %d alternating pairs, walls and rates are "
        "medians and the ratio is the median per-pair ratio; the "
        "timed packed lanes are checked classification-identical "
        "(outcome, divergence cycle, instruction index, peak power "
        "float) to the timed scalar runs in every pair\",\n"
        "  \"scalar\": {\"injections\": %llu, \"gate_cycles\": %llu, "
        "\"wall_s\": %.4f, \"injections_per_sec\": %.1f},\n"
        "  \"packed\": {\"injections\": %llu, \"gate_cycles\": %llu, "
        "\"wall_s\": %.4f, \"injections_per_sec\": %.1f},\n"
        "  \"per_injection_throughput_ratio\": %.2f,\n"
        "  \"ratio_pairs\": {\"pairs\": %d, \"median\": %.2f, "
        "\"min\": %.2f, \"max\": %.2f}\n"
        "}\n",
        (unsigned long long)golden.gateCycles, kScalarRuns, kLanes,
        std::thread::hardware_concurrency(), kPairs,
        (unsigned long long)scalar.injections,
        (unsigned long long)scalar.gateCycles,
        bench_util::median(scalarWalls),
        bench_util::median(scalarRates),
        (unsigned long long)packed.injections,
        (unsigned long long)packed.gateCycles,
        bench_util::median(packedWalls),
        bench_util::median(packedRates), ratio.med(), kPairs,
        ratio.med(), ratio.min(), ratio.max());

    std::ofstream out(bench_util::outDir() +
                      "BENCH_fault_campaign.json");
    out << json;
    std::printf("wrote %sBENCH_fault_campaign.json\n",
                bench_util::outDir().c_str());

    if (min_ratio > 0.0 && ratio.med() < min_ratio) {
        std::fprintf(stderr,
                     "FATAL: median per-injection throughput ratio "
                     "%.2fx is below the required %.2fx\n",
                     ratio.med(), min_ratio);
        return 1;
    }
    return 0;
}
