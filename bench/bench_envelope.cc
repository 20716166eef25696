/**
 * @file
 * Microbenchmark of the peak-envelope subsystem: for a set of
 * bench430 programs, times peak::analyze with and without envelope
 * recording (the envelope adds a post-exploration tree walk, so the
 * interesting number is its overhead on top of exploration), checks
 * envelope/scalar consistency (max of the envelope must equal the
 * scalar peak bound, envelope length must cover the max-energy path)
 * before trusting any timing, and reports the profile-vs-point sizing
 * gap (sustained/window power vs point peak -- the quantity
 * envelope-driven sizing recovers). Drops bench_out/BENCH_envelope.json
 * (the checked-in BENCH_envelope.json at the repository root is a
 * copy).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "peak/peak_analysis.hh"
#include "sizing/sizing.hh"

namespace ulpeak {
namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace
} // namespace ulpeak

int
main()
{
    using namespace ulpeak;
    bench_util::printHeader(
        "peak envelope: overhead vs plain analyze, profile-vs-point "
        "sizing gap");

    msp::System sys(CellLibrary::tsmc65Like());

    const std::vector<std::string> names = {"mult", "tHold", "intAVG",
                                            "binSearch", "tea8"};
    constexpr int kReps = 3;

    std::printf("%-10s %10s %12s %9s %10s %11s %12s\n", "program",
                "env cycles", "analyze [s]", "+env [s]", "overhead",
                "peak [mW]", "sustain [mW]");

    std::string json =
        "{\n  \"bench\": \"envelope\",\n"
        "  \"host_cpus\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ",\n  \"reps\": " + std::to_string(kReps) +
        ",\n  \"programs\": [\n";
    bool first = true;
    for (const std::string &name : names) {
        isa::Image img =
            bench430::benchmarkByName(name).assembleImage();

        peak::Options plain;
        peak::Options withEnv;
        withEnv.recordEnvelope = true;

        // Warm up netlist/caches once, then take the best of kReps.
        peak::analyze(sys, img, plain);
        double tPlain = 1e9, tEnv = 1e9;
        peak::Report r;
        for (int rep = 0; rep < kReps; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            peak::Report a = peak::analyze(sys, img, plain);
            tPlain = std::min(tPlain, seconds(t0));
            t0 = std::chrono::steady_clock::now();
            r = peak::analyze(sys, img, withEnv);
            tEnv = std::min(tEnv, seconds(t0));
            if (!a.ok || !r.ok) {
                std::fprintf(stderr, "FATAL: analysis failed on %s\n",
                             name.c_str());
                return 1;
            }
        }

        // Consistency gates before any timing is trusted.
        double envPeak = r.envelope.peakPowerW();
        if (float(envPeak) != float(r.peakPowerW)) {
            std::fprintf(stderr,
                         "FATAL: envelope peak %.17g != scalar peak "
                         "%.17g on %s\n",
                         envPeak, r.peakPowerW, name.c_str());
            return 1;
        }
        if (r.envelope.cycles() < r.maxPathCycles) {
            std::fprintf(stderr,
                         "FATAL: envelope (%zu cycles) shorter than "
                         "the max-energy path (%llu) on %s\n",
                         r.envelope.cycles(),
                         (unsigned long long)r.maxPathCycles,
                         name.c_str());
            return 1;
        }

        double tclk = 1.0 / withEnv.freqHz;
        sizing::EnvelopeSupply es = sizing::sizeEnvelopeSupply(
            r.envelope.windows, r.envelope.peakWindowEnergyJ,
            envPeak, tclk, sys.netlist().library().vdd());
        double overheadPct =
            tPlain > 0 ? (tEnv / tPlain - 1.0) * 100.0 : 0.0;
        std::printf("%-10s %10zu %12.4f %9.4f %9.1f%% %10.3f %12.3f\n",
                    name.c_str(), r.envelope.cycles(), tPlain,
                    tEnv - tPlain, overheadPct, envPeak * 1e3,
                    es.sustainedPowerW * 1e3);

        char row[512];
        std::snprintf(
            row, sizeof(row),
            "    {\"name\": \"%s\", \"envelope_cycles\": %zu, "
            "\"analyze_sec\": %.6f, \"envelope_extra_sec\": %.6f, "
            "\"overhead_pct\": %.2f, \"peak_power_w\": %.9g, "
            "\"sustained_power_w\": %.9g}",
            name.c_str(), r.envelope.cycles(), tPlain, tEnv - tPlain,
            overheadPct, envPeak, es.sustainedPowerW);
        json += (first ? "" : ",\n");
        json += row;
        first = false;
    }
    json += "\n  ]\n}\n";

    std::ofstream out(bench_util::outDir() + "BENCH_envelope.json");
    out << json;
    std::printf("wrote %sBENCH_envelope.json\n",
                bench_util::outDir().c_str());
    return 0;
}
