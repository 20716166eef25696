/**
 * @file
 * Microbenchmark of the execution-tree exploration core: a
 * fork-heavy program (every round reads the X port and conditionally
 * bumps an accumulator, so path states stay distinct and the tree
 * grows quadratically in rounds) analyzed at 1..K worker threads.
 * Reports exploration wall time, forks (paths) per second and
 * simulated cycles per second per thread count, after checking that
 * every thread count reproduces the 1-thread peak numbers
 * bit-identically (the determinism contract timing must not skew).
 * Drops bench_out/BENCH_sym_explore.json (the checked-in
 * BENCH_sym_explore.json at the repository root additionally keeps
 * the pre-refactor shared-mutex baseline for the speedup claim).
 *
 * A packed-frontier section times the same exploration with
 * Frontier::Packed (the 64-lane batched sweep) against the
 * Frontier::Scalar engine at the same thread counts, after the same
 * bit-identity check, and reports the forks/sec ratio; an adaptive
 * section does the same for the default Frontier::Adaptive. At 1
 * thread the scalar, packed and adaptive runs are timed in rotating
 * rounds (at least five), and each ratio is the median of the
 * per-round ratios against the scalar run: adjacent runs see the same
 * host speed, so drift between the sections no longer moves the
 * ratios. Two optional CI gates turn measurements into pass/fail exit
 * codes, both over the two reference frontiers:
 *  --min-ratio X    fail unless the median 1-thread packed/scalar
 *                   forks/sec ratio reaches X;
 *  --min-scaling X  fail unless the largest measured thread count
 *                   scales at least Xx over 1 thread -- auto-skipped
 *                   (with a note) when the host has fewer than 4
 *                   CPUs, where scaling numbers are noise.
 *
 * Usage: bench_sym_explore [branch_rounds] [reps] [max_threads]
 *                          [--min-ratio X] [--min-scaling X]
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "bench430/benchmarks.hh"
#include "peak/peak_analysis.hh"

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
main(int argc, char **argv)
{
    using namespace ulpeak;
    unsigned positional[3] = {32, 3, 8};
    int npos = 0;
    double minRatio = 0.0, minScaling = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--min-ratio") && i + 1 < argc) {
            minRatio = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--min-scaling") &&
                   i + 1 < argc) {
            minScaling = std::atof(argv[++i]);
        } else if (npos < 3) {
            positional[npos++] = unsigned(std::atoi(argv[i]));
        }
    }
    unsigned rounds = positional[0];
    int reps = int(positional[1]);
    unsigned maxThreads = positional[2];
    unsigned hostCpus = std::thread::hardware_concurrency();

    bench_util::printHeader(
        "sym exploration core: fork throughput and thread scaling");

    msp::System sys(CellLibrary::tsmc65Like());
    isa::Image img = isa::assemble(bench430::forkStressSource(rounds));

    std::vector<unsigned> threadCounts;
    for (unsigned t = 1; t <= maxThreads; t *= 2)
        threadCounts.push_back(t);

    // Reference run: every other thread count and frontier must
    // reproduce these numbers bit for bit before its timing means
    // anything.
    peak::Options ref;
    ref.frontier = sym::Frontier::Scalar;
    peak::Report refRep = peak::analyze(sys, img, ref);
    if (!refRep.ok) {
        std::fprintf(stderr, "reference analysis failed: %s\n",
                     refRep.error.c_str());
        return 1;
    }
    std::printf("fork stress: %u rounds, %u paths, %" PRIu64
                " cycles, %u dedup merges\n",
                rounds, refRep.pathsExplored, refRep.totalCycles,
                refRep.dedupMerges);

    // Fork memory traffic: bytes the delta snapshots actually stored
    // vs what full copies at every fork would have stored.
    peak::Options fullSnap = ref;
    fullSnap.snapshotMode = sym::SnapshotMode::Full;
    peak::Report fullRep = peak::analyze(sys, img, fullSnap);
    double deltaRatio =
        refRep.snapshotBytesCopied
            ? double(refRep.snapshotBytesFull) /
                  double(refRep.snapshotBytesCopied)
            : 0.0;
    if (fullRep.peakPowerW != refRep.peakPowerW) {
        std::fprintf(stderr, "snapshot modes diverged\n");
        return 1;
    }
    std::printf("fork snapshots: delta %.2f MB vs full-copy %.2f MB "
                "(%.1fx less copied)\n\n",
                double(refRep.snapshotBytesCopied) / 1e6,
                double(refRep.snapshotBytesFull) / 1e6, deltaRatio);

    auto frontierName = [](const peak::Options &o) {
        switch (o.effectiveFrontier()) {
        case sym::Frontier::Scalar: return "scalar";
        case sym::Frontier::Adaptive: return "adaptive";
        case sym::Frontier::Packed: return "packed";
        }
        return "?";
    };
    // Every timed run must reproduce the reference numbers bit for
    // bit before its timing means anything.
    auto timed = [&](const peak::Options &opts, peak::Report &rep) {
        auto t0 = std::chrono::steady_clock::now();
        rep = peak::analyze(sys, img, opts);
        double wall = seconds(t0);
        if (!rep.ok || rep.peakPowerW != refRep.peakPowerW ||
            rep.peakEnergyJ != refRep.peakEnergyJ ||
            rep.npeJPerCycle != refRep.npeJPerCycle ||
            rep.pathsExplored != refRep.pathsExplored) {
            std::fprintf(stderr,
                         "%s threads=%u diverged from the 1-thread "
                         "scalar reference -- timing aborted\n",
                         frontierName(opts), opts.numThreads);
            std::exit(1);
        }
        return wall;
    };

    // 1 thread, scalar, packed and adaptive in rotating rounds (the
    // order shifts every round), feeding the tables' 1-thread rows
    // and the --min-ratio gate.
    enum { kScalar, kPacked, kAdaptive, kFrontiers };
    peak::Options opts1[kFrontiers] = {ref, ref, ref};
    opts1[kPacked].frontier = sym::Frontier::Packed;
    opts1[kAdaptive].frontier = sym::Frontier::Adaptive;
    int pairs = std::max(reps, 5);
    std::vector<double> walls1[kFrontiers];
    bench_util::PairedRatio pairRatios, adaptiveRatios;
    peak::Report reps1[kFrontiers];
    for (int i = 0; i < pairs; ++i) {
        double w[kFrontiers];
        for (int j = 0; j < kFrontiers; ++j) {
            int f = (i + j) % kFrontiers;
            w[f] = timed(opts1[f], reps1[f]);
            walls1[f].push_back(w[f]);
        }
        pairRatios.ratios.push_back(w[kScalar] / w[kPacked]);
        adaptiveRatios.ratios.push_back(w[kScalar] / w[kAdaptive]);
    }
    double ratio1t = pairRatios.med();

    std::printf("%-8s %10s %12s %12s %8s\n", "threads", "wall [s]",
                "forks/sec", "cycles/sec", "scaling");

    std::string json =
        "{\n  \"bench\": \"sym_explore\",\n"
        "  \"branch_rounds\": " + std::to_string(rounds) +
        ",\n  \"host_cpus\": " + std::to_string(hostCpus) +
        ",\n  \"paths\": " + std::to_string(refRep.pathsExplored) +
        ",\n  \"total_cycles\": " +
        std::to_string(refRep.totalCycles) +
        ",\n  \"reps\": " + std::to_string(reps) +
        ",\n  \"snapshot_bytes_delta\": " +
        std::to_string(refRep.snapshotBytesCopied) +
        ",\n  \"snapshot_bytes_full\": " +
        std::to_string(refRep.snapshotBytesFull) +
        ",\n  \"runs\": [\n";

    double wall1 = 0.0;
    bool first = true;
    std::vector<std::pair<unsigned, double>> scalarWalls;
    for (unsigned t : threadCounts) {
        peak::Options opts = ref;
        opts.numThreads = t;
        double best = 1e9;
        peak::Report rep;
        if (t == 1)
            best = *std::min_element(walls1[kScalar].begin(),
                                     walls1[kScalar].end());
        else
            for (int rep_i = 0; rep_i < reps; ++rep_i)
                best = std::min(best, timed(opts, rep));
        if (t == 1)
            wall1 = best;
        scalarWalls.emplace_back(t, best);
        double forksPerSec = double(refRep.pathsExplored) / best;
        double cyclesPerSec = double(refRep.totalCycles) / best;
        std::printf("%-8u %10.3f %12.0f %12.0f %7.2fx\n", t, best,
                    forksPerSec, cyclesPerSec, wall1 / best);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"threads\": %u, \"wall_s\": %.4f, "
                      "\"forks_per_sec\": %.0f, \"cycles_per_sec\": "
                      "%.0f, \"scaling_vs_1t\": %.3f}",
                      t, best, forksPerSec, cyclesPerSec,
                      wall1 / best);
        json += std::string(first ? "" : ",\n") + buf;
        first = false;
    }
    json += "\n  ],\n";

    // Packed and adaptive sections: the same exploration drained
    // through the 64-lane batched sweep always, or while two or more
    // paths wait; same bit-identity bar, reported as a forks/sec
    // ratio against the scalar engine at the same thread count.
    auto section = [&](int f, const char *title,
                       const bench_util::PairedRatio &ratios1) {
        std::printf("\n%s:\n", title);
        std::printf("%-8s %10s %12s %10s %10s\n", "threads", "wall [s]",
                    "forks/sec", "occupancy", "vs scalar");
        json += std::string("  \"") + frontierName(opts1[f]) +
                "\": [\n";
        bool firstRow = true;
        for (unsigned t : threadCounts) {
            if (t > 2 && t != threadCounts.back())
                continue; // 1, 2 and the widest point tell the story
            peak::Options opts = opts1[f];
            opts.numThreads = t;
            double best = 1e9;
            peak::Report rep = reps1[f];
            if (t == 1)
                best = *std::min_element(walls1[f].begin(),
                                         walls1[f].end());
            else
                for (int rep_i = 0; rep_i < reps; ++rep_i)
                    best = std::min(best, timed(opts, rep));
            double scalarBest = 0.0;
            for (auto &sw : scalarWalls)
                if (sw.first == t)
                    scalarBest = sw.second;
            double forksPerSec = double(rep.pathsExplored) / best;
            double ratio = t == 1 ? ratios1.med() : scalarBest / best;
            double occupancy =
                rep.packedSweeps
                    ? double(rep.packedLaneCycles) /
                          (64.0 * double(rep.packedSweeps))
                    : 0.0;
            std::printf("%-8u %10.3f %12.0f %9.1f%% %9.2fx\n", t, best,
                        forksPerSec, 100.0 * occupancy, ratio);
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "    {\"threads\": %u, \"wall_s\": %.4f, "
                          "\"forks_per_sec\": %.0f, \"lane_occupancy\": "
                          "%.3f, \"ratio_vs_scalar\": %.3f}",
                          t, best, forksPerSec, occupancy, ratio);
            json += std::string(firstRow ? "" : ",\n") + buf;
            firstRow = false;
        }
        json += "\n  ],\n";
        std::printf("1-thread %s/scalar ratio over %d rotating rounds: "
                    "median %.2fx (min %.2fx, max %.2fx)\n",
                    frontierName(opts1[f]), pairs, ratios1.med(),
                    ratios1.min(), ratios1.max());
    };
    section(kPacked, "packed frontier (64-lane batched sweeps)",
            pairRatios);
    section(kAdaptive,
            "adaptive frontier (packed while two or more paths wait)",
            adaptiveRatios);
    auto pairJson = [&](const char *name,
                        const bench_util::PairedRatio &r) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "  \"%s\": {\"pairs\": %d, \"median\": %.3f, "
                      "\"min\": %.3f, \"max\": %.3f}",
                      name, pairs, r.med(), r.min(), r.max());
        return std::string(buf);
    };
    json += pairJson("ratio_1t_pairs", pairRatios) + ",\n" +
            pairJson("adaptive_ratio_1t_pairs", adaptiveRatios) + "\n}\n";

    std::ofstream(bench_util::outDir() + "BENCH_sym_explore.json")
        << json;
    std::printf("\nwrote %sBENCH_sym_explore.json\n",
                bench_util::outDir().c_str());

    if (minRatio > 0.0 && ratio1t < minRatio) {
        std::fprintf(stderr,
                     "FAIL: median packed/scalar forks/sec ratio %.2fx "
                     "at 1 thread below the --min-ratio gate %.2fx\n",
                     ratio1t, minRatio);
        return 1;
    }
    if (minScaling > 0.0) {
        if (hostCpus < 4) {
            std::printf("--min-scaling gate skipped: host has %u "
                        "CPUs (< 4), scaling numbers are noise\n",
                        hostCpus);
        } else {
            unsigned gateT = 1;
            double gateWall = wall1;
            for (auto &sw : scalarWalls)
                if (sw.first <= hostCpus && sw.first > gateT) {
                    gateT = sw.first;
                    gateWall = sw.second;
                }
            double scaling = gateWall > 0.0 ? wall1 / gateWall : 0.0;
            if (scaling < minScaling) {
                std::fprintf(stderr,
                             "FAIL: %u-thread scaling %.2fx below "
                             "the --min-scaling gate %.2fx\n",
                             gateT, scaling, minScaling);
                return 1;
            }
            std::printf("--min-scaling gate: %.2fx at %u threads "
                        ">= %.2fx\n", scaling, gateT, minScaling);
        }
    }
    return 0;
}
