/**
 * @file
 * Microbenchmark of the simulation kernels: full-sweep vs.
 * event-driven cycles/second on the GA stressmark (the adversarial
 * high-activity workload) and on bench430 programs, under both a
 * concrete-input driver and the symbolic all-X port driver.
 *
 * Every run starts from the post-reset state and ends at a halt or at
 * the first cycle whose program counter is not concrete, then
 * restarts from reset: exploration never simulates past an X program
 * counter (it forks there), so timing the all-X machine beyond it
 * would measure a workload no analysis runs. The two kernels are
 * timed in at least five alternating pairs per workload; the table
 * reports median cycles/sec and the median per-pair speedup with its
 * min/max. Before any timing is trusted, every run's per-cycle
 * actual and bound energies must be bit-identical between the two
 * kernels. Drops machine-readable results in
 * bench_out/BENCH_sim_kernel.json (the checked-in
 * BENCH_sim_kernel.json at the repository root is a copy).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/baselines.hh"
#include "bench/bench_util.hh"
#include "bench430/benchmarks.hh"
#include "power/analysis.hh"

namespace ulpeak {
namespace {

struct Workload {
    std::string name;
    isa::Image image;
    power::RamInit ram;
    bool portX = false; ///< drive the port all-X (symbolic prefix)
};

struct Measurement {
    double cyclesPerSec = 0.0;
    uint64_t cycles = 0;
    uint64_t runs = 0;
    /** Per-cycle actual and bound energies, in order: the kernel
     *  identity check compares these exactly. */
    std::vector<double> energies;
};

Measurement
runKernel(msp::System &sys, const Workload &w, EvalMode mode,
          uint64_t target_cycles)
{
    sys.memory().reset();
    sys.loadImage(w.image);
    for (auto &[addr, words] : w.ram)
        sys.memory().loadRam(addr, words);
    sys.clearHalted();
    Simulator sim(sys.netlist(), mode);
    sys.attach(sim);
    sys.reset(sim);
    // Restarting = restoring the post-reset state, as the exploration
    // engine restores its snapshots.
    const Simulator::Snapshot simReset = sim.snapshot();
    const msp::System::Snapshot sysReset = sys.snapshot();
    const std::vector<GateId> &pc = sys.handles().pc;
    Word16 port = w.portX ? Word16::allX() : Word16::known(0x5a5a);

    Measurement m;
    m.energies.reserve(2 * target_cycles);
    auto t0 = std::chrono::steady_clock::now();
    while (m.cycles < target_cycles) {
        sim.restore(simReset);
        sys.restore(sysReset);
        ++m.runs;
        while (m.cycles < target_cycles) {
            sim.step([&](Simulator &s) { sys.driveCycle(s, port); });
            m.energies.push_back(sim.actualEnergyJ());
            m.energies.push_back(sim.boundEnergyJ());
            ++m.cycles;
            if (sys.halted() || !sim.readBus(pc).isFullyKnown())
                break;
        }
    }
    double sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    m.cyclesPerSec = sec > 0 ? double(m.cycles) / sec : 0.0;
    return m;
}

} // namespace
} // namespace ulpeak

int
main()
{
    using namespace ulpeak;
    bench_util::printHeader(
        "sim kernel: full-sweep vs event-driven cycles/sec");

    msp::System sys(CellLibrary::tsmc65Like());

    // The paper's adversarial workload: a GA-evolved power stressmark
    // (small search; the winner is representative high-activity code).
    baseline::StressmarkConfig scfg;
    scfg.population = 8;
    scfg.generations = 3;
    scfg.evalCycles = 400;
    baseline::StressmarkResult sm =
        baseline::generateStressmark(sys, bench_util::kFreq65, scfg);

    fuzz::Rng rng(7);
    std::vector<Workload> workloads;
    workloads.push_back({"stressmark", isa::assemble(sm.bestSource),
                         {}, false});
    for (const char *name : {"mult", "binSearch", "FFT"}) {
        const bench430::Benchmark &b = bench430::benchmarkByName(name);
        baseline::InputSet in = b.makeInput(rng);
        workloads.push_back(
            {b.name, b.assembleImage(), in.ram, false});
        workloads.push_back(
            {b.name + "/x-port", b.assembleImage(), in.ram, true});
    }

    constexpr uint64_t kWarmup = 2000;
    constexpr uint64_t kMeasure = 10000;
    constexpr int kPairs = 5;
    unsigned hostCpus = std::thread::hardware_concurrency();

    std::string json = "{\n  \"bench\": \"sim_kernel\",\n"
                       "  \"host_cpus\": " +
                       std::to_string(hostCpus) +
                       ",\n  \"target_cycles\": " +
                       std::to_string(kMeasure) +
                       ",\n  \"pairs\": " + std::to_string(kPairs) +
                       ",\n  \"methodology\": \"each run restarts "
                       "from the post-reset snapshot and ends at a "
                       "halt or the first non-concrete PC; full sweep "
                       "and event-driven are timed in alternating "
                       "pairs, cycles/sec are medians, speedup is the "
                       "median per-pair ratio; per-cycle energies are "
                       "checked bit-identical before timing is "
                       "reported\",\n  \"workloads\": [\n";
    std::printf("%-16s %6s %14s %14s %9s %17s\n", "workload",
                "runs", "fullsweep c/s", "event c/s", "speedup",
                "(min..max)");
    bool first = true;
    for (const Workload &w : workloads) {
        runKernel(sys, w, EvalMode::FullSweep, kWarmup);
        runKernel(sys, w, EvalMode::EventDriven, kWarmup);
        std::vector<double> fsRate, evRate;
        bench_util::PairedRatio speedup;
        uint64_t runs = 0;
        for (int i = 0; i < kPairs; ++i) {
            Measurement fs, ev;
            if (i % 2 == 0) {
                fs = runKernel(sys, w, EvalMode::FullSweep, kMeasure);
                ev = runKernel(sys, w, EvalMode::EventDriven, kMeasure);
            } else {
                ev = runKernel(sys, w, EvalMode::EventDriven, kMeasure);
                fs = runKernel(sys, w, EvalMode::FullSweep, kMeasure);
            }
            if (fs.energies != ev.energies) {
                std::fprintf(stderr,
                             "FATAL: kernel energy mismatch on %s\n",
                             w.name.c_str());
                return 1;
            }
            fsRate.push_back(fs.cyclesPerSec);
            evRate.push_back(ev.cyclesPerSec);
            speedup.ratios.push_back(ev.cyclesPerSec / fs.cyclesPerSec);
            runs = ev.runs;
        }
        double fsMed = bench_util::median(fsRate);
        double evMed = bench_util::median(evRate);
        std::printf("%-16s %6llu %14.0f %14.0f %8.2fx %7.2fx..%.2fx\n",
                    w.name.c_str(), (unsigned long long)runs, fsMed,
                    evMed, speedup.med(), speedup.min(), speedup.max());
        if (!first)
            json += ",\n";
        first = false;
        char row[384];
        std::snprintf(row, sizeof(row),
                      "    {\"name\": \"%s\", \"runs\": %llu, "
                      "\"fullsweep_cycles_per_sec\": %.0f, "
                      "\"event_cycles_per_sec\": %.0f, "
                      "\"speedup\": %.2f, \"speedup_min\": %.2f, "
                      "\"speedup_max\": %.2f}",
                      w.name.c_str(), (unsigned long long)runs, fsMed,
                      evMed, speedup.med(), speedup.min(),
                      speedup.max());
        json += row;
    }
    json += "\n  ]\n}\n";

    std::ofstream out(bench_util::outDir() + "BENCH_sim_kernel.json");
    out << json;
    std::printf("wrote %sBENCH_sim_kernel.json\n",
                bench_util::outDir().c_str());
    return 0;
}
