/**
 * @file
 * The benchmark suite of Table 4.1: embedded sensor benchmarks (mult,
 * binSearch, tea8, intFilt, tHold, div, inSort, rle, intAVG), EEMBC
 * kernels (autoCorr, FFT, ConvEn, Viterbi) and the PI controller --
 * all hand-written in MSP430 assembly for this repository's core
 * (DESIGN.md documents the substitution of compiled C sources).
 *
 * Inputs live in an uninitialized RAM window (and/or the input port):
 * the symbolic engine automatically treats them as X; the profiling
 * baseline loads concrete values generated by Benchmark::makeInput.
 * Workload sizes are scaled to keep single-machine symbolic analysis
 * in seconds per benchmark (DESIGN.md section 2).
 */

#ifndef ULPEAK_BENCH430_BENCHMARKS_HH
#define ULPEAK_BENCH430_BENCHMARKS_HH

#include <string>
#include <vector>

#include "baseline/baselines.hh"
#include "fuzz/rng.hh"
#include "isa/assembler.hh"

namespace ulpeak {
namespace bench430 {

/** RAM addresses shared by all benchmarks. */
constexpr uint32_t kInputAddr = 0x0380;  ///< X region (input data)
constexpr uint32_t kOutputAddr = 0x0500; ///< results
constexpr uint32_t kScratchAddr = 0x0440; ///< working arrays

struct Benchmark {
    std::string name;
    std::string source;     ///< complete assembly (org, vector, halt)
    uint32_t inputAddr = kInputAddr;
    unsigned inputWords = 0;
    uint16_t inputMask = 0xffff; ///< value domain per input word
    bool usesPort = false;
    uint16_t portMask = 0xffff;
    /** Scratch register the OPT1 rewrite may allocate ("" = none). */
    std::string scratchReg;

    /** Generate one concrete input set for profiling runs. The shared
     *  deterministic PRNG (fuzz/rng.hh) keeps generated inputs
     *  identical across platforms and standard libraries. */
    baseline::InputSet makeInput(fuzz::Rng &rng) const;
    /** Convenience: @p n independent input sets from @p seed. */
    std::vector<baseline::InputSet> makeInputs(unsigned n,
                                               uint32_t seed) const;

    isa::Image assembleImage() const;
};

/** All 14 benchmarks, in the paper's Figure 5.1 order. */
const std::vector<Benchmark> &allBenchmarks();

/** Lookup by name; throws std::out_of_range if unknown. */
const Benchmark &benchmarkByName(const std::string &name);

/** Names of all registered benchmarks, in allBenchmarks() order (the
 *  registry the `ulpeak` CLI resolves `--programs all` against). */
const std::vector<std::string> &allBenchmarkNames();

/**
 * Wrap a benchmark body in the standard environment: symbol
 * definitions (WDTCTL, MPY, ...), stack/watchdog/SR setup, the DONE
 * halt and the reset vector. Bodies start executing at `start`.
 */
std::string wrapBenchmarkBody(const std::string &body);

/**
 * The fork stressmark of bench_sym_explore: @p rounds port-dependent
 * branches over a live accumulator. After round i the accumulator
 * holds one of i+1 values, so states neither explode exponentially
 * nor collapse into one: the exploration tree has ~rounds^2/2 nodes,
 * each a few cycles long -- the worst case for fork (snapshot +
 * dedup) throughput and a wide frontier for the packed lanes.
 */
std::string forkStressSource(unsigned rounds);

/// @name Raw benchmark bodies (programs.cc / programs2.cc)
/// @{
std::string multBody();
std::string binSearchBody();
std::string tea8Body();
std::string intFiltBody();
std::string tHoldBody();
std::string divBody();
std::string inSortBody();
std::string rleBody();
std::string intAvgBody();
std::string autoCorrBody();
std::string fftBody();
std::string convEnBody();
std::string viterbiBody();
std::string piBody();
/// @}

} // namespace bench430
} // namespace ulpeak

#endif // ULPEAK_BENCH430_BENCHMARKS_HH
