/**
 * @file
 * Shared plumbing for the experiment-regeneration binaries: one
 * binary per table/figure of the paper (see DESIGN.md experiment
 * index). Binaries print the same rows/series the paper reports and
 * drop plot-ready CSVs under bench_out/.
 */

#ifndef ULPEAK_BENCH_BENCH_UTIL_HH
#define ULPEAK_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench430/benchmarks.hh"
#include "msp/cpu.hh"

namespace ulpeak {
namespace bench_util {

constexpr double kFreq65 = 100e6; ///< openMSP430-like operating point
constexpr double kFreq1610 = 8e6; ///< MSP430F1610 measurement setup

inline std::string
outDir()
{
    std::filesystem::create_directories("bench_out");
    return "bench_out/";
}

inline void
printHeader(const std::string &title)
{
    std::printf("==== %s ====\n", title.c_str());
}

/** Geometric-mean style average of ratios, reported as "% lower". */
inline double
avgPctLower(const std::vector<double> &ours,
            const std::vector<double> &baseline)
{
    double sum = 0.0;
    for (size_t i = 0; i < ours.size(); ++i)
        sum += 1.0 - ours[i] / baseline[i];
    return 100.0 * sum / double(ours.size());
}

/** Median of @p v (mean of the middle two for even sizes). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * A ratio measured as alternating (A, B) pairs -- the order flips
 * every pair, so adjacent runs see the same host speed and drift
 * between phases does not move the ratio. The gate reads the median
 * of the per-pair ratios; min/max report the spread.
 */
struct PairedRatio {
    std::vector<double> ratios;

    double med() const { return median(ratios); }
    double
    min() const
    {
        return *std::min_element(ratios.begin(), ratios.end());
    }
    double
    max() const
    {
        return *std::max_element(ratios.begin(), ratios.end());
    }
};

} // namespace bench_util
} // namespace ulpeak

#endif // ULPEAK_BENCH_BENCH_UTIL_HH
