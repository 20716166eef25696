/**
 * @file
 * The benchmark's workloads (suite-cold, suite-warm, fork-wide,
 * fault-campaign), each a closed loop with one client driving
 * ulpeak's public library API, and the per-layer probes of the
 * traced run.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "peak/batch.hh"

namespace perfbench {

/** Command-line configuration of one benchmark process. */
struct RunConfig {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;    ///< scratch directory inside the checkout
    std::string goldenPath; ///< golden digest file
};

/** Golden digests: "<workload> <key> <hex digest>" lines. */
class Golden {
  public:
    static Golden load(const std::string &path);
    /** Digest stored under (@p workload, @p key), if any. */
    bool get(const std::string &workload, const std::string &key,
             uint64_t &out) const;

  private:
    std::map<std::string, uint64_t> entries_;
};

/** Outcome of one timed iteration. */
struct IterStats {
    double wallS = 0.0;          ///< timed region only
    uint64_t cycles = 0;         ///< simulated cycles of the iteration
    uint64_t workUnits = 0;      ///< items_per_s numerator
    uint64_t items = 0;          ///< attempted analyses/explorations/injections
    uint64_t failed = 0;         ///< failed or digest-mismatched items
    std::vector<double> itemLatencyS; ///< per-analysis wall times
    size_t slice = 0;            ///< which part of the rotation ran
    /// Traced: seconds the iteration's layer calls take when replayed
    /// one public call at a time right after it (trace.coverage).
    double layerS = 0.0;
};

class Workload {
  public:
    virtual ~Workload() = default;
    /** Build everything the iterations reuse (library, programs,
     *  scenarios). Timed as setup_s; may run several times. */
    virtual void setup(Tracer *tr) = 0;
    /** Resolve the expected digests: from the golden file when it
     *  holds this seed, else from the reference configuration; fill
     *  the suite-warm cache when it is empty. Not part of setup_s or
     *  of any timed region. */
    virtual void prepare(const Golden &golden) = 0;
    /** The expected digests prepare() resolved, as golden-file lines,
     *  so a separate measured process can load them. */
    virtual std::vector<std::string> expectedLines() const = 0;
    /** Iterations in one rotation: iteration n runs part n % period()
     *  of the workload (IterStats::slice), so a rotation does the whole
     *  workload once. */
    virtual size_t period() const { return 1; }
    /** One timed iteration, then its untimed verification; when
     *  traced, then an untimed replay of the iteration's layer calls
     *  (IterStats::layerS). */
    virtual IterStats iterate(Tracer *tr) = 0;
    /** Traced run: per-layer metrics of this workload (probes of
     *  each layer on this workload's inputs, plus counters of the
     *  traced iterations and their replays). Metrics of layers the
     *  workload never enters keep their zero defaults. */
    virtual void layers(Metrics &m, Tracer *tr) = 0;
    /** After prepare() with an empty golden file (so the expected
     *  digests come from the reference configuration): run the
     *  default configuration once and throw unless it agrees. For the
     *  fault campaign the check is the full scalar runner against the
     *  expected packed rows. */
    virtual void crossCheck() = 0;

    /** Self-test: re-verify the last iteration against the expected
     *  digests with one bit flipped; returns the failed item count. */
    uint64_t
    perturbedFailures()
    {
        expected_.at(0) ^= 1;
        uint64_t f = verify();
        expected_[0] ^= 1;
        return f;
    }

  protected:
    /** Items of the last iteration that failed or mismatch expected_. */
    virtual uint64_t verify() const = 0;

    std::vector<uint64_t> expected_; ///< digests the results must match
};

std::unique_ptr<Workload> makeWorkload(const RunConfig &cfg);

/// @name Inputs shared by the workloads and the knob ledger
/// @{
unsigned defaultThreads();
/** The seeded fork stressmark source (64 rounds; see workloads.cc). */
std::string forkWideSource(uint64_t seed, unsigned rounds = 64);
/** Suite-wide analysis options of the suite-* workloads. */
ulpeak::peak::BatchOptions suiteOptions(uint64_t seed);
/// @}

/** The per-layer metric names and units, all zero-initialized. */
void initLayerMetrics(Metrics &m);

/** Traced campaigns of the fault ledger. */
constexpr int kFaultLedgerIterations = 3;

/** cosim.* and fault.*: the fault-campaign workload's traced iteration
 *  (campaign, verification, replay), kFaultLedgerIterations times after
 *  one untraced one, on
 *  the seed of @p cfg. Gives the layers of that workload, which is not
 *  gated, in every traced run; returns the items attempted / failed. */
IterStats faultLedger(Metrics &m, Tracer *tr, RunConfig cfg,
                      const Golden &golden);

/** knob.* metrics: wall with each knob on / off on the unconstrained
 *  slice of suite-cold and on fork-wide, plus report identity, and
 *  sym.packed_occupancy of the packed fork-wide run. */
void knobLedger(Metrics &m, Tracer *tr, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
