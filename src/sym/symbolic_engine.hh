/**
 * @file
 * The input-independent gate activity analysis of Algorithm 1 and the
 * per-cycle peak assignment of Algorithm 2, combined into one engine.
 *
 * The engine symbolically simulates an application binary on the
 * gate-level system: all peripheral port inputs are driven X each
 * cycle (Algorithm 1 line 11), uninitialized memory and registers are
 * X (line 2), and when the next program-counter value is unknown the
 * execution forks into one path per feasible target (lines 17-24)
 * with duplicate states pruned by hashing (line 19). Every simulated
 * cycle is annotated with its maximum-power X assignment -- the
 * online equivalent of the even/odd VCD construction; see
 * peak/even_odd.hh for the literal file-based flow and the test that
 * proves the equivalence.
 *
 * Forks are O(dirtied-state): at each branch the engine captures a
 * delta snapshot (only the entries that changed since the state the
 * path restored from; Simulator::DeltaSnapshot) and restores instead
 * of re-executing the prefix, promoting to a fresh full snapshot
 * when a path has diverged too far from its base for the delta to
 * stay small. SymbolicConfig::snapshotMode forces full-copy
 * snapshots for comparison; both modes are bit-identical by
 * construction (restore(delta) == restore(materialize(delta))).
 *
 * Each worker runs its paths one at a time on the scalar Simulator
 * and, while two or more are waiting on its deque, up to 64 at a
 * time through the PackedSimulator's lanes (SymbolicConfig::frontier).
 *
 * With SymbolicConfig::numThreads > 1 independent execution-tree
 * branches are explored by a worker pool: each worker owns a private
 * work deque (newly forked children push to the owner; idle workers
 * steal from the oldest end of a victim's deque, where the largest
 * unexplored subtrees sit), and the visited-state dedup map is
 * sharded by key hash so concurrent forks only contend when they
 * collide on a shard; only tree-node allocation takes a global lock.
 * Per-cycle traces are buffered worker-locally and committed at
 * fork/leaf boundaries, and peak results merge deterministically
 * (the explored state set, every node's trace, and therefore peak
 * power, peak energy, NPE and the envelope are independent of thread
 * scheduling; only tree node numbering and the steal/per-worker
 * statistics vary).
 *
 * The inputs driven each cycle come from SymbolicConfig::scenario:
 * the default unconstrained scenario drives every port bit X
 * (Algorithm 1 line 11); a constrained scenario pins port bits
 * (statically or on a repeating per-cycle schedule, whose phase then
 * joins the dedup key) and can narrow the all-X initial memory and
 * registers, so the reported bounds cover exactly the executions the
 * deployment admits.
 */

#ifndef ULPEAK_SYM_SYMBOLIC_ENGINE_HH
#define ULPEAK_SYM_SYMBOLIC_ENGINE_HH

#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "msp/cpu.hh"
#include "power/power_model.hh"
#include "scenario/scenario.hh"
#include "sym/exec_tree.hh"

namespace ulpeak {
namespace sym {

/** Fork snapshot representation (results are identical in both). */
enum class SnapshotMode : uint8_t {
    Full,  ///< complete state copy at every fork (reference)
    Delta, ///< dirtied entries against a shared base (default)
};

/** How a worker drains its pending-path frontier (results are
 *  identical in all three). */
enum class Frontier : uint8_t {
    Scalar,   ///< one path at a time on the scalar Simulator (reference)
    Adaptive, ///< packed while two or more paths wait, else scalar
    Packed,   ///< always the 64-lane PackedSimulator (reference)
};

/**
 * The knobs of one analysis, documented here once for every layer:
 * peak::Options derives from this struct (adding only the envelope
 * window set), peak::BatchOptions::analysis and
 * fault::CampaignOptions are peak::Options, and the CLIs parse
 * straight into them.
 *
 * Result-affecting knobs -- freqHz, the three limits, the loop bound,
 * the scenario and recordEnvelope -- participate in the batch result
 * cache key (peak::cacheKey). The strategy knobs numThreads, evalMode,
 * snapshotMode and frontier (with its older spelling packedExplore)
 * never change a reported number, so they are left out of it and a
 * re-run under a different strategy still hits; so are the trace
 * flags recordActiveSets and recordModuleTrace, whose data is never
 * cached, and the no-op staticPrune. Only numThreads is a user
 * switch (`ulpeak --threads`); evalMode, snapshotMode and frontier
 * keep their reference settings for tests and benchmarks.
 */
struct SymbolicConfig {
    /** Clock frequency [Hz] converting per-cycle energy to power
     *  (`--freq`). */
    double freqHz = 100e6;
    /** Cycle budget over all paths: the run fails exactly when its
     *  (scheduling-independent) total cycle count exceeds this
     *  (`ulpeak --max-cycles`). */
    uint64_t maxTotalCycles = 3000000;
    /** Cycle limit of one path; a longer path fails the run (a
     *  missing halt or an unbounded loop). */
    uint64_t maxPathCycles = 100000;
    /** Execution-tree node limit; a larger tree fails the run. */
    uint32_t maxNodes = 300000;
    /** Combinational kernel used by the exploration simulators;
     *  both kernels give bit-identical reports (tests/test_benchmarks.cc
     *  across bench430). FullSweep is the reference oracle. */
    EvalMode evalMode = EvalMode::EventDriven;
    /**
     * Worker threads exploring independent execution-tree branches
     * (`--threads`; <= 1: sequential exploration on the calling
     * thread). Each extra worker elaborates its own System clone;
     * snapshots transfer between clones because netlist construction
     * is deterministic. Peak power/energy/NPE results are
     * scheduling-independent; node numbering inside the tree is not.
     *
     * This parallelizes *within* one application's analysis and is
     * orthogonal to the *program-level* sharding of a suite
     * (peak::BatchOptions::jobs in peak/batch.hh); the two compose,
     * and because results are scheduling-independent here and
     * programs are independent there, every (jobs, numThreads)
     * combination reports bit-identical numbers
     * (tests/test_symbolic.cc and tests/test_batch.cc pin the two
     * halves of that claim).
     */
    unsigned numThreads = 1;
    /** Record the union + peak-cycle sets of active gates
     *  (Figures 1.5 / 3.4). */
    bool recordActiveSets = false;
    /** Record per-cycle per-module power and instruction attribution
     *  (Figure 3.6 COI analysis). */
    bool recordModuleTrace = false;
    /** Compute the cycle-aligned peak power envelope over the whole
     *  execution tree (ExecTree::envelopePowerW) after exploration
     *  (`--envelope`). Derived from the tree's logical structure, so
     *  it is byte-identical under any numThreads / EvalMode. */
    bool recordEnvelope = false;
    /** Iteration bound applied to back-edges in the execution tree
     *  (`--loop-bound`; 0 = reject unbounded input-dependent loops). */
    unsigned inputDependentLoopBound = 0;
    /**
     * The environment the application is analyzed under: port-input
     * constraints (static or scheduled), initial-memory and
     * initial-register constraints. The default admits every
     * execution (all ports X -- the classic Algorithm 1 flow).
     * Results are bounds over exactly the scenario's executions and
     * can only tighten as constraints are added
     * (fuzz::scenarioDominanceCheck). Participates in the cache key
     * by content, not by name.
     */
    scenario::Scenario scenario;
    /** Fork snapshot form; Delta is the fast default, Full the
     *  reference. Never changes any reported number. */
    SnapshotMode snapshotMode = SnapshotMode::Delta;
    /** No effect. It once installed lint::analyzeConstants's
     *  constant cones as a simulator prune mask, which never showed
     *  a measured win; the field stays so existing callers that set
     *  it by name still compile. */
    bool staticPrune = false;
    /**
     * How each worker drains its pending paths. A worker holds
     * in-flight paths in slots -- one on the scalar Simulator, 64 on
     * the PackedSimulator's lanes, which advance together with one
     * level-bucketed packed sweep per cycle and are transposed back
     * to a scalar snapshot at their next fork / halt / dedup
     * boundary. The exploration loop is the same for both; only the
     * kernel calls differ.
     *
     * Adaptive (the default) chooses at every refill that finds all
     * slots free: packed while the worker's own deque holds two or
     * more pending paths, scalar otherwise, so single-path programs
     * never build the packed side and wide trees get the lanes.
     * Scalar and Packed pin one kernel and serve as the reference
     * oracles. Under EvalMode::FullSweep an Adaptive exploration
     * stays scalar, so FullSweep remains an all-scalar reference.
     *
     * Backed by the packed kernel's lane-identity invariant, every
     * reported number -- peak power, peak energy, NPE, envelope,
     * activity sets, path/merge/snapshot statistics -- is
     * bit-identical across the three, threads, kernels, snapshot
     * modes, scenarios and operating-mode schedules (fuzz `--mode
     * packed-sym` checks Adaptive and Packed against Scalar). Only the scheduling-dependent statistics (steals,
     * per-worker cycles, packed batch/occupancy counters) differ.
     */
    Frontier frontier = Frontier::Adaptive;
    /** Older spelling of frontier = Packed; when set it overrides
     *  frontier. */
    bool packedExplore = false;

    /** The frontier a run uses: packedExplore forces Packed, and an
     *  Adaptive run under EvalMode::FullSweep stays Scalar. */
    Frontier
    effectiveFrontier() const
    {
        if (packedExplore)
            return Frontier::Packed;
        if (frontier == Frontier::Adaptive &&
            evalMode == EvalMode::FullSweep)
            return Frontier::Scalar;
        return frontier;
    }
};

/**
 * What every layer reports about one analysis: the outcome, the
 * paper's bounds and the exploration statistics. SymbolicResult,
 * peak::Report and peak::ProgramResult derive from it and add only
 * their own members, so each layer hands the summary on with one
 * slice-move.
 */
struct Summary {
    bool ok = false;
    std::string error; ///< analysis error, or a batch skip reason

    /// @name The bounds
    /// @{
    double peakPowerW = 0.0;  ///< Section 3.2; Figure 5.1's X bars
    double peakEnergyJ = 0.0; ///< Section 3.3 bound
    /** Normalized peak energy [J/cycle] -- the NPE axis of the
     *  paper's Figures 2.2b / 4.1b / 5.2. */
    double npeJPerCycle = 0.0;
    uint64_t maxPathCycles = 0; ///< cycles of the peak-energy path
    /// @}

    /// @name Exploration statistics
    /// Scheduling-independent: totalCycles, pathsExplored,
    /// dedupMerges, snapshotBytesCopied/Full (every path captures
    /// the same snapshots whoever runs it). Scheduling-dependent
    /// (excluded from determinism comparisons, like timings):
    /// steals, perWorkerCycles, packedBatches, packedSweeps,
    /// packedLaneCycles. The batch cache stores only the first
    /// three; the rest read zero on a cache hit.
    /// @{
    uint64_t totalCycles = 0;
    uint32_t pathsExplored = 0;
    uint32_t dedupMerges = 0;
    /** Work items taken from another worker's deque. */
    uint32_t steals = 0;
    /** Bytes actually stored by fork snapshots (delta or full). */
    uint64_t snapshotBytesCopied = 0;
    /** Bytes full-copy snapshots of the same forks would have
     *  stored (the delta savings denominator). */
    uint64_t snapshotBytesFull = 0;
    /** Simulated cycles per exploration worker (size numThreads). */
    std::vector<uint64_t> perWorkerCycles;
    /// @name Packed-frontier counters
    /// Zero when no worker switched to the packed kernel: under
    /// Frontier::Scalar, and under Adaptive when no worker ever had
    /// two paths waiting (single-path programs).
    /// @{
    /** Lane-refill rounds that loaded at least one pending path. */
    uint64_t packedBatches = 0;
    /** Packed step() sweeps executed. */
    uint64_t packedSweeps = 0;
    /** Live-lane cycles simulated by those sweeps; divided by
     *  64 * packedSweeps this is the mean lane occupancy. */
    uint64_t packedLaneCycles = 0;
    /// @}
    /// @}
};

struct SymbolicResult : Summary {
    ExecTree tree;

    /** Where the peak power cycle sits in the tree. */
    uint32_t peakNode = 0;
    uint32_t peakCycleInNode = 0;

    /// @name Activity sets (when recordActiveSets)
    /// @{
    std::vector<uint8_t> everActive;  ///< per gate: 1 if ever active
    std::vector<uint32_t> peakActive; ///< gates active at the peak
    /// @}

    /** Per-cycle upper-bound power envelope env[c] = max over all
     *  execution-tree walks of power(walk, c), when
     *  SymbolicConfig::recordEnvelope. */
    std::vector<float> envelopeW;
};

class SymbolicEngine {
  public:
    SymbolicEngine(msp::System &sys, const SymbolicConfig &cfg);

    /** Run Algorithm 1 + per-cycle Algorithm 2 on @p image. */
    SymbolicResult run(const isa::Image &image);

  private:
    msp::System *sys_;
    SymbolicConfig cfg_;
};

} // namespace sym
} // namespace ulpeak

#endif // ULPEAK_SYM_SYMBOLIC_ENGINE_HH
