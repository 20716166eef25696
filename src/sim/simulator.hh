/**
 * @file
 * Cycle-based three-valued gate-level simulator with activity tracking
 * and two interchangeable evaluation kernels.
 *
 * Each step() evaluates one clock cycle: sequential outputs update from
 * the previous cycle's stable values, the cycle driver sets primary
 * inputs, behavioral hooks (RAM) run at their levelized position, and
 * combinational gates are evaluated over the netlist's flat
 * structure-of-arrays view (Netlist::flat()). Two kernels implement
 * the combinational phase:
 *
 *  - EvalMode::FullSweep evaluates every scheduled node once per
 *    cycle, walking the level-bucketed schedule front to back -- the
 *    straightforward oblivious kernel, kept as the reference;
 *  - EvalMode::EventDriven (the default) evaluates only gates whose
 *    fanins changed value or activity this cycle. A dirty bitmap
 *    over schedule positions is seeded by changed/active sequential
 *    outputs, driver-touched and unknown primary inputs, and
 *    behavioral hooks, then drained in one ascending scan that
 *    re-reads the current word after every evaluation: a node only
 *    marks consumers at higher levels, which sit at higher positions,
 *    so the scan visits dirty nodes in exactly the full sweep's
 *    order. The drain has no branches on data: cells evaluate
 *    through kCellTruthTable (generated from evalCell), and fanout
 *    and flop wake marks are ORed in as act & (changed |
 *    consumer-is-X). Hooks always run
 *    (behavioral state such as RAM contents can change between
 *    cycles without any netlist-visible event, and hooks bill
 *    per-access energy). Skipped gates are exactly the gates a full
 *    sweep would have re-evaluated to an identical (value, activity)
 *    pair.
 *
 * Both kernels rebuild the per-cycle activity list in ascending gate
 * id from the flag bitmap (eight flags per multiply) before the
 * order-sensitive floating-point energy accumulation, which picks
 * each active gate's term from its {rise, fall, max} triple without
 * branches. Both kernels therefore produce bit-identical values,
 * activity lists, and energies every cycle -- the test suite
 * locksteps the two kernels across the bench430 programs to enforce
 * this. FullSweep evaluates through evalCell, not the table, so the
 * locksteps also check the table against the function it came from.
 *
 * Activity follows the paper's definition (Section 3.1): a gate is
 * active in a cycle if its value changed, or if it is X and is driven by
 * an active gate. Sequential gates additionally use provable-hold
 * information (enable low) to rule out toggles of unknown values. Per
 * cycle the simulator produces two energies:
 *
 *  - actualEnergy: energy of the concrete transitions that occurred
 *    (meaningful for concrete, X-free runs -- this is ordinary
 *    VCD-style power analysis);
 *  - boundEnergy: the Algorithm-2 per-cycle peak assignment, where every
 *    active gate involving X is assigned its maximum-power transition
 *    consistent with the known values of cycles c-1 and c.
 *
 * For X-free runs the two coincide. boundEnergy is what Section 3.2's
 * even/odd VCD construction computes per cycle; see
 * peak/even_odd.cc for the literal file-based construction and the
 * equivalence test in tests/test_peak_power.cc.
 *
 * snapshot()/restore() capture and reinstate the complete simulation
 * state between steps, giving the symbolic engine O(state-copy) forks
 * instead of path re-execution; snapshots are interchangeable between
 * Simulators built over structurally identical netlists (the parallel
 * symbolic workers rely on this).
 */

#ifndef ULPEAK_SIM_SIMULATOR_HH
#define ULPEAK_SIM_SIMULATOR_HH

#include <functional>
#include <memory>
#include <vector>

#include "netlist/netlist.hh"

namespace ulpeak {

class Simulator;

/**
 * Combinational-phase kernel selection.
 *
 * The two kernels are interchangeable by contract, not by accident:
 * for any netlist and any driver they produce bit-identical gate
 * values, activity lists, and per-cycle energies (see the file
 * comment for why, and tests/test_simulator.cc /
 * tests/test_benchmarks.cc for the locksteps that enforce it). Every
 * consumer -- peak::analyze, the symbolic engine, the batch driver's
 * result cache -- relies on this: switching kernels can change wall
 * time but never a reported number. FullSweep is the oblivious
 * reference kernel; EventDriven is the default and is >= 2x faster
 * on high-activity workloads (BENCH_sim_kernel.json tracks this).
 */
enum class EvalMode : uint8_t {
    FullSweep,   ///< oblivious: every scheduled node, every cycle
    EventDriven, ///< dirty bitmap: only gates with changed fanins
};

/** Callback evaluating a behavioral hook during the combinational
 * sweep. It may read gate values and must set the hook's outputs. */
using HookFn = std::function<void(Simulator &)>;
/** Callback run at the clock edge (e.g. committing memory writes). */
using EdgeFn = std::function<void(Simulator &)>;

class Simulator {
  public:
    explicit Simulator(const Netlist &nl,
                       EvalMode mode = EvalMode::EventDriven);

    const Netlist &netlist() const { return *nl_; }
    EvalMode evalMode() const { return mode_; }

    /// @name Hook registration
    /// @{
    void setHookFn(uint32_t hook_id, HookFn fn);
    void addEdgeFn(EdgeFn fn);
    /// @}

    /// @name Driving inputs (legal during a hook or before step())
    /// @{
    void setInput(GateId g, V4 v);
    void setInputBus(const std::vector<GateId> &bus, Word16 w);
    /// @}

    /**
     * Overwrite a gate's current value directly. Used by the symbolic
     * engine to constrain an X program counter to one concrete branch
     * target (Algorithm 1, update_PC_next). Sound only for narrowing
     * an X to one of its feasible values. The event-driven kernel
     * re-evaluates the forced gate's fanout cone.
     */
    void forceValue(GateId g, V4 v);
    void forceBus(const std::vector<GateId> &bus, Word16 w);

    /**
     * Single-event upset: invert the stored output of sequential gate
     * @p g. Legal from the cycle driver (the position after the
     * sequential update and before the combinational sweep), so a flip
     * at cycle c is what cycle c's combinational logic observes and,
     * if the flop holds, what the next edge reloads -- real SEU
     * semantics, not a transient glitch. The upset is a genuine output
     * transition, so the gate is marked active for this cycle's
     * Section-3.1 activity accounting (a flip back to the pre-edge
     * value contributes no transition energy, matching
     * accumulateEnergy's known->known rule). Returns false (no-op)
     * when the stored value is X: an upset of an undefined bit has no
     * defined effect, and the X already subsumes both values.
     */
    bool injectSeuFlip(GateId g);

    /// @name Reading values
    /// @{
    V4 value(GateId g) const { return val_[g]; }
    bool isActive(GateId g) const { return active_[g] != 0; }
    Word16 readBus(const std::vector<GateId> &bus) const;
    /** Gates active in the cycle most recently stepped. */
    const std::vector<GateId> &activeGates() const { return activeList_; }
    /// @}

    /**
     * Simulate one clock cycle. The driver (may be null) is called after
     * sequential update, before the combinational sweep, to set primary
     * inputs for this cycle.
     */
    void step(const std::function<void(Simulator &)> &driver = nullptr);

    uint64_t cycle() const { return cycle_; }

    /// @name Per-cycle energy (valid after step())
    /// @{
    double actualEnergyJ() const { return actualEnergy_; }
    double boundEnergyJ() const { return boundEnergy_; }
    /** Per top-level-module split of boundEnergyJ (index = ModuleId of a
     *  direct child of top; index 0 = top itself). Computed on the
     *  first call after step(), from that cycle's activity, so only
     *  callers that need the split pay for it; call it before editing
     *  the state (setInput, forceValue, restore) for the next cycle. */
    const std::vector<double> &moduleBoundEnergyJ() const;
    /** Extra per-cycle energy contributed by behavioral blocks. */
    void addBehavioralEnergyJ(double j, ModuleId top_module);
    /** The behavioral-block share of this cycle's energy (included in
     *  both actualEnergyJ and boundEnergyJ). */
    double behavioralEnergyJ() const { return behavioralEnergy_; }
    /// @}

    /// @name Snapshot / restore (for symbolic forking)
    /// @{
    /** Complete inter-step state. Previous-cycle values are absent on
     * purpose: step() overwrites them from the current values before
     * anything reads them, so they are dead across a restore.
     * Contract: capture the snapshot *before* applying between-step
     * edits (setInput/forceValue) -- the wake marks such edits create
     * live only in the originating simulator, so a snapshot taken
     * after an edit restores the new value without its propagation. */
    struct Snapshot {
        std::vector<V4> val;
        std::vector<uint8_t> activeLast;
        std::vector<uint8_t> loadedPrevEdge;
        uint64_t cycle;
    };
    Snapshot snapshot() const;
    void restore(const Snapshot &s);

    /**
     * Sparse snapshot: the same complete inter-step state as
     * Snapshot, stored as a shared base plus the entries that differ
     * from it. The symbolic engine's forks are temporally close to
     * the snapshot they restored from, so typically only a few
     * percent of the state changed -- a delta captures (and a
     * restore rewrites) little more than that, while the base is
     * shared read-only between all sibling forks. restore(delta) and
     * restore(materialize(delta)) are interchangeable by contract
     * (tests/test_snapshot.cc locksteps the two across randomized
     * dirty patterns), so switching snapshot forms can never change
     * a simulated value.
     */
    struct DeltaSnapshot {
        std::shared_ptr<const Snapshot> base;
        /// @name Entries differing from *base (parallel arrays)
        /// @{
        std::vector<uint32_t> valIdx;
        std::vector<V4> valNew;
        std::vector<uint32_t> actIdx;
        std::vector<uint8_t> actNew;
        std::vector<uint32_t> seqIdx;
        std::vector<uint8_t> seqNew;
        /// @}
        uint64_t cycle = 0;

        /** Heap bytes this delta stores (the "bytes copied" of a
         *  delta fork, vs bytesOf(full) for a full one). */
        size_t deltaBytes() const;
    };
    /** Capture the current state as a delta against @p base, which
     *  must describe the same netlist (sizes are checked). Same
     *  between-steps contract as snapshot(). */
    DeltaSnapshot
    snapshotDelta(std::shared_ptr<const Snapshot> base) const;
    void restore(const DeltaSnapshot &s);
    /** Expand a delta into the equivalent full Snapshot (the
     *  equivalence-test helper). */
    static Snapshot materialize(const DeltaSnapshot &s);
    /** Heap bytes of a full snapshot of this simulator's netlist. */
    static size_t bytesOf(const Snapshot &s);
    /** Capture @p cur as a delta against @p base -- snapshotDelta for
     *  a state that lives in a Snapshot instead of in a Simulator.
     *  For identical states the produced delta is byte-identical to
     *  snapshotDelta's (same diff, same base), so the packed
     *  exploration's fork captures match the scalar engine's exactly. */
    static DeltaSnapshot
    deltaBetween(const Snapshot &cur,
                 std::shared_ptr<const Snapshot> base);
    /// @}

    /** FNV-1a hash over all sequential gate outputs. */
    uint64_t hashSeqState() const;
    /** FNV-1a hash over the complete snapshot state (values,
     *  activity, load history). Equal hashes mean identical
     *  continuations; the symbolic engine's dedup keys use this so a
     *  merge target's trace never depends on which racing path
     *  claimed it. */
    uint64_t hashFullState() const;
    /** hashFullState over a captured Snapshot instead of the live
     *  state. For a snapshot of a simulator's current state the
     *  result equals its hashFullState() bit for bit -- the packed
     *  exploration hashes extracted lane snapshots through this so
     *  its dedup keys match the scalar engine's. */
    static uint64_t hashSnapshotState(const Snapshot &s);

    /**
     * Predict the value a sequential gate will take at the next clock
     * edge, from the current cycle's stable values. The symbolic
     * engine uses this on the PC flops to detect an imminent
     * X-valued program counter one cycle before the fetch would
     * consume it (Algorithm 1: "if e.PC_next == X").
     */
    V4 predictSeqValue(GateId g) const;

  private:
    void updateSequential();
    template <bool kEvent> void evalSeqGate(size_t i);
    void evalNode(uint32_t node);
    void sweepFull();
    void sweepEvent();
    void rebuildActiveList();
    void accumulateEnergy();
    void drain();
    /// @name Event-mode marking
    /// @{
    struct Drain; ///< the event kernel's hot loop (simulator.cc)
    void enqueueNode(uint32_t node);
    /** Wake the consumers of gate @p g as an active driver. */
    void wakeGate(GateId g, uint8_t changed);
    void enqueueSeqNext(uint32_t seq_index);
    void markAllSeq();
    /// @}

    const Netlist *nl_;
    const FlatNetlist *flat_;
    EvalMode mode_;
    std::vector<V4> val_;
    std::vector<V4> prev_;
    std::vector<uint8_t> active_;
    std::vector<uint8_t> activePrev_;
    /** Per seq gate (indexed by position in seqGates()): last edge
     * actually loaded (enable high). */
    std::vector<uint8_t> loadedPrevEdge_;
    std::vector<uint32_t> seqIndexOf_; ///< gate id -> seq index
    std::vector<ModuleId> topModuleOf_;
    std::vector<GateId> inputGates_; ///< all Input-kind gates
    std::vector<uint32_t> inputPos_; ///< their schedule positions

    /// @name Event-driven worklist state
    /// @{
    /** One bit per schedule position: enqueued, not yet evaluated.
     *  Empty after every drain; marks made between steps (setInput,
     *  forceValue) wait here for the next one. */
    std::vector<uint64_t> dirty_;
    /**
     * Flop wake-up marks, one bit per seq index. A flop's edge-c
     * inputs are all cycle-(c-1) quantities (fanin values, D-pin
     * activity, own state), so any gate activity in cycle c wakes its
     * sequential consumers for the next two edges: the first sees the
     * rise, the second the fall of the activity term. seqAct_[0]
     * collects this cycle's activity marks and seqAct_[1] the previous
     * cycle's; seqNext_ holds marks for the next edge only. Each edge
     * drains seqNext_ | seqAct_[0] | seqAct_[1] and then ages
     * seqAct_[0] into seqAct_[1].
     */
    std::vector<uint64_t> seqNext_;
    std::vector<uint64_t> seqAct_[2];
    /** Flops active after this cycle's edge (the drain's seeds),
     *  appended branch-free: [0, numSeqActive_) is valid. */
    std::vector<GateId> seqActive_;
    size_t numSeqActive_ = 0;
    /// @}

    std::vector<HookFn> hookFns_;
    std::vector<EdgeFn> edgeFns_;

    std::vector<GateId> activeList_;
    double actualEnergy_ = 0.0;
    double boundEnergy_ = 0.0;
    double behavioralEnergy_ = 0.0;
    std::vector<double> behavioralModule_; ///< per-module hook energy
    /// @name Lazily computed per-module split (moduleBoundEnergyJ)
    /// @{
    mutable std::vector<double> moduleEnergy_;
    mutable bool moduleEnergyValid_ = false;
    /// @}
    uint64_t cycle_ = 0;
};

} // namespace ulpeak

#endif // ULPEAK_SIM_SIMULATOR_HH
