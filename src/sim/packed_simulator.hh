/**
 * @file
 * Bit-parallel 64-pattern gate-level simulator.
 *
 * PackedSimulator evaluates the same netlist, cycle semantics and
 * Algorithm-2 energy assignment as the scalar Simulator, but over 64
 * independent input patterns at once: every gate's value is a V64
 * (a 64-bit value plane + a 64-bit known plane), every activity flag
 * a 64-bit lane mask, and one and/or/xor/not/mux costs a handful of
 * word ops for all 64 patterns (src/logic/v64.hh).
 *
 * Lane-identity invariant: lane i of a PackedSimulator run is
 * bit-identical -- per-cycle gate values, activity flags, actual /
 * bound / behavioral / per-module energies, and the full-state hash --
 * to an independent scalar Simulator run driven with lane i's inputs
 * (either EvalMode; the two scalar kernels are themselves bit-identical
 * by contract). This holds by construction:
 *
 *  - the V64 ops are lane-exact to the scalar v4 ops, so any cell
 *    composition evaluates lane-exactly;
 *  - activity masks compute the scalar activity rule per lane
 *    (value-changed, X-propagation through active fanins, and the
 *    sequential provable-hold analysis);
 *  - per-lane energy accumulators sum the same floating-point terms
 *    in the same ascending-gate-id order as the scalar kernel's
 *    canonicalized active list, so even float rounding matches.
 *
 * tests/test_packed_sim.cc and the ulfuzz packed property enforce the
 * invariant on fuzz-generated netlists and programs.
 *
 * The kernel is an oblivious full sweep of the level-bucketed schedule
 * (the packed analogue of EvalMode::FullSweep), reading the same
 * padded per-position records (FlatNetlist::nodeRec) as the scalar
 * event kernel: event-driven worklists pay off when few gates change,
 * but across 64 patterns the union of changed gates approaches the
 * whole cone, so the oblivious sweep wins and stays branch-free. Beyond the embarrassingly multi-pattern
 * consumers (ulfuzz lane sweeps, batched concrete trace validation,
 * fault campaigns), the symbolic engine's packed frontier
 * (SymbolicConfig::frontier) drives independent pending
 * execution paths through the lanes: loadLaneState / extractLaneState
 * transpose scalar Simulator::Snapshots into and out of a lane, and
 * forceLane / predictSeqValueLane give the engine its per-lane fork
 * machinery -- each backed by the lane-identity invariant above, so a
 * lane's continuation is bit-identical to the scalar restore-and-run.
 */

#ifndef ULPEAK_SIM_PACKED_SIMULATOR_HH
#define ULPEAK_SIM_PACKED_SIMULATOR_HH

#include <array>
#include <functional>
#include <vector>

#include "logic/v64.hh"
#include "netlist/netlist.hh"
#include "sim/simulator.hh"

namespace ulpeak {

class PackedSimulator {
  public:
    static constexpr unsigned kLanes = 64;

    explicit PackedSimulator(const Netlist &nl);

    const Netlist &netlist() const { return *nl_; }

    /// @name Hook registration (packed behavioral blocks)
    /// @{
    using HookFn = std::function<void(PackedSimulator &)>;
    using EdgeFn = std::function<void(PackedSimulator &)>;
    void setHookFn(uint32_t hook_id, HookFn fn);
    void addEdgeFn(EdgeFn fn);
    /// @}

    /// @name Driving inputs (legal during a hook or before step())
    /// @{
    void setInput(GateId g, V64 v);
    void setInputLane(GateId g, unsigned lane, V4 v);
    /** The same scalar value on every lane of every bus bit. */
    void setInputBusAll(const std::vector<GateId> &bus, Word16 w);
    /** Per-lane words: bus bit b of lane l takes lanes[l].bit(b). */
    void setInputBusLanes(const std::vector<GateId> &bus,
                          const std::array<Word16, kLanes> &lanes);
    /// @}

    /// @name Reading values
    /// @{
    V64 value(GateId g) const { return V64(valV_[g], valK_[g]); }
    V4
    valueLane(GateId g, unsigned lane) const
    {
        return value(g).lane(lane);
    }
    /** Lanes in which @p g is active this cycle. */
    uint64_t activeMask(GateId g) const { return act_[g]; }
    Word16 readBusLane(const std::vector<GateId> &bus,
                       unsigned lane) const;
    /// @}

    /**
     * Per-lane single-event upsets: invert sequential gate @p g's
     * stored value in every *known* lane of @p lane_mask and mark
     * those lanes active (X lanes are untouched). Legal from the
     * cycle driver, mirroring Simulator::injectSeuFlip lane for lane
     * -- the lane-identity invariant extends to faulted runs. Returns
     * the mask of lanes actually flipped.
     */
    uint64_t injectSeuFlip(GateId g, uint64_t lane_mask);

    /** Simulate one clock cycle on all 64 lanes; the driver sets
     *  primary inputs (same position in the cycle as Simulator). */
    void step(const std::function<void(PackedSimulator &)> &driver =
                  nullptr);

    uint64_t cycle() const { return cycle_; }

    /// @name Per-lane per-cycle energy (valid after step())
    /// @{
    double actualEnergyJ(unsigned lane) const { return actual_[lane]; }
    double boundEnergyJ(unsigned lane) const { return bound_[lane]; }
    double
    behavioralEnergyJ(unsigned lane) const
    {
        return behavioral_[lane];
    }
    /** Lane @p lane's per-module split, shaped like the scalar
     *  Simulator::moduleBoundEnergyJ() vector. Like the scalar split
     *  it is computed on the first request after step() (for every
     *  energy lane at once), so callers that never ask do not pay. */
    std::vector<double> moduleBoundEnergyLaneJ(unsigned lane) const;
    /** Add behavioral energy @p j to every lane in @p lane_mask. */
    void addBehavioralEnergyJ(double j, ModuleId top_module,
                              uint64_t lane_mask);
    /**
     * Restrict the energy accumulation of the following steps to the
     * lanes in @p mask (default: all 64). Lanes outside it read zero
     * energies and cost nothing; values, activity and hashes are
     * unaffected. The packed exploration frontier passes the lanes
     * that carry a path, so empty lanes do not pay for Algorithm 2.
     */
    void setEnergyLanes(uint64_t mask) { energyLanes_ = mask; }
    /// @}

    /** Per-lane FNV-1a over the complete inter-step state, identical
     *  to the scalar Simulator::hashFullState() of that lane's run. */
    uint64_t hashLaneState(unsigned lane) const;

    /// @name Lane <-> scalar snapshot transpose (symbolic frontier)
    /// @{
    /**
     * Install a scalar Simulator::Snapshot into lane @p lane: gate
     * values, activity flags and sequential load history, exactly the
     * state Simulator::restore reinstates (previous-cycle planes are
     * dead across a load for the same reason they are absent from
     * Snapshot: step() rebuilds them before any read). Legal between
     * steps. The next step()'s edge functions run against the loaded
     * values, mirroring the scalar restore-then-step sequence, so the
     * caller must have pre-stepped the simulator once (cycle() > 0)
     * and must inhibit the edge effects of lanes it has not loaded.
     */
    void loadLaneState(unsigned lane, const Simulator::Snapshot &s);
    /**
     * Transpose lane @p lane back into a scalar snapshot stamped with
     * @p cycle (the lane's own cycle count -- the packed simulator's
     * global cycle() says how many sweeps ran, not how old any lane
     * is). For a lane loaded from a snapshot and stepped N times the
     * result is byte-identical to the scalar restore-and-step-N
     * Simulator::snapshot(): values per lane(), activity as 0/1 bytes
     * zero-padded to the scalar active_ array's 8-byte-aligned size,
     * load history as 0/1 bytes.
     */
    Simulator::Snapshot extractLaneState(unsigned lane,
                                         uint64_t cycle) const;
    /// @}

    /**
     * Per-lane Simulator::forceValue: overwrite gate @p g's value in
     * lane @p lane only. Same contract -- sound only for narrowing an
     * X to a feasible value, on sequential outputs or Input-kind
     * gates (the oblivious sweep recomputes anything scheduled). Like
     * the scalar force, the gate's activity flag is left as the
     * sequential update computed it.
     */
    void forceLane(GateId g, unsigned lane, V4 v);
    void forceBusLane(const std::vector<GateId> &bus, unsigned lane,
                      Word16 w);

    /** Per-lane Simulator::predictSeqValue: the value sequential gate
     *  @p g will take at the next edge in lane @p lane, from the
     *  lane's current stable values. */
    V4 predictSeqValueLane(GateId g, unsigned lane) const;

  private:
    void evalSeqGate(size_t i);
    void evalNode(const FlatNetlist::NodeRec &r);
    void accumulateEnergy();
    void computeModuleSplit() const;

    const Netlist *nl_;
    const FlatNetlist *flat_;
    /// @name Per-gate planes and lane masks
    /// @{
    std::vector<uint64_t> valV_, valK_;
    std::vector<uint64_t> prevV_, prevK_;
    std::vector<uint64_t> act_, actPrev_;
    /// @}
    /** Per seq gate: lanes whose previous edge actually loaded. */
    std::vector<uint64_t> loadedPrevEdge_;
    std::vector<ModuleId> topModuleOf_;

    std::vector<HookFn> hookFns_;
    std::vector<EdgeFn> edgeFns_;

    std::array<double, kLanes> actual_{};
    std::array<double, kLanes> bound_{};
    std::array<double, kLanes> behavioral_{};
    /** Behavioral energy per [module * kLanes + lane]. */
    std::vector<double> behavioralModule_;
    /// @name Lazily computed per-module split, same layout
    /// @{
    mutable std::vector<double> moduleEnergy_;
    mutable bool moduleEnergyValid_ = false;
    /// @}
    uint64_t energyLanes_ = ~uint64_t(0); ///< see setEnergyLanes
    uint64_t cycle_ = 0;
};

} // namespace ulpeak

#endif // ULPEAK_SIM_PACKED_SIMULATOR_HH
