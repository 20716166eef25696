#include "sym/symbolic_engine.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "isa/disassembler.hh"
#include "isa/encoding.hh"
#include "power/packed_run.hh"

namespace ulpeak {
namespace sym {

namespace {

constexpr uint32_t kNoForcedPc = UINT32_MAX;

/** Dedup-map shards; a power of two well above any sane worker
 * count, so concurrent forks rarely collide on a shard mutex. */
constexpr unsigned kDedupShards = 64;

/** Delta snapshots beyond this fraction of a full copy promote to a
 * fresh full base: the path has diverged so far that sparse storage
 * stops paying, and later forks on the same path restart their
 * deltas from the new, nearby base. Purely a representation choice
 * (path-state-determined, so scheduling-independent) -- restored
 * bits are identical either way. */
constexpr size_t kDeltaPromoteNum = 1;
constexpr size_t kDeltaPromoteDen = 2;

/** Pending paths an Adaptive worker's own deque must hold, with every
 * slot free, for it to run them through the packed kernel. Below it
 * the lanes would sweep 64-wide for one path. Two, four and eight
 * measured within noise of each other on the bench430 suite; sixteen
 * left the wide programs scalar for much of their run. Purely a
 * scheduling choice: no result depends on it. */
constexpr size_t kPackMinWidth = 2;

/** Structural identity of a netlist (kinds + CSR fanins): snapshots
 * transfer between Systems only when this matches. */
uint64_t
netlistStructureHash(const Netlist &nl)
{
    const FlatNetlist &f = nl.flat();
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t x) {
        h ^= x;
        h *= 0x100000001b3ull;
    };
    for (CellKind k : f.kind)
        mix(uint64_t(k));
    for (GateId g : f.fanin)
        mix(g);
    return h;
}

/** Where a path stands: its tree node and the per-path registers the
 * next step needs. Queued (Pending) and in-flight (Path) paths share
 * it. The node pointer is pre-resolved under the tree lock so workers
 * never touch the tree container concurrently. */
struct PathPos {
    uint32_t node = 0;
    TreeNode *nodePtr = nullptr;
    uint64_t nodeKey = 0;  ///< dedup key that created the node (0: root)
    uint32_t forcedPc = kNoForcedPc; ///< PC constraint on the next step
    uint32_t lastPc = 0;   ///< last concrete PC value on this path
    uint32_t curInstr = 0; ///< instruction in execute/mem (COI)
    uint64_t pathCycles = 0;
    bool applyInit = false; ///< root only: scenario register forces
};

/** One un-processed execution path (Algorithm 1's stack U entry).
 * The simulator state is either a full snapshot or a delta against a
 * shared base (both immutable and shared between sibling entries). */
struct Pending : PathPos {
    std::shared_ptr<const Simulator::Snapshot> simFull;
    std::shared_ptr<const Simulator::DeltaSnapshot> simDelta;
    std::shared_ptr<const msp::System::Snapshot> sysSnap;
};

/** One path being simulated in a worker slot. */
struct Path : PathPos {
    /** Snapshot the path restored from: the delta base (and byte
     *  denominator) of its own fork capture. */
    std::shared_ptr<const Simulator::Snapshot> base;
    /** Absolute simulator cycle of the path (the scalar sim's cycle()
     *  after restore + steps); stamps extracted lane snapshots so
     *  their cycle counters match the scalar run's. */
    uint64_t absCycle = 0;
    /// Per-cycle data, committed to the node at the fork/leaf boundary.
    std::vector<float> powerW;
    std::vector<std::vector<float>> modulePowerW;
    std::vector<CycleInfo> cycleInfo;
};

/** Fork-time state of a live scalar simulator. */
struct LiveState {
    const Simulator &sim;
    uint64_t hash() const { return sim.hashFullState(); }
    Simulator::DeltaSnapshot
    delta(const std::shared_ptr<const Simulator::Snapshot> &base) const
    {
        return sim.snapshotDelta(base);
    }
    Simulator::Snapshot full() { return sim.snapshot(); }
};

/** Fork-time state of a packed lane, transposed to a scalar snapshot.
 *  Lane identity makes its bytes, and so its dedup key, equal to the
 *  scalar run's. */
struct LaneState {
    Simulator::Snapshot snap;
    uint64_t hash() const { return Simulator::hashSnapshotState(snap); }
    Simulator::DeltaSnapshot
    delta(const std::shared_ptr<const Simulator::Snapshot> &base) const
    {
        return Simulator::deltaBetween(snap, base);
    }
    Simulator::Snapshot full() { return std::move(snap); }
};

/**
 * State shared by all exploration workers. Three independent lock
 * domains replace the old single engine mutex:
 *
 *  - the visited-state dedup map is sharded by key hash (shards[]),
 *    so two workers forking at the same time only contend when their
 *    keys land in the same shard;
 *  - tree-node allocation takes treeMu; everything else about a node
 *    (its trace, its edges) is written lock-free through the stable
 *    TreeNode pointer by the one worker that owns the node;
 *  - each worker owns a work deque (queues[]) with a private mutex:
 *    the owner pushes/pops at the back (depth-first, cache-warm),
 *    thieves take from the front (the oldest entry, closest to the
 *    root, statistically the largest unexplored subtree).
 *
 * Idle workers sleep on idleCv; inflight counts queued + running
 * paths and reaching zero is the termination condition.
 */
struct SharedState {
    struct Shard {
        std::mutex mu;
        std::unordered_map<uint64_t, uint32_t> visited;
    };
    std::array<Shard, kDedupShards> shards;

    std::mutex treeMu; ///< node allocation (and maxNodes accounting)
    ExecTree *tree = nullptr;

    struct WorkerQueue {
        std::mutex mu;
        std::deque<Pending> q;
    };
    std::deque<WorkerQueue> queues; ///< deque: mutexes never move

    std::mutex idleMu;
    std::condition_variable idleCv;
    std::atomic<uint32_t> queued{0};   ///< entries sitting in queues
    std::atomic<uint32_t> inflight{0}; ///< queued + running paths

    /// @name Statistics (atomic: many writers)
    /// @{
    std::atomic<uint64_t> totalCycles{0};
    std::atomic<uint32_t> pathsExplored{0};
    std::atomic<uint32_t> dedupMerges{0};
    std::atomic<uint32_t> steals{0};
    std::atomic<uint64_t> snapshotBytesCopied{0};
    std::atomic<uint64_t> snapshotBytesFull{0};
    std::atomic<uint64_t> packedBatches{0};
    std::atomic<uint64_t> packedSweeps{0};
    std::atomic<uint64_t> packedLaneCycles{0};
    /// @}

    std::atomic<bool> failed{false};
    std::mutex errMu;
    std::string error;

    static unsigned
    shardOf(uint64_t key)
    {
        // High multiplicative bits: the low bits feed the map's own
        // bucket index, so reusing them would correlate the two.
        return unsigned((key * 0x9e3779b97f4a7c15ull) >> 58) &
               (kDedupShards - 1);
    }

    void
    fail(const std::string &msg)
    {
        {
            std::lock_guard<std::mutex> lock(errMu);
            if (!failed.exchange(true))
                error = msg;
        }
        std::lock_guard<std::mutex> lock(idleMu);
        idleCv.notify_all();
    }

    /** Enqueue @p p on @p worker's deque and wake one sleeper. */
    void
    push(unsigned worker, Pending &&p)
    {
        inflight.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(queues[worker].mu);
            queues[worker].q.push_back(std::move(p));
        }
        queued.fetch_add(1, std::memory_order_release);
        if (queues.size() > 1) {
            std::lock_guard<std::mutex> lock(idleMu);
            idleCv.notify_one();
        }
    }

    size_t
    queueSize(unsigned worker)
    {
        std::lock_guard<std::mutex> lock(queues[worker].mu);
        return queues[worker].q.size();
    }

    bool
    popOwn(unsigned worker, Pending &out)
    {
        std::lock_guard<std::mutex> lock(queues[worker].mu);
        if (queues[worker].q.empty())
            return false;
        out = std::move(queues[worker].q.back());
        queues[worker].q.pop_back();
        queued.fetch_sub(1, std::memory_order_relaxed);
        return true;
    }

    bool
    stealFrom(unsigned thief, Pending &out)
    {
        unsigned n = unsigned(queues.size());
        for (unsigned i = 1; i < n; ++i) {
            unsigned victim = (thief + i) % n;
            std::lock_guard<std::mutex> lock(queues[victim].mu);
            if (queues[victim].q.empty())
                continue;
            out = std::move(queues[victim].q.front());
            queues[victim].q.pop_front();
            queued.fetch_sub(1, std::memory_order_relaxed);
            steals.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        return false;
    }
};

/**
 * One exploration worker: a simulator (plus, for workers beyond the
 * first, a private System clone) that pops pending paths, simulates
 * them to the next fork or leaf, and commits traces to the tree
 * through the nodes it owns. Peak candidates and activity sets are
 * tracked locally and merged after the pool drains.
 *
 * The scalar and packed frontiers run the same loop: a worker holds
 * in-flight paths in slots (one for the scalar Simulator, 64 for the
 * PackedSimulator's lanes), and only the kernel calls differ --
 * ScalarKernel and PackedKernel below; an Adaptive worker switches
 * between the two whenever all its slots are free (see explore()). A
 * packed lane is loaded from a Pending's snapshot, advanced by the
 * shared level-bucketed sweep until it reaches its own fork / halt /
 * failure boundary, then transposed back to a scalar snapshot for
 * the same dedup, capture and commit. The lane-identity invariant of the packed kernel makes
 * every per-lane byte -- values, activity, energies, and therefore
 * hashes, keys, traces and snapshots -- equal to the scalar run's,
 * which is the whole bit-identity argument: same keys => same node
 * set, edges and merge counts; same traces => same peak/energy/NPE/
 * envelope; same snapshot bytes => same byte statistics. Only
 * scheduling statistics (steals, batch/occupancy counters,
 * per-worker cycles) differ.
 */
class Worker {
  public:
    Worker(msp::System &base, const SymbolicConfig &cfg,
           const isa::Image &image, unsigned id, bool owns_clone)
        : cfg_(cfg), id_(id)
    {
        if (owns_clone) {
            owned_ = std::make_unique<msp::System>(
                base.netlist().library());
            sys_ = owned_.get();
            if (netlistStructureHash(sys_->netlist()) !=
                netlistStructureHash(base.netlist()))
                throw std::logic_error(
                    "nondeterministic netlist elaboration: worker "
                    "clone differs structurally from the base "
                    "system");
        } else {
            sys_ = &base;
        }
        sys_->memory().reset();
        sys_->loadImage(image);
        sys_->clearHalted();
        sim_ = std::make_unique<Simulator>(sys_->netlist(),
                                           cfg.evalMode);
        sys_->attach(*sim_);
        ctx_ = std::make_unique<power::PowerContext>(sys_->netlist(),
                                                     cfg_.freqHz);
        if (cfg_.scenario.hasModes()) {
            // One (energy scale, clock) pair per schedule phase,
            // resolved once against the library the netlist was
            // built with (identical across worker clones).
            const CellLibrary &lib = sys_->netlist().library();
            const scenario::Scenario &scen = cfg_.scenario;
            for (uint64_t ph = 0; ph < scen.modePeriod(); ++ph) {
                const scenario::OperatingMode &m = scen.modeAt(ph);
                modeFactors_.emplace_back(lib.energyScale(m.vdd),
                                          m.freqHz);
            }
        }
        if (cfg_.recordActiveSets)
            everActive_.assign(sys_->netlist().numGates(), 0);
        paths_.resize(1);
    }

    msp::System &sys() { return *sys_; }
    Simulator &sim() { return *sim_; }

    /** Pop/steal-simulate-commit until all work drains or fails. An
     *  Adaptive worker leaves one kernel's loop when all its slots are
     *  free and its own deque says the other kernel fits, and enters
     *  the other's. */
    void
    explore(SharedState &sh)
    {
        Frontier f = cfg_.effectiveFrontier();
        bool adaptive = f == Frontier::Adaptive;
        bool packed = f == Frontier::Packed;
        while (packed ? schedule(sh, packedKernel(), adaptive)
                      : schedule(sh, ScalarKernel{*this}, adaptive))
            packed = !packed;
    }

    /// @name Locally-merged results
    /// @{
    double peakPowerW = 0.0;
    uint32_t peakNode = 0;
    uint32_t peakCycleInNode = 0;
    /** Canonical identity of the peak candidate for tie-breaking:
     * (node dedup key, cycle index). Node keys are
     * partition-independent, unlike node ids, so exact power ties
     * resolve to the same logical cycle under any scheduling. */
    uint64_t peakNodeKey = 0;
    std::vector<uint32_t> peakActive;
    std::vector<uint8_t> everActive_;
    uint64_t cyclesRun = 0; ///< cycles this worker simulated
    /// @}

    /** Strict-weak "better candidate" order used both within a worker
     * and for the final cross-worker merge. */
    bool
    betterCandidate(double w, uint64_t node_key, uint32_t cycle) const
    {
        if (w != peakPowerW)
            return w > peakPowerW;
        if (peakPowerW == 0.0)
            return false; // no candidate yet is only beaten by w > 0
        if (node_key != peakNodeKey)
            return node_key < peakNodeKey;
        return cycle < peakCycleInNode;
    }

  private:
    /** Kernel calls of the scalar frontier: the worker's Simulator and
     *  System carry its one slot. */
    struct ScalarKernel {
        static constexpr unsigned kWidth = 1;
        Worker &w;

        void
        load(unsigned, const Pending &p, bool resident) const
        {
            if (!resident) {
                if (p.simDelta)
                    w.sim_->restore(*p.simDelta);
                else
                    w.sim_->restore(*p.simFull);
            }
            w.sys_->restore(*p.sysSnap);
        }

        void
        step(uint64_t) const
        {
            const Path &P = w.paths_[0];
            const msp::CpuHandles &h = w.sys_->handles();
            const scenario::Scenario &scen = w.cfg_.scenario;
            w.sim_->step([&](Simulator &s) {
                // Algorithm 1 line 11, generalized: the scenario
                // says which port bits are X this cycle.
                w.sys_->driveCycle(s, scen.portWordAt(P.pathCycles));
                if (P.applyInit) {
                    // Scenario initial-register constraints: narrow
                    // the boot-X registers once, right after reset,
                    // the same way forks narrow the PC.
                    for (const auto &[reg, value] : scen.regInit)
                        s.forceBus(h.regs[reg], Word16::known(value));
                }
                if (P.forcedPc != kNoForcedPc) {
                    // Algorithm 1's update_PC_next: constrain only the
                    // PC flops, right after the edge, before fetch
                    // logic evaluates.
                    s.forceBus(h.pc, Word16::known(uint16_t(P.forcedPc)));
                }
            });
            if (w.cfg_.recordActiveSets)
                for (GateId g : w.sim_->activeGates())
                    w.everActive_[g] = 1;
        }

        Word16
        bus(const std::vector<GateId> &b, unsigned) const
        {
            return w.sim_->readBus(b);
        }
        int fsmState(unsigned) const { return w.sys_->fsmState(*w.sim_); }
        V4
        predictSeq(GateId g, unsigned) const
        {
            return w.sim_->predictSeqValue(g);
        }
        double
        boundEnergyJ(unsigned) const
        {
            return w.sim_->boundEnergyJ();
        }
        const std::vector<double> &
        moduleEnergyJ(unsigned) const
        {
            return w.sim_->moduleBoundEnergyJ();
        }
        void
        activeGates(unsigned, std::vector<uint32_t> &out) const
        {
            out.assign(w.sim_->activeGates().begin(),
                       w.sim_->activeGates().end());
        }
        bool halted(unsigned) const { return w.sys_->halted(); }
        bool xStoreFault(unsigned) const { return w.sys_->xStoreFault(); }
        Memory &memory(unsigned) const { return w.sys_->memory(); }
        LiveState forkState(unsigned, uint64_t) const { return {*w.sim_}; }
    };

    /** Kernel calls of the packed frontier: slot l is lane l of the
     *  worker's PackedSimulator, with its own behavioral memory. */
    struct PackedKernel {
        static constexpr unsigned kWidth = PackedSimulator::kLanes;
        Worker &w;

        void
        load(unsigned l, const Pending &p, bool resident) const
        {
            if (!resident) {
                if (p.simDelta)
                    w.psim_->loadLaneState(
                        l, Simulator::materialize(*p.simDelta));
                else
                    w.psim_->loadLaneState(l, *p.simFull);
            }
            w.laneMem_[l].restore(p.sysSnap->mem);
            // Pending paths are never halted or faulted (either would
            // have ended the parent as a leaf / failure, not a fork).
            w.haltedMask_ &= ~(uint64_t(1) << l);
            w.faultMask_ &= ~(uint64_t(1) << l);
        }

        void
        step(uint64_t stepped) const
        {
            PackedSimulator &ps = *w.psim_;
            const msp::CpuHandles &h = w.sys_->handles();
            const scenario::Scenario &scen = w.cfg_.scenario;
            std::array<Word16, PackedSimulator::kLanes> ports;
            ports.fill(Word16::allX());
            ps.setEnergyLanes(stepped); // only live lanes' energy is read
            for (uint64_t m = stepped; m; m &= m - 1) {
                unsigned l = unsigned(__builtin_ctzll(m));
                ports[l] = scen.portWordAt(w.paths_[l].pathCycles);
            }
            ps.step([&](PackedSimulator &s) {
                // driveCycle splatted to all lanes (dead lanes' inputs
                // are dont-cares: their edges are skipped and their
                // values never read), then the per-path forces
                // narrowed to single lanes.
                s.setInput(h.rstn, V64::splat(V4::One));
                s.setInput(h.irq, V64::splat(V4::Zero));
                s.setInputBusLanes(h.portIn, ports);
                for (uint64_t m = stepped; m; m &= m - 1) {
                    unsigned l = unsigned(__builtin_ctzll(m));
                    const Path &P = w.paths_[l];
                    if (P.applyInit)
                        for (const auto &[reg, value] : scen.regInit)
                            s.forceBusLane(h.regs[reg], l,
                                           Word16::known(value));
                    if (P.forcedPc != kNoForcedPc)
                        s.forceBusLane(
                            h.pc, l,
                            Word16::known(uint16_t(P.forcedPc)));
                }
            });
            if (w.cfg_.recordActiveSets) {
                size_t n = w.everActive_.size();
                for (GateId g = 0; g < n; ++g)
                    if (ps.activeMask(g) & stepped)
                        w.everActive_[g] = 1;
            }
        }

        Word16
        bus(const std::vector<GateId> &b, unsigned l) const
        {
            return w.psim_->readBusLane(b, l);
        }
        int
        fsmState(unsigned l) const
        {
            return w.sys_->fsmStateOf(
                [&](GateId g) { return w.psim_->valueLane(g, l); });
        }
        V4
        predictSeq(GateId g, unsigned l) const
        {
            return w.psim_->predictSeqValueLane(g, l);
        }
        double
        boundEnergyJ(unsigned l) const
        {
            return w.psim_->boundEnergyJ(l);
        }
        std::vector<double>
        moduleEnergyJ(unsigned l) const
        {
            return w.psim_->moduleBoundEnergyLaneJ(l);
        }
        void
        activeGates(unsigned l, std::vector<uint32_t> &out) const
        {
            // Ascending gate id, like the canonicalized scalar
            // activeGates() view.
            out.clear();
            for (GateId g = 0; g < w.everActive_.size(); ++g)
                if (w.psim_->activeMask(g) >> l & 1)
                    out.push_back(g);
        }
        bool halted(unsigned l) const { return w.haltedMask_ >> l & 1; }
        bool xStoreFault(unsigned l) const { return w.faultMask_ >> l & 1; }
        Memory &memory(unsigned l) const { return w.laneMem_[l]; }
        LaneState
        forkState(unsigned l, uint64_t abs_cycle) const
        {
            return {w.psim_->extractLaneState(l, abs_cycle)};
        }
    };

    /** The packed kernel, building the packed side on first use: the
     *  PackedSimulator, 64 lane memories and the priming sweep. */
    PackedKernel
    packedKernel()
    {
        if (psim_)
            return PackedKernel{*this};
        paths_.resize(PackedSimulator::kLanes);
        psim_ = std::make_unique<PackedSimulator>(sys_->netlist());
        // Per-lane behavioral memory; contents are overwritten at
        // every lane load, but the ROM image (not part of memory
        // snapshots) must already be in the copies.
        laneMem_.assign(PackedSimulator::kLanes, sys_->memory());
        const msp::CpuHandles &h = sys_->handles();
        psim_->setHookFn(h.memHookId, [this](PackedSimulator &s) {
            power::packedMemHook(s, sys_->handles(), laneMem_);
        });
        psim_->addEdgeFn([this](PackedSimulator &s) {
            // Lanes not carrying a pending path are skipped: their
            // scalar counterparts are not stepping here, so nothing
            // may commit (the halted-lane rule of the concrete packed
            // runner, driven by liveness).
            power::packedMemEdge(s, sys_->handles(), laneMem_,
                                 haltedMask_, faultMask_,
                                 /*skip_mask=*/~liveMask_);
        });
        // Prime one sweep: edge functions only run when cycle() > 0,
        // and a loaded lane's first step must run them against the
        // loaded state exactly like the scalar restore-then-step
        // sequence. The priming sweep itself is inert -- every lane
        // is all-X (the memory hook sees an X enable and returns X
        // data without billing) and no lane is live, so no edge
        // effect can commit.
        psim_->step();
        return PackedKernel{*this};
    }

    /** The pop/steal/idle loop: refill free slots from the own deque,
     *  then by stealing one path (with peers: only once every slot is
     *  free); advance every live path one cycle; otherwise
     *  sleep on idleCv. With one slot, a running path costs one mask
     *  test per cycle and takes no queue lock. When @p adaptive and
     *  every slot is free, returns true if the own deque's width asks
     *  for the other kernel; returns false once the work is done. */
    template <class K>
    bool
    schedule(SharedState &sh, K k, bool adaptive)
    {
        constexpr uint64_t kSlots =
            K::kWidth == 64 ? ~uint64_t(0)
                            : (uint64_t(1) << K::kWidth) - 1;
        constexpr bool kPacked = K::kWidth > 1;
        for (;;) {
            if (sh.failed.load())
                break;
            if (adaptive && !liveMask_ &&
                (sh.queueSize(id_) >= kPackMinWidth) != kPacked) {
                // A slot's held fork state is its own kernel's: the
                // scalar Simulator's state is not lane 0's, nor the
                // reverse.
                dropHeld();
                return true;
            }
            // Exceptions must not escape a worker thread (that would
            // terminate the process); convert them into the engine's
            // normal failure reporting.
            try {
                // Alone, a worker tops its slots up before every step.
                // With peers it refills only once every slot drained,
                // and steals only then: the paths its lanes fork in
                // the meantime wait in its deque, where an idle peer
                // can take them, instead of all going back into its
                // own lanes.
                bool shared = sh.queues.size() > 1;
                unsigned loaded = 0;
                uint64_t free = shared && liveMask_ ? 0 : kSlots & ~liveMask_;
                while (free) {
                    Pending p;
                    if (!sh.popOwn(id_, p) &&
                        !(shared && !loaded && sh.stealFrom(id_, p)))
                        break;
                    sh.pathsExplored.fetch_add(
                        1, std::memory_order_relaxed);
                    unsigned l = slotFor(free, p);
                    free &= ~(uint64_t(1) << l);
                    load(k, l, p);
                    ++loaded;
                }
                if (kPacked && loaded)
                    sh.packedBatches.fetch_add(
                        1, std::memory_order_relaxed);
                if (liveMask_) {
                    step(sh, k);
                    continue;
                }
            } catch (const std::exception &e) {
                sh.fail(std::string("worker exception: ") + e.what());
                continue;
            }
            // Back off after a failed steal sweep: when workers
            // outnumber cores, re-spinning over the victims' mutexes
            // starves the owners mid-push.
            if (sh.queues.size() > 1)
                std::this_thread::yield();
            std::unique_lock<std::mutex> lock(sh.idleMu);
            sh.idleCv.wait(lock, [&] {
                return sh.failed.load() || sh.inflight.load() == 0 ||
                       sh.queued.load(std::memory_order_acquire) > 0;
            });
            if (sh.failed.load() || sh.inflight.load() == 0)
                break;
        }
        std::lock_guard<std::mutex> lock(sh.idleMu);
        sh.idleCv.notify_all();
        return false;
    }

    /** Forget every slot's held fork state. */
    void
    dropHeld()
    {
        for (uint64_t m = heldMask_; m; m &= m - 1)
            slotHeld_[__builtin_ctzll(m)].reset();
        heldMask_ = 0;
    }

    static const void *
    stateOf(const Pending &p)
    {
        return p.simDelta ? static_cast<const void *>(p.simDelta.get())
                          : p.simFull.get();
    }

    /** True when slot @p l still holds @p p's simulator state: it
     *  forked that state and has not been stepped since. */
    bool
    resident(unsigned l, const Pending &p) const
    {
        return (heldMask_ >> l & 1) && slotHeld_[l].get() == stateOf(p);
    }

    /** A free slot that already holds @p p's state, else the lowest
     *  free slot. Which slot a path runs in never changes a result. */
    unsigned
    slotFor(uint64_t free, const Pending &p) const
    {
        for (uint64_t m = free & heldMask_; m; m &= m - 1)
            if (resident(unsigned(__builtin_ctzll(m)), p))
                return unsigned(__builtin_ctzll(m));
        return unsigned(__builtin_ctzll(free));
    }

    /** Install @p p into slot @p l. A slot reloaded with the state it
     *  forked skips the restore (packed: the transpose): its state is
     *  that snapshot already, and the wake marks it kept are exact. */
    template <class K>
    void
    load(const K &k, unsigned l, const Pending &p)
    {
        Path &P = paths_[l];
        static_cast<PathPos &>(P) = p;
        P.base = p.simDelta ? p.simDelta->base : p.simFull;
        P.absCycle = p.simDelta ? p.simDelta->cycle : p.simFull->cycle;
        P.powerW.clear();
        P.modulePowerW.clear();
        P.cycleInfo.clear();
        k.load(l, p, resident(l, p));
        liveMask_ |= uint64_t(1) << l;
    }

    /** One cycle of every live path: reserve the cycles, step the
     *  kernel once, then run the per-cycle routine on each path. */
    template <class K>
    void
    step(SharedState &sh, const K &k)
    {
        uint64_t stepped = liveMask_;
        unsigned n = unsigned(__builtin_popcountll(stepped));
        // Reserve before stepping, so a run is ok exactly when its
        // scheduling-independent total fits the budget, whatever the
        // slot width or thread count.
        if (sh.totalCycles.fetch_add(n, std::memory_order_relaxed) +
                n > cfg_.maxTotalCycles) {
            sh.fail("symbolic cycle budget exhausted");
            return;
        }
        for (uint64_t m = stepped; m; m &= m - 1) {
            if (paths_[__builtin_ctzll(m)].pathCycles >=
                cfg_.maxPathCycles) {
                sh.fail("path exceeded maxPathCycles (missing "
                        "halt or unbounded loop?)");
                return;
            }
        }
        // The step moves every slot's state (the packed sweep moves
        // idle lanes too), so no slot holds a fork state past it.
        dropHeld();
        k.step(stepped);
        cyclesRun += n;
        if (K::kWidth > 1) {
            sh.packedSweeps.fetch_add(1, std::memory_order_relaxed);
            sh.packedLaneCycles.fetch_add(n, std::memory_order_relaxed);
        }
        for (uint64_t m = stepped; m; m &= m - 1)
            if (!cycle(sh, k, unsigned(__builtin_ctzll(m))))
                return;
    }

    /** The per-cycle bookkeeping of the path in slot @p l, right after
     *  the kernel stepped it: Algorithm 2's power assignment, then
     *  Algorithm 1's checks, ending the path at a halt (leaf) or an X
     *  next PC (fork). Returns false when the engine failed. */
    template <class K>
    bool
    cycle(SharedState &sh, const K &k, unsigned l)
    {
        Path &P = paths_[l];
        const msp::CpuHandles &h = sys_->handles();
        const power::PowerContext &ctx = *ctx_;
        // The post-reset index of the cycle just simulated selects
        // the operating mode its power is computed at.
        uint64_t cycleIdx = P.pathCycles++;
        ++P.absCycle;
        P.forcedPc = kNoForcedPc; // both forces applied by the step
        P.applyInit = false;

        Word16 pcNow = k.bus(h.pc, l);
        if (!pcNow.isFullyKnown()) {
            sh.fail("PC became X without fork interception");
            return false;
        }
        P.lastPc = pcNow.value;
        int fsm = k.fsmState(l);
        if (fsm == msp::kStFetch)
            P.curInstr = P.lastPc; // the word under fetch

        // ---- Per-cycle Algorithm 2 assignment ----
        // Under an operating-mode schedule the cycle's energy is
        // scaled by its mode's (vdd/vdd_lib)^2 and its power uses
        // the mode's clock; otherwise the classic fixed-point
        // path (bit-identical: no extra arithmetic).
        double w;
        double modeScale = 1.0, modeFreq = ctx.freqHz();
        if (modeFactors_.empty()) {
            w = ctx.cyclePowerW(k.boundEnergyJ(l));
        } else {
            const std::pair<double, double> &mf =
                modeFactors_[size_t(cycleIdx % modeFactors_.size())];
            modeScale = mf.first;
            modeFreq = mf.second;
            w = ctx.cyclePowerW(k.boundEnergyJ(l), modeScale, modeFreq);
        }
        P.powerW.push_back(float(w));
        if (cfg_.recordModuleTrace) {
            std::vector<double> mod =
                ctx.cycleModulePowerW(k.moduleEnergyJ(l));
            if (!modeFactors_.empty()) {
                // Same rescaling per module: (sw_m + static_m)
                // * scale * f_mode, expressed as a ratio against
                // the reference-clock value.
                double ratio = modeScale * (modeFreq / ctx.freqHz());
                for (double &m : mod)
                    m *= ratio;
            }
            P.modulePowerW.emplace_back(mod.begin(), mod.end());
            CycleInfo info;
            info.instrPc = P.curInstr;
            info.fsmState = uint8_t(fsm < 0 ? 255 : fsm);
            P.cycleInfo.push_back(info);
        }
        uint32_t cyc = uint32_t(P.powerW.size() - 1);
        if (betterCandidate(w, P.nodeKey, cyc)) {
            peakPowerW = w;
            peakNode = P.node;
            peakCycleInNode = cyc;
            peakNodeKey = P.nodeKey;
            if (cfg_.recordActiveSets)
                k.activeGates(l, peakActive);
        }

        if (k.xStoreFault(l)) {
            sh.fail("store with unknown address or enable "
                    "(X-store); see DESIGN.md section 5");
            return false;
        }
        if (k.halted(l)) {
            commit(P, true); // leaf: end of this execution path
            retire(sh, l);
            return true;
        }
        if (fsm == msp::kStHalt) {
            sh.fail("core trapped (invalid instruction) at "
                    "pc~0x" + std::to_string(P.lastPc));
            return false;
        }

        // ---- Algorithm 1 line 17: will PC_next be X? ----
        for (GateId g : h.pc)
            if (k.predictSeq(g, l) == V4::X)
                return fork(sh, k, l);
        return true;
    }

    // Dedup keys are full-simulator-state + memory + schedule-phase
    // + fork-target hashes (built inline at the fork): hashing the
    // complete state, not just the architectural state, guarantees
    // that when two racing paths map to one key their continuations
    // are identical -- so the merged node's trace, and every number
    // derived from it, is independent of which path claimed the key.
    // The scenario schedule phase participates because under a
    // scheduled scenario the same state continues differently at
    // different points of the period.
    template <class K>
    bool
    fork(SharedState &sh, const K &k, unsigned l)
    {
        Path &P = paths_[l];
        // Resolve feasible targets from the (concrete) IR.
        Word16 ir = k.bus(sys_->handles().ir, l);
        if (!ir.isFullyKnown()) {
            sh.fail("X program counter with unknown IR");
            return false;
        }
        isa::Decoded dec = isa::decode(ir.value, 0, 0);
        if (!dec.valid || !isa::isJump(dec.instr.op)) {
            sh.fail("unresolvable X program counter (op " +
                    std::string(isa::opName(dec.instr.op)) +
                    "): indirect jump through unknown data");
            return false;
        }

        // At EXEC of a jump the PC holds the fall-through address.
        uint32_t fallThrough = P.lastPc;
        uint32_t taken =
            (P.lastPc + uint32_t(int32_t(dec.instr.jumpOffsetWords) * 2)) &
            0xffff;
        uint32_t targets[2] = {taken, fallThrough};
        unsigned numTargets = taken == fallThrough ? 1 : 2;

        // Hash keys and capture the fork state before touching any
        // shared structure: both read only worker-local state, and
        // they are the heavy part of a fork. The state is hashed once
        // (target and schedule phase enter via final mixes) and the
        // snapshots are shared by both child Pendings.
        auto st = k.forkState(l, P.absCycle);
        uint64_t keyBase = st.hash();
        k.memory(l).hashInto(keyBase);
        keyBase ^= 0xda942042e4dd58b5ull *
                   (cfg_.scenario.dedupPhase(P.pathCycles) + 1);
        uint64_t keys[2];
        for (unsigned t = 0; t < numTargets; ++t)
            keys[t] = keyBase ^ 0x9e3779b97f4a7c15ull *
                                    (uint64_t(targets[t]) + 1);
        std::shared_ptr<const Simulator::Snapshot> childFull;
        std::shared_ptr<const Simulator::DeltaSnapshot> childDelta;
        capture(sh, P.base, st, childFull, childDelta);
        // The slot's state is the captured one until its next step.
        // Holding a reference pins the snapshot, so its address cannot
        // be reused by another one meanwhile.
        if (childDelta)
            slotHeld_[l] = childDelta;
        else
            slotHeld_[l] = childFull;
        heldMask_ |= uint64_t(1) << l;
        // A forking path is neither halted nor X-store faulted.
        auto sysSnap = std::make_shared<const msp::System::Snapshot>(
            msp::System::Snapshot{k.memory(l).snapshot(), false, false});

        // Commit this node's trace (we own it; no lock), then
        // resolve each target against the sharded dedup map.
        P.nodePtr->branchPc = (P.lastPc - 2) & 0xffff;
        commit(P, false);
        if (!resolveFork(sh, P, targets, keys, numTargets, childFull,
                         childDelta, sysSnap))
            return false;
        retire(sh, l); // continuations live on the work queues
        return true;
    }

    /** Capture a fork's simulator state @p st: a delta against
     * @p base, promoted to a fresh full snapshot when the path has
     * diverged too far (or always, in Full mode). The choice is a
     * pure function of path state, so every scheduling captures the
     * same representations and the byte statistics are
     * deterministic. */
    template <class State>
    void
    capture(SharedState &sh,
            const std::shared_ptr<const Simulator::Snapshot> &base,
            State &st,
            std::shared_ptr<const Simulator::Snapshot> &out_full,
            std::shared_ptr<const Simulator::DeltaSnapshot> &out_delta)
        const
    {
        size_t full_bytes = Simulator::bytesOf(*base);
        sh.snapshotBytesFull.fetch_add(full_bytes,
                                       std::memory_order_relaxed);
        if (cfg_.snapshotMode == SnapshotMode::Delta) {
            Simulator::DeltaSnapshot d = st.delta(base);
            if (d.deltaBytes() * kDeltaPromoteDen <=
                full_bytes * kDeltaPromoteNum) {
                sh.snapshotBytesCopied.fetch_add(
                    d.deltaBytes(), std::memory_order_relaxed);
                out_delta = std::make_shared<
                    const Simulator::DeltaSnapshot>(std::move(d));
                return;
            }
        }
        sh.snapshotBytesCopied.fetch_add(full_bytes,
                                         std::memory_order_relaxed);
        out_full = std::make_shared<const Simulator::Snapshot>(st.full());
    }

    /** Move @p P's buffered traces into its node (owned by this
     *  worker; no lock). */
    static void
    commit(Path &P, bool ends_halted)
    {
        P.nodePtr->powerW = std::move(P.powerW);
        P.nodePtr->modulePowerW = std::move(P.modulePowerW);
        P.nodePtr->cycleInfo = std::move(P.cycleInfo);
        P.nodePtr->endsHalted = ends_halted;
    }

    /** Free slot @p l and account its path as done. */
    void
    retire(SharedState &sh, unsigned l)
    {
        paths_[l].base.reset();
        liveMask_ &= ~(uint64_t(1) << l);
        if (sh.inflight.fetch_sub(1) == 1) {
            std::lock_guard<std::mutex> lock(sh.idleMu);
            sh.idleCv.notify_all();
        }
    }

    /** Resolve fork targets against the sharded dedup map, link
     * edges from @p P's node, and enqueue new children on this
     * worker's deque. Returns false when the node budget failed the
     * engine. */
    bool
    resolveFork(
        SharedState &sh, const Path &P, const uint32_t *targets,
        const uint64_t *keys, unsigned numTargets,
        const std::shared_ptr<const Simulator::Snapshot> &childFull,
        const std::shared_ptr<const Simulator::DeltaSnapshot>
            &childDelta,
        const std::shared_ptr<const msp::System::Snapshot> &sysSnap)
    {
        for (unsigned t = 0; t < numTargets; ++t) {
            uint64_t key = keys[t];
            SharedState::Shard &shard =
                sh.shards[SharedState::shardOf(key)];
            uint32_t child = kNoNode;
            TreeNode *childPtr = nullptr;
            {
                std::lock_guard<std::mutex> lock(shard.mu);
                auto it = shard.visited.find(key);
                if (it != shard.visited.end()) {
                    // Algorithm 1 line 19: already simulated (or
                    // claimed by a racing worker, which will
                    // simulate the identical continuation); merge.
                    P.nodePtr->edges.push_back(
                        TreeEdge{targets[t], it->second, true});
                    sh.dedupMerges.fetch_add(
                        1, std::memory_order_relaxed);
                    continue;
                }
                // New state: allocate its node while holding the
                // shard (lock order: shard -> tree, never the
                // reverse), so a racing twin either sees our map
                // entry or blocks until it does.
                {
                    std::lock_guard<std::mutex> tlock(sh.treeMu);
                    if (sh.tree->numNodes() >= cfg_.maxNodes) {
                        sh.fail("execution tree node budget "
                                "exhausted");
                        return false;
                    }
                    child = sh.tree->newNode(P.node);
                    childPtr = &sh.tree->node(child);
                }
                shard.visited.emplace(key, child);
            }
            P.nodePtr->edges.push_back(
                TreeEdge{targets[t], child, false});
            Pending next;
            static_cast<PathPos &>(next) = P; // PC and cycle state
            next.node = child;
            next.nodePtr = childPtr;
            next.nodeKey = key;
            next.forcedPc = targets[t];
            next.simFull = childFull;
            next.simDelta = childDelta;
            next.sysSnap = sysSnap;
            sh.push(id_, std::move(next));
        }
        return true;
    }

    SymbolicConfig cfg_;
    unsigned id_;
    std::unique_ptr<msp::System> owned_;
    msp::System *sys_ = nullptr;
    std::unique_ptr<Simulator> sim_;
    std::unique_ptr<power::PowerContext> ctx_;
    /** Per-schedule-phase (energy scale, clock Hz); empty without
     *  operating modes. */
    std::vector<std::pair<double, double>> modeFactors_;
    /** In-flight paths, one per kernel slot (1 scalar, 64 once the
     *  packed side exists); the scalar kernel uses slot 0. */
    std::vector<Path> paths_;
    uint64_t liveMask_ = 0; ///< slots holding a path
    /// @name Packed-frontier state (built by packedKernel())
    /// @{
    std::unique_ptr<PackedSimulator> psim_;
    std::vector<Memory> laneMem_;
    uint64_t haltedMask_ = 0;
    uint64_t faultMask_ = 0;
    /// @}
    /** Per slot: the fork snapshot its simulator state still equals
     *  (set at a fork, dropped by the next step); heldMask_ marks the
     *  set entries. */
    std::array<std::shared_ptr<const void>, PackedSimulator::kLanes>
        slotHeld_;
    uint64_t heldMask_ = 0;
};

} // namespace

SymbolicEngine::SymbolicEngine(msp::System &sys,
                               const SymbolicConfig &cfg)
    : sys_(&sys), cfg_(cfg)
{
}

SymbolicResult
SymbolicEngine::run(const isa::Image &image)
{
    SymbolicResult res;
    const Netlist &nl = sys_->netlist();

    unsigned numWorkers = cfg_.numThreads > 1 ? cfg_.numThreads : 1;
    if (numWorkers > 1) {
        // More exploration threads than cores adds no parallelism and
        // burns time in the steal loop (results are identical at any
        // worker count, so clamping only changes the scheduling
        // statistics). Never clamp below 2: the concurrent paths stay
        // exercised even on single-core hosts.
        unsigned hw = std::thread::hardware_concurrency();
        if (hw && numWorkers > hw)
            numWorkers = std::max(2u, hw);
    }

    // Mode-schedule consistency first (like the regInit/ramInit
    // validation below, programmatic scenarios must fail as cleanly
    // as JSON ones) -- worker construction resolves mode voltages
    // against the library, so a broken schedule must never get there.
    try {
        cfg_.scenario.validate();
    } catch (const std::exception &e) {
        res.ok = false;
        res.error = e.what();
        return res;
    }

    // Algorithm 1 lines 2-5: everything X, load binary, reset. Worker
    // 0 wraps the caller's System; extra workers elaborate clones.
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(numWorkers);
    try {
        for (unsigned i = 0; i < numWorkers; ++i)
            workers.push_back(std::make_unique<Worker>(
                *sys_, cfg_, image, i, /*owns_clone=*/i > 0));
    } catch (const std::exception &e) {
        res.ok = false;
        res.error = std::string("worker setup failed: ") + e.what();
        return res;
    }
    sys_->reset(workers[0]->sim());

    // Scenario constraints are validated here, not only in the JSON
    // parser: scenarios built programmatically must fail as cleanly
    // as ones read from files.
    for (const auto &[reg, value] : cfg_.scenario.regInit) {
        (void)value;
        if (reg < 4 || reg > 15) {
            res.ok = false;
            res.error = "scenario reg_init register r" +
                        std::to_string(reg) +
                        " is not a general-purpose register "
                        "(4..15; r0-r3 are pc/sp/sr/cg)";
            return res;
        }
    }
    // Scenario initial-memory constraints, applied to the base
    // system before the root snapshot so every path inherits them.
    for (const auto &[addr, words] : cfg_.scenario.ramInit) {
        char range[32];
        std::snprintf(range, sizeof range, "0x%04x", addr);
        if (words.empty()) {
            res.ok = false;
            res.error = std::string("scenario ram_init at ") + range +
                        " has no words";
            return res;
        }
        uint32_t last = addr + uint32_t(words.size() - 1) * 2;
        if (!sys_->memory().inRam(addr) ||
            !sys_->memory().inRam(last)) {
            res.ok = false;
            res.error = std::string("scenario ram_init range [") +
                        range + ", +" +
                        std::to_string(words.size()) +
                        " words] is outside RAM";
            return res;
        }
        sys_->memory().loadRam(addr, words);
    }

    SharedState sh;
    sh.tree = &res.tree;
    sh.queues.resize(numWorkers);

    uint32_t root = res.tree.newNode(kNoNode);
    {
        Pending p;
        p.simFull = std::make_shared<const Simulator::Snapshot>(
            workers[0]->sim().snapshot());
        p.sysSnap = std::make_shared<const msp::System::Snapshot>(
            sys_->snapshot());
        p.node = root;
        p.nodePtr = &res.tree.node(root);
        p.applyInit = !cfg_.scenario.regInit.empty();
        sh.push(0, std::move(p));
    }

    if (numWorkers == 1) {
        workers[0]->explore(sh);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(numWorkers);
        for (unsigned i = 0; i < numWorkers; ++i) {
            Worker *w = workers[i].get();
            pool.emplace_back([&sh, w] { w->explore(sh); });
        }
        for (auto &t : pool)
            t.join();
    }

    res.totalCycles = sh.totalCycles.load();
    res.pathsExplored = sh.pathsExplored.load();
    res.dedupMerges = sh.dedupMerges.load();
    res.steals = sh.steals.load();
    res.snapshotBytesCopied = sh.snapshotBytesCopied.load();
    res.snapshotBytesFull = sh.snapshotBytesFull.load();
    res.packedBatches = sh.packedBatches.load();
    res.packedSweeps = sh.packedSweeps.load();
    res.packedLaneCycles = sh.packedLaneCycles.load();
    res.perWorkerCycles.reserve(numWorkers);
    for (auto &w : workers)
        res.perWorkerCycles.push_back(w->cyclesRun);

    if (sh.failed.load()) {
        res.ok = false;
        res.error = sh.error;
        return res;
    }

    // Deterministic merge: candidates are ordered by (power, then
    // canonical node key / cycle on exact ties), so the winning cycle
    // -- including its recorded active set -- is the same logical
    // cycle under any work partition or thread scheduling.
    if (cfg_.recordActiveSets)
        res.everActive.assign(nl.numGates(), 0);
    const Worker *best = nullptr;
    for (auto &w : workers) {
        if (w->peakPowerW > 0.0 &&
            (!best || best->betterCandidate(w->peakPowerW,
                                            w->peakNodeKey,
                                            w->peakCycleInNode)))
            best = w.get();
        if (cfg_.recordActiveSets)
            for (size_t g = 0; g < w->everActive_.size(); ++g)
                res.everActive[g] |= w->everActive_[g];
    }
    if (best) {
        res.peakPowerW = best->peakPowerW;
        res.peakNode = best->peakNode;
        res.peakCycleInNode = best->peakCycleInNode;
        res.peakActive = best->peakActive;
    }

    // ---- Section 3.3: peak energy over the tree ----
    power::PowerContext ctx(nl, cfg_.freqHz);
    try {
        PathEnergy pe =
            cfg_.scenario.hasModes()
                ? res.tree.maxPathEnergy(
                      cfg_.scenario.phaseTclkS(),
                      cfg_.inputDependentLoopBound)
                : res.tree.maxPathEnergy(
                      ctx.tclkS(), cfg_.inputDependentLoopBound);
        res.peakEnergyJ = pe.energyJ;
        res.maxPathCycles = pe.cycles;
        res.npeJPerCycle =
            pe.cycles ? pe.energyJ / double(pe.cycles) : 0.0;
        // ---- Per-cycle peak power envelope over the tree ----
        // Computed from the tree rather than max-merged inside the
        // workers: a dedup race can hang the same logical node under
        // either racing parent, and only the tree walk sees both
        // resulting offsets -- worker-local merges would be
        // scheduling-dependent exactly there.
        if (cfg_.recordEnvelope)
            res.envelopeW = res.tree.envelopePowerW(
                cfg_.inputDependentLoopBound);
    } catch (const std::exception &e) {
        res.ok = false;
        res.error = e.what();
        return res;
    }

    res.ok = true;
    return res;
}

} // namespace sym
} // namespace ulpeak
