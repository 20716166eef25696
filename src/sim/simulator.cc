#include "sim/simulator.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace ulpeak {

namespace {

inline uint64_t
bitOf(uint32_t i)
{
    return uint64_t(1) << (i & 63);
}

/**
 * Algorithm 2's choice per (previous, current) value pair, indexed by
 * prev << 2 | cur: which of the gate's {rise, fall, max} energies the
 * bound takes, and whether the bound and the actual energy count it
 * (a 0.0/1.0 factor). A known hold is an X-propagation flag only and
 * adds +0.0 to both sums -- bit-identical to skipping it, because no
 * partial sum is ever -0.0.
 */
struct EnergyPick {
    uint8_t sel;   ///< 0 rise, 1 fall, 2 max
    double bound;  ///< 1.0 when the bound counts the term
    double actual; ///< 1.0 for a concrete known->known toggle
};
constexpr EnergyPick kEnergyPick[16] = {
    {0, 0.0, 0.0}, // 0 -> 0: hold
    {0, 1.0, 1.0}, // 0 -> 1: rise
    {0, 1.0, 0.0}, // 0 -> X: assign the X to !p, a rise
    {0, 0.0, 0.0}, // (unused encoding)
    {1, 1.0, 1.0}, // 1 -> 0: fall
    {0, 0.0, 0.0}, // 1 -> 1: hold
    {1, 1.0, 0.0}, // 1 -> X: a fall
    {0, 0.0, 0.0},
    {1, 1.0, 0.0}, // X -> 0: assign the previous X to !c, a fall
    {0, 1.0, 0.0}, // X -> 1: a rise
    {2, 1.0, 0.0}, // X -> X: the maximum-power transition
    {0, 0.0, 0.0},
    {0, 0.0, 0.0},
    {0, 0.0, 0.0},
    {0, 0.0, 0.0},
    {0, 0.0, 0.0},
};

inline const EnergyPick &
energyPick(V4 prev, V4 cur)
{
    return kEnergyPick[unsigned(prev) << 2 | unsigned(cur)];
}

} // namespace

Simulator::Simulator(const Netlist &nl, EvalMode mode)
    : nl_(&nl), flat_(&nl.flat()), mode_(mode)
{
    if (!nl.finalized())
        throw std::logic_error("Simulator requires a finalized netlist");
    size_t n = nl.numGates();
    size_t nseq = nl.seqGates().size();
    val_.assign(n, V4::X);
    prev_.assign(n, V4::X);
    // Padded to a multiple of 8 so the canonical active-list rebuild
    // can scan the flags a word at a time; pad bytes stay 0.
    active_.assign((n + 7) & ~size_t(7), 0);
    activePrev_.assign(active_.size(), 0);
    loadedPrevEdge_.assign(nseq, 1);
    seqIndexOf_.assign(n, UINT32_MAX);
    for (size_t i = 0; i < nseq; ++i)
        seqIndexOf_[nl.seqGates()[i]] = uint32_t(i);
    topModuleOf_.resize(n);
    for (GateId g = 0; g < n; ++g)
        topModuleOf_[g] = nl.topLevelModuleOf(nl.gate(g).module);
    for (GateId g = 0; g < n; ++g) {
        if (flat_->kind[g] == CellKind::Input) {
            inputGates_.push_back(g);
            inputPos_.push_back(flat_->posOfNode[g]);
        }
    }
    dirty_.assign((flat_->schedule.size() + 63) / 64, 0);
    seqNext_.assign((nseq + 63) / 64, 0);
    seqAct_[0].assign(seqNext_.size(), 0);
    seqAct_[1].assign(seqNext_.size(), 0);
    seqActive_.assign(nseq, 0);
    activeList_.reserve(n / 4 + 64);
    markAllSeq();
    hookFns_.resize(nl.hooks().size());
    behavioralModule_.assign(nl.numModules(), 0.0);
    moduleEnergy_.assign(nl.numModules(), 0.0);
}

void
Simulator::setHookFn(uint32_t hook_id, HookFn fn)
{
    hookFns_.at(hook_id) = std::move(fn);
}

void
Simulator::addEdgeFn(EdgeFn fn)
{
    edgeFns_.push_back(std::move(fn));
}

void
Simulator::enqueueNode(uint32_t node)
{
    uint32_t pos = flat_->posOfNode[node];
    dirty_[pos >> 6] |= bitOf(pos);
}

void
Simulator::enqueueSeqNext(uint32_t seq_index)
{
    seqNext_[seq_index >> 6] |= bitOf(seq_index);
}

void
Simulator::markAllSeq()
{
    // Marking every flop as this cycle's activity consumer wakes it at
    // both of the next two edges.
    size_t nseq = seqActive_.size();
    std::vector<uint64_t> &w = seqAct_[0];
    std::fill(w.begin(), w.end(), ~uint64_t(0));
    if (nseq % 64)
        w.back() = bitOf(uint32_t(nseq)) - 1;
}

/**
 * The event-driven kernel's working set, as raw pointers held in
 * locals: the per-node path stores bytes (values, flags), which may
 * alias anything, so reading the arrays through the Simulator's
 * vectors would reload their data pointers on the critical path of
 * every node.
 */
struct Simulator::Drain {
    const FlatNetlist::NodeRec *rec;
    const GateId *fanout;
    const uint32_t *fanoutPos;
    const uint32_t *seqFanout;
    V4 *val;
    const V4 *prev;
    uint8_t *act;
    const uint8_t *prune; ///< the engaged prune mask, or null
    uint64_t *dirty;
    uint64_t *seqAct; ///< this cycle's flop wake marks

    explicit Drain(Simulator &s)
        : rec(s.flat_->nodeRec.data()), fanout(s.flat_->fanout.data()),
          fanoutPos(s.flat_->fanoutPos.data()),
          seqFanout(s.flat_->seqFanout.data()), val(s.val_.data()),
          prev(s.prev_.data()), act(s.active_.data()),
          prune(s.staticPruneActive() ? s.pruneMask_->data() : nullptr),
          dirty(s.dirty_.data()),
          seqAct(s.seqAct_[0].data())
    {
    }

    /** Mark the consumers of one driver, without branches on data:
     *  the combinational fanouts fanout[fb, fe) when @p a & (@p
     *  changed | consumer is X) and (with @p kPrune) the consumer is
     *  not pruned, and the flops seqFanout[sb, se) when @p a. */
    template <bool kPrune>
    void
    wake(uint32_t fb, uint32_t fe, uint32_t sb, uint32_t se, uint8_t a,
         uint8_t changed) const
    {
        // A consumer must re-evaluate when a fanin's value changed.
        // When the fanin is merely X-active (value held), only
        // X-valued consumers can be affected: a known-valued consumer
        // of unchanged fanins recomputes the same known value and
        // stays inactive (Section 3.1's X rule applies to X outputs
        // only). An engaged prune mask drops proven-constant
        // consumers: re-evaluating one reproduces its settled value
        // and inactivity, so skipping is value- and energy-neutral.
        for (uint32_t i = fb; i < fe; ++i) {
            GateId t = fanout[i];
            uint32_t pos = fanoutPos[i];
            uint64_t m = a & (changed | uint8_t(val[t] == V4::X));
            if (kPrune)
                m &= prune[t] ^ 1;
            dirty[pos >> 6] |= m << (pos & 63);
        }
        for (uint32_t i = sb; i < se; ++i) {
            uint32_t s = seqFanout[i];
            seqAct[s >> 6] |= uint64_t(a) << (s & 63);
        }
    }

    /** evalNode's rules for the gate at record @p r, over its padded
     *  pins: Const and Input gates read themselves (an Input's table
     *  row is the identity, and xActive makes its X count as active). */
    template <bool kPrune>
    void
    eval(const FlatNetlist::NodeRec &r) const
    {
        GateId g = r.node;
        V4 v = kCellTruthTable[size_t(r.kind)][cellTableIndex(
            val[r.in[0]], val[r.in[1]], val[r.in[2]], val[r.in[3]])];
        uint8_t faninActive =
            act[r.in[0]] | act[r.in[1]] | act[r.in[2]] | act[r.in[3]];
        uint8_t changed = v != prev[g];
        uint8_t a = changed |
                    (uint8_t(v == V4::X) & (faninActive | r.xActive));
        val[g] = v;
        act[g] = a;
        wake<kPrune>(r.fanoutBegin, r.fanoutEnd, r.seqBegin, r.seqEnd,
                     a, changed);
    }
};

void
Simulator::wakeGate(GateId g, uint8_t changed)
{
    const FlatNetlist &f = *flat_;
    Drain d(*this);
    uint32_t fb = f.fanoutOffset[g], fe = f.fanoutOffset[g + 1];
    uint32_t sb = f.seqFanoutOffset[g], se = f.seqFanoutOffset[g + 1];
    if (d.prune)
        d.wake<true>(fb, fe, sb, se, 1, changed);
    else
        d.wake<false>(fb, fe, sb, se, 1, changed);
}

void
Simulator::setStaticPrune(
    std::shared_ptr<const std::vector<uint8_t>> mask,
    uint64_t engage_cycle)
{
    if (mask && mask->size() != nl_->numGates())
        throw std::logic_error(
            "static prune mask size != gate count");
    pruneMask_ = std::move(mask);
    pruneEngage_ = engage_cycle;
    pruneDisabled_ = false;
    unprunedRuns_.clear();
    if (!pruneMask_)
        return;
    const std::vector<uint8_t> &m = *pruneMask_;
    for (uint32_t g = 0; g < m.size();) {
        if (m[g]) {
            ++g;
            continue;
        }
        uint32_t begin = g;
        while (g < m.size() && !m[g])
            ++g;
        unprunedRuns_.push_back({begin, g});
    }
}

void
Simulator::setInput(GateId g, V4 v)
{
    assert(nl_->gate(g).kind == CellKind::Input);
    if (pruneMask_ && !pruneDisabled_ && (*pruneMask_)[g] &&
        cycle_ >= pruneEngage_) {
        if (val_[g] == v)
            return; // settled pinned input: provably no event
        // Out-of-contract drive of a proven-constant input: fall
        // back to unpruned operation rather than go unsound.
        pruneDisabled_ = true;
    }
    if (mode_ == EvalMode::EventDriven) {
        // A changed value must wake consumers immediately: when the
        // call happens between steps (legal per the API), the next
        // prologue copies val_ into prev_, so the input itself
        // evaluates as unchanged and would never propagate the edit.
        if (val_[g] != v)
            wakeGate(g, 1);
        enqueueNode(g);
    }
    val_[g] = v;
}

void
Simulator::setInputBus(const std::vector<GateId> &bus, Word16 w)
{
    for (size_t i = 0; i < bus.size(); ++i)
        setInput(bus[i], w.bit(unsigned(i)));
}

void
Simulator::forceValue(GateId g, V4 v)
{
    // Forcing a masked gate off its proven constant voids the static
    // analysis: disable pruning rather than go unsound (the symbolic
    // engine only ever forces PC / register flops, never masked
    // gates).
    if (pruneMask_ && !pruneDisabled_ && (*pruneMask_)[g] &&
        val_[g] != v && cycle_ >= pruneEngage_)
        pruneDisabled_ = true;
    // Forcing a scheduled combinational gate cannot work in either
    // kernel (the full sweep would recompute it from its fanins,
    // discarding the force): only sequential outputs and Input-kind
    // gates hold forced values.
    assert(seqIndexOf_[g] != UINT32_MAX ||
           flat_->kind[g] == CellKind::Input);
    if (mode_ == EvalMode::EventDriven && val_[g] != v) {
        wakeGate(g, 1);
        // A forced flop's own next-edge evaluation reads the forced
        // q; a forced input must re-derive its activity flag like a
        // driver-set one.
        if (seqIndexOf_[g] != UINT32_MAX)
            enqueueSeqNext(seqIndexOf_[g]);
        else
            enqueueNode(g);
    }
    val_[g] = v;
}

void
Simulator::forceBus(const std::vector<GateId> &bus, Word16 w)
{
    for (size_t i = 0; i < bus.size(); ++i)
        forceValue(bus[i], w.bit(unsigned(i)));
}

bool
Simulator::injectSeuFlip(GateId g)
{
    // Sequential state only: a flipped combinational gate would be
    // recomputed from its fanins by the very next sweep, discarding
    // the flip (same reasoning as forceValue).
    uint32_t si = seqIndexOf_[g];
    assert(si != UINT32_MAX);
    // An upset can ripple into a proven-constant cone (the proof
    // assumed fault-free operation), so any injection permanently
    // disables pruning for this simulator. Fault campaigns never
    // install masks; this is the defensive backstop.
    if (pruneMask_)
        pruneDisabled_ = true;
    V4 cur = val_[g];
    if (cur == V4::X)
        return false;
    val_[g] = (cur == V4::One) ? V4::Zero : V4::One;
    // The upset is a real output transition this cycle. If it flips
    // the flop back to its pre-edge value the known->known p == c rule
    // in accumulateEnergy bills no transition energy -- the flag then
    // only feeds X-propagation, exactly like a glitchless hold.
    if (mode_ == EvalMode::EventDriven) {
        if (!active_[g])
            seqActive_[numSeqActive_++] = g; // sweepEvent seeds from it
        wakeGate(g, 1);
        // The flipped q feeds this flop's own next-edge evaluation.
        enqueueSeqNext(si);
    }
    active_[g] = 1;
    return true;
}

Word16
Simulator::readBus(const std::vector<GateId> &bus) const
{
    Word16 w;
    for (size_t i = 0; i < bus.size(); ++i)
        w.setBit(unsigned(i), val_[bus[i]]);
    return w;
}

void
Simulator::addBehavioralEnergyJ(double j, ModuleId top_module)
{
    actualEnergy_ += j;
    boundEnergy_ += j;
    behavioralEnergy_ += j;
    behavioralModule_[top_module] += j;
}

template <bool kEvent>
void
Simulator::evalSeqGate(size_t i)
{
    const FlatNetlist &f = *flat_;
    GateId g = nl_->seqGates()[i];
    uint32_t off = f.faninOffset[g];
    unsigned nin = f.nin[g];
    V4 ins[3];
    for (unsigned p = 0; p < nin; ++p)
        ins[p] = prev_[f.fanin[off + p]];
    V4 q = prev_[g];
    bool held = false;
    V4 newq = evalSeqCell(f.kind[g], q, ins, held);
    val_[g] = newq;

    bool act;
    bool x_involved = !isKnown(newq) || !isKnown(q);
    if (held) {
        act = false;
    } else if (!x_involved) {
        act = newq != q;
    } else {
        // An unknown output may have toggled at this edge unless we
        // can prove the loaded value is the same unknown as before:
        // the flop loaded at the previous edge too, its D pin was
        // inactive then, and no control pin is X.
        bool ctrl_x = false;
        for (unsigned p = 1; p < nin; ++p)
            if (!isKnown(ins[p]))
                ctrl_x = true;
        act = !loadedPrevEdge_[i] || ctrl_x ||
              activePrev_[f.fanin[off]] ||
              (isKnown(newq) != isKnown(q));
    }
    active_[g] = act;
    uint8_t loaded = held ? 0 : 1;
    if (kEvent) {
        // Active flops seed this cycle's drain; changed state (q or
        // load history) feeds this flop's own next-edge evaluation.
        seqActive_[numSeqActive_] = g;
        numSeqActive_ += act;
        seqNext_[i >> 6] |=
            uint64_t(act | (loaded != loadedPrevEdge_[i])) << (i & 63);
    }
    loadedPrevEdge_[i] = loaded;
}

void
Simulator::updateSequential()
{
    if (mode_ == EvalMode::FullSweep) {
        for (size_t i = 0; i < nl_->seqGates().size(); ++i)
            evalSeqGate<false>(i);
        return;
    }
    // Drain this edge's marks word by word, clearing the next-edge
    // word first so marks this drain makes for the next edge survive,
    // then age this cycle's activity marks into the previous cycle's.
    uint64_t *next = seqNext_.data();
    const uint64_t *cur = seqAct_[0].data();
    const uint64_t *prev = seqAct_[1].data();
    for (size_t w = 0; w < seqNext_.size(); ++w) {
        uint64_t bits = next[w] | cur[w] | prev[w];
        next[w] = 0;
        for (; bits; bits &= bits - 1)
            evalSeqGate<true>(w * 64 + size_t(__builtin_ctzll(bits)));
    }
    seqAct_[0].swap(seqAct_[1]);
    std::fill(seqAct_[0].begin(), seqAct_[0].end(), 0);
}

void
Simulator::evalNode(uint32_t node)
{
    const FlatNetlist &f = *flat_;
    if (node >= f.numGates) {
        // Behavioral hook at its levelized position.
        HookFn &fn = hookFns_[node - f.numGates];
        if (fn)
            fn(*this);
        return;
    }
    GateId g = node;
    switch (f.kind[g]) {
      case CellKind::Const0:
        val_[g] = V4::Zero;
        active_[g] = 0;
        return;
      case CellKind::Const1:
        val_[g] = V4::One;
        active_[g] = 0;
        return;
      case CellKind::Input:
        // Value was set by the driver or a hook (or holds over from
        // the previous cycle). An unknown input may toggle at any
        // time, so X counts as active.
        active_[g] = val_[g] != prev_[g] || val_[g] == V4::X;
        return;
      default:
        break;
    }

    V4 ins[4];
    bool fanin_active = false;
    uint32_t off = f.faninOffset[g];
    unsigned nin = f.nin[g];
    for (unsigned p = 0; p < nin; ++p) {
        GateId src = f.fanin[off + p];
        ins[p] = val_[src];
        fanin_active |= active_[src] != 0;
    }
    V4 v = evalCell(f.kind[g], ins);
    val_[g] = v;
    active_[g] = v != prev_[g] || (v == V4::X && fanin_active);
}

void
Simulator::sweepFull()
{
    if (!staticPruneActive()) {
        for (uint32_t node : flat_->schedule)
            evalNode(node);
        return;
    }
    // A masked gate whose activity flag is clear already settled to
    // its proven constant and cannot toggle again: its re-evaluation
    // would reproduce val_ and a clear flag, so skipping it is
    // exact. A masked gate with the flag still set (its settle
    // transition, or any pre-engage activity carried in a restored
    // snapshot) is evaluated normally, which clears the flag.
    const uint8_t *pm = pruneMask_->data();
    for (uint32_t node : flat_->schedule) {
        if (node < flat_->numGates && pm[node] && !active_[node])
            continue;
        evalNode(node);
    }
}

void
Simulator::sweepEvent()
{
    const FlatNetlist &f = *flat_;
    // Hooks run every cycle: behavioral state (RAM contents) can
    // change between cycles without a netlist-visible event, and hooks
    // bill per-access energy, so skipping them would diverge from the
    // full sweep.
    for (uint32_t hid = 0; hid < f.numHooks; ++hid)
        enqueueNode(f.numGates + hid);
    // Unknown inputs count as active every cycle (Section 3.1) even
    // when untouched; driver-touched inputs were enqueued by
    // setInput().
    for (size_t i = 0; i < inputGates_.size(); ++i) {
        uint32_t pos = inputPos_[i];
        dirty_[pos >> 6] |= uint64_t(val_[inputGates_[i]] == V4::X)
                            << (pos & 63);
    }
    if (staticPruneActive())
        drain<true>();
    else
        drain<false>();
}

template <bool kPrune>
void
Simulator::drain()
{
    const FlatNetlist &f = *flat_;
    Drain d(*this);
    // Active sequential outputs wake their fanout cones (an inactive
    // sequential gate provably kept its value) and their sequential
    // consumers.
    for (size_t i = 0; i < numSeqActive_; ++i) {
        GateId g = seqActive_[i];
        d.wake<kPrune>(f.fanoutOffset[g], f.fanoutOffset[g + 1],
                       f.seqFanoutOffset[g], f.seqFanoutOffset[g + 1], 1,
                       d.val[g] != d.prev[g]);
    }

    // One ascending scan over schedule positions. Evaluating a node
    // marks only higher positions, so re-reading the current word
    // after each evaluation picks up marks it made in this word, and
    // later words are reached in turn: every dirty node is evaluated
    // exactly once, in full-sweep order.
    for (size_t w = 0; w < dirty_.size(); ++w) {
        for (uint64_t bits; (bits = d.dirty[w]) != 0;) {
            d.dirty[w] = bits & (bits - 1);
            const FlatNetlist::NodeRec &r =
                d.rec[w * 64 + size_t(__builtin_ctzll(bits))];
            if (r.kind != FlatNetlist::kHookKind) {
                d.eval<kPrune>(r);
                continue;
            }
            // Behavioral hook at its levelized position.
            HookFn &fn = hookFns_[r.node - f.numGates];
            if (fn)
                fn(*this);
        }
    }
}

namespace {

/**
 * Call @p f(g) for every set flag in ascending g. The flags are 0/1
 * bytes, zero-padded to a multiple of 8: a multiply by
 * 0x0102040810204080 gathers the low bits of eight bytes into the top
 * byte, so eight gathers make a 64-gate mask whose set bits are then
 * walked.
 */
template <class F>
inline void
forEachFlag(const std::vector<uint8_t> &flags, F f)
{
    const uint8_t *p = flags.data();
    size_t n = flags.size();
    for (size_t base = 0; base < n; base += 64) {
        size_t words = std::min<size_t>(8, (n - base) / 8);
        uint64_t mask = 0;
        for (size_t k = 0; k < words; ++k) {
            uint64_t w;
            std::memcpy(&w, p + base + 8 * k, 8);
            mask |= ((w * 0x0102040810204080ull) >> 56) << (8 * k);
        }
        for (; mask; mask &= mask - 1)
            f(GateId(base + size_t(__builtin_ctzll(mask))));
    }
}

} // namespace

void
Simulator::rebuildActiveList()
{
    // Ascending gate-id order is what makes the order-sensitive float
    // energy sums and the activeGates() view identical across kernels.
    activeList_.clear();
    forEachFlag(active_, [this](GateId g) { activeList_.push_back(g); });
}

void
Simulator::accumulateEnergy()
{
    // The canonical activity list and, in the same pass, the per-cycle
    // energies: concrete transitions (actual) and the Algorithm-2
    // per-cycle peak assignment (bound), after the behavioral share
    // the hooks already added.
    activeList_.clear();
    const std::array<double, 3> *energy = flat_->energy.data();
    const V4 *prev = prev_.data();
    const V4 *val = val_.data();
    double actual = actualEnergy_;
    double bound = boundEnergy_;
    forEachFlag(active_, [&](GateId g) {
        activeList_.push_back(g);
        const EnergyPick &pk = energyPick(prev[g], val[g]);
        double e = energy[g][pk.sel] * pk.bound;
        bound += e;
        actual += e * pk.actual;
    });
    actualEnergy_ = actual;
    boundEnergy_ = bound;
}

const std::vector<double> &
Simulator::moduleBoundEnergyJ() const
{
    if (moduleEnergyValid_)
        return moduleEnergy_;
    // The behavioral share first, then the active gates in ascending
    // id: per module, the same terms in the same order as the
    // boundEnergyJ sum.
    moduleEnergy_ = behavioralModule_;
    const std::array<double, 3> *energy = flat_->energy.data();
    for (GateId g : activeList_) {
        const EnergyPick &pk = energyPick(prev_[g], val_[g]);
        moduleEnergy_[topModuleOf_[g]] += energy[g][pk.sel] * pk.bound;
    }
    moduleEnergyValid_ = true;
    return moduleEnergy_;
}

void
Simulator::step(const std::function<void(Simulator &)> &driver)
{
    // Commit edge effects (memory writes) of the previous cycle.
    if (cycle_ > 0)
        for (auto &fn : edgeFns_)
            fn(*this);

    if (mode_ == EvalMode::EventDriven) {
        // Skipped gates must read as inactive.
        activePrev_.swap(active_);
        std::fill(active_.begin(), active_.end(), 0);
    } else {
        activePrev_ = active_;
    }
    prev_ = val_;
    activeList_.clear();
    numSeqActive_ = 0;
    actualEnergy_ = 0.0;
    boundEnergy_ = 0.0;
    behavioralEnergy_ = 0.0;
    std::fill(behavioralModule_.begin(), behavioralModule_.end(), 0.0);
    moduleEnergyValid_ = false;

    updateSequential();
    if (driver)
        driver(*this);
    if (mode_ == EvalMode::FullSweep) {
        sweepFull();
    } else if (cycle_ == 0) {
        // The first cycle resolves the power-on state (constants leave
        // X, everything is potentially stale): evaluate everything
        // once, then start event-driven from a consistent state. The
        // oblivious sweep records no wake marks, so re-arm every flop
        // for the next two edges.
        sweepFull();
        std::fill(dirty_.begin(), dirty_.end(), 0);
        markAllSeq();
    } else {
        sweepEvent();
    }

    accumulateEnergy();
    ++cycle_;
}

Simulator::Snapshot
Simulator::snapshot() const
{
    // Captured between steps: active_ holds the last stepped cycle's
    // activity, which the next step() moves into activePrev_.
    return Snapshot{val_, active_, loadedPrevEdge_, cycle_};
}

void
Simulator::restore(const Snapshot &s)
{
    // prev_ is deliberately left alone: the next step() rebuilds it
    // from val_ before any read.
    val_ = s.val;
    active_ = s.activeLast;
    loadedPrevEdge_ = s.loadedPrevEdge;
    cycle_ = s.cycle;
    // Rebuild the active list so consumers observing activeGates()
    // after a restore get the restored cycle's set.
    rebuildActiveList();
    // The restored state carries no wake marks: re-arm every flop.
    // (Stale marks left in the dirty bitmap are harmless --
    // evaluating a clean gate reproduces its full-sweep value and
    // activity.)
    if (mode_ == EvalMode::EventDriven)
        markAllSeq();
}


namespace {

/** Append (index, new) pairs where @p cur differs from @p base.
 *  Hot path of every delta fork: forks are temporally close to their
 *  base, so almost every byte compares equal -- scan a word at a time
 *  (same idiom as rebuildActiveList) and only touch bytes of words
 *  that differ, instead of a branch per element. */
template <typename T>
void
diffInto(const std::vector<T> &cur, const std::vector<T> &base,
         std::vector<uint32_t> &idx, std::vector<T> &out)
{
    static_assert(sizeof(T) == 1,
                  "word-at-a-time diff assumes byte elements");
    if (cur.size() != base.size())
        throw std::logic_error(
            "delta snapshot against a base from a different netlist");
    const auto *a = reinterpret_cast<const uint8_t *>(cur.data());
    const auto *b = reinterpret_cast<const uint8_t *>(base.data());
    size_t n = cur.size();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t wa, wb;
        std::memcpy(&wa, a + i, 8);
        std::memcpy(&wb, b + i, 8);
        uint64_t d = wa ^ wb;
        while (d) {
            unsigned byte = unsigned(__builtin_ctzll(d)) >> 3;
            idx.push_back(uint32_t(i + byte));
            out.push_back(cur[i + byte]);
            d &= ~(uint64_t(0xff) << (byte * 8));
        }
    }
    for (; i < n; ++i) {
        if (a[i] != b[i]) {
            idx.push_back(uint32_t(i));
            out.push_back(cur[i]);
        }
    }
}

template <typename T>
void
applyDelta(std::vector<T> &dst, const std::vector<T> &base,
           const std::vector<uint32_t> &idx, const std::vector<T> &v)
{
    dst = base; // capacity reuse: no allocation on repeated restores
    for (size_t i = 0; i < idx.size(); ++i)
        dst[idx[i]] = v[i];
}

} // namespace

size_t
Simulator::DeltaSnapshot::deltaBytes() const
{
    return valIdx.size() * (sizeof(uint32_t) + sizeof(V4)) +
           actIdx.size() * (sizeof(uint32_t) + sizeof(uint8_t)) +
           seqIdx.size() * (sizeof(uint32_t) + sizeof(uint8_t));
}

size_t
Simulator::bytesOf(const Snapshot &s)
{
    return s.val.size() * sizeof(V4) + s.activeLast.size() +
           s.loadedPrevEdge.size();
}

Simulator::DeltaSnapshot
Simulator::snapshotDelta(std::shared_ptr<const Snapshot> base) const
{
    DeltaSnapshot d;
    diffInto(val_, base->val, d.valIdx, d.valNew);
    diffInto(active_, base->activeLast, d.actIdx, d.actNew);
    diffInto(loadedPrevEdge_, base->loadedPrevEdge, d.seqIdx,
             d.seqNew);
    d.cycle = cycle_;
    d.base = std::move(base);
    return d;
}

Simulator::DeltaSnapshot
Simulator::deltaBetween(const Snapshot &cur,
                        std::shared_ptr<const Snapshot> base)
{
    DeltaSnapshot d;
    diffInto(cur.val, base->val, d.valIdx, d.valNew);
    diffInto(cur.activeLast, base->activeLast, d.actIdx, d.actNew);
    diffInto(cur.loadedPrevEdge, base->loadedPrevEdge, d.seqIdx,
             d.seqNew);
    d.cycle = cur.cycle;
    d.base = std::move(base);
    return d;
}

void
Simulator::restore(const DeltaSnapshot &s)
{
    applyDelta(val_, s.base->val, s.valIdx, s.valNew);
    applyDelta(active_, s.base->activeLast, s.actIdx, s.actNew);
    applyDelta(loadedPrevEdge_, s.base->loadedPrevEdge, s.seqIdx,
               s.seqNew);
    cycle_ = s.cycle;
    // Same tail as restore(Snapshot): see there for why.
    rebuildActiveList();
    if (mode_ == EvalMode::EventDriven)
        markAllSeq();
}

Simulator::Snapshot
Simulator::materialize(const DeltaSnapshot &s)
{
    Snapshot full;
    applyDelta(full.val, s.base->val, s.valIdx, s.valNew);
    applyDelta(full.activeLast, s.base->activeLast, s.actIdx,
               s.actNew);
    applyDelta(full.loadedPrevEdge, s.base->loadedPrevEdge, s.seqIdx,
               s.seqNew);
    full.cycle = s.cycle;
    return full;
}

V4
Simulator::predictSeqValue(GateId g) const
{
    const FlatNetlist &f = *flat_;
    uint32_t off = f.faninOffset[g];
    V4 ins[3];
    for (unsigned p = 0; p < f.nin[g]; ++p)
        ins[p] = val_[f.fanin[off + p]];
    bool held = false;
    return evalSeqCell(f.kind[g], val_[g], ins, held);
}

uint64_t
Simulator::hashSeqState() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (GateId g : nl_->seqGates()) {
        h ^= uint8_t(val_[g]);
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

/** The shared body of hashFullState / hashSnapshotState: FNV-1a over
 *  (values, activity, load history), restricted to the unmasked runs
 *  when @p runs is non-null. */
uint64_t
hashStateBytes(const uint8_t *vals, size_t nval, const uint8_t *act,
               size_t nact, const uint8_t *lpe, size_t nlpe,
               const std::vector<std::pair<uint32_t, uint32_t>> *runs)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const uint8_t *p, size_t len) {
        for (size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    if (runs) {
        // Masked gates hold their proven constant and stay inactive
        // in every reachable state, so their bytes carry no
        // information: hash only the unmasked runs. The basis is a
        // pure function of (mask, engage, cycle), identical across
        // workers, kernels, and snapshot modes, so dedup keys stay
        // scheduling-independent.
        for (const auto &r : *runs)
            mix(vals + r.first, r.second - r.first);
        for (const auto &r : *runs)
            mix(act + r.first, r.second - r.first);
        mix(lpe, nlpe);
        return h;
    }
    mix(vals, nval);
    mix(act, nact);
    mix(lpe, nlpe);
    return h;
}

} // namespace

uint64_t
Simulator::hashFullState() const
{
    // FNV-1a over everything snapshot() captures (except the cycle
    // counter): two simulators with equal full-state hashes produce
    // identical continuations under identical drivers.
    return hashStateBytes(
        reinterpret_cast<const uint8_t *>(val_.data()), val_.size(),
        active_.data(), active_.size(), loadedPrevEdge_.data(),
        loadedPrevEdge_.size(),
        staticPruneActive() ? &unprunedRuns_ : nullptr);
}

uint64_t
Simulator::hashSnapshotState(const Snapshot &s) const
{
    // Same basis rule as hashFullState, with the engage test applied
    // to the snapshot's cycle (the state's own age, not this
    // simulator's).
    bool pruned = pruneMask_ && !pruneDisabled_ &&
                  s.cycle >= pruneEngage_;
    return hashStateBytes(
        reinterpret_cast<const uint8_t *>(s.val.data()), s.val.size(),
        s.activeLast.data(), s.activeLast.size(),
        s.loadedPrevEdge.data(), s.loadedPrevEdge.size(),
        pruned ? &unprunedRuns_ : nullptr);
}

} // namespace ulpeak
