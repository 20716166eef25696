/**
 * @file
 * Static netlist analysis: structural lint passes and scenario-aware
 * ternary constant propagation (the `ullint` layer, PR 9).
 *
 * Two independent passes over a Netlist:
 *
 *  1. structuralLint() -- connectivity sanity checks that need no
 *     scenario: combinational loops (latch-free cycles through gate
 *     fanins), floating fanin slots, multi-driven nets (an Input gate
 *     claimed by more than one behavioral hook, or a hook claiming a
 *     gate that computes its own value), dead gates (no fanin path
 *     from any observation point -- named gates and hook reads --
 *     back to the gate), and fanout hotspots. Runs on finalized and
 *     unfinalized netlists alike (a netlist with a combinational
 *     loop can never finalize, so the loop detector builds its own
 *     CSR fanin adjacency from the construction-phase gate records;
 *     on finalized netlists it is the same adjacency flat() holds).
 *
 *  2. analyzeConstants() -- a forward three-valued dataflow fixpoint
 *     proving gates constant under a deployment Scenario. The value
 *     lattice per gate is {X} < {0, 1} ("not proven" below "proven
 *     constant"); seeds are Const cells, port bits the scenario pins
 *     to the same value in every phase of its port schedule, and
 *     inputs the system driver holds at a fixed level every
 *     post-reset cycle (rstn = 1, irq = 0 for msp::System). Transfer
 *     functions are the simulator's own evalCell/evalSeqCell, so the
 *     proof obligations and the kernels can never disagree about a
 *     cell's semantics. The monotone worklist iteration computes the
 *     least fixpoint: a gate is reported constant only when every
 *     scenario-obeying execution holds it at that value from its
 *     settle cycle on.
 *
 * The analysis also derives the *prune set*: proven-constant
 * combinational gates, constants, and pinned inputs -- never
 * sequential gates or hook-driven nets -- that a simulator could
 * skip entirely once settled; `ullint` reports it as the static
 * quiescent cone. Each member carries a settle depth: the number of
 * clock edges after reset before its value is guaranteed to have
 * reached the proven constant (0 for purely combinational cones over
 * the seeds, +1 per sequential stage the proof passes through).
 * Soundness is enforced dynamically by fuzz property 9 (`ulfuzz
 * --mode lint`): every constant claim is checked against concrete
 * scenario-obeying runs from the settle cycle on.
 */

#ifndef ULPEAK_LINT_LINT_HH
#define ULPEAK_LINT_LINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hh"
#include "scenario/scenario.hh"

namespace ulpeak {
namespace lint {

enum class Severity : uint8_t { Error, Warning, Info };
enum class IssueKind : uint8_t {
    CombLoop,      ///< latch-free cycle through gate fanins
    FloatingInput, ///< fanin slot unset or out of range
    MultiDriver,   ///< net claimed by >1 driver (hook overlap)
    DeadGate,      ///< no path to any observation point
    FanoutHotspot, ///< fanout count above threshold
};

const char *severityName(Severity s);
const char *issueKindName(IssueKind k);

/** One finding. Deterministic: gates are sorted ascending and the
 *  report orders issues by (kind, first gate id). */
struct Issue {
    IssueKind kind = IssueKind::CombLoop;
    Severity severity = Severity::Error;
    std::vector<GateId> gates; ///< involved gates (cycle members,
                               ///< the floating gate, ...)
    std::string message;       ///< human-readable, includes names
};

struct StructuralOptions {
    /** Fanout count at or above which a gate is reported as a
     *  hotspot; 0 picks max(64, numGates / 16). */
    uint32_t fanoutHotspotThreshold = 0;
    /** Cap on reported hotspot issues (highest fanout first). */
    uint32_t maxHotspots = 8;
    /** Cap on gate ids listed per dead-cone issue. */
    uint32_t maxListedDeadGates = 16;
};

struct StructuralReport {
    std::vector<Issue> issues;
    uint32_t fanoutHotspotThreshold = 0; ///< resolved threshold
    size_t deadGates = 0; ///< total dead gates (issues list a sample)

    size_t count(IssueKind k) const;
    /** Number of Severity::Error issues (CI gates on zero). */
    size_t errors() const;
};

/** Run every structural pass on @p nl (finalized or not). */
StructuralReport structuralLint(const Netlist &nl,
                                const StructuralOptions &opts = {});

struct ConstAnalysisOptions {
    /** The deployment scenario; port bits pinned to one value across
     *  every phase of the port schedule seed the fixpoint. */
    scenario::Scenario scenario;
    /** Gate ids of the port input bus, bit i at index i (empty
     *  entries kNoGate). For msp::System: handles().portIn. */
    std::vector<GateId> portBits;
    /** Inputs the system driver holds at a fixed value every
     *  post-reset cycle (msp::System: rstn = 1, irq = 0). */
    std::vector<std::pair<GateId, V4>> drivenConstants;
    /** Input gates written by behavioral hooks are never seeds or
     *  prune members; set automatically from Netlist::hooks(). */
};

/** Result of the constant-propagation fixpoint over one scenario. */
struct ConstAnalysis {
    /** Per-gate proven value; X means "not proven constant". */
    std::vector<V4> value;
    /** Per-gate settle depth (clock edges after the first post-reset
     *  cycle before the proven value is guaranteed); only meaningful
     *  where value != X. */
    std::vector<uint32_t> settleDepth;
    /** 1 = gate could be skipped by a settled simulator: proven-known
     *  combinational gates, Const cells, pinned port bits and
     *  driver-constant inputs. Sequential gates and hook-driven nets
     *  never join. */
    std::vector<uint8_t> pruneMask;
    uint32_t maxPruneDepth = 0; ///< max settleDepth over the mask

    size_t provenConst = 0;   ///< gates with a proven value
    size_t provenSeq = 0;     ///< ... of which sequential (reported,
                              ///< never pruned)
    size_t prunable = 0;      ///< mask population
    /** Per-cycle switching energy the proven-quiescent gates can no
     *  longer contribute: sum of maxE over the mask [J]. */
    double quiescentEnergyJ = 0.0;
    /** Static upper bound on any cycle's netlist switching energy
     *  once settled: sum of maxE over gates NOT proven constant,
     *  plus the clock tree [J]. Behavioral (hook) energies are
     *  outside the netlist and excluded. */
    double switchingBoundJ = 0.0;

    /** switchingBoundJ priced at @p freq_hz plus leakage [W] -- the
     *  static analogue of a per-cycle envelope bound. */
    double staticPeakPowerW(double freq_hz, double leakage_w) const
    {
        return switchingBoundJ * freq_hz + leakage_w;
    }
};

/** Run the scenario-aware constant fixpoint on @p nl. */
ConstAnalysis analyzeConstants(const Netlist &nl,
                               const ConstAnalysisOptions &opts);

/** Per-top-module quiescent-cone row of the `ullint` report. */
struct QuiescentCone {
    std::string module;
    size_t gates = 0;        ///< gates in the module
    size_t constGates = 0;   ///< ... proven constant
    size_t pruned = 0;       ///< ... in the prune mask
    double quiescentEnergyJ = 0.0; ///< maxE no longer contributable
};

/** Group @p a's proven-constant gates per top-level module,
 *  alphabetical by module name (deterministic). */
std::vector<QuiescentCone> quiescentCones(const Netlist &nl,
                                          const ConstAnalysis &a);

} // namespace lint
} // namespace ulpeak

#endif // ULPEAK_LINT_LINT_HH
