/**
 * @file
 * The differential properties the fuzzing subsystem checks
 * end-to-end, packaged so the `ulfuzz` tool and the ctest harnesses
 * exercise the exact same code paths:
 *
 *  1. ISS <-> gate-level lockstep equivalence on random programs
 *     (src/cosim -- invoked directly via cosim::run);
 *  2. EvalMode::FullSweep <-> EvalMode::EventDriven bit-identity on
 *     random netlists: per-cycle gate values, activity lists, and all
 *     energy accumulators must be exactly equal every cycle;
 *  3. symbolic exploration determinism: peak::analyze with 1 worker
 *     thread and with K worker threads must report bit-identical
 *     peak power / peak energy / NPE / cycle counts (scheduling
 *     independence), as must the two EvalMode kernels end-to-end.
 *
 * Each check returns a PropertyResult whose detail names the first
 * mismatch precisely enough to debug from the printed seed alone.
 */

#ifndef ULPEAK_FUZZ_PROPERTIES_HH
#define ULPEAK_FUZZ_PROPERTIES_HH

#include <string>

#include "fuzz/netlist_gen.hh"
#include "fuzz/rng.hh"
#include "isa/assembler.hh"
#include "msp/cpu.hh"
#include "scenario/scenario.hh"
#include "sim/simulator.hh"

namespace ulpeak {
namespace fuzz {

struct PropertyResult {
    bool ok = true;
    std::string detail; ///< first mismatch, human-readable
};

/**
 * Property 2: generate a random netlist and input schedule from
 * @p seed, run FullSweep and EventDriven simulators in lockstep for
 * @p cycles, compare values / activity / energies after every cycle.
 * Also locksteps a third simulator restored from a mid-run snapshot
 * to pin snapshot/restore transparency in both kernels.
 */
PropertyResult kernelEquivalenceCheck(uint64_t seed,
                                      const NetlistGenOptions &opts,
                                      unsigned cycles);

/**
 * Property 3a: peak::analyze on @p image with 1 thread vs
 * @p threads threads; every scheduling-independent report field must
 * be bit-identical.
 */
PropertyResult symDeterminismCheck(msp::System &sys,
                                   const isa::Image &image,
                                   unsigned threads);

/**
 * Property 3b: peak::analyze on @p image under EvalMode::EventDriven
 * vs EvalMode::FullSweep; reports must be bit-identical including the
 * flattened per-cycle trace.
 *
 * Both 3a and 3b run with envelope recording on and compare the
 * envelope power trace and windowed peak-energy curves byte for byte.
 */
PropertyResult evalModeReportCheck(msp::System &sys,
                                   const isa::Image &image);

/**
 * Property 4: the per-cycle peak power envelope bounds every concrete
 * execution. Analyze @p image with envelope recording, then run it
 * concretely @p concrete_runs times with seeded random per-cycle port
 * schedules and check each concrete power trace lies under the
 * envelope at every cycle (validateTraceBound's length-aware
 * semantics: a concrete run outliving the envelope is a violation,
 * a concrete run halting earlier is not). Programs the symbolic
 * engine rejects (unbounded loops, indirect X jumps) pass vacuously.
 */
PropertyResult envelopeBoundCheck(msp::System &sys,
                                  const isa::Image &image, Rng &rng,
                                  unsigned concrete_runs = 3);

/**
 * Property 6: packed-kernel lane identity. Generate a random netlist
 * from @p seed and 64 independent input schedules (one per lane,
 * derived streams), run one PackedSimulator against 64 scalar
 * Simulators in lockstep for @p cycles, and require every lane to be
 * bit-identical to its scalar run after every cycle: gate values,
 * activity, actual / bound / per-module energies, and the full-state
 * hash. Scalar lanes alternate EvalMode so both kernels anchor the
 * comparison.
 */
PropertyResult packedKernelEquivalenceCheck(uint64_t seed,
                                            const NetlistGenOptions &opts,
                                            unsigned cycles);

/**
 * Property 7: packed envelope batching. Analyze @p image with envelope
 * recording, then run one 64-lane packed batch of seeded random port
 * schedules: every lane must halt within the envelope length + slack
 * and lie under the envelope at every cycle (validateTraceBound), and
 * @p verify_lanes of the lanes are re-run on the scalar runConcrete
 * path and must match float-for-float (trace, halt flag, total
 * energy). Programs the symbolic engine rejects pass vacuously.
 */
PropertyResult packedEnvelopeBatchCheck(msp::System &sys,
                                        const isa::Image &image,
                                        Rng &rng,
                                        unsigned verify_lanes = 2);

/**
 * Property 8a: faulted packed-kernel lane identity. The property-6
 * lockstep (one PackedSimulator vs 64 scalar Simulators on a random
 * netlist, 64 derived input schedules, scalar lanes alternating
 * EvalMode) with per-lane random SEU bit-flips injected into random
 * sequential gates at random cycles through the in-driver injection
 * API (Simulator::injectSeuFlip vs PackedSimulator::injectSeuFlip).
 * Requires bit-identical per-lane state after every cycle *and*
 * identical applied/not-applied (X-bit no-op) decisions per flip.
 * Netlists without sequential gates degrade to the fault-free check.
 */
PropertyResult faultedPackedEquivalenceCheck(
    uint64_t seed, const NetlistGenOptions &opts, unsigned cycles);

/**
 * Property 8b: fault-campaign determinism. One small campaign over
 * @p image run three ways -- scalar 1 job, packed 1 job, packed
 * @p threads jobs -- must agree on every classification row
 * (FaultResult::sameClassification), every aggregate, and the golden
 * run metadata. Programs whose golden run the campaign refuses
 * (cosim divergence) pass vacuously, but the refusal must be
 * identical across all three configurations.
 */
PropertyResult faultCampaignDeterminismCheck(const isa::Image &image,
                                             uint64_t seed,
                                             unsigned threads);

/** A random port-constraint scenario (static pattern or repeating
 *  schedule) drawn from @p rng -- the input generator of
 *  scenarioDominanceCheck, exposed for tests. */
scenario::Scenario randomScenario(Rng &rng);

/**
 * Property 5: scenario dominance. A constrained scenario admits a
 * subset of the unconstrained executions, so every bound it produces
 * must lie at or under the unconstrained one: peak power, peak
 * energy, and the envelope pointwise (the envelope may also only get
 * shorter). Additionally every concrete run *obeying* the scenario
 * (port words drawn per-cycle inside the scenario's constraint) must
 * lie under the scenario's own envelope, and the constrained
 * analysis must stay 1-vs-K-thread deterministic (this exercises the
 * schedule-phase dedup keys under the sharded/stealing exploration
 * core). Programs either analysis rejects pass vacuously.
 * Comparisons allow a ~1e-9 relative slack: per-cycle bound sums are
 * floating-point and the constrained tree sums fewer, smaller terms.
 */
PropertyResult scenarioDominanceCheck(msp::System &sys,
                                      const isa::Image &image,
                                      Rng &rng, unsigned threads = 4,
                                      unsigned concrete_runs = 2);

/** A random operating-mode (DVFS) scenario drawn from @p rng: 2-3
 *  named modes with random (vdd, freq), a repeating mode schedule,
 *  and (30% of the time) a port constraint riding along so the
 *  mixed-radix dedup phases get exercised -- the input generator of
 *  modeDominanceCheck, exposed for tests. */
scenario::Scenario randomModeScenario(Rng &rng);

/**
 * Property 8: operating-mode (DVFS) dominance. From a random mode
 * scenario, derive a "lowered" twin whose every mode has (vdd, freq)
 * scaled by factors <= 1 (mode 0 strictly). Lowering an operating
 * point changes only how cycles are *priced*, never which executions
 * exist, so the two analyses explore identical trees and the lowered
 * report must only tighten: peak power / peak energy at or under the
 * base (1e-6 relative slack: per-cycle powers are float-narrowed
 * before the path-energy sum crosses a freq * 1/freq round-trip, and
 * the two analyses round independently), and the envelope pointwise
 * at or under with NO
 * slack and identical length (per-cycle powers scale by exact IEEE
 * multiplications, which are monotone). The lowered analysis must
 * also stay bit-identical across 1-vs-K threads, both EvalModes and
 * both snapshot modes (mode phases join the dedup keys), and
 * mode-obeying concrete runs (ConcreteRunOptions::modeSchedule built
 * from the scenario) must stay under the mode-priced envelope.
 * Programs either analysis rejects pass vacuously.
 */
PropertyResult modeDominanceCheck(msp::System &sys,
                                  const isa::Image &image, Rng &rng,
                                  unsigned threads = 4,
                                  unsigned concrete_runs = 2);

/**
 * Property 9: static-prune soundness (`ulfuzz --mode lint`). Under a
 * random port scenario (or, 1 in 4, the unconstrained default) the
 * analysis with Options::staticPrune on must report bit-identical
 * peak power, peak energy, NPE, max path length, envelope and
 * ever-active set to the unpruned run. Tree-shape statistics
 * (totalCycles / pathsExplored / dedupMerges) are deliberately NOT
 * compared against the unpruned run: when the prune cone needs
 * settle cycles (maxPruneDepth > 0) forks before the engage cycle
 * hash with the full basis while later identical states hash with
 * the pruned basis, so a cross-boundary dedup merge the unpruned run
 * finds can be legitimately missed. The pruned runs *among
 * themselves* (1 vs @p threads threads, EventDriven vs FullSweep,
 * Delta vs Full snapshots) share one basis and must be bit-identical
 * in every scheduling-independent field, statistics included.
 *
 * Independently, the static claims themselves are validated: the
 * core netlist must pass structural lint with zero errors, and a
 * concrete scenario-obeying run (port words drawn inside the
 * scenario constraint each cycle, like scenarioDominanceCheck) must
 * find every gate in lint::ConstAnalysis::pruneMask holding exactly
 * its proven value at every cycle >= the engage cycle the engine
 * would use (reset end + 1 + maxPruneDepth), and inactive on every
 * later cycle. Programs the symbolic engine rejects skip the report
 * comparison (the rejection must still be identical pruned vs
 * unpruned) but never the concrete validation.
 */
PropertyResult staticPruneCheck(msp::System &sys,
                                const isa::Image &image, Rng &rng,
                                unsigned threads = 4);

/**
 * Property 10: packed-frontier exploration identity (`ulfuzz --mode
 * packed-sym`). The analyses with Frontier::Packed -- pending paths
 * drained through the 64-lane bit-parallel kernel -- and with
 * Frontier::Adaptive (packed while two or more paths wait, at 1 and
 * @p threads threads) must report bit-identical peak power, peak
 * energy, NPE, cycle counts, tree statistics, flattened trace,
 * envelope, ever-active and peak-active sets to Frontier::Scalar,
 * under a random configuration drawn from @p rng: unconstrained /
 * random port
 * scenario / random DVFS mode schedule, Delta or Full snapshots, and
 * (1 in 4) staticPrune riding along. The packed runs among
 * themselves must additionally stay 1-vs-@p threads-thread
 * deterministic. Programs both engines reject pass vacuously, but
 * the rejection must be identical.
 */
PropertyResult packedExploreCheck(msp::System &sys,
                                  const isa::Image &image, Rng &rng,
                                  unsigned threads = 4);

} // namespace fuzz
} // namespace ulpeak

#endif // ULPEAK_FUZZ_PROPERTIES_HH
