/**
 * @file
 * Tests of the bit-parallel 64-pattern kernel: lane identity of
 * PackedSimulator against independent scalar Simulator runs (both
 * EvalModes) on fuzz-generated netlists, the packed property the
 * ulfuzz driver runs, and batched concrete program runs
 * (power::runConcretePacked) against the scalar runConcrete path.
 */

#include <gtest/gtest.h>

#include <array>

#include "fuzz/netlist_gen.hh"
#include "fuzz/properties.hh"
#include "fuzz/rng.hh"
#include "power/analysis.hh"
#include "power/packed_run.hh"
#include "sim/packed_simulator.hh"
#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

constexpr unsigned kLanes = PackedSimulator::kLanes;

/** Every lane of a packed run vs an independent scalar run in mode
 *  @p mode: values, activity, energies and full-state hash, every
 *  cycle. Energies are summed for @p energy_lanes only; the other
 *  lanes must read zero energies and still match everything else. */
void
expectLaneIdentity(uint64_t seed, EvalMode mode, unsigned cycles,
                   uint64_t energy_lanes = ~uint64_t(0))
{
    fuzz::Rng rng(seed);
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    fuzz::NetlistGenOptions opts;
    fuzz::RandomNetlist rn = fuzz::buildRandomNetlist(nl, rng, opts);
    unsigned nin = unsigned(rn.inputs.size());

    std::array<std::vector<std::vector<V4>>, kLanes> sched;
    for (unsigned l = 0; l < kLanes; ++l) {
        fuzz::Rng lrng(fuzz::Rng::deriveStream(seed, l));
        sched[l] = fuzz::makeInputSchedule(lrng, nin, cycles,
                                           opts.inputXPercent);
    }

    PackedSimulator psim(nl);
    psim.setEnergyLanes(energy_lanes);
    std::vector<Simulator> sims;
    sims.reserve(kLanes);
    for (unsigned l = 0; l < kLanes; ++l)
        sims.emplace_back(nl, mode);

    for (unsigned c = 0; c < cycles; ++c) {
        psim.step([&](PackedSimulator &s) {
            for (unsigned i = 0; i < nin; ++i) {
                V64 v;
                for (unsigned l = 0; l < kLanes; ++l)
                    v.setLane(l, sched[l][c][i]);
                s.setInput(rn.inputs[i], v);
            }
        });
        for (unsigned l = 0; l < kLanes; ++l) {
            sims[l].step([&](Simulator &s) {
                for (unsigned i = 0; i < nin; ++i)
                    s.setInput(rn.inputs[i], sched[l][c][i]);
            });
            for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
                ASSERT_EQ(psim.valueLane(g, l), sims[l].value(g))
                    << "cycle " << c << " lane " << l << " gate " << g;
                ASSERT_EQ(bool((psim.activeMask(g) >> l) & 1),
                          sims[l].isActive(g))
                    << "cycle " << c << " lane " << l << " gate " << g;
            }
            ASSERT_EQ(psim.hashLaneState(l), sims[l].hashFullState())
                << "cycle " << c << " lane " << l;
            if (!(energy_lanes >> l & 1)) {
                ASSERT_EQ(psim.boundEnergyJ(l), 0.0) << "lane " << l;
                ASSERT_EQ(psim.moduleBoundEnergyLaneJ(l),
                          std::vector<double>(nl.numModules(), 0.0))
                    << "lane " << l;
                continue;
            }
            ASSERT_EQ(psim.actualEnergyJ(l), sims[l].actualEnergyJ())
                << "cycle " << c << " lane " << l;
            ASSERT_EQ(psim.boundEnergyJ(l), sims[l].boundEnergyJ())
                << "cycle " << c << " lane " << l;
            ASSERT_EQ(psim.moduleBoundEnergyLaneJ(l),
                      sims[l].moduleBoundEnergyJ())
                << "cycle " << c << " lane " << l;
        }
    }
}

TEST(PackedSim, LaneIdentityEventDriven)
{
    expectLaneIdentity(0x11u, EvalMode::EventDriven, 48);
}

TEST(PackedSim, LaneIdentityFullSweep)
{
    expectLaneIdentity(0x22u, EvalMode::FullSweep, 48);
}

TEST(PackedSim, LaneIdentityWithEnergyLaneMask)
{
    // The packed frontier sums energy for its live lanes only.
    expectLaneIdentity(0x33u, EvalMode::EventDriven, 32,
                       0x8000'0001'0f00'00f1ull);
}

TEST(PackedSim, FuzzPropertyHolds)
{
    // The exact check ulfuzz --mode packed runs (lanes alternate
    // EvalMode inside the property).
    fuzz::NetlistGenOptions opts;
    for (uint64_t seed : {3u, 4u, 5u}) {
        fuzz::PropertyResult r =
            fuzz::packedKernelEquivalenceCheck(seed, opts, 40);
        EXPECT_TRUE(r.ok) << r.detail;
    }
}

TEST(PackedSim, ProgramBatchMatchesScalarRuns)
{
    // A port-dependent program: different lanes take different
    // branches, so the batch genuinely diverges across lanes.
    const char *body = R"(
        mov &0x0020, r4
        mov #0, r5
        and #3, r4
        jz pk_skip
        add #5, r5
        add r4, r5
pk_skip:
        add #1, r5
)";
    msp::System &sys = test::sharedSystem();
    isa::Image image = isa::assemble(test::wrapProgram(body));
    power::PowerContext ctx(sys.netlist(), 100e6);

    fuzz::Rng rng(0xbeefu);
    power::PackedRunOptions popts;
    popts.maxCycles = 4000;
    for (unsigned l = 0; l < kLanes; ++l) {
        popts.portSchedules[l].resize(16);
        for (uint16_t &w : popts.portSchedules[l])
            w = rng.word();
    }
    power::PackedRunResult pr =
        power::runConcretePacked(sys, image, ctx, popts);

    for (unsigned l = 0; l < kLanes; ++l)
        EXPECT_TRUE(pr.lanes[l].halted) << "lane " << l;

    // Spot-check a spread of lanes float-for-float against the scalar
    // path (running all 64 scalar programs would dominate suite time).
    for (unsigned l : {0u, 7u, 13u, 31u, 42u, 63u}) {
        power::ConcreteRunOptions copts;
        copts.maxCycles = popts.maxCycles;
        copts.portSchedule = popts.portSchedules[l];
        power::ConcreteRunResult c =
            power::runConcrete(sys, image, ctx, copts);
        EXPECT_EQ(c.halted, pr.lanes[l].halted) << "lane " << l;
        EXPECT_EQ(c.traceW, pr.lanes[l].traceW) << "lane " << l;
        EXPECT_EQ(c.totalEnergyJ, pr.lanes[l].totalEnergyJ)
            << "lane " << l;
        EXPECT_EQ(c.stats.peakW, pr.lanes[l].stats.peakW)
            << "lane " << l;
        EXPECT_EQ(sys.xStoreFault(), pr.lanes[l].xStoreFault)
            << "lane " << l;
    }

    // Sanity: the lanes were not all the same run.
    bool diverged = false;
    for (unsigned l = 1; l < kLanes; ++l)
        if (pr.lanes[l].traceW != pr.lanes[0].traceW)
            diverged = true;
    EXPECT_TRUE(diverged);
}

TEST(PackedSim, EnvelopeBatchPropertyHolds)
{
    const char *body = R"(
        mov &0x0020, r4
        and #1, r4
        jz pe_a
        add #2, r5
pe_a:
        add #1, r5
)";
    msp::System &sys = test::sharedSystem();
    isa::Image image = isa::assemble(test::wrapProgram(body));
    fuzz::Rng rng(0x777u);
    fuzz::PropertyResult r =
        fuzz::packedEnvelopeBatchCheck(sys, image, rng);
    EXPECT_TRUE(r.ok) << r.detail;
}

} // namespace
} // namespace ulpeak
