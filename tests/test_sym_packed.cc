/**
 * @file
 * Tests of the exploration frontiers (SymbolicConfig::frontier):
 * pending execution-tree paths drained through the 64-lane
 * bit-parallel kernel -- always (Packed) or while two or more wait
 * (Adaptive, the default) -- must be invisible in every reported
 * number. Covers the batch scheduler's edge cases
 * -- frontiers smaller than 64 lanes, lanes halting mid-batch, dedup
 * merges landing inside a batch, per-lane scenario/mode schedule
 * phases -- plus the scalar<->packed state transpose round-trip and
 * the interplay with delta snapshots, static pruning and
 * multi-threaded workers.
 */

#include <gtest/gtest.h>

#include "bench430/benchmarks.hh"
#include "peak/peak_analysis.hh"
#include "sim/packed_simulator.hh"
#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

/** Bit-identity over every scheduling-independent report field: the
 *  packed frontier's contract. */
void
expectIdenticalReports(const peak::Report &a, const peak::Report &b)
{
    ASSERT_EQ(a.ok, b.ok) << a.error << " vs " << b.error;
    EXPECT_EQ(a.error, b.error);
    if (!a.ok)
        return;
    EXPECT_EQ(a.peakPowerW, b.peakPowerW);
    EXPECT_EQ(a.peakEnergyJ, b.peakEnergyJ);
    EXPECT_EQ(a.npeJPerCycle, b.npeJPerCycle);
    EXPECT_EQ(a.maxPathCycles, b.maxPathCycles);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.pathsExplored, b.pathsExplored);
    EXPECT_EQ(a.dedupMerges, b.dedupMerges);
    EXPECT_EQ(a.flatTraceW, b.flatTraceW);
    EXPECT_EQ(a.envelope.present, b.envelope.present);
    EXPECT_EQ(a.envelope.powerW, b.envelope.powerW);
    EXPECT_EQ(a.envelope.windowEnergyJ, b.envelope.windowEnergyJ);
    EXPECT_EQ(a.everActive, b.everActive);
    EXPECT_EQ(a.peakActive, b.peakActive);
}

/** Options recording everything the identity contract covers; the
 *  scalar frontier by default, the reference the others match. */
peak::Options
baseOptions(sym::Frontier frontier = sym::Frontier::Scalar)
{
    peak::Options o;
    o.frontier = frontier;
    o.recordEnvelope = true;
    o.recordActiveSets = true;
    return o;
}

/** A straight-line program: the frontier never exceeds one pending
 *  path, so every packed batch runs almost empty. */
std::string
straightLineSource()
{
    return test::wrapProgram(R"(
        mov &0x0020, r4
        add r4, r4
        mov r4, &0x0130
        xor #0x5a5a, r4
        mov r4, &0x0132
    )");
}

/** Port-dependent branches over a live accumulator: forks, paths of
 *  different lengths (lanes halt mid-batch), and states that
 *  re-converge (dedup merges land inside a batch). */
std::string
forkySource(unsigned rounds)
{
    std::string body;
    for (unsigned i = 0; i < rounds; ++i) {
        std::string skip = "sp_skip_" + std::to_string(i);
        body += "        mov &0x0020, r5\n"
                "        and #1, r5\n"
                "        jz " + skip + "\n"
                "        add #1, r4\n" +
                skip + ":\n";
    }
    body += "        mov r4, &0x0130\n";
    return test::wrapProgram(body);
}

const char *
frontierName(sym::Frontier f)
{
    switch (f) {
    case sym::Frontier::Scalar: return "scalar";
    case sym::Frontier::Adaptive: return "adaptive";
    case sym::Frontier::Packed: return "packed";
    }
    return "?";
}

/** Port-dependent branches whose two arms take the same number of
 *  cycles: sibling paths stay in lockstep, so packed lanes fork,
 *  step and halt together. */
std::string
equalArmsSource(unsigned rounds)
{
    std::string body;
    for (unsigned i = 0; i < rounds; ++i) {
        std::string n = std::to_string(i);
        body += "        mov &0x0020, r5\n"
                "        and #1, r5\n"
                "        jz ea_two_" + n + "\n"
                "        add #1, r4\n"
                "        jmp ea_join_" + n + "\n"
                "ea_two_" + n + ":\n"
                "        add #2, r4\n"
                "        jmp ea_join_" + n + "\n"
                "ea_join_" + n + ":\n";
    }
    body += "        mov r4, &0x0130\n";
    return test::wrapProgram(body);
}

TEST(SymPacked, SmallFrontierMatchesScalar)
{
    // Frontier stays below 64 lanes the whole run (a handful of
    // paths): partial batches must still be bit-identical.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(straightLineSource());

    peak::Options scalar = baseOptions(sym::Frontier::Scalar);
    peak::Report rs = peak::analyze(sys, img, scalar);
    ASSERT_TRUE(rs.ok) << rs.error;

    peak::Options packed = scalar;
    packed.packedExplore = true; // overrides frontier
    peak::Report rp = peak::analyze(sys, img, packed);
    expectIdenticalReports(rs, rp);

    // The packed run actually went through the batched path, and its
    // occupancy stats are sane: live-lane cycles can never exceed
    // 64 x sweeps.
    EXPECT_GT(rp.packedBatches, 0u);
    EXPECT_GT(rp.packedSweeps, 0u);
    EXPECT_LE(rp.packedLaneCycles, 64 * rp.packedSweeps);
    EXPECT_EQ(rs.packedSweeps, 0u); // scalar runs report zero
}

TEST(SymPacked, ForkHeavyTreeWithMidBatchHaltsAndDedup)
{
    // Wide tree: lanes fork, halt at different cycles inside one
    // batch, and re-converged states dedup-merge while other lanes
    // are still running.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(forkySource(12));

    peak::Report rs = peak::analyze(sys, img, baseOptions());
    ASSERT_TRUE(rs.ok) << rs.error;
    ASSERT_GT(rs.pathsExplored, 10u);
    ASSERT_GT(rs.dedupMerges, 0u);

    peak::Options packed = baseOptions();
    packed.packedExplore = true;
    peak::Report rp = peak::analyze(sys, img, packed);
    expectIdenticalReports(rs, rp);
    // With dozens of pending paths, batches must actually pack
    // multiple lanes: mean occupancy strictly above one lane.
    EXPECT_GT(rp.packedLaneCycles, rp.packedSweeps);
}

TEST(SymPacked, ScenarioAndModeSchedulePhasesPerLane)
{
    // Lanes at different absolute cycles sit in different phases of
    // the scenario's port schedule and DVFS mode schedule; per-lane
    // phase bookkeeping must reproduce the scalar engine exactly.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(forkySource(8));

    for (const char *name :
         {"periodic-sensor", "duty-cycled-dvfs", "sensor-4bit"}) {
        peak::Options scalar = baseOptions();
        scalar.scenario = scenario::Scenario::preset(name);
        peak::Report rs = peak::analyze(sys, img, scalar);

        peak::Options packed = scalar;
        packed.packedExplore = true;
        peak::Report rp = peak::analyze(sys, img, packed);
        SCOPED_TRACE(name);
        expectIdenticalReports(rs, rp);
    }
}

TEST(SymPacked, SnapshotModesInterplay)
{
    // The packed frontier loads lanes from delta-materialized and
    // full snapshots alike: both must agree with the scalar delta
    // baseline.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(forkySource(10));

    peak::Options ref = baseOptions();
    ref.scenario = scenario::Scenario::preset("ports-grounded");
    peak::Report rs = peak::analyze(sys, img, ref);
    ASSERT_TRUE(rs.ok) << rs.error;

    for (bool fullSnap : {false, true}) {
        peak::Options packed = ref;
        packed.packedExplore = true;
        packed.snapshotMode = fullSnap ? sym::SnapshotMode::Full
                                       : sym::SnapshotMode::Delta;
        peak::Report rp = peak::analyze(sys, img, packed);
        SCOPED_TRACE(fullSnap ? "full" : "delta");
        expectIdenticalReports(rs, rp);
    }
}

TEST(SymPacked, MultiThreadPackedDeterminism)
{
    // Workers race to refill lanes from their own deques and steal
    // from others; the reports must not notice.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(forkySource(10));

    peak::Options packed = baseOptions();
    packed.packedExplore = true;
    peak::Report r1 = peak::analyze(sys, img, packed);
    ASSERT_TRUE(r1.ok) << r1.error;

    packed.numThreads = 3;
    peak::Report rk = peak::analyze(sys, img, packed);
    expectIdenticalReports(r1, rk);
}

TEST(SymPacked, AdaptiveMatchesScalarAndPacked)
{
    // Adaptive workers switch kernels as their deques widen and
    // drain, so one exploration mixes scalar and packed paths; every
    // number and trace must still match both single-kernel oracles,
    // at one thread and with racing workers.
    msp::System &sys = test::sharedSystem();
    const std::pair<const char *, isa::Image> programs[] = {
        {"fork-stress", isa::assemble(bench430::forkStressSource(24))},
        {"rle", bench430::benchmarkByName("rle").assembleImage()},
        {"binSearch",
         bench430::benchmarkByName("binSearch").assembleImage()},
    };
    for (const auto &[name, img] : programs) {
        peak::Report rs = peak::analyze(sys, img, baseOptions());
        ASSERT_TRUE(rs.ok) << name << ": " << rs.error;
        ASSERT_GT(rs.pathsExplored, 2u) << name;
        for (unsigned threads : {1u, 4u}) {
            for (sym::Frontier f :
                 {sym::Frontier::Adaptive, sym::Frontier::Packed}) {
                SCOPED_TRACE(std::string(name) + " " + frontierName(f) +
                             " threads=" + std::to_string(threads));
                peak::Options o = baseOptions(f);
                o.numThreads = threads;
                peak::Report r = peak::analyze(sys, img, o);
                expectIdenticalReports(rs, r);
                // Racing thieves may keep every deque narrow, so only
                // the serial run is sure to pack.
                if (threads == 1) {
                    EXPECT_GT(r.packedSweeps, 0u);
                }
            }
        }
    }
}

TEST(SymPacked, AdaptivePacksOnlyWideFrontiers)
{
    // A wide tree keeps two or more paths waiting, so the default
    // frontier drains it through the lanes; a single-path program
    // never builds the packed side at all.
    msp::System &sys = test::sharedSystem();
    peak::Report wide = peak::analyze(
        sys, isa::assemble(bench430::forkStressSource(16)), peak::Options());
    ASSERT_TRUE(wide.ok) << wide.error;
    EXPECT_GT(wide.packedSweeps, 0u);
    EXPECT_GT(wide.packedLaneCycles, wide.packedSweeps);

    peak::Report mult = peak::analyze(
        sys, bench430::benchmarkByName("mult").assembleImage(),
        peak::Options());
    ASSERT_TRUE(mult.ok) << mult.error;
    EXPECT_EQ(mult.pathsExplored, 1u);
    EXPECT_EQ(mult.packedBatches, 0u);
    EXPECT_EQ(mult.packedSweeps, 0u);

    // The full-sweep kernel keeps an Adaptive run all-scalar: it is
    // the reference the event-driven kernel is checked against.
    peak::Options full;
    full.evalMode = EvalMode::FullSweep;
    peak::Report sweep = peak::analyze(
        sys, isa::assemble(bench430::forkStressSource(16)), full);
    ASSERT_TRUE(sweep.ok) << sweep.error;
    EXPECT_EQ(sweep.packedSweeps, 0u);
    EXPECT_EQ(sweep.peakPowerW, wide.peakPowerW);
}

TEST(SymPacked, CycleBudgetIsSchedulingIndependent)
{
    // maxTotalCycles bounds the scheduling-independent cycle total: a
    // run is ok exactly when the total fits, whatever the frontier
    // width or thread count. Lockstep lanes step many paths in one
    // sweep, and racing workers step concurrently, so the budget must
    // be reserved before a step, not checked before and added after.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(equalArmsSource(4));
    peak::Report ref = peak::analyze(sys, img, peak::Options());
    ASSERT_TRUE(ref.ok) << ref.error;
    ASSERT_GT(ref.pathsExplored, 8u);
    const uint64_t total = ref.totalCycles;

    for (sym::Frontier f : {sym::Frontier::Scalar, sym::Frontier::Adaptive,
                            sym::Frontier::Packed}) {
        for (unsigned threads : {1u, 4u}) {
            for (int rep = 0; rep < (threads > 1 ? 5 : 1); ++rep) {
                SCOPED_TRACE(std::string(frontierName(f)) +
                             " threads=" + std::to_string(threads) +
                             " rep=" + std::to_string(rep));
                peak::Options o;
                o.frontier = f;
                o.numThreads = threads;
                o.maxTotalCycles = total;
                peak::Report fits = peak::analyze(sys, img, o);
                EXPECT_TRUE(fits.ok) << fits.error;
                EXPECT_EQ(fits.totalCycles, total);

                o.maxTotalCycles = total - 1;
                peak::Report over = peak::analyze(sys, img, o);
                EXPECT_FALSE(over.ok);
                EXPECT_NE(over.error.find("budget"), std::string::npos)
                    << over.error;
            }
        }
    }
}

TEST(SymPacked, LaneStateTransposeRoundTrip)
{
    // Scalar snapshot -> loadLaneState -> extractLaneState must be
    // the identity, from a mid-run state with real activity flags and
    // clocked sequential history on several distinct lanes.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(straightLineSource());
    sys.memory().reset();
    sys.loadImage(img);
    sys.clearHalted();

    Simulator sim(sys.netlist());
    sys.attach(sim);
    sys.reset(sim);
    std::vector<Simulator::Snapshot> snaps;
    for (int burst = 0; burst < 3; ++burst) {
        for (int c = 0; c < 7; ++c)
            sim.step([&](Simulator &s) {
                sys.driveCycle(s, Word16::allX());
            });
        snaps.push_back(sim.snapshot());
    }

    PackedSimulator ps(sys.netlist());
    ps.step(); // packed edge functions arm only after one cycle
    for (unsigned lane : {0u, 17u, 63u})
        ps.loadLaneState(lane, snaps[lane % snaps.size()]);

    for (unsigned lane : {0u, 17u, 63u}) {
        const Simulator::Snapshot &in = snaps[lane % snaps.size()];
        Simulator::Snapshot out = ps.extractLaneState(lane, in.cycle);
        SCOPED_TRACE(lane);
        EXPECT_EQ(in.val, out.val);
        EXPECT_EQ(in.activeLast, out.activeLast);
        EXPECT_EQ(in.loadedPrevEdge, out.loadedPrevEdge);
        EXPECT_EQ(in.cycle, out.cycle);
    }
}

} // namespace
} // namespace ulpeak
