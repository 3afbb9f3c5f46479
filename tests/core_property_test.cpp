// Parameterized whole-pipeline sweeps: every (scheme, register-file
// size, pipeline shape) combination must commit exactly the
// architectural instruction stream, under fault storms, interrupt
// storms, and squash-heavy control flow.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/o3core.hh"
#include "harness/experiment.hh"
#include "obs/pipetrace.hh"
#include "rename/audit.hh"
#include "rename/scheme.hh"
#include "trace/recorded.hh"

namespace {

using namespace rrs;
using harness::RunConfig;

std::uint64_t
emulatedLength(const workloads::Workload &w, std::uint64_t cap)
{
    auto e = workloads::makeEmulator(w, cap);
    std::uint64_t start = e->instCount();
    e->run();
    return e->instCount() - start;
}

/**
 * Exact timing of one run: total cycles and the per-cause stall split
 * (obs::CycleCause order).  The cases below drive the flush- and
 * squash-heavy scheduler paths that the capped fig11 goldens never
 * reach, so any change to the issue/writeback/LSQ bookkeeping that is
 * not cycle-exact shows up here.
 */
struct Pinned
{
    std::uint64_t cycles;
    std::uint64_t causes[obs::numCycleCauses];
};

void
expectPinned(const harness::Outcome &out, const Pinned &pin)
{
    EXPECT_EQ(out.sim.cycles, pin.cycles);
    for (int c = 0; c < obs::numCycleCauses; ++c) {
        EXPECT_EQ(out.stalls.counts[c], pin.causes[c])
            << obs::cycleCauseName(static_cast<obs::CycleCause>(c));
    }
}

struct SweepPoint
{
    const char *workload;
    const char *scheme;   //!< rename-scheme registry key
    std::uint32_t regs;
};

/**
 * Print a point by value.  gtest's fallback byte dump shows the two
 * string pointers, whose load address changes with every process, and
 * gtest_discover_tests copies that dump into the ctest test names.
 */
void
PrintTo(const SweepPoint &p, std::ostream *os)
{
    *os << p.workload << '/' << p.scheme << '/' << p.regs;
}

class PipelineSweep : public ::testing::TestWithParam<SweepPoint>
{
};

TEST_P(PipelineSweep, CommitsExactlyTheStream)
{
    const auto &p = GetParam();
    const auto &w = workloads::workload(p.workload);
    const std::uint64_t cap = 40'000;
    std::uint64_t expected = emulatedLength(w, cap);

    RunConfig cfg = harness::schemeConfig(p.scheme, p.regs);
    cfg.maxInsts = cap;
    auto out = harness::runOn(w, cfg);
    EXPECT_EQ(out.sim.committedInsts, expected);
    EXPECT_GT(out.sim.ipc(), 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineSweep,
    ::testing::Values(
        SweepPoint{"int_sort", "baseline", 48},
        SweepPoint{"int_sort", "reuse", 48},
        SweepPoint{"int_hash", "reuse", 56},
        SweepPoint{"int_graph", "baseline", 64},
        SweepPoint{"int_graph", "reuse", 64},
        SweepPoint{"fp_matmul", "baseline", 48},
        SweepPoint{"fp_matmul", "reuse", 48},
        SweepPoint{"fp_nbody", "reuse", 56},
        SweepPoint{"fp_horner", "reuse", 112},
        SweepPoint{"media_adpcm", "reuse", 48},
        SweepPoint{"media_dct", "baseline", 96},
        SweepPoint{"media_dct", "reuse", 96},
        SweepPoint{"cog_gmm", "reuse", 72},
        SweepPoint{"cog_dnn", "baseline", 80},
        SweepPoint{"cog_dnn", "reuse", 80}),
    [](const auto &info) {
        return std::string(info.param.workload) + "_" +
               info.param.scheme + "_" +
               std::to_string(info.param.regs);
    });

TEST(PipelineStress, FaultStormStillExact)
{
    // One load in twenty faults: constant pipeline flushes with
    // shadow-cell recovery in the reuse scheme.
    const auto &w = workloads::workload("int_hash");
    std::uint64_t expected = emulatedLength(w, 30'000);
    const struct
    {
        const char *scheme;
        Pinned pin;
    } cases[] = {
        {"baseline", {60506, {14695, 3, 33218, 0, 0, 0, 8286, 4304}}},
        {"reuse", {59454, {14520, 3, 30862, 0, 0, 0, 8529, 5540}}},
    };
    for (const auto &c : cases) {
        RunConfig cfg = harness::schemeConfig(c.scheme, 56);
        cfg.maxInsts = 30'000;
        cfg.core.loadFaultProbability = 0.05;
        auto out = harness::runOn(w, cfg);
        EXPECT_EQ(out.sim.committedInsts, expected);
        EXPECT_GT(out.exceptions, 10);
        expectPinned(out, c.pin);
    }
}

TEST(PipelineStress, InterruptStormStillExact)
{
    const auto &w = workloads::workload("fp_fir");
    std::uint64_t expected = emulatedLength(w, 30'000);
    RunConfig cfg = harness::reuseConfig(48);
    cfg.maxInsts = 30'000;
    cfg.core.interruptInterval = 600;   // flush every ~600 cycles
    auto out = harness::runOn(w, cfg);
    EXPECT_EQ(out.sim.committedInsts, expected);
    expectPinned(out, {15434, {11797, 0, 125, 0, 0, 0, 2218, 1294}});
}

TEST(PipelineStress, FaultsAndInterruptsTogether)
{
    const auto &w = workloads::workload("int_graph");
    std::uint64_t expected = emulatedLength(w, 25'000);
    RunConfig cfg = harness::reuseConfig(48);
    cfg.maxInsts = 25'000;
    cfg.core.loadFaultProbability = 0.02;
    cfg.core.interruptInterval = 1500;
    auto out = harness::runOn(w, cfg);
    EXPECT_EQ(out.sim.committedInsts, expected);
    expectPinned(out, {38831, {12759, 0, 11643, 0, 0, 0, 11241, 3188}});
}

TEST(PipelineStress, RecordedLiveStreamTimesLikeCapture)
{
    // A live emulator recorded with trace::recordStream must time
    // exactly like the harness's captureTrace of the same workload,
    // through the flush-heavy paths: faults and interrupts refetch
    // rows of the recording.
    const auto &w = workloads::workload("int_hash");
    const std::uint64_t cap = 20'000;
    for (const char *scheme : {"baseline", "reuse"}) {
        SCOPED_TRACE(scheme);
        RunConfig cfg = harness::schemeConfig(scheme, 48);
        cfg.core.loadFaultProbability = 0.02;
        cfg.core.interruptInterval = 1'500;
        auto timeOn = [&](trace::TracePtr t, core::SimResult &sim) {
            trace::ReplayStream stream(std::move(t));
            mem::MemSystem mem(cfg.mem);
            bpred::BranchPredictor bp(cfg.bpred);
            auto renamer =
                rename::renameScheme(cfg.scheme).makeRenamer(cfg.rename);
            core::O3Core core(cfg.core, *renamer, mem, bp, stream);
            sim = core.run();
            EXPECT_GT(core.exceptionCount(), 0);
            EXPECT_GT(core.interruptCount(), 0);
            return core.stallBreakdown();
        };
        core::SimResult recorded, captured;
        auto live = workloads::makeEmulator(w, cap);
        const obs::StallBreakdown a =
            timeOn(trace::recordStream(*live), recorded);
        const obs::StallBreakdown b =
            timeOn(workloads::captureTrace(w, cap), captured);
        EXPECT_EQ(recorded.committedInsts, emulatedLength(w, cap));
        EXPECT_EQ(recorded.committedInsts, captured.committedInsts);
        EXPECT_EQ(recorded.committedOps, captured.committedOps);
        EXPECT_EQ(recorded.cycles, captured.cycles);
        for (int c = 0; c < obs::numCycleCauses; ++c) {
            EXPECT_EQ(a.counts[c], b.counts[c])
                << obs::cycleCauseName(static_cast<obs::CycleCause>(c));
        }
    }
}

TEST(PipelineStress, RingWrapsThroughSquashesAndFlushes)
{
    // A 5-entry ROB and a 3-entry fetch queue fill the core's 8-slot
    // in-flight ring exactly, so it wraps every few cycles.  Branchy
    // code squashes on mispredicts and a fast timer flushes the whole
    // window, both while the fetch queue holds entries.  The auditor
    // checks the ring and the scheduler lists after every cycle,
    // commit, squash and flush, and panics on the first broken
    // invariant.
    const auto &w = workloads::workload("int_sort");
    const std::uint64_t cap = 20'000;
    const std::uint64_t expected = emulatedLength(w, cap);
    RunConfig cfg = harness::reuseConfig(48);
    cfg.core.robEntries = 5;
    cfg.core.fetchQueueEntries = 3;
    cfg.core.iqEntries = 4;
    cfg.core.loadQueueEntries = 2;
    cfg.core.storeQueueEntries = 2;
    cfg.core.interruptInterval = 250;

    trace::ReplayStream stream(workloads::captureTrace(w, cap));
    mem::MemSystem mem(cfg.mem);
    bpred::BranchPredictor bp(cfg.bpred);
    auto renamer = rename::renameScheme(cfg.scheme).makeRenamer(cfg.rename);
    core::O3Core core(cfg.core, *renamer, mem, bp, stream);
    rename::RenameAuditor auditor;
    core.setAuditor(&auditor, 1, true);
    std::ostringstream os;
    obs::PipeTracer tracer(os);
    core.setTracer(&tracer);
    const core::SimResult r = core.run();
    EXPECT_EQ(r.committedInsts, expected);
    EXPECT_GT(core.mispredictCount(), 200);
    EXPECT_GT(core.interruptCount(), 50);
    EXPECT_GT(auditor.auditCount(), 10'000);

    // Squashed records retire at tick 0; those never renamed were
    // still in the fetch queue when the squash or flush came.
    std::uint64_t records = 0, robSquashed = 0, queueSquashed = 0;
    std::istringstream is(os.str());
    std::string line;
    bool renamedEntry = false;
    while (std::getline(is, line)) {
        if (line.rfind("O3PipeView:fetch:", 0) == 0)
            ++records;
        else if (line.rfind("O3PipeView:rename:", 0) == 0)
            renamedEntry = line != "O3PipeView:rename:0";
        else if (line.rfind("O3PipeView:retire:0:", 0) == 0)
            ++(renamedEntry ? robSquashed : queueSquashed);
    }
    EXPECT_EQ(records, tracer.emitted());
    EXPECT_GT(records, 1000 * 8);   // the ring wrapped >1000 times
    EXPECT_GT(robSquashed, 1000);
    EXPECT_GT(queueSquashed, 1000);
}

TEST(PipelineShape, NarrowAndWideCoresBothExact)
{
    const auto &w = workloads::workload("fp_jacobi");
    std::uint64_t expected = emulatedLength(w, 30'000);

    // Narrow: single-issue-ish machine.
    {
        RunConfig cfg = harness::reuseConfig(64);
        cfg.maxInsts = 30'000;
        cfg.core.fetchWidth = 1;
        cfg.core.renameWidth = 1;
        cfg.core.issueWidth = 1;
        cfg.core.commitWidth = 1;
        cfg.core.wbWidth = 2;
        auto out = harness::runOn(w, cfg);
        EXPECT_EQ(out.sim.committedInsts, expected);
        EXPECT_LE(out.sim.ipc(), 1.0 + 1e-9);
        expectPinned(out, {34001, {30000, 0, 1286, 0, 0, 0, 516, 2199}});
    }
    // Wide: 8-wide front end, deeper queues.
    {
        RunConfig cfg = harness::reuseConfig(112);
        cfg.maxInsts = 30'000;
        cfg.core.fetchWidth = 8;
        cfg.core.renameWidth = 8;
        cfg.core.issueWidth = 8;
        cfg.core.commitWidth = 8;
        cfg.core.wbWidth = 8;
        cfg.core.iqEntries = 96;
        auto out = harness::runOn(w, cfg);
        EXPECT_EQ(out.sim.committedInsts, expected);
        expectPinned(out, {29704, {9978, 58, 0, 18509, 0, 0, 475, 684}});
    }
}

TEST(PipelineShape, TinyQueuesStillDrain)
{
    const auto &w = workloads::workload("int_crc");
    std::uint64_t expected = emulatedLength(w, 20'000);
    RunConfig cfg = harness::reuseConfig(48);
    cfg.maxInsts = 20'000;
    cfg.core.robEntries = 8;
    cfg.core.iqEntries = 4;
    cfg.core.loadQueueEntries = 2;
    cfg.core.storeQueueEntries = 2;
    cfg.core.fetchQueueEntries = 4;
    auto out = harness::runOn(w, cfg);
    EXPECT_EQ(out.sim.committedInsts, expected);
    expectPinned(out, {51475, {10464, 0, 0, 501, 152, 1, 33735, 6622}});
}

TEST(PipelineShape, MispredictPenaltySlowsBranchyCode)
{
    const auto &w = workloads::workload("int_sort");
    RunConfig fast = harness::baselineConfig(96);
    fast.maxInsts = 40'000;
    fast.core.mispredictPenalty = 1;
    RunConfig slow = fast;
    slow.core.mispredictPenalty = 40;
    auto of = harness::runOn(w, fast);
    auto os = harness::runOn(w, slow);
    EXPECT_GT(os.sim.cycles, of.sim.cycles);
}

TEST(PipelineShape, WrongPathPressureCostsRegisters)
{
    // With wrong-path modelling on, a small register file sees more
    // pressure than with it off (wrong-path instructions allocate).
    const auto &w = workloads::workload("int_sort");
    RunConfig on = harness::reuseConfig(48);
    on.maxInsts = 40'000;
    RunConfig off = on;
    off.core.modelWrongPath = false;
    auto o_on = harness::runOn(w, on);
    auto o_off = harness::runOn(w, off);
    EXPECT_EQ(o_on.sim.committedInsts, o_off.sim.committedInsts);
    // Wrong-path off stalls fetch until each mispredict resolves.
    expectPinned(o_off, {37406, {18156, 1, 645, 0, 0, 0, 12993, 5611}});
}

} // namespace
