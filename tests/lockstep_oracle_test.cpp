// Lockstep golden test: a timing run must not corrupt architecture.
//
// The O3 core replays a recording of the functional emulator
// (execute-at-fetch): it reads each instruction in place from the
// recorded trace, wrong-path work is synthetic and squashed, and a
// flush refetches rows of the same recording.  So the recording
// emulator's architectural state — every integer and fp register plus
// the memory image — must equal that of a fresh, pure-functional
// emulation of the same workload to the same cap, and the timing run
// must commit every recorded instruction exactly once.

#include <gtest/gtest.h>

#include <cstring>

#include "bpred/bpred.hh"
#include "core/o3core.hh"
#include "harness/experiment.hh"
#include "isa/isa.hh"
#include "mem/memsystem.hh"
#include "rename/baseline.hh"
#include "rename/reuse.hh"
#include "trace/recorded.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;

constexpr std::uint64_t kInsts = 30'000;

std::uint64_t
fpBits(double d)
{
    std::uint64_t raw;
    std::memcpy(&raw, &d, sizeof(raw));
    return raw;
}

// Run `w` through the timing core with the given renamer and compare
// the stream emulator's final state against a functional oracle.
void
checkLockstep(const workloads::Workload &w, rename::Renamer &renamer)
{
    auto stream = workloads::makeEmulator(w, kInsts);
    trace::ReplayStream replay(trace::recordStream(*stream));
    mem::MemSystem memsys{mem::MemSystemParams{}};
    bpred::BranchPredictor bp{bpred::BPredParams{}};
    core::O3Core core(core::CoreParams{}, renamer, memsys, bp, replay);
    auto sim = core.run();
    EXPECT_GT(sim.committedInsts, 0u);
    EXPECT_EQ(sim.committedInsts, replay.trace().size());

    auto oracle = workloads::makeEmulator(w, kInsts);
    oracle->run();

    EXPECT_EQ(stream->instCount(), oracle->instCount());
    EXPECT_EQ(stream->halted(), oracle->halted());
    for (LogRegIndex r = 0; r < isa::numLogRegs; ++r) {
        EXPECT_EQ(stream->intReg(r), oracle->intReg(r)) << "x" << int{r};
        EXPECT_EQ(fpBits(stream->fpReg(r)), fpBits(oracle->fpReg(r)))
            << "f" << int{r};
    }
    EXPECT_EQ(stream->memory().digest(), oracle->memory().digest());
    EXPECT_EQ(stream->memory().mappedPages(),
              oracle->memory().mappedPages());
}

TEST(LockstepOracle, ReuseRenamerEveryWorkload)
{
    for (const auto &w : workloads::allWorkloads()) {
        SCOPED_TRACE(w.name);
        auto cfg = harness::reuseConfig(64);
        rename::ReuseRenamer renamer(cfg.rename.reuse);
        checkLockstep(w, renamer);
    }
}

TEST(LockstepOracle, BaselineRenamerEveryWorkload)
{
    for (const auto &w : workloads::allWorkloads()) {
        SCOPED_TRACE(w.name);
        rename::BaselineRenamer renamer(rename::BaselineParams{64, 64});
        checkLockstep(w, renamer);
    }
}

// The memory digest itself: order-independent, content-sensitive, and
// blind to pages that only ever held zeros (read()-equivalent states
// must digest equal).
TEST(MemoryDigest, ContentDefined)
{
    emu::SparseMemory a, b;
    a.write(0x1000, 0xdeadbeef, 8);
    a.write(0x200000, 42, 1);
    b.write(0x200000, 42, 1);
    b.write(0x1000, 0xdeadbeef, 8);
    EXPECT_EQ(a.digest(), b.digest());

    b.write(0x1000, 0xdeadbeee, 8);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(MemoryDigest, ZeroPagesInvisible)
{
    emu::SparseMemory a, b;
    a.write(0x5000, 7, 1);
    b.write(0x5000, 7, 1);
    // Touch a page in `b` but leave it all-zero: reads are identical
    // to an unmapped page, so the digest must be too.
    b.write(0x9000, 0, 8);
    EXPECT_GT(b.mappedPages(), a.mappedPages());
    EXPECT_EQ(a.digest(), b.digest());
}

} // namespace
