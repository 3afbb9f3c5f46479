// Unit tests for the register type predictor's training rules
// (paper Section IV-D): decrement on unused shadow copies, reset on
// multi-use detection, increment on shadow exhaustion, and the
// bootstrap rule for genuinely missed single-use values.

#include <gtest/gtest.h>

#include "rename/predictor.hh"

namespace {

using namespace rrs;
using rrs::rename::RegisterTypePredictor;
using rrs::rename::TypePredictorParams;

TEST(TypePredictor, StartsPredictingNormalBank)
{
    RegisterTypePredictor p(TypePredictorParams{512});
    for (Addr pc = 0x1000; pc < 0x1100; pc += 4)
        EXPECT_EQ(p.predict(pc), 0);
}

TEST(TypePredictor, IndexIsStableAndBounded)
{
    RegisterTypePredictor p(TypePredictorParams{512});
    for (Addr pc = 0x4000; pc < 0x4400; pc += 4) {
        auto idx = p.indexFor(pc);
        EXPECT_LT(idx, p.entries());
        EXPECT_EQ(idx, p.indexFor(pc));
    }
}

TEST(TypePredictor, PredictAtReadsTheEntryAndCountsOnce)
{
    RegisterTypePredictor p(TypePredictorParams{512});
    const Addr pc = 0x2040;
    const auto idx = p.indexFor(pc);
    p.trainOnShadowExhausted(idx);
    p.trainOnShadowExhausted(idx);
    EXPECT_EQ(p.predictAt(idx), 2);
    EXPECT_EQ(p.predictionCount(), 1.0);
    EXPECT_EQ(p.predict(pc), 2);
    EXPECT_EQ(p.predictionCount(), 2.0);
}

TEST(TypePredictor, ShadowExhaustionEscalates)
{
    RegisterTypePredictor p(TypePredictorParams{512});
    const Addr pc = 0x2000;
    auto idx = p.indexFor(pc);
    EXPECT_EQ(p.predict(pc), 0);
    p.trainOnShadowExhausted(idx);
    EXPECT_EQ(p.predict(pc), 1);
    p.trainOnShadowExhausted(idx);
    p.trainOnShadowExhausted(idx);
    EXPECT_EQ(p.predict(pc), 3);
    // Saturates at 3 (the deepest bank).
    p.trainOnShadowExhausted(idx);
    EXPECT_EQ(p.predict(pc), 3);
}

TEST(TypePredictor, UnusedShadowCopiesDecrement)
{
    RegisterTypePredictor p(TypePredictorParams{512});
    const Addr pc = 0x2000;
    auto idx = p.indexFor(pc);
    for (int i = 0; i < 3; ++i)
        p.trainOnShadowExhausted(idx);
    ASSERT_EQ(p.value(idx), 3);
    // Released from a 3-shadow bank having used only one reuse.
    p.trainOnRelease(idx, 3, 1, false);
    EXPECT_EQ(p.value(idx), 2);
    // Using every provisioned copy does not decrement.
    p.trainOnRelease(idx, 2, 2, false);
    EXPECT_EQ(p.value(idx), 2);
}

TEST(TypePredictor, MultiUseDetectionResets)
{
    RegisterTypePredictor p(TypePredictorParams{512});
    const Addr pc = 0x2000;
    auto idx = p.indexFor(pc);
    p.trainOnShadowExhausted(idx);
    p.trainOnShadowExhausted(idx);
    ASSERT_EQ(p.value(idx), 2);
    // A register from a shadow bank turned out to have >1 consumer.
    p.trainOnRelease(idx, 2, 1, true);
    EXPECT_EQ(p.value(idx), 0);
}

TEST(TypePredictor, MultiUseOnNormalBankDoesNotReset)
{
    RegisterTypePredictor p(TypePredictorParams{512});
    auto idx = p.indexFor(0x2000);
    // allocatedShadow == 0: nothing was predicted, nothing to reset.
    p.trainOnRelease(idx, 0, 0, true);
    EXPECT_EQ(p.value(idx), 0);
}

TEST(TypePredictor, MissedSingleUseBootstrapsOnce)
{
    RegisterTypePredictor p(TypePredictorParams{512});
    auto idx = p.indexFor(0x2000);
    // A bank-0 register died with exactly one (reusable) consumer.
    p.trainOnRelease(idx, 0, 0, false, true);
    EXPECT_EQ(p.value(idx), 1);
    // The bootstrap only lifts dormant entries; escalation beyond
    // bank 1 is the shadow-exhaustion rule's job.
    p.trainOnRelease(idx, 0, 0, false, true);
    EXPECT_EQ(p.value(idx), 1);
}

TEST(TypePredictor, SingleEntryTableAliasesEverything)
{
    RegisterTypePredictor p(TypePredictorParams{1});
    EXPECT_EQ(p.indexFor(0x1000), 0u);
    EXPECT_EQ(p.indexFor(0x9999000), 0u);
    p.trainOnShadowExhausted(0);
    EXPECT_EQ(p.predict(0xabc0), 1);
}

TEST(TypePredictor, DifferentPcsTrainIndependently)
{
    RegisterTypePredictor p(TypePredictorParams{4096});
    // Find two PCs with distinct indices (overwhelmingly likely).
    Addr a = 0x1000, b = 0x1004;
    while (p.indexFor(a) == p.indexFor(b))
        b += 4;
    p.trainOnShadowExhausted(p.indexFor(a));
    EXPECT_EQ(p.predict(a), 1);
    EXPECT_EQ(p.predict(b), 0);
}

} // namespace
