#include "predictor.hh"

#include "common/logging.hh"

namespace rrs::rename {

RegisterTypePredictor::RegisterTypePredictor(
    const TypePredictorParams &params, stats::Group *parent)
    : stats::Group("typePred", parent), table(params.entries, 0),
      predictions(this, "predictions", "allocation-type predictions"),
      decrements(this, "decrements", "entries decremented on release"),
      resets(this, "resets", "entries reset on multi-use detection"),
      increments(this, "increments",
                 "entries incremented on shadow exhaustion")
{
    rrs_assert(!table.empty(), "predictor needs at least one entry");
}

void
RegisterTypePredictor::trainOnRelease(std::uint32_t index,
                                      std::uint8_t allocatedShadow,
                                      std::uint8_t actualReuses,
                                      bool multiUseDetected,
                                      bool singleUseMissed)
{
    std::uint8_t &e = table[index];
    if (allocatedShadow > 0 && multiUseDetected) {
        // Predicted single-use, saw extra consumers: reset.
        e = 0;
        ++resets;
        return;
    }
    if (singleUseMissed) {
        // The value had exactly one consumer but no shadow capacity was
        // provisioned: learn that this PC produces single-use values.
        // Only lift dormant entries to the smallest shadow bank — the
        // shadow-exhaustion rule escalates further if chains form;
        // anything more aggressive floods the shadow banks with
        // long-lived committed values.
        if (e == 0) {
            e = 1;
            ++increments;
        }
        return;
    }
    if (actualReuses < allocatedShadow && e > 0) {
        // Shadow copies went unused: shrink the next allocation.
        --e;
        ++decrements;
    }
}

void
RegisterTypePredictor::trainOnShadowExhausted(std::uint32_t index)
{
    std::uint8_t &e = table[index];
    if (e < 3) {
        ++e;
        ++increments;
    }
}

} // namespace rrs::rename
