#include "baseline.hh"

#include "common/logging.hh"

namespace rrs::rename {

BaselineRenamer::BaselineRenamer(const BaselineParams &params,
                                 stats::Group *parent)
    : Renamer("rename", parent), params(params),
      allocations(this, "allocations", "physical registers allocated"),
      historyPeak(this, "historyPeak",
                  "largest rename-history footprint (entries)"),
      releases(this, "releases", "physical registers released"),
      renameStalls(this, "renameStalls", "stalls due to empty free list")
{
    for (int c = 0; c < numRegClasses; ++c) {
        auto cls = static_cast<RegClass>(c);
        std::uint32_t total = totalRegs(cls);
        rrs_assert(total >= isa::numLogRegs,
                   "need at least as many physical as logical registers");
        ClassState &st = classes[c];
        st.map.resize(isa::numLogRegs);
        // Identity initial mapping; the rest go to the free list.
        for (LogRegIndex r = 0; r < isa::numLogRegs; ++r)
            st.map[r] = r;
        for (std::uint32_t p = total; p > isa::numLogRegs; --p)
            st.freeList.push_back(static_cast<PhysRegIndex>(p - 1));
    }
}

std::uint32_t
BaselineRenamer::totalRegs(RegClass cls) const
{
    return cls == RegClass::Int ? params.intRegs : params.fpRegs;
}

std::uint32_t
BaselineRenamer::freeRegs(RegClass cls) const
{
    return static_cast<std::uint32_t>(state(cls).freeList.size());
}

PhysRegTag
BaselineRenamer::mapping(RegClass cls, LogRegIndex reg) const
{
    return PhysRegTag{cls, state(cls).map[reg], 0};
}

RenameResult
BaselineRenamer::rename(
    const trace::DynInst &di,
    const std::function<bool(const PhysRegTag &)> & /* producerExecuted */)
{
    RenameResult res;
    res.token = res.endToken = history.endToken();

    const bool writes = writesReg(di);
    if (writes && state(di.si.dest.cls).freeList.empty()) {
        ++renameStalls;
        res.success = false;
        return res;
    }

    // Rename sources through the map table.
    for (int s = 0; s < di.si.numSrcs(); ++s) {
        if (!readsReg(di, s)) {
            res.srcTags[static_cast<std::size_t>(s)] = PhysRegTag{};
        } else {
            const isa::RegId &src = di.si.srcs[static_cast<std::size_t>(s)];
            res.srcTags[static_cast<std::size_t>(s)] =
                PhysRegTag{src.cls, state(src.cls).map[src.idx], 0};
        }
    }
    res.numSrcTags = di.si.numSrcs();

    if (writes) {
        ClassState &st = state(di.si.dest.cls);
        PhysRegIndex fresh = st.freeList.back();
        st.freeList.pop_back();
        ++allocations;

        PhysRegIndex old = st.map[di.si.dest.idx];
        st.map[di.si.dest.idx] = fresh;
        if (history.pushBack(
                HistoryEntry{di.si.dest.cls, di.si.dest.idx, old, fresh}))
            historyPeak = static_cast<double>(history.peak());

        res.hasDest = true;
        res.destTag = PhysRegTag{di.si.dest.cls, fresh, 0};
    }

    res.success = true;
    res.endToken = history.endToken();
    return res;
}

void
BaselineRenamer::commit(const RenameResult &result)
{
    // Retire this instruction's history entries; commits are in order,
    // so they sit at the front of the buffer.  The previous mapping of
    // each redefined logical register is now unreachable: release it
    // (release-on-commit).
    for (HistoryToken t = history.baseToken(); t < result.endToken; ++t) {
        const HistoryEntry &e = history.at(t);
        state(e.cls).freeList.push_back(e.oldPhys);
        ++releases;
    }
    history.popFrontTo(result.endToken);
}

std::uint32_t
BaselineRenamer::squashTo(
    HistoryToken token,
    const std::function<bool(const PhysRegTag &)> & /* produced */)
{
    rrs_assert(token >= history.baseToken(), "squash into committed history");
    while (history.endToken() > token) {
        const HistoryEntry &e = history.back();
        state(e.cls).map[e.logReg] = e.oldPhys;
        state(e.cls).freeList.push_back(e.newPhys);
        history.popBack();
    }
    return 0;   // the baseline never needs shadow recovery
}

} // namespace rrs::rename
