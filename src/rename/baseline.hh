/**
 * @file
 * Baseline register renaming: merged register file, allocate a fresh
 * physical register per destination, release the previous mapping when
 * the redefining instruction commits (paper Section II).  Squash
 * recovery uses a rename history buffer walked backwards, as in gem5's
 * O3 rename stage.
 */

#ifndef RRS_RENAME_BASELINE_HH
#define RRS_RENAME_BASELINE_HH

#include <vector>

#include "rename/history.hh"
#include "rename/renamer.hh"

namespace rrs::rename {

class RenameAuditor;

/** Baseline renamer configuration. */
struct BaselineParams
{
    std::uint32_t intRegs = 128;
    std::uint32_t fpRegs = 128;
};

/** The conventional release-on-commit renamer. */
class BaselineRenamer : public Renamer
{
  public:
    explicit BaselineRenamer(const BaselineParams &params,
                             stats::Group *parent = nullptr);

    RenameResult rename(
        const trace::DynInst &di,
        const std::function<bool(const PhysRegTag &)> &producerExecuted =
            {}) override;

    void commit(const RenameResult &result) override;
    std::uint32_t squashTo(
        HistoryToken token,
        const std::function<bool(const PhysRegTag &)> &produced =
            {}) override;
    HistoryToken
    historyPosition() const override
    {
        return history.endToken();
    }

    std::uint32_t freeRegs(RegClass cls) const override;
    std::uint32_t totalRegs(RegClass cls) const override;
    std::uint32_t maxVersions() const override { return 1; }

    /** Current speculative mapping (tests / debugging). */
    PhysRegTag mapping(RegClass cls, LogRegIndex reg) const override;

    /** Aggregate counters for reports. */
    double allocationCount() const { return allocations.value(); }
    double stallCount() const { return renameStalls.value(); }

    /** Largest number of history entries ever held at once. */
    std::uint64_t historyPeakEntries() const { return history.peak(); }

  private:
    friend class RenameAuditor;
    friend struct RenameStateAccess;   // tests: whole-state comparison
    struct HistoryEntry
    {
        RegClass cls;
        LogRegIndex logReg;
        PhysRegIndex oldPhys;   //!< restored on squash, freed on commit
        PhysRegIndex newPhys;
    };

    struct ClassState
    {
        std::vector<PhysRegIndex> map;        //!< spec map table
        std::vector<PhysRegIndex> freeList;
    };

    ClassState &state(RegClass cls)
    {
        return classes[static_cast<int>(cls)];
    }
    const ClassState &
    state(RegClass cls) const
    {
        return classes[static_cast<int>(cls)];
    }

    BaselineParams params;
    ClassState classes[numRegClasses];

    HistoryRing<HistoryEntry> history;

    stats::Scalar allocations;
    stats::Scalar historyPeak;
    stats::Scalar releases;
    stats::Scalar renameStalls;
};

} // namespace rrs::rename

#endif // RRS_RENAME_BASELINE_HH
