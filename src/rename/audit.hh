/**
 * @file
 * Rename-stage invariant auditor.
 *
 * The paper's whole result rests on bookkeeping invariants the renamer
 * maintains incrementally: PRT reference counts must equal the number
 * of map entries naming a register, the free lists must partition the
 * unallocated registers, and version counters must never exceed a
 * bank's shadow-cell capacity (Section IV, Fig. 4b).  The auditor
 * recomputes every one of those properties from scratch from the map
 * tables and compares against the renamer's incremental state, the way
 * gem5's O3 debug machinery cross-checks its rename maps.
 *
 * Usage: attach a RenameAuditor to the core (O3Core::setAuditor) and
 * pick trigger points — every commit, every N cycles, and always after
 * squash / exception recovery.  check() panics with a full structured
 * report on the first violation, so a CI failure names the register,
 * the invariant, and the expected/actual values.  audit() returns the
 * report instead, which is what the fault-injection tests use to
 * assert that each seeded fault class is caught.
 */

#ifndef RRS_RENAME_AUDIT_HH
#define RRS_RENAME_AUDIT_HH

#include <string>
#include <vector>

#include "rename/renamer.hh"

namespace rrs::rename {

class BaselineRenamer;
class ReuseRenamer;

/** The invariants the auditor can report against. */
enum class AuditInvariant : std::uint8_t {
    SpecRefCount,     //!< specRefs != spec map entries naming the reg
    RetRefCount,      //!< retRefs != retirement map entries naming it
    FreeListPartition,//!< reg not in exactly one of free list/allocated
    CounterCapacity,  //!< version counter > bank shadow capacity
    CounterWidth,     //!< version counter overflows its N-bit field
    CounterAllocated, //!< counter > 0 on an unallocated register
    HistorySize,      //!< history token span does not fit its ring
    StaleBit,         //!< stale flag inconsistent with the PRT counter
    VersionRange,     //!< a map entry names a version beyond the counter
    ReadBitUses,      //!< read bit inconsistent with use count
    FreeEntryState,   //!< a free register still carries live state
};

const char *toString(AuditInvariant inv);

/** One violated invariant, with enough context to act on. */
struct AuditViolation
{
    AuditInvariant invariant;
    RegClass cls = RegClass::Int;
    PhysRegIndex phys = invalidRegIndex;  //!< or invalid (global checks)
    std::string detail;                   //!< expected vs actual

    std::string toString() const;
};

/** The result of one full audit pass. */
struct AuditReport
{
    std::vector<AuditViolation> violations;

    bool clean() const { return violations.empty(); }

    /** Shorthand: does any violation name this invariant? */
    bool names(AuditInvariant inv) const;

    /** Multi-line rendering of every violation. */
    std::string toString() const;
};

/**
 * Walks a renamer and verifies the full invariant set.  Stateless but
 * for its counters, so one auditor can serve any number of audits (it
 * holds no reference to the renamer it checks).
 */
class RenameAuditor : public stats::Group
{
  public:
    explicit RenameAuditor(stats::Group *parent = nullptr);

    /** Audit either renamer type (dispatched on the concrete type). */
    AuditReport audit(const Renamer &renamer);
    AuditReport audit(const ReuseRenamer &renamer);
    AuditReport audit(const BaselineRenamer &renamer);

    /**
     * Audit and panic on the first violation, printing the whole
     * report plus `where` (the trigger point).  This is the CI-facing
     * entry: any violation fails the run loudly and actionably.
     */
    void check(const Renamer &renamer, const char *where);

    /** Cumulative counters (also exported as stats). */
    double auditCount() const { return auditsRun.value(); }
    double violationCount() const { return violationsFound.value(); }

  private:
    stats::Scalar auditsRun;
    stats::Scalar violationsFound;
};

} // namespace rrs::rename

#endif // RRS_RENAME_AUDIT_HH
