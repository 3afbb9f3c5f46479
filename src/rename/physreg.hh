/**
 * @file
 * Physical register identities for the rename stage.
 *
 * The proposed scheme names a value as (physical register, version):
 * the version is the PRT's N-bit counter appended to the register ID so
 * the issue queue can distinguish the multiple values that share one
 * physical register (paper Section IV-A).  The baseline scheme uses
 * version 0 everywhere.
 */

#ifndef RRS_RENAME_PHYSREG_HH
#define RRS_RENAME_PHYSREG_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hh"

namespace rrs::rename {

/** A versioned physical register tag, the wakeup identity in the IQ. */
struct PhysRegTag
{
    RegClass cls = RegClass::Int;
    PhysRegIndex reg = invalidRegIndex;
    std::uint8_t version = 0;

    bool valid() const { return reg != invalidRegIndex; }
    bool operator==(const PhysRegTag &) const = default;

    /** Debug rendering: P<reg>.<version> (or P<reg> for version 0). */
    std::string
    toString() const
    {
        if (!valid())
            return "-";
        std::string s = cls == RegClass::Int ? "P" : "FP";
        s += std::to_string(reg);
        s += '.';
        s += std::to_string(version);
        return s;
    }
};

/** Dense scoreboard index for a tag (cls x reg x version). */
struct TagIndexer
{
    std::uint32_t regsPerClass;
    std::uint32_t maxVersions;

    std::uint32_t
    operator()(const PhysRegTag &tag) const
    {
        return (static_cast<std::uint32_t>(tag.cls) * regsPerClass +
                tag.reg) * maxVersions + tag.version;
    }

    std::uint32_t
    size() const
    {
        return numRegClasses * regsPerClass * maxVersions;
    }
};

} // namespace rrs::rename

#endif // RRS_RENAME_PHYSREG_HH
