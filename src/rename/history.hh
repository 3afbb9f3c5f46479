/**
 * @file
 * The rename history buffer shared by both renamers (gem5's O3 rename
 * history, Söderström & Yao): one record per rename action, addressed
 * by its monotonic HistoryToken.  Squash pops the youngest entries,
 * commit retires the oldest.
 *
 * Storage is a power-of-two vector indexed by token & mask.  Tokens
 * never wrap, so an entry keeps its slot for life; a full ring doubles
 * and copies the live entries in token order.
 */

#ifndef RRS_RENAME_HISTORY_HH
#define RRS_RENAME_HISTORY_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "rename/renamer.hh"

namespace rrs::rename {

template <typename Entry>
class HistoryRing
{
  public:
    /**
     * Slots before the first doubling (a power of two): the core's
     * bound at Table I (DESIGN §4f), so a renamer in the core allocates
     * its ring once.
     */
    static constexpr std::size_t initialCapacity = 2048;

    /** Token of the oldest live entry. */
    HistoryToken baseToken() const { return base; }
    /** Token the next push gets (one past the youngest entry). */
    HistoryToken endToken() const { return end; }
    std::size_t size() const { return static_cast<std::size_t>(end - base); }
    std::size_t capacity() const { return slots.size(); }
    /** Largest number of entries ever held at once. */
    std::uint64_t peak() const { return peakCount; }

    /** The live entry with token t (baseToken() <= t < endToken()). */
    const Entry &at(HistoryToken t) const { return slots[t & mask]; }
    const Entry &back() const { return at(end - 1); }

    /** Append an entry at endToken(); true if it set a new peak(). */
    bool
    pushBack(const Entry &e)
    {
        if (size() == slots.size()) [[unlikely]]
            grow();
        slots[end++ & mask] = e;
        if (size() <= peakCount)
            return false;
        peakCount = size();
        return true;
    }

    void
    popBack()
    {
        rrs_assert(end != base, "history underflow at squash");
        --end;
    }

    /** Retire every entry older than token t. */
    void
    popFrontTo(HistoryToken t)
    {
        rrs_assert(t >= base && t <= end, "commit outside live history");
        base = t;
    }

  private:
    /** Double the ring, keeping each live entry at its token's slot. */
    [[gnu::noinline]] void
    grow()
    {
        std::vector<Entry> bigger(slots.size() * 2);
        for (HistoryToken t = base; t != end; ++t)
            bigger[t & (bigger.size() - 1)] = slots[t & mask];
        slots.swap(bigger);
        mask = slots.size() - 1;
    }

    std::vector<Entry> slots = std::vector<Entry>(initialCapacity);
    std::size_t mask = initialCapacity - 1;
    HistoryToken base = 0;
    HistoryToken end = 0;
    std::uint64_t peakCount = 0;
};

} // namespace rrs::rename

#endif // RRS_RENAME_HISTORY_HH
