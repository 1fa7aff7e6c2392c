/**
 * @file
 * String interning: the analyzer's columnar core stores operator
 * names once and refers to them by dense u32 ids everywhere else,
 * so per-step op rows are arrays of integers instead of maps of
 * strings. Interning is the first thing the zero-copy decode path
 * does with an op name it sees in a record payload — after that the
 * name's bytes are never copied or compared again on the hot path.
 *
 * Ids are dense (0, 1, 2, ...) in first-seen order and live for the
 * interner's lifetime; `view()` is a lock-shared lookup into
 * stable storage, so returned string_views never dangle. Nothing
 * the toolchain outputs depends on id order: every serialization
 * sorts by the interned *string*, which keeps outputs byte-stable
 * even though id assignment order can vary run to run when several
 * sessions intern concurrently.
 */

#ifndef TPUPOINT_CORE_INTERNER_HH
#define TPUPOINT_CORE_INTERNER_HH

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace tpupoint {

/** Thread-safe append-only string <-> dense-id table. */
class StringInterner
{
  public:
    StringInterner();
    StringInterner(const StringInterner &) = delete;
    StringInterner &operator=(const StringInterner &) = delete;

    /**
     * The process-wide interner every analysis session shares. Op
     * vocabularies are tiny (hundreds of distinct names), so one
     * table for the whole process keeps ids comparable across
     * concurrently analyzed traces.
     */
    static StringInterner &global();

    /**
     * Id for @p name, interning it on first sight. The common case
     * (already interned) takes only the shared lock.
     */
    std::uint32_t intern(std::string_view name);

    /**
     * intern() that also returns, in @p stored, the interner's own
     * copy of the name (valid for the interner's lifetime), so a
     * caller can cache the pair and later match names against it.
     */
    std::uint32_t intern(std::string_view name,
                         std::string_view &stored);

    /**
     * Id for @p name if already interned.
     * @return true and sets @p id when present.
     */
    bool lookup(std::string_view name, std::uint32_t &id) const;

    /**
     * The interned string. Storage is append-only, so the view
     * stays valid for the interner's lifetime. Panics on an id
     * that was never handed out.
     */
    std::string_view view(std::uint32_t id) const;

    /** Distinct strings interned so far. */
    std::size_t size() const;

    /**
     * A number unique to this interner among all interners the
     * process ever constructs — unlike its address, which a later
     * interner can reuse. Caches of ids key on it.
     */
    std::uint64_t serial() const { return serial_number; }

  private:
    const std::uint64_t serial_number;

    mutable std::shared_mutex guard;

    /** Stable storage: deque never moves existing elements. */
    std::deque<std::string> strings;

    /** Keys view into `strings`, so each name is stored once. */
    std::unordered_map<std::string_view, std::uint32_t> index;
};

} // namespace tpupoint

#endif // TPUPOINT_CORE_INTERNER_HH
