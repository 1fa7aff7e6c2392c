#include "core/interner.hh"

#include <atomic>
#include <mutex>

#include "core/logging.hh"

namespace tpupoint {

namespace {

std::uint64_t
nextInternerSerial()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

StringInterner::StringInterner() : serial_number(nextInternerSerial())
{
}

StringInterner &
StringInterner::global()
{
    // Leaked deliberately: interned views must stay valid through
    // static destruction of late consumers.
    static StringInterner *instance = new StringInterner;
    return *instance;
}

std::uint32_t
StringInterner::intern(std::string_view name)
{
    std::string_view stored;
    return intern(name, stored);
}

std::uint32_t
StringInterner::intern(std::string_view name, std::string_view &stored)
{
    {
        std::shared_lock<std::shared_mutex> read(guard);
        const auto it = index.find(name);
        if (it != index.end()) {
            stored = it->first;
            return it->second;
        }
    }
    std::unique_lock<std::shared_mutex> write(guard);
    // Re-check: another thread may have interned it between locks.
    const auto it = index.find(name);
    if (it != index.end()) {
        stored = it->first;
        return it->second;
    }
    const auto id = static_cast<std::uint32_t>(strings.size());
    strings.emplace_back(name);
    stored = std::string_view(strings.back());
    index.emplace(stored, id);
    return id;
}

bool
StringInterner::lookup(std::string_view name,
                       std::uint32_t &id) const
{
    std::shared_lock<std::shared_mutex> read(guard);
    const auto it = index.find(name);
    if (it == index.end())
        return false;
    id = it->second;
    return true;
}

std::string_view
StringInterner::view(std::uint32_t id) const
{
    std::shared_lock<std::shared_mutex> read(guard);
    if (id >= strings.size())
        panic("StringInterner::view: unknown id ", id);
    return std::string_view(strings[id]);
}

std::size_t
StringInterner::size() const
{
    std::shared_lock<std::shared_mutex> read(guard);
    return strings.size();
}

} // namespace tpupoint
