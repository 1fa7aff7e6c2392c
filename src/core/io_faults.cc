#include "core/io_faults.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/strings.hh"

namespace tpupoint {
namespace io {

namespace {

/** Parse a fault-kind name; false when unknown. */
bool
parseKind(std::string_view name, FaultKind *kind)
{
    if (name == "enospc")
        *kind = FaultKind::DiskFull;
    else if (name == "eio")
        *kind = FaultKind::IoError;
    else if (name == "short")
        *kind = FaultKind::ShortWrite;
    else if (name == "torn")
        *kind = FaultKind::TornRename;
    else
        return false;
    return true;
}

/** Strict double parse for the ~RATE form (whole text, [0, 1]). */
bool
parseRate(std::string_view text, double *rate)
{
    double parsed = 0.0;
    if (!parseDouble(text, &parsed) || parsed < 0.0 || parsed > 1.0)
        return false;
    *rate = parsed;
    return true;
}

/**
 * Parse one spec entry ("site=kind", "site=kind@N", "site=kind@N+",
 * "site=kind~RATE") into @p rule.
 */
bool
parseEntry(std::string_view entry, FaultRule *rule,
           std::string *error)
{
    const auto fail = [&](const std::string &why) {
        if (error != nullptr)
            *error = "bad io-fault entry '" + std::string(entry) +
                "': " + why;
        return false;
    };
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0)
        return fail("want SITE=KIND[@N[+]|~RATE]");
    rule->site = std::string(entry.substr(0, eq));
    std::string_view tail = entry.substr(eq + 1);

    const std::size_t at = tail.find('@');
    const std::size_t tilde = tail.find('~');
    std::string_view kind_name = tail;
    if (at != std::string_view::npos)
        kind_name = tail.substr(0, at);
    else if (tilde != std::string_view::npos)
        kind_name = tail.substr(0, tilde);
    if (!parseKind(kind_name, &rule->kind))
        return fail("unknown kind '" + std::string(kind_name) +
                    "' (want enospc|eio|short|torn)");

    if (at != std::string_view::npos) {
        std::string_view count = tail.substr(at + 1);
        if (!count.empty() && count.back() == '+') {
            rule->persistent = true;
            count.remove_suffix(1);
        }
        std::uint64_t hit = 0;
        if (!parseUint64(count, &hit) || hit == 0)
            return fail("@ wants a positive hit index");
        rule->at = hit;
    } else if (tilde != std::string_view::npos) {
        if (!parseRate(tail.substr(tilde + 1), &rule->rate))
            return fail("~ wants a rate in [0, 1]");
    }
    return true;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::DiskFull: return "enospc";
      case FaultKind::IoError: return "eio";
      case FaultKind::ShortWrite: return "short";
      case FaultKind::TornRename: return "torn";
    }
    return "unknown";
}

FaultInjector &
FaultInjector::global()
{
    static FaultInjector instance;
    return instance;
}

bool
FaultInjector::configure(std::string_view spec, std::string *error)
{
    std::vector<FaultRule> parsed;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t end = spec.find(',', begin);
        if (end == std::string_view::npos)
            end = spec.size();
        const std::string_view entry =
            spec.substr(begin, end - begin);
        begin = end + 1;
        if (entry.empty())
            continue;
        FaultRule rule;
        if (!parseEntry(entry, &rule, error))
            return false;
        parsed.push_back(std::move(rule));
    }
    if (parsed.empty())
        return true;
    std::lock_guard<std::mutex> lock(mu);
    for (FaultRule &rule : parsed)
        rules.push_back(std::move(rule));
    any_rules.store(!rules.empty(), std::memory_order_relaxed);
    return true;
}

bool
FaultInjector::loadFromEnvironment(std::string *error)
{
    const char *spec = std::getenv("TPUPOINT_IO_FAULTS");
    if (spec == nullptr || spec[0] == '\0')
        return true;
    return configure(spec, error);
}

void
FaultInjector::setSeed(std::uint64_t seed)
{
    std::lock_guard<std::mutex> lock(mu);
    rng = Rng(seed);
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    rules.clear();
    hit_counts.clear();
    injected_counts.clear();
    total_injected = 0;
    any_rules.store(false, std::memory_order_relaxed);
}

FaultKind
FaultInjector::sample(std::string_view site)
{
    if (!armed())
        return FaultKind::None;
    std::lock_guard<std::mutex> lock(mu);
    if (rules.empty())
        return FaultKind::None;
    auto hit_it = hit_counts.find(site);
    if (hit_it == hit_counts.end())
        hit_it = hit_counts.emplace(std::string(site), 0).first;
    const std::uint64_t hit = ++hit_it->second;

    for (const FaultRule &rule : rules) {
        if (rule.site != site)
            continue;
        bool fires = false;
        if (rule.rate > 0.0)
            fires = rng.nextDouble() < rule.rate;
        else if (rule.persistent)
            fires = hit >= rule.at;
        else
            fires = hit == rule.at;
        if (!fires)
            continue;
        ++total_injected;
        auto inj_it = injected_counts.find(site);
        if (inj_it == injected_counts.end())
            inj_it = injected_counts.emplace(std::string(site), 0)
                         .first;
        ++inj_it->second;
        return rule.kind;
    }
    return FaultKind::None;
}

std::uint64_t
FaultInjector::hits(std::string_view site) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = hit_counts.find(site);
    return it == hit_counts.end() ? 0 : it->second;
}

std::uint64_t
FaultInjector::injected(std::string_view site) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = injected_counts.find(site);
    return it == injected_counts.end() ? 0 : it->second;
}

std::uint64_t
FaultInjector::injectedTotal() const
{
    std::lock_guard<std::mutex> lock(mu);
    return total_injected;
}

std::string
FaultInjector::summary() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::uint64_t hits_total = 0;
    for (const auto &entry : hit_counts)
        hits_total += entry.second;
    return std::to_string(rules.size()) + " rules, " +
        std::to_string(hits_total) + " hits, " +
        std::to_string(total_injected) + " injected";
}

bool
writeFileWithFaults(std::string_view site, const std::string &path,
                    std::string_view bytes, std::string *error)
{
    const auto fail = [&](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    const FaultKind fault = FaultInjector::global().sample(site);
    if (fault == FaultKind::IoError)
        return fail("injected eio writing " + path);

    std::size_t landed = bytes.size();
    bool injected_failure = false;
    std::string injected_why;
    if (fault == FaultKind::DiskFull) {
        // The disk fills mid-write: a partial prefix lands.
        landed = bytes.size() / 2;
        injected_failure = true;
        injected_why = "injected enospc writing " + path;
    } else if (fault == FaultKind::ShortWrite ||
               fault == FaultKind::TornRename) {
        // TornRename on a write site degrades to a short write:
        // both model "the bytes did not all make it".
        landed = bytes.empty() ? 0 : bytes.size() - 1;
        injected_failure = true;
        injected_why = "injected short write to " + path;
    }

    std::ofstream out(path,
                      std::ios::binary | std::ios::trunc);
    if (!out)
        return fail("cannot open " + path + " for writing");
    out.write(bytes.data(),
              static_cast<std::streamsize>(landed));
    out.flush();
    if (!out)
        return fail("write to " + path + " failed");
    if (injected_failure)
        return fail(injected_why);
    return true;
}

bool
renameWithFaults(std::string_view site, const std::string &from,
                 const std::string &to, std::string *error)
{
    const auto fail = [&](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    const FaultKind fault = FaultInjector::global().sample(site);
    if (fault == FaultKind::TornRename)
        return fail("injected torn rename of " + from);
    if (fault != FaultKind::None)
        return fail(std::string("injected ") +
                    faultKindName(fault) + " renaming " + from);
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    if (ec)
        return fail("rename " + from + " -> " + to + ": " +
                    ec.message());
    return true;
}

} // namespace io
} // namespace tpupoint
