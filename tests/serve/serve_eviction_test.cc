/**
 * @file
 * Serve session eviction really releases memory. This binary
 * replaces global operator new/delete with a size-tracking pair
 * (16-byte size prefix, atomic live-byte counter) and drives a
 * SessionManager through several rounds of session churn with
 * immediate eviction. If finalize dropped the tail reader and
 * analysis state but eviction leaked the AnalysisResult — or
 * nothing were released at all — live bytes would grow by roughly
 * the ingested volume every round; with eviction working, each
 * round leaves only a compact SessionStatus behind.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

#include "serve/serve.hh"
#include "tests/serve/spool_fixture.hh"

// Binary-wide live-byte accounting: every plain new carries a
// size prefix so the matching delete can subtract what it frees.
// The default nothrow forms forward to these; the aligned forms
// are left alone (they pair with aligned delete, never with us).
namespace {
std::atomic<std::uint64_t> live_bytes{0};
constexpr std::size_t kPrefix = alignof(std::max_align_t);

/**
 * The malloc'd block behind a pointer our operator new returned.
 * The round trip through an integer hides the arithmetic from
 * GCC's allocation tracking, which would otherwise see free()
 * applied to a pointer that came from operator new once the pair
 * inlines (-Wmismatched-new-delete).
 */
void *
blockOf(void *p)
{
    return reinterpret_cast<void *>(
        reinterpret_cast<std::uintptr_t>(p) - kPrefix);
}
} // namespace

void *
operator new(std::size_t size)
{
    void *raw = std::malloc(size + kPrefix);
    if (!raw)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(raw) = size;
    live_bytes.fetch_add(size, std::memory_order_relaxed);
    return static_cast<char *>(raw) + kPrefix;
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    if (!p)
        return;
    void *raw = blockOf(p);
    live_bytes.fetch_sub(*static_cast<std::size_t *>(raw),
                         std::memory_order_relaxed);
    std::free(raw);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace tpupoint {
namespace {

using testutil::analyzableStream;
using testutil::tempDir;

TEST(ServeEvictionTest, ChurnedSessionsDoNotAccumulateMemory)
{
    const std::string dir = tempDir("serve_eviction");
    const std::string stream = analyzableStream(/*chunk_records=*/8);

    serve::ServeOptions options;
    options.spool_dir = dir;
    options.threads = 1;
    options.idle_ttl_ms = 3600 * 1000; // Finalize on Complete only.
    options.evict_ttl_ms = 0;          // Evict immediately after.
    options.max_finalizes_per_poll = 16;
    serve::SessionManager manager(options);

    constexpr int kRounds = 6;
    constexpr int kSessionsPerRound = 8;
    const auto runRound = [&](int round) {
        for (int i = 0; i < kSessionsPerRound; ++i) {
            std::ofstream out(dir + "/r" + std::to_string(round) +
                                  "s" + std::to_string(i) + ".tpp",
                              std::ios::binary);
            out.write(stream.data(),
                      static_cast<std::streamsize>(stream.size()));
        }
        // drained() is true between rounds (everything from the
        // last round was evicted), so poll at least once to
        // discover the new files before testing it.
        int polls = 0;
        do {
            manager.poll();
            ++polls;
        } while (!manager.stats().drained() && polls < 100);
        ASSERT_TRUE(manager.stats().drained());
    };

    runRound(0);
    const std::uint64_t baseline =
        live_bytes.load(std::memory_order_relaxed);
    for (int round = 1; round < kRounds; ++round)
        runRound(round);
    const std::uint64_t final_live =
        live_bytes.load(std::memory_order_relaxed);

    const serve::ServeStats stats = manager.stats();
    EXPECT_EQ(stats.sessions,
              static_cast<std::size_t>(kRounds *
                                       kSessionsPerRound));
    EXPECT_EQ(stats.evicted, stats.sessions);

    // (kRounds - 1) extra rounds ingested this much profile data;
    // retaining per-session live state (tail buffers, step tables,
    // analysis results) would hold at least that many bytes live.
    const std::uint64_t ingested = (kRounds - 1) *
        kSessionsPerRound * stream.size();
    const std::uint64_t growth =
        final_live > baseline ? final_live - baseline : 0;
    // What legitimately survives per session is a compact
    // SessionStatus (phase summaries, a labeled gauge entry):
    // a few KB, not the ingested volume.
    EXPECT_LT(growth, ingested / 4)
        << "growth " << growth << " of " << ingested
        << " ingested bytes stayed live across "
        << stats.evicted << " evicted sessions";
    EXPECT_LT(growth, 512u * 1024u);
}

} // namespace
} // namespace tpupoint
