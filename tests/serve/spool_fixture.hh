/**
 * @file Shared serve-test fixture: a per-process spool directory,
 * the canonical analyzable stream, file helpers, and a
 * SessionManager driven by a fake clock the test advances.
 */

#ifndef TPUPOINT_TESTS_SERVE_SPOOL_FIXTURE_HH
#define TPUPOINT_TESTS_SERVE_SPOOL_FIXTURE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#ifdef __unix__
#include <unistd.h>
#endif

#include "proto/serialize.hh"
#include "serve/serve.hh"
#include "tests/analyzer/synthetic.hh"
#include "trace/record_stream.hh"

namespace tpupoint {
namespace testutil {

/** A fresh, empty directory private to this test process. */
inline std::string
tempDir(const std::string &name)
{
    std::string dir = testing::TempDir();
#ifdef __unix__
    dir += std::to_string(getpid()) + ".";
#endif
    dir += name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** The canonical three-phase run as a multi-chunk stream, one
 * record per step. */
inline std::string
analyzableStream(std::size_t chunk_records = 4)
{
    std::ostringstream out(std::ios::binary);
    RecordStreamOptions options;
    options.chunk_records = chunk_records;
    RecordStreamWriter writer(out, options);
    const auto steps = threePhaseRun();
    for (std::size_t i = 0; i < steps.size(); ++i)
        writer.append(encodeProfileRecord(makeRecord({steps[i]}, i)));
    writer.finish();
    return out.str();
}

inline void
writeFile(const std::string &path, std::string_view bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

inline void
appendFile(const std::string &path, std::string_view bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * A spool directory plus manager options wired to a fake clock
 * (`now`, in ms). Adjust `options`, then start(); start() again
 * restarts the manager over the same spool (and journal, if set).
 */
struct ManagedSpool
{
    explicit ManagedSpool(const std::string &dir_name)
        : dir(tempDir(dir_name))
    {
        options.spool_dir = dir;
        options.threads = 1;
        options.idle_ttl_ms = 1000;
        options.evict_ttl_ms = -1;
        options.now_ms = [this] { return now; };
    }

    void
    start()
    {
        manager = std::make_unique<serve::SessionManager>(options);
    }

    // By value: two status() calls may appear in one EXPECT_EQ,
    // where a reference into a cached vector would dangle.
    serve::SessionStatus
    status(const std::string &name)
    {
        for (const auto &status : manager->sessions())
            if (status.name == name)
                return status;
        ADD_FAILURE() << "no session named " << name;
        return {};
    }

    std::string
    section(const std::string &key)
    {
        std::ostringstream json;
        manager->writeStatusJson(json);
        std::string out;
        EXPECT_TRUE(serve::extractStatusSection(json.str(), key,
                                                &out))
            << "no section " << key;
        return out;
    }

    std::string dir;
    serve::ServeOptions options;
    std::int64_t now = 0;
    std::unique_ptr<serve::SessionManager> manager;
};

} // namespace testutil
} // namespace tpupoint

#endif // TPUPOINT_TESTS_SERVE_SPOOL_FIXTURE_HH
