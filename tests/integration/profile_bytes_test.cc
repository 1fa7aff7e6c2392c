/**
 * @file
 * Profile-bytes golden: the exact container bytes `tpupoint-profile`
 * streams for every Table I workload on v2 and v3, plus one faulted
 * and preempted run, pinned by FNV-1a hash. Any change to the
 * collector, the encoder or the spool that moves a single profile
 * byte fails here.
 *
 * Regenerate (only when the profile format intentionally changes):
 *   TPUPOINT_UPDATE_GOLDENS=1 ./integration_test \
 *       --gtest_filter='ProfileBytesGolden*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "tests/integration/profiles.hh"
#include "workloads/catalog.hh"

#ifndef TPUPOINT_GOLDEN_DIR
#error "TPUPOINT_GOLDEN_DIR must be defined by the build"
#endif

namespace tpupoint {
namespace {

using testutil::profileBytes;
using testutil::resilientProfileBytes;

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** One "name hash size" line per profile, in a fixed order. */
std::string
hashLines()
{
    std::ostringstream lines;
    const auto line = [&lines](const std::string &name,
                               const std::string &bytes) {
        lines << name << ' ' << std::hex << fnv1a(bytes) << std::dec
              << ' ' << bytes.size() << '\n';
    };
    for (const WorkloadId id : allWorkloads()) {
        for (const TpuGeneration gen :
             {TpuGeneration::V2, TpuGeneration::V3}) {
            line(std::string(workloadName(id)) +
                     (gen == TpuGeneration::V2 ? "/v2" : "/v3"),
                 profileBytes(id, gen));
        }
    }
    std::uint32_t attempts = 0;
    line("QANet-SQuAD/v2/faulted-preempted",
         resilientProfileBytes(&attempts));
    EXPECT_GT(attempts, 1u) << "the preemption never fired";
    return lines.str();
}

bool
updateGoldens()
{
    const char *env = std::getenv("TPUPOINT_UPDATE_GOLDENS");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(ProfileBytesGolden, EveryWorkloadMatchesPinnedHash)
{
    const std::string path =
        std::string(TPUPOINT_GOLDEN_DIR) + "/profile_hashes.txt";
    const std::string produced = hashLines();
    if (updateGoldens()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write golden " << path;
        out << produced;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (run with TPUPOINT_UPDATE_GOLDENS=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), produced);
}

} // namespace
} // namespace tpupoint
