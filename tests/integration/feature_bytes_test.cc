/**
 * @file
 * Feature-bytes golden: the exact doubles and labels
 * FeatureMatrix::build produces for QANet at the tools' default
 * scale (106 raw dimensions, PCA-reduced) and for BERT-MNLI (no
 * PCA), pinned by FNV-1a hash. The figure goldens print 4-12
 * significant digits, so a last-bit change in covariance, PCA or
 * projection would pass them and fail here.
 *
 * Regenerate (only when feature extraction intentionally changes):
 *   TPUPOINT_UPDATE_GOLDENS=1 ./integration_test \
 *       --gtest_filter='FeatureBytesGolden*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analyzer/features.hh"
#include "analyzer/step_table.hh"
#include "proto/serialize.hh"
#include "tests/integration/profiles.hh"
#include "workloads/catalog.hh"

#ifndef TPUPOINT_GOLDEN_DIR
#error "TPUPOINT_GOLDEN_DIR must be defined by the build"
#endif

namespace tpupoint {
namespace {

using testutil::profileBytes;

/** FNV-1a, continued from @p hash over @p size bytes. */
std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** The step table `tpupoint-analyze` folds from a profile. */
StepTable
tableOf(const std::string &bytes)
{
    std::istringstream in(bytes, std::ios::binary);
    ProfileReader reader(in);
    StepTableBuilder builder;
    ColumnarRecord record;
    while (reader.read(record))
        builder.ingest(record);
    return std::move(builder).build();
}

/** "name rows cols pca labels hash": the hash covers every label
 * (NUL-terminated) and then every matrix double's bytes. */
std::string
featureLine(const std::string &name, const StepTable &table)
{
    const FeatureMatrix features = FeatureMatrix::build(table);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::string &label : features.rawDimensions())
        hash = fnv1a(hash, label.c_str(), label.size() + 1);
    const Matrix &m = features.matrix();
    for (std::size_t r = 0; r < m.rows(); ++r)
        hash = fnv1a(hash, m.rowPtr(r), m.cols() * sizeof(double));
    std::ostringstream line;
    line << name << ' ' << m.rows() << ' ' << m.cols() << ' '
         << (features.pcaApplied() ? "pca" : "raw") << ' '
         << features.rawDimensions().size() << ' ' << std::hex
         << hash << '\n';
    return line.str();
}

bool
updateGoldens()
{
    const char *env = std::getenv("TPUPOINT_UPDATE_GOLDENS");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(FeatureBytesGolden, QanetAndMnliMatchPinnedHash)
{
    const std::string produced =
        featureLine("QANet-SQuAD/v2/x0.05",
                    tableOf(profileBytes(WorkloadId::QanetSquad,
                                         TpuGeneration::V2, 0.05))) +
        featureLine("BERT-MNLI/v2/x0.05",
                    tableOf(profileBytes(WorkloadId::BertMnli,
                                         TpuGeneration::V2, 0.05)));
    const std::string path =
        std::string(TPUPOINT_GOLDEN_DIR) + "/feature_hashes.txt";
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
