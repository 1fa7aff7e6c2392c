/** @file Analyzer output files: chrome trace, CSV, JSON summary. */

#include <gtest/gtest.h>

#include <sstream>

#include "analyzer/visualization.hh"
#include "proto/columnar.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::makeRecord;
using testutil::threePhaseRun;

AnalysisResult
analyzed(std::vector<ProfileRecord> &records_out)
{
    records_out = {makeRecord(threePhaseRun())};
    AnalyzerOptions options;
    return TpuPointAnalyzer(options).analyze(
        testutil::payloadsOf(records_out));
}

/** The trace viewer's windows, taken off columnar records. */
std::vector<ProfileWindowInfo>
windowsOf(const std::vector<ProfileRecord> &records)
{
    std::vector<ProfileWindowInfo> windows;
    for (const auto &record : records)
        windows.emplace_back(testutil::columnar(record));
    return windows;
}

TEST(VisualizationTest, ChromeTraceHasBothTracks)
{
    std::vector<ProfileRecord> records;
    const AnalysisResult analysis = analyzed(records);
    std::ostringstream out;
    writeChromeTrace(analysis, windowsOf(records), out);
    const std::string json = out.str();

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("Profile Breakdown"), std::string::npos);
    EXPECT_NE(json.find("Phase Breakdown"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("displayTimeUnit"), std::string::npos);
    // One slice per phase.
    std::size_t phase_slices = 0, pos = 0;
    while ((pos = json.find("\"phase ", pos)) !=
           std::string::npos) {
        ++phase_slices;
        ++pos;
    }
    EXPECT_EQ(phase_slices, analysis.phases.size());
}

TEST(VisualizationTest, CsvHasOneRowPerPhase)
{
    std::vector<ProfileRecord> records;
    const AnalysisResult analysis = analyzed(records);
    std::ostringstream out;
    writePhaseCsv(analysis, out);
    const std::string csv = out.str();

    // Header + phases rows.
    std::size_t lines = 0, pos = 0;
    while ((pos = csv.find("\r\n", pos)) != std::string::npos) {
        ++lines;
        pos += 2;
    }
    EXPECT_EQ(lines, analysis.phases.size() + 1);
    EXPECT_NE(csv.find("top_tpu_ops"), std::string::npos);
    EXPECT_NE(csv.find("fusion"), std::string::npos);
}

TEST(VisualizationTest, JsonSummaryCarriesTopOps)
{
    std::vector<ProfileRecord> records;
    const AnalysisResult analysis = analyzed(records);
    std::ostringstream out;
    writeAnalysisJson(analysis, out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"algorithm\": \"OLS\""),
              std::string::npos);
    EXPECT_NE(json.find("\"top3_coverage\""), std::string::npos);
    EXPECT_NE(json.find("\"top_tpu_ops\""), std::string::npos);
    EXPECT_NE(json.find("\"top_host_ops\""), std::string::npos);
    EXPECT_NE(json.find("\"checkpoints\""), std::string::npos);
}

TEST(VisualizationTest, EmptyAnalysisStillWellFormed)
{
    AnalysisResult empty;
    std::ostringstream trace, csv, json;
    writeChromeTrace(empty, std::vector<ProfileWindowInfo>{},
                     trace);
    writePhaseCsv(empty, csv);
    writeAnalysisJson(empty, json);
    EXPECT_NE(trace.str().find("traceEvents"), std::string::npos);
    EXPECT_FALSE(csv.str().empty());
    EXPECT_FALSE(json.str().empty());
}

} // namespace
} // namespace tpupoint
