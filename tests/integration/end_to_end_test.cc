/** @file Whole-toolchain integration: profile -> analyze -> files. */

#include <gtest/gtest.h>

#include <sstream>

#include "analyzer/visualization.hh"
#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "tests/analyzer/synthetic.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

struct ProfiledRun
{
    std::vector<std::string> payloads;
    std::vector<CheckpointInfo> checkpoints;
    SessionResult result;
};

ProfiledRun
profileWorkload(WorkloadId id, TpuGeneration gen)
{
    WorkloadOptions options;
    options.step_scale = 0.02;
    options.max_train_steps = 300;
    const RuntimeWorkload w = makeWorkload(id, options);

    Simulator sim;
    SessionConfig config;
    config.device = TpuDeviceSpec::forGeneration(gen);
    TrainingSession session(sim, config, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    ProfiledRun run;
    run.payloads = profiler.payloads();
    run.checkpoints = session.checkpoints().checkpoints();
    run.result = session.result();
    return run;
}

TEST(EndToEndTest, ProfileAnalyzeExportPipeline)
{
    const ProfiledRun run =
        profileWorkload(WorkloadId::DcganCifar10,
                        TpuGeneration::V2);
    ASSERT_FALSE(run.payloads.empty());

    AnalyzerOptions options;
    const AnalysisResult analysis = TpuPointAnalyzer(options)
        .analyze(run.payloads, run.checkpoints);
    EXPECT_GT(analysis.table.size(), 100u);
    EXPECT_GE(analysis.phases.size(), 2u);
    EXPECT_LE(analysis.phases.size(), 15u);
    EXPECT_GE(analysis.top3_coverage, 0.95);
    EXPECT_FALSE(analysis.checkpoints.empty());

    // Every output artifact is producible.
    std::ostringstream trace, csv, json, profile_bin;
    std::vector<ProfileWindowInfo> windows;
    for (const std::string &payload : run.payloads)
        windows.emplace_back(testutil::columnar(payload));
    writeChromeTrace(analysis, windows, trace);
    writePhaseCsv(analysis, csv);
    writeAnalysisJson(analysis, json);
    RecordStreamWriter writer(profile_bin);
    for (const std::string &payload : run.payloads)
        writer.append(payload);
    writer.finish();
    EXPECT_GT(trace.str().size(), 100u);
    EXPECT_GT(csv.str().size(), 100u);
    EXPECT_GT(json.str().size(), 100u);

    // The binary profile round-trips to an equivalent analysis.
    std::istringstream replay(profile_bin.str());
    ProfileReader reader(replay);
    const AnalysisResult again = TpuPointAnalyzer(options).analyze(
        testutil::payloadsOf(testutil::readAll(reader)));
    EXPECT_EQ(again.phases.size(), analysis.phases.size());
    EXPECT_DOUBLE_EQ(again.top3_coverage,
                     analysis.top3_coverage);
}

TEST(EndToEndTest, AllAlgorithmsAgreeOnDominantOps)
{
    const ProfiledRun run = profileWorkload(
        WorkloadId::BertSquad, TpuGeneration::V2);

    std::vector<std::string> winners;
    for (const PhaseAlgorithm algorithm :
         {PhaseAlgorithm::KMeans, PhaseAlgorithm::Dbscan,
          PhaseAlgorithm::OnlineLinearScan}) {
        AnalyzerOptions options;
        options.algorithm = algorithm;
        options.kmeans_fixed_k = 5;
        options.dbscan_fixed_min_samples = 30;
        const AnalysisResult analysis =
            TpuPointAnalyzer(options).analyze(run.payloads);
        const Phase *longest = analysis.longest();
        ASSERT_NE(longest, nullptr);
        const auto top = topOps(longest->tpu_ops, 1);
        ASSERT_FALSE(top.empty());
        winners.push_back(top[0].name);
    }
    // Section VI-B: the detectors identify a common set of the
    // most time-consuming operators.
    EXPECT_EQ(winners[0], winners[1]);
    EXPECT_EQ(winners[1], winners[2]);
}

TEST(EndToEndTest, CheckpointFastForwardSkipsWork)
{
    WorkloadOptions options;
    options.step_scale = 0.02;
    options.max_train_steps = 200;
    const RuntimeWorkload w =
        makeWorkload(WorkloadId::DcganCifar10, options);

    // Full run.
    Simulator full_sim;
    TrainingSession full(full_sim, SessionConfig{}, w);
    full.start(nullptr);
    full_sim.run();

    // Fast-forward to the phase beginning at step 150 via the
    // nearest checkpoint, as TPUPoint's restart support enables.
    const CheckpointInfo *nearest =
        full.checkpoints().nearest(150);
    ASSERT_NE(nearest, nullptr);
    SessionConfig restart;
    restart.start_step = nearest->step;
    Simulator ff_sim;
    TrainingSession resumed(ff_sim, restart, w);
    resumed.start(nullptr);
    ff_sim.run();

    EXPECT_LT(resumed.result().wall_time,
              full.result().wall_time);
    EXPECT_EQ(resumed.result().steps_completed,
              w.schedule.train_steps - nearest->step);
}

} // namespace
} // namespace tpupoint
