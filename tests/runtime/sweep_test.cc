/** @file SweepRunner: determinism across thread counts. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyzer/analyzer.hh"
#include "analyzer/visualization.hh"
#include "runtime/analysis_pipeline.hh"
#include "runtime/sweep.hh"
#include "tests/analyzer/synthetic.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

std::vector<SweepJob>
smallJobs()
{
    const WorkloadId ids[] = {
        WorkloadId::BertMrpc, WorkloadId::DcganCifar10,
        WorkloadId::DcganMnist, WorkloadId::BertCola};
    std::vector<SweepJob> jobs;
    for (const WorkloadId id : ids) {
        WorkloadOptions options;
        options.step_scale = 0.02;
        options.max_train_steps = 120;
        SweepJob job;
        job.workload = makeWorkload(id, options);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<SweepOutcome>
runWith(unsigned threads, const std::vector<SweepJob> &jobs)
{
    SweepOptions options;
    options.threads = threads;
    return SweepRunner(options).run(jobs);
}

TEST(SweepRunnerTest, OutcomesLandInJobOrder)
{
    const auto jobs = smallJobs();
    const auto outcomes = runWith(4, jobs);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].job_index, i);
        EXPECT_GT(outcomes[i].result.steps_completed, 0u);
        EXPECT_FALSE(outcomes[i].payloads.empty());
    }
}

TEST(SweepRunnerTest, ThreadCountNeverChangesResults)
{
    const auto jobs = smallJobs();
    const auto serial = runWith(1, jobs);
    const auto parallel = runWith(4, jobs);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        // Bitwise: every profile record serializes identically.
        EXPECT_EQ(serial[i].payloads, parallel[i].payloads);
        EXPECT_EQ(serial[i].result.wall_time,
                  parallel[i].result.wall_time);
        EXPECT_EQ(serial[i].result.steps_completed,
                  parallel[i].result.steps_completed);
        EXPECT_EQ(serial[i].profiler_bytes,
                  parallel[i].profiler_bytes);
        EXPECT_EQ(serial[i].profile_requests,
                  parallel[i].profile_requests);

        // And the downstream analysis agrees phase for phase.
        const AnalysisResult a =
            TpuPointAnalyzer().analyze(serial[i].payloads);
        const AnalysisResult b =
            TpuPointAnalyzer().analyze(parallel[i].payloads);
        ASSERT_EQ(a.phases.size(), b.phases.size());
        for (std::size_t p = 0; p < a.phases.size(); ++p) {
            EXPECT_EQ(a.phases[p].first_step,
                      b.phases[p].first_step);
            EXPECT_EQ(a.phases[p].last_step,
                      b.phases[p].last_step);
            EXPECT_EQ(a.phases[p].total_duration,
                      b.phases[p].total_duration);
        }
        EXPECT_DOUBLE_EQ(a.top3_coverage, b.top3_coverage);
    }
}

TEST(SweepRunnerTest, UnprofiledJobsCarryNoRecords)
{
    auto jobs = smallJobs();
    for (auto &job : jobs)
        job.profile = false;
    const auto outcomes = runWith(2, jobs);
    for (const auto &outcome : outcomes) {
        EXPECT_TRUE(outcome.payloads.empty());
        EXPECT_EQ(outcome.profiler_bytes, 0u);
        EXPECT_GT(outcome.result.steps_completed, 0u);
    }
}

TEST(SweepRunnerTest, EmptyJobListIsFine)
{
    EXPECT_TRUE(SweepRunner().run({}).empty());
}

TEST(SweepRunnerTest, FailingJobDoesNotPoisonTheSweep)
{
    auto jobs = smallJobs();
    // An invalid preemption spec makes the job throw when its
    // session constructs the plan.
    jobs[1].config.preemption.rate_per_hour = -1.0;

    const auto outcomes = SweepRunner(SweepOptions{}).run(jobs);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (i == 1) {
            EXPECT_EQ(outcomes[i].status, JobStatus::Failed);
            EXPECT_FALSE(outcomes[i].ok());
            EXPECT_FALSE(outcomes[i].error.empty());
            EXPECT_TRUE(outcomes[i].payloads.empty());
        } else {
            // Every other job's outcome survives intact.
            EXPECT_EQ(outcomes[i].status, JobStatus::Ok);
            EXPECT_TRUE(outcomes[i].error.empty());
            EXPECT_GT(outcomes[i].result.steps_completed, 0u);
            EXPECT_FALSE(outcomes[i].payloads.empty());
        }
    }
}

TEST(SweepRunnerTest, PreemptedJobStitchesAttempts)
{
    auto jobs = smallJobs();

    // Run clean once, then preempt job 1 midway through its run.
    const auto clean_outcomes = runWith(1, jobs);
    jobs[1].config.preemption =
        PreemptionSpec::at(clean_outcomes[1].result.wall_time / 2);

    const auto outcomes = runWith(2, jobs);
    const SweepOutcome &preempted = outcomes[1];
    EXPECT_EQ(preempted.status, JobStatus::Ok);
    ASSERT_GE(preempted.attempts, 2u);
    EXPECT_GT(preempted.replayed_steps, 0u);
    // Useful steps across attempts equal the requested steps.
    EXPECT_EQ(preempted.result.steps_completed,
              jobs[1].workload.schedule.train_steps);

    // The stream carries attempt-boundary records for stitching.
    std::size_t boundaries = 0;
    std::uint32_t max_attempt = 0;
    for (const auto &record : testutil::rowsOf(preempted.payloads)) {
        boundaries += record.attempt_boundary ? 1 : 0;
        max_attempt = std::max(max_attempt, record.attempt);
    }
    EXPECT_EQ(boundaries, preempted.attempts - 1u);
    EXPECT_EQ(max_attempt, preempted.attempts - 1u);

    // The analyzer stitches the attempts into one profile: same
    // step universe as the uninterrupted run, replay counted once.
    const AnalysisResult stitched =
        TpuPointAnalyzer().analyze(preempted.payloads);
    EXPECT_EQ(stitched.attempts, preempted.attempts);
    EXPECT_EQ(stitched.replayed_steps, preempted.replayed_steps);
    const AnalysisResult clean =
        TpuPointAnalyzer().analyze(clean_outcomes[1].payloads);
    // Every train step appears exactly once (the table is keyed by
    // step id). The stitched run may carry fewer eval rows than the
    // clean one: a restarted attempt does not re-run eval rounds
    // already completed before the resume checkpoint, and the
    // preempted attempt's rows past that checkpoint are dropped.
    EXPECT_GE(stitched.table.size(),
              jobs[1].workload.schedule.train_steps);
    EXPECT_LE(stitched.table.size(), clean.table.size());

    // Untouched jobs report single attempts.
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(outcomes[0].replayed_steps, 0u);
}

TEST(SweepRunnerTest, PreemptedPayloadsAnalyzeLikeTheirWrittenFile)
{
    // In-memory analysis of a resilient job's payloads (attempt
    // boundaries included) must equal the tool path's analysis of
    // the same bytes framed into a profile file.
    auto jobs = smallJobs();
    jobs.resize(2);
    const auto clean = runWith(1, jobs);
    jobs[1].config.preemption =
        PreemptionSpec::at(clean[1].result.wall_time / 2);
    const SweepOutcome preempted = runWith(1, jobs)[1];
    ASSERT_GE(preempted.attempts, 2u);

    const std::string path = testing::TempDir() +
        "sweep_preempted_payloads.tpp";
    {
        std::ofstream out(path, std::ios::binary);
        RecordStreamWriter writer(out);
        for (const std::string &payload : preempted.payloads)
            writer.append(payload);
        writer.finish();
    }
    AnalysisResult from_file;
    const runtime::PipelineReport report =
        runtime::AnalysisPipeline().analyzeProfile(
            path, &from_file, preempted.checkpoints);
    std::remove(path.c_str());
    ASSERT_TRUE(report.ok()) << report.message;
    EXPECT_EQ(report.records, preempted.payloads.size());

    const AnalysisResult in_memory = TpuPointAnalyzer().analyze(
        preempted.payloads, preempted.checkpoints);
    EXPECT_EQ(in_memory.attempts, preempted.attempts);
    EXPECT_EQ(from_file.attempts, in_memory.attempts);
    EXPECT_EQ(from_file.replayed_steps, in_memory.replayed_steps);
    EXPECT_EQ(from_file.top3_coverage, in_memory.top3_coverage);
    std::ostringstream file_json, memory_json;
    writeAnalysisJson(from_file, file_json);
    writeAnalysisJson(in_memory, memory_json);
    EXPECT_EQ(file_json.str(), memory_json.str());
}

TEST(SweepRunnerTest, ProgressEventsArriveInOrderPerJob)
{
    const auto jobs = smallJobs();
    // Sink invocations are serialized by the runner, so plain
    // vector appends are safe even with four workers.
    std::vector<obs::ProgressEvent> events;
    SweepOptions options;
    options.threads = 4;
    options.progress = [&events](const obs::ProgressEvent &e) {
        events.push_back(e);
    };
    const auto outcomes = SweepRunner(options).run(jobs);

    // Exactly one start and one finish per job, start first.
    ASSERT_EQ(events.size(), 2 * jobs.size());
    std::vector<int> starts(jobs.size(), 0);
    std::vector<int> finishes(jobs.size(), 0);
    for (const auto &event : events) {
        ASSERT_LT(event.item, jobs.size());
        EXPECT_EQ(event.total, jobs.size());
        if (event.kind == obs::ProgressEvent::Kind::Start) {
            EXPECT_EQ(finishes[event.item], 0)
                << "start after finish for job " << event.item;
            ++starts[event.item];
        } else if (event.kind ==
                   obs::ProgressEvent::Kind::Finish) {
            EXPECT_EQ(starts[event.item], 1);
            ++finishes[event.item];
            EXPECT_STREQ(event.status, "ok");
            EXPECT_GE(event.wall_seconds, 0.0);
        }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(starts[i], 1);
        EXPECT_EQ(finishes[i], 1);
    }

    // The last event's running totals equal the outcome totals.
    const obs::ProgressEvent &last = events.back();
    std::size_t ok = 0, preempted = 0, failed = 0;
    for (const auto &outcome : outcomes) {
        switch (outcome.status) {
          case JobStatus::Ok: ++ok; break;
          case JobStatus::Preempted: ++preempted; break;
          case JobStatus::Failed: ++failed; break;
        }
    }
    EXPECT_EQ(last.started, jobs.size());
    EXPECT_EQ(last.succeeded, ok);
    EXPECT_EQ(last.preempted, preempted);
    EXPECT_EQ(last.failed, failed);
    EXPECT_EQ(last.finished(), jobs.size());
}

TEST(SweepRunnerTest, ProgressReportsFailures)
{
    auto jobs = smallJobs();
    jobs[1].config.preemption.rate_per_hour = -1.0;
    std::vector<obs::ProgressEvent> events;
    SweepOptions options;
    options.threads = 1;
    options.progress = [&events](const obs::ProgressEvent &e) {
        events.push_back(e);
    };
    const auto outcomes = SweepRunner(options).run(jobs);
    ASSERT_EQ(outcomes[1].status, JobStatus::Failed);

    // Job 1: one start, then a failed finish; the failure lands in
    // the running totals.
    std::vector<const obs::ProgressEvent *> job1;
    for (const auto &event : events) {
        if (event.item == 1)
            job1.push_back(&event);
    }
    ASSERT_EQ(job1.size(), 2u);
    EXPECT_EQ(job1[0]->kind, obs::ProgressEvent::Kind::Start);
    EXPECT_EQ(job1[1]->kind, obs::ProgressEvent::Kind::Finish);
    EXPECT_STREQ(job1[1]->status, "failed");
    EXPECT_EQ(events.back().failed, 1u);
    EXPECT_EQ(events.back().succeeded, jobs.size() - 1);
}

TEST(SweepRunnerTest, ProgressSinkNeverChangesResults)
{
    const auto jobs = smallJobs();
    const auto plain = runWith(2, jobs);
    SweepOptions options;
    options.threads = 2;
    options.progress = [](const obs::ProgressEvent &) {};
    const auto observed = SweepRunner(options).run(jobs);
    ASSERT_EQ(plain.size(), observed.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].payloads, observed[i].payloads);
        EXPECT_EQ(plain[i].result.wall_time,
                  observed[i].result.wall_time);
    }
}

TEST(SweepRunnerTest, PreemptedSweepIsThreadCountInvariant)
{
    auto jobs = smallJobs();
    const auto clean = runWith(1, jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].config.preemption =
            PreemptionSpec::at(clean[i].result.wall_time / 2);
    }
    const auto serial = runWith(1, jobs);
    const auto parallel = runWith(4, jobs);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].attempts, parallel[i].attempts);
        EXPECT_EQ(serial[i].replayed_steps,
                  parallel[i].replayed_steps);
        EXPECT_EQ(serial[i].payloads, parallel[i].payloads);
    }
}

} // namespace
} // namespace tpupoint
