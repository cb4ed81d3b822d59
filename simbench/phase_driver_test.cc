// Copyright (c) 2026 The JAVMM Reproduction Authors.
// The phase driver re-does RunScenario's steps one call at a time. These
// tests hold it to the library's runner on every scenario of every workload:
// same JSON-lines export and counters, per-phase counter deltas that sum to
// the run's counters, and phase spans that tile the run span.

#include "phase_driver.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "workloads.h"

namespace simbench {
namespace {

using javmm::PerfCounters;
using javmm::RunRecord;
using javmm::RunReport;
using javmm::Scenario;
using javmm::ScenarioRunner;

std::string Export(const RunRecord& rec) {
  RunReport report;
  report.runs.push_back(rec);
  std::ostringstream os;
  report.ExportJsonLines(os);
  return os.str();
}

class PhaseDriverTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PhaseDriverTest, MatchesRunOneAndTilesEveryRun) {
  std::vector<Scenario> scenarios;
  ASSERT_TRUE(BuildWorkload(GetParam(), kDefaultSeed, &scenarios));
  ASSERT_FALSE(scenarios.empty());
  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.label);
    const RunRecord expected = ScenarioRunner::RunOne(scenario);
    ASSERT_TRUE(expected.ran) << expected.error;
    EXPECT_FALSE(expected.failed());

    SpanRecorder spans;
    const DrivenRun traced = DriveScenario(scenario, &spans);
    const DrivenRun untraced = DriveScenario(scenario, nullptr);
    for (const DrivenRun* run : {&traced, &untraced}) {
      EXPECT_EQ(run->export_json, Export(expected));
      EXPECT_EQ(run->record.output.result.perf, expected.output.result.perf);
    }

    PerfCounters sum;
    for (const PerfCounters& delta : traced.phase_perf) {
      sum.Add(delta);
    }
    EXPECT_EQ(sum, expected.output.result.perf);

    // One run span, then one span per phase in order, each parented to the
    // run span and sharing its trace id; consecutive phases share a
    // boundary, so together they cover the run span to the nanosecond.
    ASSERT_EQ(spans.spans().size(), static_cast<size_t>(kPhaseCount + 1));
    const Span& run = spans.spans().front();
    EXPECT_EQ(run.name, "run");
    EXPECT_EQ(run.parent, 0u);
    EXPECT_EQ(run.end_ns - run.start_ns, traced.run_cpu_ns);
    int64_t covered = 0;
    int64_t cursor = run.start_ns;
    for (int p = 0; p < kPhaseCount; ++p) {
      const Span& span = spans.spans()[static_cast<size_t>(p) + 1];
      EXPECT_EQ(span.name, PhaseName(p));
      EXPECT_EQ(span.parent, run.id);
      EXPECT_EQ(span.trace_id, run.trace_id);
      EXPECT_EQ(span.start_ns, cursor);
      EXPECT_LE(span.start_ns, span.end_ns);
      EXPECT_EQ(span.end_ns - span.start_ns, traced.phase_cpu_ns[p]);
      covered += span.end_ns - span.start_ns;
      cursor = span.end_ns;
    }
    EXPECT_EQ(cursor, run.end_ns);
    EXPECT_EQ(covered, traced.run_cpu_ns);
    EXPECT_EQ(traced.phase_cpu_ns[kSetup], traced.setup_cpu_ns);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PhaseDriverTest, ::testing::ValuesIn(WorkloadNames()));

// A scenario the library rejects is captured the same way RunOne captures it.
TEST(PhaseDriver, CapturesRunErrorsLikeRunOne) {
  std::vector<Scenario> scenarios;
  ASSERT_TRUE(BuildWorkload("feature_matrix", kDefaultSeed, &scenarios));
  Scenario bad = scenarios.front();
  bad.options.fault_spec = "bw:nonsense";
  const RunRecord expected = ScenarioRunner::RunOne(bad);
  ASSERT_FALSE(expected.ran);
  const DrivenRun got = DriveScenario(bad, nullptr);
  EXPECT_FALSE(got.record.ran);
  EXPECT_EQ(got.record.error, expected.error);
  EXPECT_EQ(got.export_json, Export(expected));
}

TEST(Workloads, SeedsDeriveFromTheWorkloadSeed) {
  for (const std::string& name : WorkloadNames()) {
    std::vector<Scenario> a;
    std::vector<Scenario> b;
    std::vector<Scenario> c;
    ASSERT_TRUE(BuildWorkload(name, kDefaultSeed, &a));
    ASSERT_TRUE(BuildWorkload(name, kDefaultSeed, &b));
    ASSERT_TRUE(BuildWorkload(name, kHeldOutSeed, &c));
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].options.seed, b[i].options.seed);
      EXPECT_EQ(a[i].options.seed, ScenarioSeed(kDefaultSeed, i));
      EXPECT_NE(a[i].options.seed, c[i].options.seed);
      for (size_t j = 0; j < i; ++j) {
        EXPECT_NE(a[i].options.seed, a[j].options.seed);
      }
    }
  }
  std::vector<Scenario> unknown;
  EXPECT_FALSE(BuildWorkload("no_such_workload", kDefaultSeed, &unknown));
}

TEST(Workloads, SizesMatchTheirDefinitions) {
  const std::pair<const char*, size_t> kSizes[] = {
      {"paper_sweep", 18}, {"bigvm_scan", 6}, {"feature_matrix", 35}};
  for (const auto& [name, size] : kSizes) {
    std::vector<Scenario> scenarios;
    ASSERT_TRUE(BuildWorkload(name, kDefaultSeed, &scenarios));
    EXPECT_EQ(scenarios.size(), size) << name;
  }
}

}  // namespace
}  // namespace simbench
