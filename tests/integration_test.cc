// Copyright (c) 2026 The JAVMM Reproduction Authors.
// Cross-module property sweep: every SPECjvm2008 proxy workload, both
// engines, multiple seeds -- migration must always verify, and the §5.3
// category behaviours must hold.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/core/migration_lab.h"

namespace javmm {
namespace {

// Full-size (paper-scale) configuration: 2 GiB VM, gigabit link.
LabConfig PaperLab(bool assisted, uint64_t seed) {
  LabConfig config;
  config.seed = seed;
  config.migration.application_assisted = assisted;
  return config;
}

struct SweepCase {
  const char* workload;
  bool assisted;
  uint64_t seed;
};

std::string CaseName(const SweepCase& c) {
  return std::string(c.workload) + (c.assisted ? "_javmm" : "_xen") + "_s" + std::to_string(c.seed);
}

// Without a printer gtest dumps the struct's raw bytes into the listed test
// name: the workload literal's address (moved by ASLR on every run) and
// uninitialised padding, so the ctest names would differ from build to build.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << CaseName(c); }

class MigrationSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MigrationSweepTest, MigratesCorrectly) {
  const SweepCase& param = GetParam();
  MigrationLab lab(Workloads::Get(param.workload), PaperLab(param.assisted, param.seed));
  lab.Run(Duration::Seconds(60));
  const MigrationResult result = lab.Migrate();
  EXPECT_TRUE(result.completed);
  ASSERT_TRUE(result.verification.ok)
      << param.workload << ": " << result.verification.detail;
  EXPECT_GT(result.verification.required_pfns_checked, 0);
  // The guest stays functional at the destination.
  const double ops = lab.app().ops_completed();
  lab.Run(Duration::Seconds(15));
  EXPECT_GT(lab.app().ops_completed(), ops);
  // The LKM is back in its initial state, ready for another migration.
  EXPECT_EQ(lab.guest().lkm()->state(), Lkm::State::kInitialized);
  EXPECT_EQ(lab.guest().lkm()->protocol_violations(), 0);
}

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  for (const WorkloadSpec& spec : Workloads::All()) {
    for (const bool assisted : {false, true}) {
      cases.push_back(SweepCase{spec.name == "derby"      ? "derby"
                                : spec.name == "compiler" ? "compiler"
                                : spec.name == "xml"      ? "xml"
                                : spec.name == "sunflow"  ? "sunflow"
                                : spec.name == "serial"   ? "serial"
                                : spec.name == "crypto"   ? "crypto"
                                : spec.name == "scimark"  ? "scimark"
                                : spec.name == "mpeg"     ? "mpeg"
                                                          : "compress",
                                assisted, 1});
    }
  }
  // A few extra seeds on the category representatives.
  for (const uint64_t seed : {2u, 3u}) {
    cases.push_back(SweepCase{"derby", true, seed});
    cases.push_back(SweepCase{"scimark", true, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, MigrationSweepTest, ::testing::ValuesIn(AllCases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           return CaseName(info.param);
                         });

// ---- §5.3 category behaviours at paper scale. ----

TEST(CategoryBehaviorTest, Category1YoungReachesCap) {
  for (const char* name : {"derby", "xml", "compiler", "sunflow"}) {
    MigrationLab lab(Workloads::Get(name), PaperLab(false, 1));
    lab.Run(Duration::Seconds(90));
    EXPECT_EQ(lab.app().heap().young_committed_bytes(),
              lab.spec().heap.young_max_bytes)
        << name;
  }
}

TEST(CategoryBehaviorTest, Category2YoungBelowCap) {
  for (const char* name : {"crypto", "serial", "mpeg", "compress"}) {
    MigrationLab lab(Workloads::Get(name), PaperLab(false, 1));
    lab.Run(Duration::Seconds(90));
    const int64_t young = lab.app().heap().young_committed_bytes();
    EXPECT_LT(young, lab.spec().heap.young_max_bytes) << name;
    EXPECT_GT(young, 128 * kMiB) << name;
  }
}

TEST(CategoryBehaviorTest, Category3SmallYoungLargeOld) {
  MigrationLab lab(Workloads::Get("scimark"), PaperLab(false, 1));
  lab.Run(Duration::Seconds(90));
  // Table 2: scimark ~128 MiB young, ~486 MiB old.
  EXPECT_LT(lab.app().heap().young_committed_bytes(), 256 * kMiB);
  EXPECT_GT(lab.app().heap().old_used_bytes(), 320 * kMiB);
}

TEST(CategoryBehaviorTest, GarbageFractionsMatchFig5b) {
  // >97% of used young memory is garbage per minor GC for all workloads
  // except scimark (Fig 5(b)).
  for (const char* name : {"derby", "compiler", "xml", "crypto"}) {
    MigrationLab lab(Workloads::Get(name), PaperLab(false, 2));
    lab.Run(Duration::Seconds(60));
    EXPECT_GT(lab.app().heap().gc_log().MeanMinorGarbageFraction(), 0.9) << name;
  }
  MigrationLab scimark(Workloads::Get("scimark"), PaperLab(false, 2));
  scimark.Run(Duration::Seconds(60));
  EXPECT_LT(scimark.app().heap().gc_log().MeanMinorGarbageFraction(), 0.7);
}

TEST(CategoryBehaviorTest, DerbyGcDurationNearPaper) {
  // Fig 5(c)/§5.3: derby's minor GC over a full 1 GiB young ~0.9 s.
  MigrationLab lab(Workloads::Get("derby"), PaperLab(false, 3));
  lab.Run(Duration::Seconds(90));
  const Duration mean = lab.app().heap().gc_log().MeanMinorDuration();
  EXPECT_GT(mean.ToSecondsF(), 0.5);
  EXPECT_LT(mean.ToSecondsF(), 1.4);
}

// ---- Throughput analyser behaviour (Fig 11). ----

TEST(ThroughputTest, DowntimeVisibleFromOutside) {
  MigrationLab lab(Workloads::Get("derby"), PaperLab(false, 4));
  lab.Run(Duration::Seconds(60));
  const TimePoint migration_start = lab.clock().now();
  const MigrationResult result = lab.Migrate();
  lab.Run(Duration::Seconds(20));
  const Duration observed =
      lab.analyzer().ObservedDowntime(migration_start, lab.clock().now());
  // The externally-observed stall brackets the engine-reported downtime
  // (sampling granularity is 1 s).
  EXPECT_GE(observed.nanos() + Duration::Seconds(1).nanos(), result.downtime.Total().nanos());
  EXPECT_LE(observed.nanos(),
            result.downtime.Total().nanos() + 3 * Duration::Seconds(1).nanos());
}

TEST(ThroughputTest, NoNoticeableDegradationWithJavmm) {
  // §5.3: "the workload experiences no noticeable throughput degradation
  // during migration, except the short pause".
  MigrationLab lab(Workloads::Get("crypto"), PaperLab(true, 5));
  lab.Run(Duration::Seconds(60));
  const TimePoint t0 = lab.clock().now();
  lab.Migrate();
  lab.Run(Duration::Seconds(30));
  const auto& series = lab.analyzer().series();
  const double before = series.MeanInWindow(t0 - Duration::Seconds(30), t0);
  const double after = series.MeanInWindow(lab.clock().now() - Duration::Seconds(20),
                                           lab.clock().now());
  EXPECT_NEAR(after, before, before * 0.1);
}

}  // namespace
}  // namespace javmm
