// Copyright (c) 2026 The JAVMM Reproduction Authors.
// Tests for the migration trace + invariant-audit subsystem (src/trace/):
// the TraceAuditor's accounting identities across every engine and outcome,
// regression coverage for the link-meter / daemon-binding / fallback-hint
// fixes, and the JSON-lines exporter.

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>

#include "src/core/migration_lab.h"
#include "src/faults/faults.h"
#include "src/migration/baselines.h"
#include "src/migration/engine.h"
#include "src/trace/auditor.h"
#include "src/workload/cache_application.h"

namespace javmm {
namespace {

LabConfig SmallLab(bool assisted, uint64_t seed = 1) {
  LabConfig config;
  config.vm_bytes = 512 * kMiB;
  config.seed = seed;
  config.os.resident_bytes = 64 * kMiB;
  config.os.hot_bytes = 8 * kMiB;
  config.migration.application_assisted = assisted;
  return config;
}

WorkloadSpec SmallDerby() {
  WorkloadSpec spec = Workloads::Get("derby");
  spec.alloc_rate_bytes_per_sec = 120 * kMiB;
  spec.old_baseline_bytes = 32 * kMiB;
  spec.heap.young_max_bytes = 256 * kMiB;
  spec.heap.young_initial_bytes = 32 * kMiB;
  spec.heap.old_max_bytes = 128 * kMiB;
  return spec;
}

int64_t SumBurstPages(const TraceRecorder& trace) {
  int64_t pages = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kBurst) {
      pages += event.pages;
    }
  }
  return pages;
}

// ---- Direct-engine tests (bare kernel, no workload). ----

class TraceEngineTest : public ::testing::Test {
 protected:
  TraceEngineTest() : memory_(64 * kMiB), kernel_(&memory_, &clock_) {}

  SimClock clock_;
  GuestPhysicalMemory memory_;
  GuestKernel kernel_;
};

// Regression for the FlushBurst metering bug: page bursts used to be recorded
// via RecordControlBytes, so the link's page meter stayed at zero and the
// burst events could never reconcile against it.
TEST_F(TraceEngineTest, LinkPageMeterMatchesBurstEvents) {
  MigrationEngine engine(&kernel_, MigrationConfig{});
  const MigrationResult result = engine.Migrate();
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.trace_audit.ran);
  EXPECT_TRUE(result.trace_audit.ok) << result.trace_audit.ToString();
  EXPECT_GT(result.pages_sent, 0);
  EXPECT_EQ(SumBurstPages(engine.trace()), result.pages_sent);
}

TEST_F(TraceEngineTest, RepeatedMigrateOnOneEngineAuditsCleanly) {
  MigrationEngine engine(&kernel_, MigrationConfig{});
  const MigrationResult first = engine.Migrate();
  ASSERT_TRUE(first.trace_audit.ran);
  EXPECT_TRUE(first.trace_audit.ok) << first.trace_audit.ToString();
  const MigrationResult second = engine.Migrate();
  ASSERT_TRUE(second.trace_audit.ran);
  EXPECT_TRUE(second.trace_audit.ok) << second.trace_audit.ToString();
  // The trace is per-run: exactly one start marker survives from run two.
  EXPECT_EQ(engine.trace().CountOf(TraceEventKind::kMigrationStart), 1);
  EXPECT_EQ(engine.trace().CountOf(TraceEventKind::kComplete), 1);
}

TEST_F(TraceEngineTest, RecordTraceOffSkipsRecordingAndAudit) {
  MigrationConfig config;
  config.record_trace = false;
  MigrationEngine engine(&kernel_, config);
  const MigrationResult result = engine.Migrate();
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.trace_audit.ran);
  EXPECT_TRUE(engine.trace().events().empty());
}

TEST_F(TraceEngineTest, JsonExportWritesOneLinePerEvent) {
  MigrationEngine engine(&kernel_, MigrationConfig{});
  engine.Migrate();
  std::ostringstream os;
  engine.trace().ExportJsonLines(os);
  const std::string out = os.str();
  int64_t lines = 0;
  for (char c : out) {
    if (c == '\n') {
      ++lines;
    }
  }
  EXPECT_EQ(lines, static_cast<int64_t>(engine.trace().events().size()));
  EXPECT_NE(out.find("\"event\":\"migration_start\""), std::string::npos);
  EXPECT_NE(out.find("\"event\":\"burst\""), std::string::npos);
  EXPECT_NE(out.find("\"event\":\"complete\""), std::string::npos);
}

// ---- Auditor unit tests: deliberately corrupted traces must be flagged. ----

class TraceAuditorTest : public TraceEngineTest {
 protected:
  // Runs a clean migration and returns (trace copy, result).
  void RunClean() {
    MigrationEngine engine(&kernel_, MigrationConfig{});
    result_ = engine.Migrate();
    trace_ = engine.trace();
    ASSERT_TRUE(result_.trace_audit.ok) << result_.trace_audit.ToString();
  }

  TraceAuditReport Reaudit(const TraceRecorder& trace) {
    // The engine's meters equal the result aggregates on a clean run, so the
    // result can stand in for the link meters here.
    return TraceAuditor::Audit(AuditMode::kPrecopy, trace, result_,
                               result_.total_wire_bytes, result_.pages_sent);
  }

  TraceRecorder trace_;
  MigrationResult result_;
};

TEST_F(TraceAuditorTest, CleanTraceReauditsOk) {
  RunClean();
  const TraceAuditReport report = Reaudit(trace_);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST_F(TraceAuditorTest, DetectsTamperedBurstPages) {
  RunClean();
  TraceRecorder corrupted;
  bool tampered = false;
  for (TraceEvent event : trace_.events()) {
    if (!tampered && event.kind == TraceEventKind::kBurst && event.pages > 0) {
      ++event.pages;  // One page sent but never metered.
      tampered = true;
    }
    corrupted.Record(event);
  }
  ASSERT_TRUE(tampered);
  const TraceAuditReport report = Reaudit(corrupted);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.violations.empty());
}

TEST_F(TraceAuditorTest, DetectsMissingCompleteEvent) {
  RunClean();
  TraceRecorder corrupted;
  for (const TraceEvent& event : trace_.events()) {
    if (event.kind != TraceEventKind::kComplete) {
      corrupted.Record(event);
    }
  }
  const TraceAuditReport report = Reaudit(corrupted);
  EXPECT_FALSE(report.ok);
}

TEST_F(TraceAuditorTest, DetectsUnmatchedIterationEnd) {
  RunClean();
  TraceRecorder corrupted;
  for (const TraceEvent& event : trace_.events()) {
    if (event.kind != TraceEventKind::kIterationBegin) {
      corrupted.Record(event);
    }
  }
  const TraceAuditReport report = Reaudit(corrupted);
  EXPECT_FALSE(report.ok);
}

TEST_F(TraceAuditorTest, DetectsForgedProtocolTraffic) {
  RunClean();  // Vanilla run: any daemon<->LKM message is a violation.
  TraceRecorder corrupted = trace_;
  corrupted.Record(TraceEvent{TraceEventKind::kLkmToDaemon, result_.resumed_at, 0, 0, 0, 0, 0,
                              Duration::Zero()});
  const TraceAuditReport report = Reaudit(corrupted);
  EXPECT_FALSE(report.ok);
}

// ---- Fault-recovery audit: corrupted retry traces must be rejected. ----

class FaultAuditorTest : public TraceEngineTest {
 protected:
  // Runs a migration under `spec` and keeps the trace, result and config for
  // re-auditing with the full fault-aware inputs.
  void RunFaulty(const std::string& spec) {
    config_ = MigrationConfig{};
    config_.faults = FaultPlan::MustParse(spec);
    config_.fault_seed = 17;
    MigrationEngine engine(&kernel_, config_);
    result_ = engine.Migrate();
    trace_ = engine.trace();
    ASSERT_TRUE(result_.trace_audit.ran);
    ASSERT_TRUE(result_.trace_audit.ok) << result_.trace_audit.ToString();
  }

  TraceAuditReport Reaudit(const TraceRecorder& trace) {
    // On a clean run the result aggregates equal the link meters, so they
    // stand in here -- including the separate retry-bytes meter.
    AuditInputs inputs;
    inputs.link_wire_bytes = result_.total_wire_bytes;
    inputs.link_pages_sent = result_.pages_sent;
    inputs.link_retry_bytes = result_.retry_wire_bytes;
    inputs.control_bytes_per_iteration = config_.control_bytes_per_iteration;
    inputs.retry_backoff_base = config_.retry_backoff_base;
    inputs.retry_backoff_cap = config_.retry_backoff_cap;
    return TraceAuditor::Audit(AuditMode::kPrecopy, trace, result_, inputs);
  }

  // Copies the trace with the first event of `kind` rewritten by `tamper`.
  TraceRecorder TamperFirst(TraceEventKind kind, void (*tamper)(TraceEvent*)) {
    TraceRecorder corrupted;
    bool tampered = false;
    for (TraceEvent event : trace_.events()) {
      if (!tampered && event.kind == kind) {
        tamper(&event);
        tampered = true;
      }
      corrupted.Record(event);
    }
    EXPECT_TRUE(tampered);
    return corrupted;
  }

  MigrationConfig config_;
  TraceRecorder trace_;
  MigrationResult result_;
};

TEST_F(FaultAuditorTest, FaultyTraceReauditsOk) {
  RunFaulty("out:5ms-20ms");
  ASSERT_GE(result_.burst_faults, 1);
  const TraceAuditReport report = Reaudit(trace_);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST_F(FaultAuditorTest, DetectsTamperedBackoffNominal) {
  RunFaulty("out:5ms-20ms");
  const TraceRecorder corrupted = TamperFirst(
      TraceEventKind::kRetryBackoff, [](TraceEvent* event) { ++event->pages; });
  const TraceAuditReport report = Reaudit(corrupted);
  EXPECT_FALSE(report.ok);  // Nominal wait no longer matches NominalBackoff.
}

TEST_F(FaultAuditorTest, DetectsTamperedBackoffAttempt) {
  RunFaulty("out:5ms-20ms");
  const TraceRecorder corrupted = TamperFirst(
      TraceEventKind::kRetryBackoff, [](TraceEvent* event) { event->detail = 0; });
  const TraceAuditReport report = Reaudit(corrupted);
  EXPECT_FALSE(report.ok);  // Attempts are 1-based.
}

TEST_F(FaultAuditorTest, DetectsTamperedTransferFaultWaste) {
  RunFaulty("out:5ms-20ms");
  const TraceRecorder corrupted = TamperFirst(
      TraceEventKind::kTransferFault, [](TraceEvent* event) { ++event->wire_bytes; });
  const TraceAuditReport report = Reaudit(corrupted);
  EXPECT_FALSE(report.ok);  // Retry-byte sum no longer matches the meter.
}

TEST_F(FaultAuditorTest, DetectsForgedDegradeEvent) {
  RunFaulty("out:5ms-20ms");
  ASSERT_FALSE(result_.degraded);
  TraceRecorder corrupted = trace_;
  corrupted.Record(TraceEvent{TraceEventKind::kDegrade, result_.resumed_at, 0,
                              static_cast<int32_t>(DegradeReason::kBurstRetries), 0, 0, 0,
                              Duration::Zero()});
  const TraceAuditReport report = Reaudit(corrupted);
  EXPECT_FALSE(report.ok);
}

TEST_F(FaultAuditorTest, DetectsDroppedControlLossEvents) {
  RunFaulty("loss:1.0");  // Degrades: 6 losses, 5 backoffs, one kDegrade.
  ASSERT_TRUE(result_.degraded);
  ASSERT_GT(result_.control_losses, 0);
  TraceRecorder corrupted;
  bool dropped = false;
  for (const TraceEvent& event : trace_.events()) {
    if (!dropped && event.kind == TraceEventKind::kControlLost) {
      dropped = true;
      continue;
    }
    corrupted.Record(event);
  }
  ASSERT_TRUE(dropped);
  const TraceAuditReport report = Reaudit(corrupted);
  EXPECT_FALSE(report.ok);
}

TEST_F(FaultAuditorTest, DetectsDroppedDegradeEvent) {
  RunFaulty("loss:1.0");
  ASSERT_TRUE(result_.degraded);
  TraceRecorder corrupted;
  for (const TraceEvent& event : trace_.events()) {
    if (event.kind != TraceEventKind::kDegrade) {
      corrupted.Record(event);
    }
  }
  const TraceAuditReport report = Reaudit(corrupted);
  EXPECT_FALSE(report.ok);
}

// ---- Baseline fault-audit: the post-copy / stop-and-copy identities. ----

struct PostcopyRun {
  PostcopyResult result;
  TraceRecorder trace;
  MigrationConfig config;
};

// Runs a faulted post-copy migration on a small lab and keeps everything
// needed to re-audit the trace with the full fault-aware inputs.
PostcopyRun RunFaultyPostcopy(const std::string& spec) {
  LabConfig lab_config = SmallLab(/*assisted=*/false, 31);
  lab_config.migration.faults = FaultPlan::MustParse(spec);
  MigrationLab lab(SmallDerby(), lab_config);
  lab.Run(Duration::Seconds(10));
  PostcopyEngine::Config config;
  config.base = lab.config().migration;
  PostcopyEngine engine(&lab.guest(), config);
  PostcopyRun run;
  run.result = engine.Migrate();
  run.trace = engine.trace();
  run.config = config.base;
  return run;
}

TraceAuditReport ReauditPostcopy(const PostcopyRun& run, const TraceRecorder& trace) {
  // Clean-run aggregates stand in for the link meters, as in FaultAuditorTest.
  AuditInputs inputs;
  inputs.link_wire_bytes = run.result.common.total_wire_bytes;
  inputs.link_pages_sent = run.result.common.pages_sent;
  inputs.link_retry_bytes = run.result.common.retry_wire_bytes;
  inputs.control_bytes_per_iteration = run.config.control_bytes_per_iteration;
  inputs.retry_backoff_base = run.config.retry_backoff_base;
  inputs.retry_backoff_cap = run.config.retry_backoff_cap;
  inputs.expected_demand_faults = run.result.demand_faults;
  inputs.expected_fault_stall_ns = run.result.fault_stall.nanos();
  return TraceAuditor::Audit(AuditMode::kPostcopy, trace, run.result.common, inputs);
}

constexpr char kPostcopyFaultSpec[] = "lat:0s-30s+2ms;loss:0.1;out:1s-1200ms";

TEST(PostcopyAuditTest, FaultyTraceReauditsOk) {
  const PostcopyRun run = RunFaultyPostcopy(kPostcopyFaultSpec);
  ASSERT_TRUE(run.result.common.trace_audit.ok) << run.result.common.trace_audit.ToString();
  ASSERT_GT(run.result.demand_faults, 0);
  ASSERT_GT(run.result.common.control_losses, 0);
  const TraceAuditReport report = ReauditPostcopy(run, run.trace);
  EXPECT_TRUE(report.ok) << report.ToString();
}

TEST(PostcopyAuditTest, DetectsTamperedDemandFaultStall) {
  const PostcopyRun run = RunFaultyPostcopy(kPostcopyFaultSpec);
  // Inflate the stall recorded on the first demand-fault burst (detail == 1);
  // the per-event stall sum no longer matches the result's fault_stall.
  TraceRecorder corrupted;
  bool tampered = false;
  for (TraceEvent event : run.trace.events()) {
    if (!tampered && event.kind == TraceEventKind::kBurst && event.detail == 1) {
      event.cpu = event.cpu + Duration::Nanos(1);
      tampered = true;
    }
    corrupted.Record(event);
  }
  ASSERT_TRUE(tampered);
  const TraceAuditReport report = ReauditPostcopy(run, corrupted);
  EXPECT_FALSE(report.ok);
}

TEST(PostcopyAuditTest, DetectsDroppedDemandFaultBurst) {
  const PostcopyRun run = RunFaultyPostcopy(kPostcopyFaultSpec);
  TraceRecorder corrupted;
  bool dropped = false;
  for (const TraceEvent& event : run.trace.events()) {
    if (!dropped && event.kind == TraceEventKind::kBurst && event.detail == 1) {
      dropped = true;
      continue;
    }
    corrupted.Record(event);
  }
  ASSERT_TRUE(dropped);
  const TraceAuditReport report = ReauditPostcopy(run, corrupted);
  EXPECT_FALSE(report.ok);  // Demand-burst count != result.demand_faults.
}

TEST(StopAndCopyAuditTest, ForgedControlLossRejected) {
  // Stop-and-copy has no control channel: a kControlLost event in its trace
  // can only be a forgery and the mode-specific identity must flag it.
  LabConfig lab_config = SmallLab(/*assisted=*/false, 31);
  lab_config.migration.faults = FaultPlan::MustParse("out:1s-2s");
  MigrationLab lab(SmallDerby(), lab_config);
  lab.Run(Duration::Seconds(10));
  StopAndCopyEngine engine(&lab.guest(), lab.config().migration);
  const MigrationResult result = engine.Migrate();
  ASSERT_TRUE(result.trace_audit.ok) << result.trace_audit.ToString();
  ASSERT_GE(result.burst_faults, 1);

  AuditInputs inputs;
  inputs.link_wire_bytes = result.total_wire_bytes;
  inputs.link_pages_sent = result.pages_sent;
  inputs.link_retry_bytes = result.retry_wire_bytes;
  inputs.control_bytes_per_iteration = lab.config().migration.control_bytes_per_iteration;
  inputs.retry_backoff_base = lab.config().migration.retry_backoff_base;
  inputs.retry_backoff_cap = lab.config().migration.retry_backoff_cap;
  const TraceAuditReport clean =
      TraceAuditor::Audit(AuditMode::kStopAndCopy, engine.trace(), result, inputs);
  EXPECT_TRUE(clean.ok) << clean.ToString();

  TraceRecorder corrupted = engine.trace();
  corrupted.Record(TraceEvent{TraceEventKind::kControlLost, result.resumed_at, 0, 1, 0, 0, 0,
                              Duration::Zero()});
  const TraceAuditReport report =
      TraceAuditor::Audit(AuditMode::kStopAndCopy, corrupted, result, inputs);
  EXPECT_FALSE(report.ok);
}

// ---- Daemon-handler binding regression (scoped unbind on every exit). ----

TEST(TraceBindingTest, DaemonHandlerUnboundAfterCompletedMigrate) {
  MigrationLab lab(SmallDerby(), SmallLab(/*assisted=*/true, 21));
  lab.Run(Duration::Seconds(20));
  const MigrationResult result = lab.Migrate();
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(lab.guest().event_channel().daemon_bound());
  EXPECT_TRUE(result.trace_audit.ok) << result.trace_audit.ToString();
}

TEST(TraceBindingTest, DaemonHandlerUnboundAfterAbortAndRemigrateSucceeds) {
  LabConfig config = SmallLab(/*assisted=*/true, 22);
  config.migration.abort_after_iterations = 1;
  MigrationLab lab(SmallDerby(), config);
  lab.Run(Duration::Seconds(15));
  const MigrationResult aborted = lab.Migrate();
  EXPECT_FALSE(aborted.completed);
  // The abort exit path must unbind the handler; a stale binding would make
  // the next binding (or a stray LKM notification) fire into a dead engine.
  EXPECT_FALSE(lab.guest().event_channel().daemon_bound());
  ASSERT_TRUE(aborted.trace_audit.ran);
  EXPECT_TRUE(aborted.trace_audit.ok) << aborted.trace_audit.ToString();
  // Abort reports a well-defined (empty) pause window, not default epochs.
  EXPECT_EQ(aborted.paused_at.nanos(), aborted.resumed_at.nanos());
  EXPECT_TRUE(aborted.downtime.Total().IsZero());
  EXPECT_EQ(aborted.last_iter_pages_sent, 0);
  EXPECT_EQ(aborted.total_time.nanos(), (aborted.resumed_at - aborted.started_at).nanos());
}

TEST(TraceBindingTest, FallbackUnbindsHandlerToo) {
  LabConfig config = SmallLab(/*assisted=*/true, 23);
  config.agent.cooperative = false;
  config.lkm.straggler_timeout = Duration::Seconds(60);
  config.migration.lkm_response_timeout = Duration::Seconds(2);
  MigrationLab lab(SmallDerby(), config);
  lab.Run(Duration::Seconds(15));
  const MigrationResult result = lab.Migrate();
  EXPECT_TRUE(result.fell_back_unassisted);
  EXPECT_FALSE(lab.guest().event_channel().daemon_bound());
  ASSERT_TRUE(result.trace_audit.ran);
  EXPECT_TRUE(result.trace_audit.ok) << result.trace_audit.ToString();
}

// ---- Fallback compression-hint regression. ----

// On LKM-timeout fallback the engine must drop the guest's per-page
// compression hints along with the transfer bitmap: the skip-listed pages it
// re-sends at stop-and-copy are trial-compressed like any other page instead
// of trusting classes reported by a guest just declared unresponsive.
TEST(TraceFallbackTest, FallbackDropsStaleCompressionHints) {
  SimClock clock;
  GuestPhysicalMemory memory(256 * kMiB);
  GuestKernel kernel(&memory, &clock);
  Lkm& lkm = kernel.LoadLkm(LkmConfig{});

  CacheAppConfig cache_config;
  cache_config.cache_bytes = 64 * kMiB;
  cache_config.purge_fraction = 0.5;
  cache_config.write_rate_bytes_per_sec = 0;  // Keep accounting exact.
  cache_config.ops_per_sec = 0;
  cache_config.cooperative = false;  // Straggler: forces the daemon fallback.
  CacheApplication cache(&kernel, cache_config, Rng(5));
  clock.Advance(Duration::Seconds(2));

  MigrationConfig mig;
  mig.application_assisted = true;
  mig.compress_pages = true;
  mig.use_compression_classes = true;
  mig.lkm_response_timeout = Duration::Seconds(2);
  MigrationEngine engine(&kernel, mig);

  // Mark the cold (skip-over) suffix incompressible. While assisted, those
  // pages are skipped entirely; after the fallback they are re-sent, and the
  // stale hint must NOT exempt them from trial compression.
  lkm.AnnotateCompression(cache.pid(), cache.skip_range(), CompressionClass::kIncompressible);

  const MigrationResult result = engine.Migrate();
  ASSERT_TRUE(result.fell_back_unassisted);
  ASSERT_TRUE(result.verification.ok) << result.verification.detail;
  ASSERT_TRUE(result.trace_audit.ran);
  EXPECT_TRUE(result.trace_audit.ok) << result.trace_audit.ToString();
  // Nothing dirties memory, so the accounting is exact: the only raw pages
  // are the retained (hot) half the app itself marked incompressible and
  // that were sent while the hints were still trusted. The cold suffix
  // (32 MiB) re-sent after the fallback lands in pages_compressed.
  EXPECT_EQ(result.pages_sent_raw, PagesForBytes(32 * kMiB));
  EXPECT_EQ(result.pages_compressed, result.pages_sent - result.pages_sent_raw);
  EXPECT_GE(result.pages_compressed, PagesForBytes(32 * kMiB));
}

// ---- Scenario audit matrix: every outcome must reconcile. ----

struct AuditScenario {
  const char* name;
  bool assisted = false;
  bool compress = false;
  bool delta = false;
  bool abort = false;
  bool fallback = false;
};

// Keeps the listed test names stable: without a printer gtest would dump the
// struct's bytes, including the address of `name`, which ASLR moves each run.
void PrintTo(const AuditScenario& sc, std::ostream* os) { *os << sc.name; }

class TraceScenarioTest : public ::testing::TestWithParam<AuditScenario> {};

TEST_P(TraceScenarioTest, AuditPasses) {
  const AuditScenario& sc = GetParam();
  LabConfig config = SmallLab(sc.assisted, 31);
  config.migration.compress_pages = sc.compress;
  config.migration.delta_compression = sc.delta;
  if (sc.abort) {
    config.migration.abort_after_iterations = 2;
  }
  if (sc.fallback) {
    config.agent.cooperative = false;
    config.lkm.straggler_timeout = Duration::Seconds(60);
    config.migration.lkm_response_timeout = Duration::Seconds(2);
  }
  MigrationLab lab(SmallDerby(), config);
  lab.Run(Duration::Seconds(20));
  const MigrationResult result = lab.Migrate();
  EXPECT_EQ(result.completed, !sc.abort);
  EXPECT_EQ(result.fell_back_unassisted, sc.fallback);
  ASSERT_TRUE(result.trace_audit.ran);
  EXPECT_TRUE(result.trace_audit.ok) << sc.name << ": " << result.trace_audit.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllOutcomes, TraceScenarioTest,
    ::testing::Values(AuditScenario{"vanilla"},
                      AuditScenario{"assisted", /*assisted=*/true},
                      AuditScenario{"compression", /*assisted=*/true, /*compress=*/true},
                      AuditScenario{"delta", false, false, /*delta=*/true},
                      AuditScenario{"assisted_delta", true, false, /*delta=*/true},
                      AuditScenario{"abort_vanilla", false, false, false, /*abort=*/true},
                      AuditScenario{"abort_assisted", true, false, false, /*abort=*/true},
                      AuditScenario{"fallback", true, false, false, false, /*fallback=*/true},
                      AuditScenario{"fallback_compressed", true, /*compress=*/true, false, false,
                                    /*fallback=*/true}),
    [](const ::testing::TestParamInfo<AuditScenario>& param_info) {
      return param_info.param.name;
    });

// ---- Baseline engines. ----

TEST(TraceBaselineTest, StopAndCopyAuditPasses) {
  MigrationLab lab(SmallDerby(), SmallLab(false, 41));
  lab.Run(Duration::Seconds(10));
  StopAndCopyEngine engine(&lab.guest(), lab.config().migration);
  const MigrationResult result = engine.Migrate();
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.trace_audit.ran);
  EXPECT_TRUE(result.trace_audit.ok) << result.trace_audit.ToString();
  EXPECT_EQ(SumBurstPages(engine.trace()), result.pages_sent);
}

TEST(TraceBaselineTest, PostcopyAuditPasses) {
  MigrationLab lab(SmallDerby(), SmallLab(false, 42));
  lab.Run(Duration::Seconds(10));
  PostcopyEngine::Config config;
  config.base = lab.config().migration;
  PostcopyEngine engine(&lab.guest(), config);
  const PostcopyResult result = engine.Migrate();
  ASSERT_TRUE(result.common.completed);
  ASSERT_TRUE(result.common.trace_audit.ran);
  EXPECT_TRUE(result.common.trace_audit.ok) << result.common.trace_audit.ToString();
  EXPECT_EQ(SumBurstPages(engine.trace()), result.common.pages_sent);
}

}  // namespace
}  // namespace javmm
