// Copyright (c) 2026 The JAVMM Reproduction Authors.

#include "phase_driver.h"

#include <time.h>

#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/migration_lab.h"
#include "src/migration/baselines.h"

namespace simbench {

using javmm::EngineKind;
using javmm::FaultPlan;
using javmm::HotnessConfig;
using javmm::LabConfig;
using javmm::MigrationLab;
using javmm::PerfCounters;
using javmm::RunOutput;
using javmm::Scenario;

namespace {

// The lab configuration RunScenario derives from a Scenario, with the same
// checks and error messages.
LabConfig BuildConfig(const Scenario& scenario) {
  LabConfig config = scenario.options.lab;
  config.seed = scenario.options.seed;
  config.migration.application_assisted = scenario.engine == EngineKind::kJavmm;
  if (scenario.options.channels <= 0) {
    throw std::runtime_error("channels must be >= 1, got " +
                             std::to_string(scenario.options.channels));
  }
  config.migration.channels = scenario.options.channels;
  if (!scenario.options.fault_spec.empty()) {
    std::string error;
    FaultPlan shared;
    std::vector<FaultPlan> per_channel;
    if (!FaultPlan::ParseMulti(scenario.options.fault_spec, scenario.options.channels, &shared,
                               &per_channel, &error)) {
      throw std::runtime_error("bad fault spec '" + scenario.options.fault_spec + "': " + error);
    }
    config.migration.faults = shared;
    config.migration.channel_faults = per_channel;
  }
  std::string error;
  HotnessConfig hotness;
  if (!HotnessConfig::Parse(scenario.options.hotness_spec, &hotness, &error)) {
    throw std::runtime_error("bad hotness spec '" + scenario.options.hotness_spec +
                             "': " + error);
  }
  if (hotness.enabled && scenario.engine != EngineKind::kXenPrecopy &&
      scenario.engine != EngineKind::kJavmm) {
    throw std::runtime_error("hotness ordering is pre-copy only; engine " +
                             std::string(javmm::EngineKindName(scenario.engine)) +
                             " does not iterate");
  }
  config.migration.hotness = hotness;
  return config;
}

// The migration step of RunScenario: the engine the scenario names, on the
// lab's guest and migration config.
void Migrate(const Scenario& scenario, MigrationLab& lab, RunOutput* out) {
  switch (scenario.engine) {
    case EngineKind::kXenPrecopy:
    case EngineKind::kJavmm:
      out->result = lab.Migrate();
      break;
    case EngineKind::kStopAndCopy: {
      javmm::StopAndCopyEngine engine(&lab.guest(), lab.config().migration);
      out->result = engine.Migrate();
      break;
    }
    case EngineKind::kPostcopy: {
      javmm::PostcopyEngine::Config pc;
      pc.base = lab.config().migration;
      javmm::PostcopyEngine engine(&lab.guest(), pc);
      const javmm::PostcopyResult r = engine.Migrate();
      out->result = r.common;
      out->demand_faults = r.demand_faults;
      out->fault_stall = r.fault_stall;
      out->degradation_window = r.degradation_window;
      break;
    }
  }
}

// a - b, field by field.
PerfCounters PerfDiff(const PerfCounters& a, const PerfCounters& b) {
  PerfCounters d;
#define SIMBENCH_PERF_SUB(name) d.name = a.name - b.name;
  JAVMM_PERF_FIELDS(SIMBENCH_PERF_SUB)
#undef SIMBENCH_PERF_SUB
  return d;
}

}  // namespace

const char* PhaseName(int phase) {
  static const char* const kNames[kPhaseCount] = {
      "core.setup",        "workload.warmup", "migration.migrate",
      "workload.cooldown", "core.teardown",   "runner.export",
  };
  return phase >= 0 && phase < kPhaseCount ? kNames[phase] : "?";
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream os(path);
  for (const Span& s : spans_) {
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"trace_id\":" << s.trace_id
       << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(os);
}

DrivenRun DriveScenario(const Scenario& scenario, SpanRecorder* spans) {
  DrivenRun run;
  run.traced = spans != nullptr;
  run.record.scenario = scenario;

  // bound[p] is the CPU reading that starts phase p; bound[p + 1] ends it.
  // Untraced runs read only the setup boundary and the two ends.
  std::array<int64_t, kPhaseCount + 1> bound{};
  std::array<PerfCounters, kPhaseCount> guest{};  // lab.guest_perf() at phase ends.
  const auto end_phase = [&](Phase phase) {
    if (run.traced || phase == kSetup) {
      bound[phase + 1] = ThreadCpuNs();
    }
  };

  bound[0] = ThreadCpuNs();
  try {
    const LabConfig config = BuildConfig(scenario);
    auto lab = std::make_unique<MigrationLab>(scenario.spec, config);
    end_phase(kSetup);
    guest[kSetup] = lab->guest_perf();
    const javmm::TimePoint sim_start = lab->clock().now();

    lab->Run(scenario.options.warmup);
    end_phase(kWarmup);
    guest[kWarmup] = lab->guest_perf();

    RunOutput& out = run.record.output;
    out.young_at_migration = lab->app().heap().young_committed_bytes();
    out.old_at_migration = lab->app().heap().old_used_bytes();
    const javmm::TimePoint migration_start = lab->clock().now();
    if (config.analyzer_probe_faults) {
      const FaultPlan& probe_plan = config.migration.channel_faults.empty()
                                        ? config.migration.faults
                                        : config.migration.channel_faults.front();
      if (probe_plan.enabled()) {
        lab->mutable_analyzer().AttachProbeFaults(probe_plan, migration_start);
      }
    }
    Migrate(scenario, *lab, &out);
    const PerfCounters engine_perf = out.result.perf;
    end_phase(kMigrate);
    guest[kMigrate] = lab->guest_perf();

    lab->Run(scenario.options.cooldown);
    out.throughput = lab->analyzer().series();
    out.observed_downtime =
        lab->analyzer().ObservedDowntime(migration_start, lab->clock().now());
    out.result.perf.Add(lab->guest_perf());
    run.sim_advanced_ns = lab->clock().now().nanos() - sim_start.nanos();
    run.minor_gcs = lab->app().heap().gc_log().minor_count();
    end_phase(kCooldown);
    guest[kCooldown] = lab->guest_perf();

    lab.reset();
    end_phase(kTeardown);
    run.record.ran = true;

    if (run.traced) {
      run.phase_perf[kSetup] = guest[kSetup];
      run.phase_perf[kWarmup] = PerfDiff(guest[kWarmup], guest[kSetup]);
      run.phase_perf[kMigrate] = PerfDiff(guest[kMigrate], guest[kWarmup]);
      run.phase_perf[kMigrate].Add(engine_perf);
      run.phase_perf[kCooldown] = PerfDiff(guest[kCooldown], guest[kMigrate]);
    }
  } catch (const std::exception& e) {
    run.record.error = e.what();
  } catch (...) {
    run.record.error = "unknown exception";
  }
  if (!run.record.ran) {
    // Phases the error cut short end where it was caught.
    const int64_t now = ThreadCpuNs();
    for (int p = 1; p <= kTeardown + 1; ++p) {
      if (bound[p] == 0) {
        bound[p] = now;
      }
    }
  }

  javmm::RunReport report;
  report.runs.push_back(std::move(run.record));
  std::ostringstream os;
  report.ExportJsonLines(os);
  run.export_json = os.str();
  run.record = std::move(report.runs.front());
  bound[kPhaseCount] = ThreadCpuNs();

  run.run_cpu_ns = bound[kPhaseCount] - bound[0];
  run.setup_cpu_ns = bound[kSetup + 1] - bound[kSetup];
  if (run.traced) {
    const uint64_t run_id = spans->NewId();
    spans->Add({run_id, 0, run_id, "run", bound[0], bound[kPhaseCount]});
    for (int p = 0; p < kPhaseCount; ++p) {
      run.phase_cpu_ns[p] = bound[p + 1] - bound[p];
      spans->Add({spans->NewId(), run_id, run_id, PhaseName(p), bound[p], bound[p + 1]});
    }
  }
  return run;
}

}  // namespace simbench
