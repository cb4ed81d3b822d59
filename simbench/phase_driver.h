// Copyright (c) 2026 The JAVMM Reproduction Authors.
// Phase driver: runs one Scenario the way javmm::RunScenario does, but one
// public call at a time, so the benchmark can time each call and snapshot the
// simulator's counters between calls without touching the library.
//
// The phases, named after the layer the call enters:
//   core.setup         fault/hotness spec parsing + MigrationLab construction
//                      (guest boot, populate, LKM load)
//   workload.warmup    MigrationLab::Run(warmup)
//   migration.migrate  MigrationLab::Migrate() or the baseline engine's
//                      Migrate(), including construction of that engine
//   workload.cooldown  MigrationLab::Run(cooldown) and the analyser read-out
//   core.teardown      MigrationLab destruction
//   runner.export      RunReport::ExportJsonLines of the one-run report
//
// Host time is the calling thread's CPU time. Phase spans share their
// boundary timestamps (each phase starts at the reading that ended the one
// before), so they tile the experiment's run span exactly.

#ifndef SIMBENCH_PHASE_DRIVER_H_
#define SIMBENCH_PHASE_DRIVER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/perf.h"
#include "src/runner/runner.h"

namespace simbench {

enum Phase { kSetup, kWarmup, kMigrate, kCooldown, kTeardown, kExport, kPhaseCount };

// Span name of `phase`, e.g. "core.setup".
const char* PhaseName(int phase);

// CPU time consumed so far by the calling thread, in nanoseconds.
int64_t ThreadCpuNs();

// One recorded interval. Every span of one experiment carries the same
// `trace_id`; phase spans have the experiment's "run" span as parent.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = none.
  uint64_t trace_id = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span store, written out once at exit.
class SpanRecorder {
 public:
  uint64_t NewId() { return ++last_id_; }
  void Add(Span span) { spans_.push_back(std::move(span)); }
  const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

// What one driven experiment leaves behind.
struct DrivenRun {
  javmm::RunRecord record;
  std::string export_json;  // RunReport::ExportJsonLines of this run alone.

  // Host CPU time of the whole experiment and of its setup phase; taken in
  // every mode.
  int64_t run_cpu_ns = 0;
  int64_t setup_cpu_ns = 0;
  // Traced runs only: CPU time of each phase, and the PerfCounters delta of
  // each phase. The deltas sum to record.output.result.perf; the migrate
  // delta holds the engine's own counters plus the guest's during migration.
  bool traced = false;
  std::array<int64_t, kPhaseCount> phase_cpu_ns{};
  std::array<javmm::PerfCounters, kPhaseCount> phase_perf{};

  // Simulated time the lab clock advanced from the end of construction to the
  // end of cooldown, and minor GCs over the lab's life.
  int64_t sim_advanced_ns = 0;
  int64_t minor_gcs = 0;
};

// Runs `scenario` phase by phase. With a non-null `spans`, records a run span
// and one span per phase and takes per-phase counter deltas; with null, takes
// only the run and setup timestamps. Run errors are captured in the record,
// as ScenarioRunner::RunOne does.
DrivenRun DriveScenario(const javmm::Scenario& scenario, SpanRecorder* spans);

}  // namespace simbench

#endif  // SIMBENCH_PHASE_DRIVER_H_
