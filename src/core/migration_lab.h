// Copyright (c) 2026 The JAVMM Reproduction Authors.
// MigrationLab: the library's top-level facade.
//
// One MigrationLab instance is one experiment: a guest VM of a given size
// running one Java workload (plus guest-OS background activity), with the
// framework LKM loaded, an external throughput analyser attached, and a
// migration engine in either vanilla-Xen or JAVMM mode. Typical use:
//
//   LabConfig config;
//   config.migration.application_assisted = true;
//   MigrationLab lab(Workloads::Get("derby"), config);
//   lab.Run(Duration::Seconds(300));             // Paper: migrate halfway.
//   MigrationResult result = lab.Migrate();
//   lab.Run(Duration::Seconds(300));             // Finish the workload.
//   CHECK(result.verification.ok);

#ifndef JAVMM_SRC_CORE_MIGRATION_LAB_H_
#define JAVMM_SRC_CORE_MIGRATION_LAB_H_

#include <memory>

#include "src/base/perf.h"
#include "src/core/liveness.h"
#include "src/guest/guest_kernel.h"
#include "src/guest/lkm.h"
#include "src/jvm/ti_agent.h"
#include "src/migration/engine.h"
#include "src/sim/clock.h"
#include "src/workload/java_application.h"
#include "src/workload/os_process.h"
#include "src/workload/spec.h"
#include "src/workload/throughput_analyzer.h"

namespace javmm {

struct LabConfig {
  int64_t vm_bytes = 2 * kGiB;  // The paper's 2 GB / 4 vCPU guest.
  uint64_t seed = 1;
  OsProcessConfig os;
  LkmConfig lkm;
  MigrationConfig migration;
  TiAgentConfig agent;
  bool load_lkm = true;

  // Route the throughput analyser's probe traffic through the migration
  // fault plan (channel 0's effective plan when the spec is per-channel):
  // probes landing in an outage window observe zero throughput. Off by
  // default -- existing faulted exports assume a lossless probe path.
  bool analyzer_probe_faults = false;

  // Keeps the heap inside the VM: the old generation's cap is reduced when
  // young_max + old_max + OS would not fit in vm_bytes (with this guard of
  // uncommitted headroom).
  int64_t memory_guard_bytes = 96 * kMiB;
};

class MigrationLab {
 public:
  // The lab's precondition: the old generation's budget -- what the young
  // cap, the OS and the guard leave of the VM -- must exceed the workload's
  // old-generation baseline. Front ends check it to reject a VM too small
  // for the heap instead of letting the constructor's CHECK abort.
  static bool HeapFitsVm(const WorkloadSpec& spec, const LabConfig& config);

  MigrationLab(const WorkloadSpec& spec, const LabConfig& config);
  MigrationLab(const MigrationLab&) = delete;
  MigrationLab& operator=(const MigrationLab&) = delete;
  ~MigrationLab();

  // Runs the guest (workload + OS) for `dt` of simulated time.
  void Run(Duration dt);

  // Performs one live migration with the configured engine and returns its
  // result (including verification). The clock advances through it.
  MigrationResult Migrate();

  SimClock& clock() { return clock_; }
  GuestKernel& guest() { return *kernel_; }

  // Guest-side store-path counters (write_runs / pages_written / pte_lookups),
  // accumulated since construction: the memory's perf sink is attached before
  // any process populates, so boot writes are metered too. Runners fold this
  // into the scenario's engine counters after the cooldown phase.
  const PerfCounters& guest_perf() const { return guest_perf_; }
  JavaApplication& app() { return *app_; }
  const ThroughputAnalyzer& analyzer() const { return *analyzer_; }
  ThroughputAnalyzer& mutable_analyzer() { return *analyzer_; }
  const LabConfig& config() const { return config_; }
  const WorkloadSpec& spec() const { return spec_; }

 private:
  LabConfig config_;
  WorkloadSpec spec_;
  SimClock clock_;
  PerfCounters guest_perf_;
  std::unique_ptr<GuestPhysicalMemory> memory_;
  std::unique_ptr<GuestKernel> kernel_;
  std::unique_ptr<OsBackgroundProcess> os_;
  std::unique_ptr<JavaApplication> app_;
  std::unique_ptr<ThroughputAnalyzer> analyzer_;
  std::unique_ptr<JavaLivenessSource> java_liveness_;
  std::unique_ptr<RangeLivenessSource> os_liveness_;
};

}  // namespace javmm

#endif  // JAVMM_SRC_CORE_MIGRATION_LAB_H_
