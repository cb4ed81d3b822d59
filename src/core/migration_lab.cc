// Copyright (c) 2026 The JAVMM Reproduction Authors.

#include "src/core/migration_lab.h"

#include <algorithm>

#include "src/base/macros.h"

namespace javmm {

namespace {

// What the young cap and the OS leave of the VM for the old generation.
int64_t OldGenBudget(const WorkloadSpec& spec, const LabConfig& config) {
  return config.vm_bytes - spec.heap.young_max_bytes - config.os.resident_bytes -
         config.memory_guard_bytes;
}

}  // namespace

bool MigrationLab::HeapFitsVm(const WorkloadSpec& spec, const LabConfig& config) {
  return OldGenBudget(spec, config) > spec.old_baseline_bytes;
}

MigrationLab::MigrationLab(const WorkloadSpec& spec, const LabConfig& config)
    : config_(config), spec_(spec) {
  // Fit the heap into the VM: the old generation takes what the young cap and
  // the OS leave over, as HotSpot does with -Xmx bounded by guest memory.
  CHECK(HeapFitsVm(spec_, config_));
  spec_.heap.old_max_bytes = std::min(spec_.heap.old_max_bytes, OldGenBudget(spec_, config_));

  memory_ = std::make_unique<GuestPhysicalMemory>(config_.vm_bytes);
  memory_->set_perf(&guest_perf_);
  kernel_ = std::make_unique<GuestKernel>(memory_.get(), &clock_);
  if (config_.load_lkm) {
    kernel_->LoadLkm(config_.lkm);
  }
  Rng rng(config_.seed);
  os_ = std::make_unique<OsBackgroundProcess>(kernel_.get(), config_.os, rng.Fork());
  app_ = std::make_unique<JavaApplication>(kernel_.get(), spec_, rng.Fork(), config_.agent);
  // The engine's control-loss stream forks off AFTER the existing consumers,
  // so enabling fault injection cannot perturb the OS/app streams of a
  // fault-free run with the same lab seed.
  config_.migration.fault_seed = rng.Fork().Next();
  analyzer_ = std::make_unique<ThroughputAnalyzer>(&clock_, app_.get());

  java_liveness_ = std::make_unique<JavaLivenessSource>(kernel_.get(), app_.get());
  os_liveness_ = std::make_unique<RangeLivenessSource>(kernel_.get(), os_->pid());
  os_liveness_->AddRange(os_->resident_range());
}

MigrationLab::~MigrationLab() = default;

void MigrationLab::Run(Duration dt) { clock_.Advance(dt); }

MigrationResult MigrationLab::Migrate() {
  MigrationEngine engine(kernel_.get(), config_.migration);
  engine.AddRequiredPfnSource(java_liveness_.get());
  engine.AddRequiredPfnSource(os_liveness_.get());
  MigrationResult result = engine.Migrate();

  // Enrich the downtime breakdown with the JVM-side components the daemon
  // cannot see: the enforced GC's duration and the safepoint wait before it.
  if (result.assisted && !result.fell_back_unassisted) {
    const GcLog& log = app_->heap().gc_log();
    for (auto it = log.minor.rbegin(); it != log.minor.rend(); ++it) {
      if (it->enforced && it->at >= result.started_at) {
        result.downtime.enforced_gc = it->duration + it->full_gc_penalty;
        break;
      }
    }
    result.downtime.safepoint_wait = app_->last_safepoint_wait();
  }
  return result;
}

}  // namespace javmm
