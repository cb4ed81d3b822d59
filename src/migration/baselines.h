// Copyright (c) 2026 The JAVMM Reproduction Authors.
// Related-work baseline migration strategies (§2), for the comparison
// ablation:
//
//   * StopAndCopyEngine -- non-live migration: pause, copy everything,
//     resume. Minimal total time and traffic; downtime = whole transfer.
//   * PostcopyEngine    -- Hines & Gopalan [18] / Hirofuchi et al. [19]:
//     skip the pre-copy stage entirely, flip execution to the destination
//     after shipping only device state, then fetch pages on demand (each
//     fault stalls the guest a network round trip) while a background
//     pre-paging stream pulls the rest. Tiny downtime, but a performance-
//     degradation window until the working set is resident.
//
// Both engines consume MigrationConfig::faults (DESIGN.md §10). Stop-and-copy
// recovery is throughput-critical and happens entirely inside the pause:
// outage-cut bursts are retried with bounded exponential backoff until they
// land (the VM is down either way, so downtime absorbs the fault).
// Post-copy recovery is latency-critical: a lost demand fetch stalls the
// destination vCPU, so losses/outages are paid in stall time while the
// pre-paging stream degrades to pure demand paging -- never an abort -- when
// its burst-retry budget runs out (the destination is already authoritative).

#ifndef JAVMM_SRC_MIGRATION_BASELINES_H_
#define JAVMM_SRC_MIGRATION_BASELINES_H_

#include "src/guest/guest_kernel.h"
#include "src/migration/config.h"
#include "src/migration/destination.h"
#include "src/migration/stats.h"
#include "src/migration/wire.h"
#include "src/trace/trace.h"

namespace javmm {

// Outcome of a post-copy run; extends the common metrics with the
// degradation-window accounting pre-copy approaches do not have. The common
// fault counters (control_losses, burst_faults, retry_wire_bytes,
// backoff_time, degraded) live in `common`.
struct PostcopyResult {
  MigrationResult common;
  int64_t demand_faults = 0;          // Page faults served from the source.
  Duration fault_stall = Duration::Zero();  // Guest time lost to faults.
  Duration degradation_window = Duration::Zero();  // Resume -> all resident.
  // Pages delivered by the background stream (pre-paging bursts, plus the
  // one-page demand trickle after a pre-paging degrade).
  int64_t prepage_pages = 0;
  // Demand fetches that exhausted the express-channel retry budget and fell
  // back to the bulk stream.
  int64_t stream_fallback_fetches = 0;
};

class StopAndCopyEngine {
 public:
  StopAndCopyEngine(GuestKernel* guest, const MigrationConfig& config);

  MigrationResult Migrate();

  // Structured trace of the most recent Migrate().
  const TraceRecorder& trace() const { return trace_; }

 private:
  GuestKernel* guest_;
  MigrationConfig config_;
  TraceRecorder trace_;
  // Deterministic op counters for the run in progress; reset at Migrate()
  // start and snapshotted into MigrationResult::perf (DESIGN.md §14).
  PerfCounters perf_;
  WireSession wire_;
};

class PostcopyEngine {
 public:
  struct Config {
    MigrationConfig base;
    // Guest stall per demand fault: one round trip plus the page transfer.
    // (Pipelined pre-paging hides most of the bandwidth cost.)
    Duration extra_fault_latency = Duration::Micros(60);  // Handler overhead.
    int64_t prepage_batch_pages = 256;
  };

  PostcopyEngine(GuestKernel* guest, const Config& config);

  // Runs the full post-copy migration: stop-and-transfer of device state,
  // resume at destination, then drive the clock until every page is
  // resident, serving demand faults as the guest touches non-resident pages.
  PostcopyResult Migrate();

  // Structured trace of the most recent Migrate().
  const TraceRecorder& trace() const { return trace_; }

 private:
  class FaultTracker;

  GuestKernel* guest_;
  Config config_;
  TraceRecorder trace_;
  // Deterministic op counters for the run in progress; reset at Migrate()
  // start and snapshotted into MigrationResult::perf (DESIGN.md §14).
  PerfCounters perf_;
  // The link, shared by the device-state copy, the pre-paging stream and
  // the demand fetches.
  WireSession wire_;
};

}  // namespace javmm

#endif  // JAVMM_SRC_MIGRATION_BASELINES_H_
