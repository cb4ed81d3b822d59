// Copyright (c) 2026 The JAVMM Reproduction Authors.
// The pre-copy migration daemon: vanilla Xen and JAVMM modes.
//
// The engine is the simulation's time driver while a migration runs: it
// ships pages in bursts, advancing the clock by each burst's wire time, so
// the guest keeps dirtying memory underneath it -- the race at the heart of
// the paper. The vanilla mode reproduces xc_domain_save's behaviour
// (iteration-1 full sweep, per-round dirty harvest, within-round re-dirty
// skip, three stop conditions); the assisted mode additionally consults the
// LKM's transfer bitmap and runs the Figure-4/7 workflow before pausing.

#ifndef JAVMM_SRC_MIGRATION_ENGINE_H_
#define JAVMM_SRC_MIGRATION_ENGINE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/perf.h"
#include "src/guest/guest_kernel.h"
#include "src/mem/hotness.h"
#include "src/migration/config.h"
#include "src/migration/destination.h"
#include "src/migration/stats.h"
#include "src/migration/wire.h"
#include "src/trace/trace.h"

namespace javmm {

class Lkm;

class MigrationEngine {
 public:
  MigrationEngine(GuestKernel* guest, const MigrationConfig& config);

  // Registers a source of application-level liveness used only by the
  // post-migration verification audit (not by the migration itself).
  void AddRequiredPfnSource(const RequiredPfnSource* source);

  // Runs one complete live migration, driving the simulation clock, and
  // returns the full result including the verification report. May be called
  // repeatedly (e.g. migrate the VM back and forth).
  MigrationResult Migrate();

  // Structured trace of the most recent Migrate() (empty when
  // config.record_trace is false). Valid until the next Migrate().
  const TraceRecorder& trace() const { return trace_; }

 private:
  // Accumulates one send burst before the clock advances. Delivery to the
  // destination is deferred to the successful flush: a burst lost to a link
  // outage must leave the destination (and the per-class send counters)
  // untouched, so the pages can carry over and be re-sent exactly.
  struct Burst {
    int64_t pages = 0;
    int64_t scanned = 0;
    int64_t wire_bytes = 0;
    Duration send_cpu = Duration::Zero();
    // Compression-attributable share of send_cpu; feeds the multi-channel
    // pipeline-occupancy model (the compressor stage's work for this burst).
    Duration compress_cpu = Duration::Zero();
    // Per-class counts mirrored from the result so an abandoned burst can
    // roll them back (pages_sent == raw + compressed + delta must stay exact).
    int64_t raw = 0;
    int64_t compressed = 0;
    int64_t delta = 0;
    // Deliveries applied on successful flush, SoA: parallel arrays of PFN
    // and source version at send time. Split so the hot append touches two
    // flat int64 streams instead of pair nodes, and so Reset() can keep both
    // capacities -- the burst reaches its high-water batch size once per
    // engine and stages pages allocation-free thereafter.
    std::vector<Pfn> delivery_pfns;
    std::vector<uint64_t> delivery_versions;

    // Back to an empty burst without releasing storage.
    void Reset() {
      pages = 0;
      scanned = 0;
      wire_bytes = 0;
      send_cpu = Duration::Zero();
      compress_cpu = Duration::Zero();
      raw = 0;
      compressed = 0;
      delta = 0;
      delivery_pfns.clear();
      delivery_versions.clear();
    }
  };

  // Sends one pre-copy iteration over `*pending`; returns its record. The
  // pending set is the engine's reusable round buffer: with hotness enabled
  // the round's set is filtered (parked pages dropped) and reordered
  // coldest-first in place; its contents are consumed either way.
  IterationRecord RunIteration(int index, std::vector<Pfn>* pending, DirtyLog* log,
                               DestinationVm* dest, const PageBitmap* transfer_bitmap,
                               PageBitmap* ever_skipped, MigrationResult* result);

  // Hotness policy, start of each live round (no-op unless enabled): folds
  // the round's touch counts, drops pages already parked in deferred_hot_
  // (counted as avoided re-sends), parks newly-hot pages hottest-first up to
  // max_deferred_pages_, and stable-sorts the remainder coldest-first.
  void ApplyHotnessPolicy(int index, std::vector<Pfn>* pending, MigrationResult* result);

  // Stages one page into `burst` and accounts its wire/CPU cost (per-page
  // compression class, delta retransmission).
  void SendPage(Pfn pfn, DestinationVm* dest, Burst* burst, MigrationResult* result);

  // Pushes a finished burst through the wire session (striped, each channel
  // retrying its slice with bounded exponential backoff when an outage cuts
  // the transfer), then delivers its pages and advances the clock once by
  // the slowest channel's completion (wire time pipelined with the
  // bitmap-scan CPU time of the pages examined). Returns false when any channel's retry
  // budget ran out: the whole burst is abandoned, its pages moved to
  // carryover_ and a degrade requested (never happens during stop-and-copy,
  // where the engine waits outages out instead).
  bool FlushBurst(Burst* burst, DestinationVm* dest, IterationRecord* rec,
                  MigrationResult* result);

  // One per-iteration control round trip (request the dirty bitmap, sync
  // with the receiver), retrying lost rounds with bounded exponential
  // backoff. Returns false when the retry budget ran out (degrade requested).
  bool ControlRoundTrip(int index, MigrationResult* result);

  // Records the first exhausted retry budget; the migration loop then
  // degrades to stop-and-copy or aborts per config.degrade_mode.
  void RequestDegrade(DegradeReason reason);

  // Moves the unprocessed tail of `pending` (from `from` on) plus any
  // undelivered burst pages into carryover_ for the next round.
  void CarryOver(const std::vector<Pfn>& pending, size_t from);

  VerificationReport Verify(const DestinationVm& dest,
                            const std::vector<uint64_t>& pause_versions,
                            const std::vector<bool>& allocated_at_pause,
                            const PageBitmap* skip_allowed, TimePoint pause_time) const;

  // Records a phase-transition event (pause, resume, fallback, ...).
  void TracePhase(TraceEventKind kind);
  // Records a daemon->LKM notification and delivers it.
  void NotifyLkm(DaemonToLkm msg);
  // Runs the TraceAuditor over the finished run when configured.
  void RunAudit(MigrationResult* result);

  GuestKernel* guest_;
  MigrationConfig config_;
  TraceRecorder trace_;
  // Deterministic op counters for the run in progress (DESIGN.md §14); reset
  // at each Migrate() start, snapshotted into MigrationResult::perf on every
  // exit path. The trace recorder and dirty log meter into it directly.
  PerfCounters perf_;
  // The link: channels, fault schedules, loss stream and retry settings.
  // The control path follows channel 0.
  WireSession wire_;
  std::vector<const RequiredPfnSource*> required_sources_;
  bool suspension_ready_ = false;
  // Set during an assisted migration: per-page compression hints (§6).
  const Lkm* hint_source_ = nullptr;

  // ---- Per-Migrate() fault-recovery state (reset at migration start). ----
  DegradeReason degrade_ = DegradeReason::kNone;
  // During the final stop-and-copy transfer the engine never abandons a
  // burst (aborting a paused VM would be worse than waiting the outage out).
  bool in_stop_and_copy_ = false;
  // Pages scanned-but-undelivered when an iteration ended early (lost burst,
  // control failure, round timeout); merged into the next round's pending
  // set or the stop-and-copy final set, deduplicated against the dirty log.
  std::vector<Pfn> carryover_;

  // ---- Hotness-scored transfer ordering (src/mem/hotness.h, §12). ----
  // Engaged only when config.hotness.enabled; all empty/zero otherwise so
  // the disabled path is byte-identical to the pre-hotness engine.
  std::optional<HotnessTracker> hotness_;   // WriteObserver while migrating.
  std::optional<PageBitmap> deferred_hot_;  // Pages parked for the final set.
  // Deferral bound derived from hotness.defer_budget and the link's nominal
  // goodput: parking more pages than this could blow the pause budget.
  int64_t max_deferred_pages_ = 0;

  // ---- Reusable hot-path buffers (capacity persists across rounds and ----
  // ---- across back-to-back Migrate() calls; contents are per-use).     ----
  // The live loop rotates pending_/harvest_/merged_ by swap so each round's
  // harvest and carryover merge run inside previously-acquired capacity
  // instead of materialising fresh vectors (the old per-round churn).
  std::vector<Pfn> pending_;
  std::vector<Pfn> harvest_;
  std::vector<Pfn> merged_;
  // ApplyHotnessPolicy working sets.
  std::vector<Pfn> kept_;
  std::vector<Pfn> hot_;
  // Stop-and-copy final send set and bitmap-collect scratch.
  std::vector<Pfn> last_pending_;
  std::vector<Pfn> scratch_;
  // The send burst, reused via Burst::Reset() (keeps delivery capacity).
  Burst burst_;
};

}  // namespace javmm

#endif  // JAVMM_SRC_MIGRATION_ENGINE_H_
