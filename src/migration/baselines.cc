// Copyright (c) 2026 The JAVMM Reproduction Authors.

#include "src/migration/baselines.h"

#include <algorithm>
#include <vector>

#include "src/base/macros.h"
#include "src/base/units.h"
#include "src/mem/bitmap.h"
#include "src/trace/auditor.h"

namespace javmm {

// ---- Stop-and-copy. ----

StopAndCopyEngine::StopAndCopyEngine(GuestKernel* guest, const MigrationConfig& config)
    : guest_(guest), config_(config),
      wire_(config_, guest != nullptr ? &guest->clock() : nullptr, &trace_, &perf_) {
  CHECK(guest != nullptr);
  CHECK_GT(config.batch_pages, 0);
  trace_.set_perf(&perf_);
}

MigrationResult StopAndCopyEngine::Migrate() {
  SimClock& clock = guest_->clock();
  GuestPhysicalMemory& memory = guest_->memory();
  const int64_t frames = memory.frame_count();

  MigrationResult result;
  result.vm_bytes = memory.bytes();
  result.started_at = clock.now();
  perf_ = PerfCounters{};
  wire_.Begin(&result);
  trace_.set_enabled(config_.record_trace);
  trace_.Clear();
  trace_.Record(TraceEvent{TraceEventKind::kMigrationStart, clock.now(), 0, 0, frames, 0, 0,
                           Duration::Zero()});

  guest_->PauseVm();
  result.paused_at = clock.now();
  trace_.Record(
      TraceEvent{TraceEventKind::kPause, clock.now(), 0, 0, 0, 0, 0, Duration::Zero()});
  const std::vector<uint64_t> pause_versions = memory.versions();

  // Whole-memory copy inside the pause. With compression every page pays the
  // compression CPU and ships at the kNormal ratio (no hint source exists for
  // a paused, unassisted guest).
  const int64_t page_payload =
      config_.compress_pages
          ? static_cast<int64_t>(static_cast<double>(kPageSize) * config_.compression_ratio)
          : kPageSize;
  const Duration cpu_per_page =
      config_.cpu_per_page_sent +
      (config_.compress_pages ? config_.cpu_per_page_compressed : Duration::Zero());

  DestinationVm dest(frames);
  IterationRecord rec;
  rec.index = 1;
  trace_.Record(TraceEvent{TraceEventKind::kIterationBegin, clock.now(), rec.index, 0, 0, 0, 0,
                           Duration::Zero()});
  for (Pfn pfn = 0; pfn < frames; pfn += config_.batch_pages) {
    const int64_t burst = std::min(config_.batch_pages, frames - pfn);
    const int64_t wire = CheckedMul(burst, page_payload + config_.link.per_page_overhead);
    // The VM is paused and the destination owns nothing yet, so there is no
    // degrade path: each channel waits an outage out and retries until its
    // slice lands (downtime absorbs the cost).
    const TimePoint start = clock.now();
    const StripedOutcome outcome = wire_.Send(burst, wire, rec.index, RetryBudget::kUnbounded);
    CHECK(outcome.ok);
    for (int64_t i = 0; i < burst; ++i) {
      dest.ReceivePage(pfn + i, memory.version(pfn + i));
    }
    wire_.Deliver(outcome, rec.index);
    perf_.bursts_flushed += 1;
    rec.pages_sent += burst;
    rec.pages_scanned += burst;
    rec.wire_bytes += wire;
    const Duration elapsed = outcome.completes_at - start;
    if (!elapsed.IsZero()) {
      clock.Advance(elapsed);
    }
    trace_.Record(TraceEvent{TraceEventKind::kBurst, clock.now(), rec.index, 0, burst, wire,
                             burst, cpu_per_page * burst});
  }
  rec.duration = clock.now() - result.paused_at;
  trace_.Record(TraceEvent{TraceEventKind::kIterationEnd, clock.now(), rec.index, 0,
                           rec.pages_sent, rec.wire_bytes, rec.pages_scanned, Duration::Zero()});
  result.downtime.last_iter_transfer = rec.duration;
  result.iterations.push_back(rec);
  result.pages_sent = rec.pages_sent;
  result.last_iter_pages_sent = rec.pages_sent;
  if (config_.compress_pages) {
    result.pages_compressed = rec.pages_sent;
  } else {
    result.pages_sent_raw = rec.pages_sent;
  }
  result.cpu_time = cpu_per_page * rec.pages_sent;

  clock.Advance(config_.resumption_time);
  result.downtime.resumption = config_.resumption_time;
  guest_->ResumeVm();
  result.resumed_at = clock.now();
  trace_.Record(
      TraceEvent{TraceEventKind::kResume, clock.now(), 0, 0, 0, 0, 0, Duration::Zero()});
  result.total_time = result.resumed_at - result.started_at;
  result.completed = true;
  trace_.Record(
      TraceEvent{TraceEventKind::kComplete, clock.now(), 0, 0, 0, 0, 0, Duration::Zero()});

  VerificationReport& v = result.verification;
  for (Pfn pfn = 0; pfn < frames; ++pfn) {
    ++v.pages_checked;
    if (dest.version(pfn) != pause_versions[static_cast<size_t>(pfn)]) {
      ++v.version_mismatches;
    }
  }
  v.ok = v.version_mismatches == 0;
  wire_.FillChannelMeters(&result);
  if (config_.record_trace && config_.audit_trace) {
    AuditInputs inputs;
    wire_.FillAuditInputs(&inputs);
    result.trace_audit = TraceAuditor::Audit(AuditMode::kStopAndCopy, trace_, result, inputs);
  }
  result.perf = perf_;
  return result;
}

// ---- Post-copy. ----

// Marks pages resident and accounts demand faults as the (resumed) guest
// touches pages that have not arrived yet. Under a fault schedule each
// demand fetch simulates the actual express round trip on a virtual timeline
// starting at now() + the stall debt its channel already accrued: losses and
// outage cuts are retried with NominalBackoff while the vCPU stays stalled,
// so stall time -- not stream throughput -- absorbs the fault.
//
// Fetches are striped round-robin over the channel set and each channel
// keeps its own stall-debt timeline. This is the serialization fix: before,
// one debt counter queued every fetch behind every other, so a latency spike
// on the link stalled the guest once per fetch, in series. Now concurrent
// fetches on different channels overlap; the guest only loses the slowest
// channel's debt (TakeStallDebt takes the max), and a fault pinned to one
// channel ("ch1:lat:...") taxes only the fetches sharded onto it.
class PostcopyEngine::FaultTracker : public WriteObserver {
 public:
  FaultTracker(int64_t frames, Duration base_stall, const PostcopyEngine::Config& config,
               WireSession* wire, SimClock* clock, TraceRecorder* trace, PostcopyResult* result)
      : resident_(frames), base_stall_(base_stall), config_(config), wire_(wire),
        clock_(clock), trace_(trace), result_(result),
        channel_debt_(static_cast<size_t>(wire->channels().count()), Duration::Zero()) {}

  void OnGuestWrite(Pfn pfn) override {
    if (resident_.Test(pfn)) {
      return;
    }
    // Demand fault: fetch the page from the source. The guest vCPU stalls
    // for a round trip; the page itself rides the (pipelined) stream.
    resident_.Set(pfn);
    ++resident_count_;
    ++faults_;
    const int channel = next_channel_;
    next_channel_ = (next_channel_ + 1) % wire_->channels().count();
    const Duration stall = FetchStall(channel);
    channel_debt_[static_cast<size_t>(channel)] += stall;
    const int64_t wire_bytes = wire_->channels().channel(channel).PageWireBytes(1);
    trace_->Record(
        TraceEvent{TraceEventKind::kBurst, clock_->now(), 0, 1, 1, wire_bytes, 0, stall});
    wire_->DeliverShare(ChannelShare{channel, 1, wire_bytes, clock_->now()}, 0);
  }

  // Background pre-paging: marks up to `max_pages` lowest non-resident pages
  // resident and returns them (the caller meters and pays for the transfer,
  // and may roll the batch back if it terminally fails).
  std::vector<Pfn> CollectPrepageBatch(int64_t max_pages) {
    std::vector<Pfn> batch;
    cursor_checkpoint_ = cursor_;
    while (static_cast<int64_t>(batch.size()) < max_pages && cursor_ < resident_.size()) {
      if (!resident_.Test(cursor_)) {
        resident_.Set(cursor_);
        ++resident_count_;
        batch.push_back(cursor_);
      }
      ++cursor_;
    }
    return batch;
  }

  // Undoes CollectPrepageBatch after a terminally failed burst: the pages
  // never arrived, so they must fault or be re-fetched later.
  void RollbackPrepageBatch(const std::vector<Pfn>& batch) {
    for (const Pfn pfn : batch) {
      resident_.Clear(pfn);
    }
    resident_count_ -= static_cast<int64_t>(batch.size());
    cursor_ = cursor_checkpoint_;
  }

  // Lowest non-resident page, marked resident for the caller to deliver;
  // -1 when everything is resident. Used by the post-degrade demand trickle.
  Pfn TakeNextNonResident() {
    while (cursor_ < resident_.size() && resident_.Test(cursor_)) {
      ++cursor_;
    }
    if (cursor_ >= resident_.size()) {
      return -1;
    }
    const Pfn pfn = cursor_;
    resident_.Set(pfn);
    ++resident_count_;
    ++cursor_;
    return pfn;
  }

  bool AllResident() const { return resident_count_ == resident_.size(); }
  int64_t faults() const { return faults_; }

  // Fetches queued on the same channel serialize; fetches on different
  // channels overlap. The guest therefore loses only the slowest channel's
  // accrued debt when the quantum boundary applies the stall.
  Duration TakeStallDebt() {
    Duration debt = Duration::Zero();
    for (Duration& d : channel_debt_) {
      if (debt < d) {
        debt = d;
      }
      d = Duration::Zero();
    }
    return debt;
  }

 private:
  // Total vCPU stall for one demand fetch riding `channel`. Every event it
  // records is stamped at now(), where the stall will be applied.
  Duration FetchStall(int channel) {
    const FaultSchedule* schedule = wire_->channels().faults(channel);
    if (schedule == nullptr) {
      return base_stall_;
    }
    const NetworkLink& link = wire_->channels().channel(channel);
    const MigrationConfig& base = config_.base;
    const TimePoint stamp = clock_->now();
    // Virtual timeline of the stalled vCPU: the fetch starts at now() plus
    // the stall debt earlier faults already queued on this channel.
    const TimePoint vstart = stamp + channel_debt_[static_cast<size_t>(channel)];
    TimePoint vnow = vstart;
    bool stream_mode = false;
    for (int attempt = 1;; ++attempt) {
      // Express fetch: one round trip under the latency in effect, then the
      // page under the bandwidth in effect. Stream fallback: deterministic --
      // the page lands or the outage that cut it is waited out.
      Duration round_trip = Duration::Zero();
      if (!stream_mode) {
        const WireSession::Loss loss = wire_->RoundLost(channel, vnow);
        if (loss.lost) {
          // Lost request/reply: the destination only notices at the ack
          // timeout, then backs off before re-requesting.
          vnow += base.control_loss_timeout;
          wire_->ControlLost(channel, 0, attempt, stamp);
          vnow = wire_->Backoff(0, attempt, vnow, loss.retry_floor, stamp);
          if (attempt > base.max_control_retries) {
            // Express-channel budget exhausted. Post-copy cannot abandon the
            // fetch -- the vCPU is stalled on this page -- so it falls back to
            // the bulk stream, which waits outages out instead of racing the
            // loss process.
            stream_mode = true;
            ++result_->stream_fallback_fetches;
          }
          continue;
        }
        round_trip = wire_->RoundTrip(channel, vnow);
      }
      const TransferAttempt page =
          link.TryTransfer(link.PageWireBytes(1), vnow + round_trip, schedule);
      if (page.ok) {
        vnow += round_trip + page.duration + config_.extra_fault_latency;
        return vnow - vstart;
      }
      // The page was cut mid-flight: a transfer fault on the demand channel,
      // paid in stall time.
      vnow += round_trip + page.duration;
      wire_->TransferFault(channel, 0, attempt, 1, page.wasted_bytes, stamp);
      vnow = wire_->Backoff(0, attempt, vnow, page.blocked_until, stamp);
    }
  }

  PageBitmap resident_;
  int64_t resident_count_ = 0;
  Duration base_stall_;
  const PostcopyEngine::Config& config_;
  WireSession* wire_;
  SimClock* clock_;
  TraceRecorder* trace_;
  PostcopyResult* result_;
  int64_t faults_ = 0;
  // Per-channel queued stall; index = channel. Drained by TakeStallDebt.
  std::vector<Duration> channel_debt_;
  int next_channel_ = 0;
  Pfn cursor_ = 0;
  Pfn cursor_checkpoint_ = 0;
};

PostcopyEngine::PostcopyEngine(GuestKernel* guest, const Config& config)
    : guest_(guest), config_(config),
      wire_(config_.base, guest != nullptr ? &guest->clock() : nullptr, &trace_, &perf_) {
  CHECK(guest != nullptr);
  CHECK_GT(config.prepage_batch_pages, 0);
  trace_.set_perf(&perf_);
}

PostcopyResult PostcopyEngine::Migrate() {
  SimClock& clock = guest_->clock();
  GuestPhysicalMemory& memory = guest_->memory();

  PostcopyResult result;
  MigrationResult& common = result.common;
  common.vm_bytes = memory.bytes();
  common.started_at = clock.now();
  perf_ = PerfCounters{};
  wire_.Begin(&common);
  trace_.set_enabled(config_.base.record_trace);
  trace_.Clear();
  trace_.Record(TraceEvent{TraceEventKind::kMigrationStart, clock.now(), 0, 0,
                           memory.frame_count(), 0, 0, Duration::Zero()});

  // Stop-and-transfer of vCPU/device state only (a few MiB), striped across
  // the channels, then resume at the destination immediately. An outage
  // during the pause is waited out with the usual backoff -- downtime grows,
  // the flip still happens -- so retries are unbounded.
  guest_->PauseVm();
  common.paused_at = clock.now();
  trace_.Record(
      TraceEvent{TraceEventKind::kPause, clock.now(), 0, 0, 0, 0, 0, Duration::Zero()});
  constexpr int64_t kDeviceStateBytes = 4 * kMiB;
  {
    const TimePoint start = clock.now();
    const StripedOutcome outcome =
        wire_.Send(/*pages=*/0, kDeviceStateBytes, 0, RetryBudget::kUnbounded);
    CHECK(outcome.ok);
    // Stamped where the landing attempt began (the clock does not move
    // until the whole stripe lands).
    trace_.Record(TraceEvent{TraceEventKind::kControlBytes, outcome.landed_from, 0, 0, 0,
                             kDeviceStateBytes, 0, Duration::Zero()});
    wire_.Deliver(outcome, 0);
    const Duration elapsed = outcome.completes_at - start;
    if (!elapsed.IsZero()) {
      clock.Advance(elapsed);
    }
  }
  common.downtime.last_iter_transfer = clock.now() - common.paused_at;
  clock.Advance(config_.base.resumption_time);
  common.downtime.resumption = config_.base.resumption_time;
  guest_->ResumeVm();
  common.resumed_at = clock.now();
  trace_.Record(
      TraceEvent{TraceEventKind::kResume, clock.now(), 0, 0, 0, 0, 0, Duration::Zero()});

  // Degradation window: the guest executes while pages stream in; writes to
  // non-resident pages fault and stall the guest. A fault's stall is applied
  // at the next quantum boundary (the guest "loses" that execution time).
  // A demand fetch rides one sub-link, so the page-transfer leg of the stall
  // is paid at the per-channel (1/N) bandwidth -- striping wins by
  // overlapping fetches, not by pretending each one sees the full pipe.
  const Duration base_stall = config_.base.link.latency * int64_t{2} +
                              wire_.channels().channel(0).PageTransferTime(1) +
                              config_.extra_fault_latency;
  FaultTracker tracker(memory.frame_count(), base_stall, config_, &wire_, &clock, &trace_,
                       &result);
  memory.AttachWriteObserver(&tracker);
  bool prepage_degraded = false;
  int trickle_channel = 0;
  while (!tracker.AllResident()) {
    const Duration stall = tracker.TakeStallDebt();
    if (!stall.IsZero()) {
      result.fault_stall += stall;
      guest_->PauseVm();
      clock.Advance(stall);
      guest_->ResumeVm();
    }
    if (!prepage_degraded) {
      // Pipelined pre-paging burst: mark-then-transfer, striped across the
      // channels with the same outage-cut/wasted-bytes semantics as
      // pre-copy's FlushBurst. A terminally failed burst rolls back and
      // drops pre-paging entirely.
      const std::vector<Pfn> batch =
          tracker.CollectPrepageBatch(config_.prepage_batch_pages);
      const int64_t fetched = static_cast<int64_t>(batch.size());
      if (fetched == 0) {
        continue;
      }
      const TimePoint start = clock.now();
      const int64_t wire = wire_.channels().channel(0).PageWireBytes(fetched);
      const StripedOutcome outcome = wire_.Send(fetched, wire, 0, RetryBudget::kBounded);
      const Duration elapsed = outcome.completes_at - start;
      if (!outcome.ok) {
        // Budget exhausted: abandon pre-paging, not the migration -- the
        // destination is already authoritative, so aborting is impossible.
        // The remaining pages trickle in one demand round trip at a time
        // (the terminal fault is never retried, so no backoff here).
        if (!elapsed.IsZero()) {
          clock.Advance(elapsed);
        }
        tracker.RollbackPrepageBatch(batch);
        prepage_degraded = true;
        common.degraded = true;
        common.degrade_reason = DegradeReason::kBurstRetries;
        trace_.Record(TraceEvent{TraceEventKind::kDegrade, clock.now(), 0,
                                 static_cast<int32_t>(DegradeReason::kBurstRetries), 0, 0, 0,
                                 Duration::Zero()});
        continue;
      }
      result.prepage_pages += fetched;
      perf_.bursts_flushed += 1;
      // Stamped where the landing attempt began (after the last backoff);
      // the clock does not move until the stripe lands.
      trace_.Record(TraceEvent{TraceEventKind::kBurst, outcome.landed_from, 0, 0, fetched, wire,
                               0, Duration::Zero()});
      wire_.Deliver(outcome, 0);
      if (!elapsed.IsZero()) {
        clock.Advance(elapsed);
      }
      continue;
    }
    // Pure demand paging: one page per un-pipelined round trip, outages
    // waited out. Measurably slower than bursts, but always terminates.
    // Round-robin over the channels so a fault pinned to one sub-link only
    // taxes every count()-th trickle fetch.
    const Pfn pfn = tracker.TakeNextNonResident();
    if (pfn < 0) {
      continue;  // A demand fault beat us to the last page; re-check debt.
    }
    const int channel = trickle_channel;
    trickle_channel = (trickle_channel + 1) % wire_.channels().count();
    const NetworkLink& link = wire_.channels().channel(channel);
    const int64_t page_bytes = link.PageWireBytes(1);
    for (int attempt = 1;; ++attempt) {
      const TimePoint now = clock.now();
      const TransferAttempt try_result =
          link.TryTransfer(page_bytes, now, wire_.channels().faults(channel));
      if (try_result.ok) {
        ++result.prepage_pages;
        trace_.Record(TraceEvent{TraceEventKind::kBurst, now, 0, 0, 1, page_bytes, 0,
                                 Duration::Zero()});
        wire_.DeliverShare(ChannelShare{channel, 1, page_bytes, now}, 0);
        clock.Advance(wire_.RoundTrip(channel, now) + try_result.duration);
        break;
      }
      if (!try_result.duration.IsZero()) {
        clock.Advance(try_result.duration);
      }
      wire_.TransferFault(channel, 0, attempt, 1, try_result.wasted_bytes, clock.now());
      wire_.WaitBackoff(0, attempt, try_result.blocked_until);
    }
  }
  // Flush any stall accrued by the very last batch.
  const Duration stall = tracker.TakeStallDebt();
  if (!stall.IsZero()) {
    result.fault_stall += stall;
    guest_->PauseVm();
    clock.Advance(stall);
    guest_->ResumeVm();
  }
  memory.DetachWriteObserver(&tracker);

  result.demand_faults = tracker.faults();
  result.degradation_window = clock.now() - common.resumed_at;
  common.total_time = clock.now() - common.started_at;
  common.pages_sent = wire_.channels().total_pages_sent();
  common.completed = true;
  // Every page becomes resident exactly once; content correctness is by
  // construction (the destination is authoritative after the flip).
  common.verification.ok = true;
  common.verification.pages_checked = memory.frame_count();
  trace_.Record(
      TraceEvent{TraceEventKind::kComplete, clock.now(), 0, 0, 0, 0, 0, Duration::Zero()});
  wire_.FillChannelMeters(&common);
  if (config_.base.record_trace && config_.base.audit_trace) {
    AuditInputs inputs;
    wire_.FillAuditInputs(&inputs);
    inputs.expected_demand_faults = result.demand_faults;
    inputs.expected_fault_stall_ns = result.fault_stall.nanos();
    common.trace_audit = TraceAuditor::Audit(AuditMode::kPostcopy, trace_, common, inputs);
  }
  common.perf = perf_;
  return result;
}

}  // namespace javmm
