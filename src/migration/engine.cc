// Copyright (c) 2026 The JAVMM Reproduction Authors.

#include "src/migration/engine.h"

#include <algorithm>
#include <optional>

#include "src/base/macros.h"
#include "src/base/units.h"
#include "src/guest/lkm.h"
#include "src/mem/dirty_log.h"
#include "src/trace/auditor.h"

namespace javmm {

MigrationEngine::MigrationEngine(GuestKernel* guest, const MigrationConfig& config)
    : guest_(guest), config_(config),
      wire_(config_, guest != nullptr ? &guest->clock() : nullptr, &trace_, &perf_) {
  CHECK(guest != nullptr);
  CHECK_GT(config.batch_pages, 0);
  CHECK_GE(config.max_iterations, 1);
  if (config.hotness.enabled) {
    CHECK_GE(config.hotness.min_rate, 0);
    CHECK_GE(config.hotness.min_score, 1);
    CHECK_GE(config.hotness.decay, 1);
    CHECK(config.hotness.defer_budget > Duration::Zero());
  }
  trace_.set_perf(&perf_);
}

void MigrationEngine::AddRequiredPfnSource(const RequiredPfnSource* source) {
  CHECK(source != nullptr);
  required_sources_.push_back(source);
}

void MigrationEngine::SendPage(Pfn pfn, DestinationVm* dest, Burst* burst,
                               MigrationResult* result) {
  int64_t payload = kPageSize;
  Duration cpu = config_.cpu_per_page_sent;
  if (config_.delta_compression && dest->received(pfn)) {
    // Retransmission: the destination holds an older copy; ship a delta.
    payload = static_cast<int64_t>(static_cast<double>(kPageSize) * config_.delta_ratio);
    cpu += config_.cpu_per_page_delta;
    ++result->pages_sent_delta;
    ++burst->delta;
  } else if (config_.compress_pages) {
    CompressionClass cls = CompressionClass::kNormal;
    if (config_.use_compression_classes && hint_source_ != nullptr) {
      cls = hint_source_->compression_class(pfn);
    }
    switch (cls) {
      case CompressionClass::kNormal:
        payload = static_cast<int64_t>(static_cast<double>(kPageSize) *
                                       config_.compression_ratio);
        cpu += config_.cpu_per_page_compressed;
        ++result->pages_compressed;
        ++burst->compressed;
        break;
      case CompressionClass::kHighlyCompressible:
        payload = static_cast<int64_t>(static_cast<double>(kPageSize) *
                                       config_.compression_high_ratio);
        cpu += config_.cpu_per_page_high;
        ++result->pages_compressed;
        ++burst->compressed;
        break;
      case CompressionClass::kIncompressible:
        // Hinted as not worth compressing: send raw, skip the trial.
        cpu += config_.cpu_per_page_incompressible;
        ++result->pages_sent_raw;
        ++burst->raw;
        break;
    }
  } else {
    ++result->pages_sent_raw;
    ++burst->raw;
  }
  // Delivery is deferred to the successful flush (the version is captured
  // now; the clock does not advance while a burst accumulates).
  NotePush(burst->delivery_pfns, &perf_);
  burst->delivery_pfns.push_back(pfn);
  burst->delivery_versions.push_back(guest_->memory().version(pfn));
  burst->wire_bytes += payload + config_.link.per_page_overhead;
  burst->send_cpu += cpu;
  burst->compress_cpu += cpu - config_.cpu_per_page_sent;
  ++burst->pages;
}

void MigrationEngine::RequestDegrade(DegradeReason reason) {
  if (degrade_ == DegradeReason::kNone) {
    degrade_ = reason;
  }
}

void MigrationEngine::CarryOver(const std::vector<Pfn>& pending, size_t from) {
  for (size_t i = from; i < pending.size(); ++i) {
    NotePush(carryover_, &perf_);
    carryover_.push_back(pending[i]);
  }
}

bool MigrationEngine::ControlRoundTrip(int index, MigrationResult* result) {
  SimClock& clock = guest_->clock();
  const int64_t bytes = config_.control_bytes_per_iteration;
  // Control traffic rides channel 0 (the protocol needs one ordered stream).
  for (int attempt = 1;; ++attempt) {
    const TimePoint now = clock.now();
    const WireSession::Loss loss = wire_.RoundLost(0, now);
    if (!loss.lost) {
      trace_.Record(
          TraceEvent{TraceEventKind::kControlBytes, now, index, 0, 0, bytes, 0, Duration::Zero()});
      wire_.DeliverShare(ChannelShare{0, 0, bytes, now}, index);
      clock.Advance(wire_.RoundTrip(0, now));
      ++result->control_rounds_ok;
      return true;
    }
    // Lost round: the request still burned wire bytes, and the daemon only
    // notices after its ack timeout.
    clock.Advance(config_.control_loss_timeout);
    wire_.ControlLost(0, index, attempt, clock.now());
    if (attempt > config_.max_control_retries) {
      RequestDegrade(DegradeReason::kControlRetries);
      return false;
    }
    wire_.WaitBackoff(index, attempt, loss.retry_floor);
  }
}

bool MigrationEngine::FlushBurst(Burst* burst, DestinationVm* dest, IterationRecord* rec,
                                 MigrationResult* result) {
  // Scanning the pending set (dirty-bitmap test, transfer-bitmap test) costs
  // daemon CPU even for pages that are skipped; it pipelines with the wire,
  // so a fault-free burst takes max(wire, scan) -- this is what keeps
  // skip-heavy iterations from completing in zero time.
  const Duration scan_time = config_.cpu_per_page_scanned * burst->scanned;
  result->cpu_time += scan_time;
  Duration wire_time = Duration::Zero();
  bool clean = true;
  if (burst->pages > 0) {
    const TimePoint start = guest_->clock().now();
    // Each channel runs its slice's retry loop on its own virtual timeline;
    // the clock advances once below.
    const StripedOutcome outcome =
        wire_.Send(burst->pages, burst->wire_bytes, rec->index,
                   in_stop_and_copy_ ? RetryBudget::kUnbounded : RetryBudget::kBounded);
    clean = outcome.faults == 0;
    if (!outcome.ok) {
      // Budget exhausted mid-pre-copy: abandon the burst. Nothing was
      // delivered or metered as useful traffic; the pages return via
      // carryover_ and the per-class counters roll back so the
      // pages_sent == raw + compressed + delta identity stays exact. The
      // compression CPU was genuinely burned, so it stays charged.
      RequestDegrade(DegradeReason::kBurstRetries);
      result->cpu_time += burst->send_cpu;
      result->pages_sent_raw -= burst->raw;
      result->pages_compressed -= burst->compressed;
      result->pages_sent_delta -= burst->delta;
      for (const Pfn pfn : burst->delivery_pfns) {
        NotePush(carryover_, &perf_);
        carryover_.push_back(pfn);
      }
      const Duration spent = outcome.completes_at - start;
      if (!spent.IsZero()) {
        guest_->clock().Advance(spent);
      }
      // The scan genuinely happened even though nothing shipped: record a
      // scan-only burst (like an all-skipped one) so the per-iteration
      // "sum of burst scanned == pages_scanned" audit identity holds.
      trace_.Record(TraceEvent{TraceEventKind::kBurst, guest_->clock().now(), rec->index, 0, 0,
                               0, burst->scanned, burst->send_cpu + scan_time});
      burst->Reset();
      return false;
    }
    wire_time = outcome.completes_at - start;
    if (wire_.channels().count() > 1 && !burst->compress_cpu.IsZero()) {
      // Producer/consumer pipeline occupancy: the compressor stage (workers
      // feeding the channels, PMigrate's slave_num) has a makespan; when it
      // exceeds the wire stage, the channels sit idle waiting on it.
      const int workers = config_.compression_workers > 0 ? config_.compression_workers
                                                          : wire_.channels().count();
      const Duration makespan = burst->compress_cpu / static_cast<int64_t>(workers);
      result->pipeline_compress_busy += makespan;
      result->pipeline_wire_busy += wire_time;
      if (makespan > wire_time) {
        result->pipeline_stall += makespan - wire_time;
        wire_time = makespan;
      }
    }
    wire_.Deliver(outcome, rec->index);
    rec->wire_bytes += burst->wire_bytes;
    rec->pages_sent += burst->pages;
    result->cpu_time += burst->send_cpu;
    for (size_t d = 0; d < burst->delivery_pfns.size(); ++d) {
      dest->ReceivePage(burst->delivery_pfns[d], burst->delivery_versions[d]);
    }
  }
  // With no failed attempt the scan overlapped the transfer; after failures
  // the scan already overlapped the first attempt, whose time is inside
  // wire_time along with the backoffs, so it advances the clock unstretched.
  const Duration advance = clean ? std::max(wire_time, scan_time) : wire_time;
  if (!advance.IsZero()) {
    guest_->clock().Advance(advance);
  }
  if (burst->pages > 0 || burst->scanned > 0) {
    perf_.bursts_flushed += 1;
    trace_.Record(TraceEvent{TraceEventKind::kBurst, guest_->clock().now(), rec->index, 0,
                             burst->pages, burst->wire_bytes, burst->scanned,
                             burst->send_cpu + scan_time});
  }
  burst->Reset();
  return true;
}

void MigrationEngine::ApplyHotnessPolicy(int index, std::vector<Pfn>* pending,
                                         MigrationResult* result) {
  if (!hotness_) {
    return;
  }
  // Fold the touches accumulated since the previous round into the decayed
  // scores. Iteration 1 runs before any touch window, so every score is zero
  // and the policy below leaves the full-sweep order untouched.
  hotness_->EndRound();

  // Pages parked in an earlier round re-enter via the dirty harvest every
  // time the guest re-dirties them; each drop here is one page send the
  // unordered engine would have re-issued.
  int64_t avoided = 0;
  kept_.clear();
  NoteReserve(kept_, static_cast<int64_t>(pending->size()), &perf_);
  kept_.reserve(pending->size());
  for (const Pfn pfn : *pending) {
    if (deferred_hot_->Test(pfn)) {
      ++avoided;
    } else {
      kept_.push_back(pfn);
    }
  }

  // Park newly-hot pages, hottest first (stable, so equal scores tie-break
  // ascending by PFN), bounded so the total ever parked fits the pause
  // budget's worth of wire time.
  int64_t parked = 0;
  const int64_t room = max_deferred_pages_ - result->pages_deferred_hot;
  if (room > 0) {
    hot_.clear();
    for (const Pfn pfn : kept_) {
      if (hotness_->IsHot(pfn)) {
        NotePush(hot_, &perf_);
        hot_.push_back(pfn);
      }
    }
    if (static_cast<int64_t>(hot_.size()) > room) {
      std::stable_sort(hot_.begin(), hot_.end(), [this](Pfn a, Pfn b) {
        return hotness_->score(a) > hotness_->score(b);
      });
      hot_.resize(static_cast<size_t>(room));
    }
    for (const Pfn pfn : hot_) {
      deferred_hot_->Set(pfn);
    }
    parked = static_cast<int64_t>(hot_.size());
    if (parked > 0) {
      kept_.erase(std::remove_if(kept_.begin(), kept_.end(),
                                 [this](Pfn pfn) { return deferred_hot_->Test(pfn); }),
                  kept_.end());
    }
  }

  // Coldest-first: pages most likely to stay clean ship early; the hottest
  // survivors ship late, where a mid-round re-dirty can still skip them.
  std::stable_sort(kept_.begin(), kept_.end(), [this](Pfn a, Pfn b) {
    return hotness_->score(a) < hotness_->score(b);
  });

  result->pages_deferred_hot += parked;
  result->resend_pages_avoided += avoided;
  if (parked > 0 || avoided > 0) {
    trace_.Record(TraceEvent{TraceEventKind::kHotnessDefer, guest_->clock().now(), index, 0,
                             parked, avoided, result->pages_deferred_hot, Duration::Zero()});
  }
  // Swap, not move: the round buffer and kept_ trade storage, so both
  // capacities stay live for the next round.
  pending->swap(kept_);
}

IterationRecord MigrationEngine::RunIteration(int index, std::vector<Pfn>* pending,
                                              DirtyLog* log, DestinationVm* dest,
                                              const PageBitmap* transfer_bitmap,
                                              PageBitmap* ever_skipped,
                                              MigrationResult* result) {
  IterationRecord rec;
  rec.index = index;
  const TimePoint iter_start = guest_->clock().now();
  trace_.Record(TraceEvent{TraceEventKind::kIterationBegin, iter_start, index, 0, 0, 0, 0,
                           Duration::Zero()});
  ApplyHotnessPolicy(index, pending, result);

  // Per-iteration control round trip (request dirty bitmap, sync with the
  // receiver); keeps even all-skip iterations from taking zero time. When the
  // retry budget for it runs out the whole pending set carries over: none of
  // these pages were examined, and none are in the dirty log.
  if (!ControlRoundTrip(index, result)) {
    CarryOver(*pending, 0);
    rec.duration = guest_->clock().now() - iter_start;
    trace_.Record(TraceEvent{TraceEventKind::kIterationEnd, guest_->clock().now(), index, 0,
                             rec.pages_sent, rec.wire_bytes, rec.pages_scanned,
                             Duration::Zero()});
    return rec;
  }

  size_t i = 0;
  burst_.Reset();
  while (i < pending->size()) {
    // Batched dirty peek: within one burst-accumulation pass the clock never
    // advances, so the guest cannot dirty pages and the log is frozen -- one
    // 64-bit word read covers up to 64 consecutive re-dirty tests. The cache
    // dies with the pass: FlushBurst/ControlRoundTrip advance the clock, so
    // each new pass starts cold.
    int64_t cached_wi = -1;
    uint64_t cached_word = 0;
    while (i < pending->size() && burst_.pages < config_.batch_pages) {
      const Pfn pfn = (*pending)[i++];
      ++rec.pages_scanned;
      ++burst_.scanned;
      if (transfer_bitmap != nullptr && !transfer_bitmap->Test(pfn)) {
        // Cleared transfer bit: the application vouched the page need not be
        // migrated (§3.3.3). Remember it for the safety fallback.
        ++rec.pages_skipped_bitmap;
        ever_skipped->Set(pfn);
        continue;
      }
      ++perf_.page_peeks;
      if ((pfn >> 6) != cached_wi) {
        cached_wi = pfn >> 6;
        cached_word = log->PeekWord(pfn);
        ++perf_.dirty_word_scans;
      }
      if (((cached_word >> (pfn & 63)) & 1) != 0) {
        // Re-dirtied since the harvest: sending now would be redundant; the
        // next round will carry it (§5.2).
        ++rec.pages_skipped_dirty;
        continue;
      }
      SendPage(pfn, dest, &burst_, result);
    }
    if (!FlushBurst(&burst_, dest, &rec, result)) {
      // Burst retry budget exhausted; its pages are already in carryover_.
      // The unexamined tail joins them.
      CarryOver(*pending, i);
      break;
    }
    if (degrade_ == DegradeReason::kNone && config_.round_timeout != Duration::Max() &&
        guest_->clock().now() - iter_start > config_.round_timeout && i < pending->size()) {
      // The round blew its wall-clock budget (a degraded link can stretch
      // one iteration indefinitely); hand the rest to the next round so the
      // dirty-log harvest stays fresh.
      ++result->round_timeouts;
      trace_.Record(TraceEvent{TraceEventKind::kRoundTimeout, guest_->clock().now(), index, 0,
                               static_cast<int64_t>(pending->size() - i), 0, 0,
                               Duration::Zero()});
      CarryOver(*pending, i);
      if (result->round_timeouts > config_.max_round_timeouts) {
        RequestDegrade(DegradeReason::kRoundTimeouts);
      }
      break;
    }
  }
  rec.duration = guest_->clock().now() - iter_start;
  trace_.Record(TraceEvent{TraceEventKind::kIterationEnd, guest_->clock().now(), index, 0,
                           rec.pages_sent, rec.wire_bytes, rec.pages_scanned, Duration::Zero()});
  return rec;
}

MigrationResult MigrationEngine::Migrate() {
  SimClock& clock = guest_->clock();
  GuestPhysicalMemory& memory = guest_->memory();
  const int64_t frames = memory.frame_count();

  MigrationResult result;
  result.assisted = config_.application_assisted;
  result.hotness = config_.hotness.enabled;
  result.vm_bytes = memory.bytes();
  result.started_at = clock.now();
  perf_ = PerfCounters{};
  // Fault-recovery state is per-migration, so back-to-back migrations of
  // one engine see identical fault behaviour.
  wire_.Begin(&result);
  degrade_ = DegradeReason::kNone;
  in_stop_and_copy_ = false;
  carryover_.clear();
  // Hotness state is per-migration too: fresh scores, an empty parked set,
  // and the deferral bound from this run's link (how many pages fit through
  // the nominal goodput in defer_budget -- parked pages land in the paused
  // final copy, so this caps their downtime contribution). The tracker and
  // parked bitmap keep their storage across back-to-back migrations of one
  // engine: Reset()/ClearAll() rewind the state without reallocating the
  // frames-sized arrays.
  max_deferred_pages_ = 0;
  if (config_.hotness.enabled) {
    if (hotness_ && hotness_->frames() == frames) {
      hotness_->Reset(config_.hotness);
      deferred_hot_->ClearAll();
    } else {
      hotness_.emplace(frames, config_.hotness);
      deferred_hot_.emplace(frames);
    }
    // budget_ns * goodput overflows int64 for multi-second budgets on fast
    // links; MulDiv keeps the product in 128 bits. Goodput is truncated to
    // whole bytes/sec, which moves the bound by at most one page.
    const int64_t goodput = static_cast<int64_t>(config_.link.GoodputBytesPerSec());
    const int64_t per_page = kPageSize + config_.link.per_page_overhead;
    max_deferred_pages_ =
        MulDiv(config_.hotness.defer_budget.nanos(), goodput, 1'000'000'000) / per_page;
  }
  trace_.set_enabled(config_.record_trace);
  trace_.Clear();
  trace_.Record(TraceEvent{TraceEventKind::kMigrationStart, clock.now(), 0, 0, frames, 0, 0,
                           Duration::Zero()});

  DirtyLog log(frames);
  log.set_perf(&perf_);
  memory.AttachDirtyLog(&log);

  // The tracker observes the same store choke point as the dirty log; the
  // guard guarantees the detach on every exit path (complete, abort) so no
  // dangling observer survives into a later back-to-back migration.
  struct HotnessObserverGuard {
    GuestPhysicalMemory* memory = nullptr;
    WriteObserver* observer = nullptr;
    ~HotnessObserverGuard() {
      if (memory != nullptr) {
        memory->DetachWriteObserver(observer);
      }
    }
  } hotness_guard;
  if (hotness_) {
    memory.AttachWriteObserver(&*hotness_);
    hotness_guard.memory = &memory;
    hotness_guard.observer = &*hotness_;
  }

  DestinationVm dest(frames);
  PageBitmap ever_skipped(frames);

  Lkm* lkm = guest_->lkm();
  const PageBitmap* transfer_bitmap = nullptr;
  const bool assisted = config_.application_assisted && lkm != nullptr;
  // The daemon handler captures `this`; the scoped binding guarantees the
  // unbind on every exit path (complete, abort, fallback) so no dangling
  // callback survives the engine and no stale suspension-ready notification
  // leaks into a later back-to-back migration.
  std::optional<ScopedDaemonBinding> daemon_binding;
  struct LkmTraceGuard {
    Lkm* lkm = nullptr;
    ~LkmTraceGuard() {
      if (lkm != nullptr) {
        lkm->set_trace(nullptr);
      }
    }
  } lkm_trace_guard;
  if (assisted) {
    suspension_ready_ = false;
    daemon_binding.emplace(&guest_->event_channel(), [this](LkmToDaemon msg) {
      trace_.Record(TraceEvent{TraceEventKind::kLkmToDaemon, guest_->clock().now(), 0,
                               static_cast<int32_t>(msg), 0, 0, 0, Duration::Zero()});
      if (msg == LkmToDaemon::kSuspensionReady) {
        suspension_ready_ = true;
      }
    });
    if (config_.record_trace) {
      lkm->set_trace(&trace_);
      lkm_trace_guard.lkm = lkm;
    }
    // "Migration begins; notify LKM" -- triggers the first bitmap update.
    NotifyLkm(DaemonToLkm::kMigrationStarted);
    transfer_bitmap = &lkm->transfer_bitmap();
    hint_source_ = lkm;  // Per-page compression hints (§6).
  } else {
    hint_source_ = nullptr;
  }

  // ---- Live pre-copy iterations. ----
  // Iteration 1 sends every frame of the VM's pseudo-physical memory.
  // pending_ is the reusable round buffer: the loop below refills it from
  // the harvest buffer each round by swap, so after the first migration the
  // whole rotation runs inside previously-acquired capacity.
  pending_.clear();
  NoteReserve(pending_, frames, &perf_);
  pending_.reserve(static_cast<size_t>(frames));
  for (Pfn pfn = 0; pfn < frames; ++pfn) {
    pending_.push_back(pfn);
  }

  int64_t total_sent = 0;
  int iter = 1;
  for (;;) {
    IterationRecord rec = RunIteration(iter, &pending_, &log, &dest, transfer_bitmap,
                                       &ever_skipped, &result);
    log.CollectAndClear(&harvest_);
    if (!carryover_.empty()) {
      // An early-terminated round left scanned-but-undelivered pages behind;
      // fold them into the next round's input, deduplicated against the
      // fresh dirty harvest (a carried page re-dirtied meanwhile is sent
      // once, with its newest content). Both inputs are sorted and unique --
      // the harvest collects set bits in PFN order, and carryover_ is filled
      // at most once per round from disjoint ascending slices of the round's
      // pending set -- so a two-way merge suffices; no frames-sized bitmap.
      // Hotness reorders the round's pending set, so restore PFN order first
      // (the invariant holds by construction only when hotness is off).
      if (hotness_) {
        std::sort(carryover_.begin(), carryover_.end());
      }
      DCHECK(std::is_sorted(harvest_.begin(), harvest_.end()));
      DCHECK(std::is_sorted(carryover_.begin(), carryover_.end()));
      merged_.clear();
      NoteReserve(merged_, static_cast<int64_t>(harvest_.size() + carryover_.size()), &perf_);
      merged_.reserve(harvest_.size() + carryover_.size());
      size_t a = 0;
      size_t b = 0;
      while (a < harvest_.size() || b < carryover_.size()) {
        Pfn next;
        if (b == carryover_.size() || (a < harvest_.size() && harvest_[a] <= carryover_[b])) {
          next = harvest_[a++];
        } else {
          next = carryover_[b++];
        }
        if (merged_.empty() || merged_.back() != next) {
          merged_.push_back(next);
        }
      }
      carryover_.clear();
      harvest_.swap(merged_);
    }
    pending_.swap(harvest_);
    // Pages owed to the next live round. Parked pages re-dirty every round
    // but transfer during the pause, so they must not keep the loop from
    // converging (or count as live dirt in the per-iteration records).
    int64_t live_left = static_cast<int64_t>(pending_.size());
    if (deferred_hot_) {
      for (const Pfn pfn : pending_) {
        if (deferred_hot_->Test(pfn)) {
          --live_left;
        }
      }
    }
    rec.dirty_pages_after = live_left;
    total_sent += rec.pages_sent;
    result.pages_skipped_dirty += rec.pages_skipped_dirty;
    result.pages_skipped_bitmap += rec.pages_skipped_bitmap;
    result.iterations.push_back(rec);

    // Fault injection: the migration is cancelled (destination failure,
    // operator abort, or an exhausted retry budget under degrade_mode =
    // kAbort). The guest never pauses; the LKM resets; applications are
    // released and continue at the source.
    const bool degrade_abort = degrade_ != DegradeReason::kNone &&
                               config_.degrade_mode == DegradeMode::kAbort;
    if ((config_.abort_after_iterations >= 0 && iter >= config_.abort_after_iterations) ||
        degrade_abort) {
      if (degrade_ != DegradeReason::kNone) {
        result.degraded = true;
        result.degrade_reason = degrade_;
        trace_.Record(TraceEvent{TraceEventKind::kDegrade, clock.now(), 0,
                                 static_cast<int32_t>(degrade_), 0, 0, 0, Duration::Zero()});
      }
      if (assisted) {
        NotifyLkm(DaemonToLkm::kMigrationAborted);
      }
      memory.DetachDirtyLog(&log);
      result.total_time = clock.now() - result.started_at;
      // The VM never paused: report an empty pause window at the abort
      // instant (rather than epoch-default timestamps) so downtime
      // arithmetic over the result stays well-defined.
      result.paused_at = clock.now();
      result.resumed_at = clock.now();
      result.downtime = DowntimeBreakdown{};
      result.last_iter_pages_sent = 0;
      result.last_iter_pages_skipped_bitmap = 0;
      result.pages_sent = total_sent;
      result.completed = false;
      TracePhase(TraceEventKind::kAbort);
      hint_source_ = nullptr;
      wire_.FillChannelMeters(&result);
      RunAudit(&result);
      result.perf = perf_;
      return result;
    }

    if (degrade_ != DegradeReason::kNone) {
      // Retry budget exhausted and degrade_mode is stop-and-copy: stop
      // trying to converge live and take the downtime hit now. The final
      // copy below waits outages out instead of giving up.
      result.degraded = true;
      result.degrade_reason = degrade_;
      trace_.Record(TraceEvent{TraceEventKind::kDegrade, clock.now(), 0,
                               static_cast<int32_t>(degrade_), 0, 0, 0, Duration::Zero()});
      break;
    }

    // xc_domain_save stop conditions.
    const bool few_left = live_left < config_.last_iter_threshold_pages;
    const bool max_iters = iter >= config_.max_iterations;
    const bool sent_too_much =
        static_cast<double>(total_sent) >
        config_.max_sent_factor * static_cast<double>(frames);
    if (few_left || max_iters || sent_too_much) {
      break;
    }
    ++iter;
  }

  // ---- Entering the last iteration. ----
  bool fallback = false;
  if (assisted) {
    NotifyLkm(DaemonToLkm::kEnteringLastIter);
    const TimePoint deadline = clock.now() + config_.lkm_response_timeout;
    while (!suspension_ready_ && clock.now() < deadline) {
      clock.Advance(config_.poll_quantum);
    }
    if (suspension_ready_) {
      result.downtime.final_bitmap_update = lkm->last_final_update_duration();
      clock.Advance(result.downtime.final_bitmap_update);
    } else {
      // Guest side unresponsive: fall back to unassisted behaviour. Safety
      // requires transferring every page we ever skipped on the apps' word,
      // since their contents were never guaranteed recoverable.
      fallback = true;
      result.fell_back_unassisted = true;
      transfer_bitmap = nullptr;
      // The guest's per-page compression hints are as stale as its bitmap:
      // drop them so stop-and-copy pays trial compression instead of
      // trusting classes from a guest just declared unresponsive.
      hint_source_ = nullptr;
      TracePhase(TraceEventKind::kFallback);
    }
  }

  // ---- Stop-and-copy. ----
  guest_->PauseVm();
  result.paused_at = clock.now();
  TracePhase(TraceEventKind::kPause);
  // From here on a burst never degrades: the VM is paused, so the engine
  // rides out any remaining outage rather than abandoning the migration.
  in_stop_and_copy_ = true;
  {
    // Merge everything still dirty (including pages dirtied by the enforced
    // GC's copying) with the carried-over pending set.
    PageBitmap final_set(frames);
    for (Pfn pfn : pending_) {
      final_set.Set(pfn);
    }
    log.CollectAndClear(&harvest_);
    for (Pfn pfn : harvest_) {
      final_set.Set(pfn);
    }
    // Defensive: fault carryover is normally folded into `pending` after
    // each round, but a page parked here must never be dropped.
    for (Pfn pfn : carryover_) {
      final_set.Set(pfn);
    }
    carryover_.clear();
    // Hot pages deferred out of the live rounds transfer exactly once: here,
    // while the guest is paused and cannot re-dirty them.
    if (deferred_hot_) {
      scratch_.clear();
      deferred_hot_->CollectSetBits(&scratch_);
      for (Pfn pfn : scratch_) {
        final_set.Set(pfn);
      }
    }
    // Pages whose skip listing the LKM re-enabled *after* the fact (straggler
    // revocation, deferred final-update reconciliation) may have been dirtied
    // while skip-listed and then dropped from the dirty log; re-send them.
    // Pages that left an area via a timely shrink notice need no special
    // handling: frame reuse starts with the zeroing commit write, which the
    // dirty log catches, and frames still free at pause hold no observable
    // content. On fallback, re-send everything ever skipped.
    if (fallback) {
      scratch_.clear();
      ever_skipped.CollectSetBits(&scratch_);
      for (Pfn pfn : scratch_) {
        final_set.Set(pfn);
      }
    } else if (assisted) {
      for (Pfn pfn : lkm->revoked_pfns()) {
        final_set.Set(pfn);
      }
    }
    last_pending_.clear();
    NoteReserve(last_pending_, final_set.Count(), &perf_);
    last_pending_.reserve(static_cast<size_t>(final_set.Count()));
    final_set.CollectSetBits(&last_pending_);

    IterationRecord rec;
    rec.index = iter + 1;
    const TimePoint last_start = clock.now();
    trace_.Record(TraceEvent{TraceEventKind::kIterationBegin, last_start, rec.index, 0, 0, 0, 0,
                             Duration::Zero()});
    burst_.Reset();
    for (Pfn pfn : last_pending_) {
      ++rec.pages_scanned;
      ++burst_.scanned;
      if (transfer_bitmap != nullptr && !transfer_bitmap->Test(pfn)) {
        // Final bitmap state: garbage the enforced GC reclaimed (plus any
        // deferred expansion) is skipped even in the last iteration.
        ++rec.pages_skipped_bitmap;
        ++result.last_iter_pages_skipped_bitmap;
        continue;
      }
      SendPage(pfn, &dest, &burst_, &result);
      if (burst_.pages == config_.batch_pages) {
        FlushBurst(&burst_, &dest, &rec, &result);
      }
    }
    FlushBurst(&burst_, &dest, &rec, &result);
    rec.duration = clock.now() - last_start;
    trace_.Record(TraceEvent{TraceEventKind::kIterationEnd, clock.now(), rec.index, 0,
                             rec.pages_sent, rec.wire_bytes, rec.pages_scanned,
                             Duration::Zero()});
    result.downtime.last_iter_transfer = rec.duration;
    result.last_iter_pages_sent = rec.pages_sent;
    result.pages_skipped_bitmap += rec.pages_skipped_bitmap;
    total_sent += rec.pages_sent;
    result.iterations.push_back(rec);
  }

  // Snapshot the pause-time state for verification before anything resumes.
  const std::vector<uint64_t> pause_versions = memory.versions();
  const std::vector<bool> allocated_at_pause = memory.allocation_map();
  const PageBitmap skip_allowed =
      (assisted && !fallback) ? *transfer_bitmap : PageBitmap(frames, /*initial=*/true);
  const TimePoint pause_time = result.paused_at;

  if (assisted) {
    result.lkm_bitmap_bytes = lkm->transfer_bitmap_bytes();
    result.lkm_pfn_cache_bytes = lkm->pfn_cache_bytes();
  }

  // ---- Resume at the destination. ----
  clock.Advance(config_.resumption_time);
  result.downtime.resumption = config_.resumption_time;
  guest_->ResumeVm();
  result.resumed_at = clock.now();
  TracePhase(TraceEventKind::kResume);
  if (assisted) {
    NotifyLkm(DaemonToLkm::kVmResumed);
  }

  memory.DetachDirtyLog(&log);

  result.total_time = result.resumed_at - result.started_at;
  result.pages_sent = total_sent;
  result.completed = true;
  TracePhase(TraceEventKind::kComplete);
  result.verification =
      Verify(dest, pause_versions, allocated_at_pause, &skip_allowed, pause_time);
  hint_source_ = nullptr;
  wire_.FillChannelMeters(&result);
  RunAudit(&result);
  result.perf = perf_;
  return result;
}

void MigrationEngine::TracePhase(TraceEventKind kind) {
  trace_.Record(
      TraceEvent{kind, guest_->clock().now(), 0, 0, 0, 0, 0, Duration::Zero()});
}

void MigrationEngine::NotifyLkm(DaemonToLkm msg) {
  trace_.Record(TraceEvent{TraceEventKind::kDaemonToLkm, guest_->clock().now(), 0,
                           static_cast<int32_t>(msg), 0, 0, 0, Duration::Zero()});
  guest_->event_channel().NotifyGuest(msg);
}

void MigrationEngine::RunAudit(MigrationResult* result) {
  if (!config_.record_trace || !config_.audit_trace) {
    return;
  }
  AuditInputs inputs;
  wire_.FillAuditInputs(&inputs);
  inputs.control_bytes_per_iteration = config_.control_bytes_per_iteration;
  inputs.hotness_enabled = config_.hotness.enabled;
  result->trace_audit = TraceAuditor::Audit(AuditMode::kPrecopy, trace_, *result, inputs);
}

VerificationReport MigrationEngine::Verify(const DestinationVm& dest,
                                           const std::vector<uint64_t>& pause_versions,
                                           const std::vector<bool>& allocated_at_pause,
                                           const PageBitmap* skip_allowed,
                                           TimePoint pause_time) const {
  VerificationReport report;
  const int64_t frames = dest.frame_count();
  for (Pfn pfn = 0; pfn < frames; ++pfn) {
    if (!skip_allowed->Test(pfn)) {
      // Cleared final transfer bit: content legitimately absent.
      ++report.pages_skipped_garbage;
      continue;
    }
    if (!allocated_at_pause[static_cast<size_t>(pfn)]) {
      // Frame free at pause: its content is unobservable -- any future use
      // begins with the kernel's zeroing write.
      ++report.pages_free_unverified;
      continue;
    }
    ++report.pages_checked;
    if (dest.version(pfn) != pause_versions[static_cast<size_t>(pfn)]) {
      ++report.version_mismatches;
    }
  }
  // Application-level audit: pages of live data must be intact regardless of
  // what the transfer bitmap said.
  for (const RequiredPfnSource* source : required_sources_) {
    for (Pfn pfn : source->RequiredPfns(pause_time)) {
      ++report.required_pfns_checked;
      if (pfn < 0 || pfn >= frames ||
          dest.version(pfn) != pause_versions[static_cast<size_t>(pfn)]) {
        ++report.required_pfn_failures;
      }
    }
  }
  report.ok = report.version_mismatches == 0 && report.required_pfn_failures == 0;
  if (!report.ok) {
    report.detail = "version mismatches: " + std::to_string(report.version_mismatches) +
                    ", live-data failures: " + std::to_string(report.required_pfn_failures);
  }
  return report;
}

}  // namespace javmm
