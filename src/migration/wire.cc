// Copyright (c) 2026 The JAVMM Reproduction Authors.

#include "src/migration/wire.h"

#include "src/base/macros.h"

namespace javmm {

namespace {

// Anything in the shared plan or any channel overlay that can fire.
bool AnyFaultsEnabled(const MigrationConfig& config) {
  if (config.faults.enabled()) {
    return true;
  }
  for (const FaultPlan& plan : config.channel_faults) {
    if (plan.enabled()) {
      return true;
    }
  }
  return false;
}

}  // namespace

WireSession::WireSession(const MigrationConfig& config, SimClock* clock, TraceRecorder* trace,
                         PerfCounters* perf)
    : config_(config), clock_(clock), trace_(trace), perf_(perf),
      channels_(config.link, config.channels) {
  CHECK(clock != nullptr);
  CHECK(config.channel_faults.empty() ||
        static_cast<int>(config.channel_faults.size()) == config.channels);
}

void WireSession::Begin(MigrationResult* result) {
  CHECK(result != nullptr);
  result_ = result;
  channels_.ResetMeters();
  channels_.ClearSchedules();
  rng_.reset();
  if (AnyFaultsEnabled(config_)) {
    channels_.Anchor(config_.faults, config_.channel_faults, clock_->now());
    rng_.emplace(config_.fault_seed);
  }
}

StripedOutcome WireSession::Send(int64_t pages, int64_t wire_bytes, int iteration,
                                 RetryBudget budget) {
  const TimePoint start = clock_->now();
  const int max_retries = budget == RetryBudget::kBounded ? config_.max_burst_retries : -1;
  StripedOutcome outcome;
  outcome.shares = channels_.Shard(pages, wire_bytes);
  outcome.completes_at = start;
  outcome.landed_from = start;
  for (ChannelShare& share : outcome.shares) {
    if (share.wire_bytes == 0 && share.pages == 0) {
      share.done = start;
      continue;
    }
    const NetworkLink& link = channels_.channel(share.channel);
    const FaultSchedule* schedule = channels_.faults(share.channel);
    TimePoint vnow = start;
    for (int attempt = 1;; ++attempt) {
      const TransferAttempt result = link.TryTransfer(share.wire_bytes, vnow, schedule);
      if (result.ok) {
        share.done = vnow + result.duration;
        if (share.done > outcome.completes_at) {
          outcome.completes_at = share.done;
        }
        break;
      }
      // An outage cut the stream: the partial transfer still took simulated
      // time and wire bytes, but delivered nothing.
      vnow = vnow + result.duration;
      ++outcome.faults;
      TransferFault(share.channel, iteration, attempt, pages, result.wasted_bytes, vnow);
      if (max_retries >= 0 && attempt > max_retries) {
        // Retry budget exhausted: the whole burst is abandoned. No backoff
        // after the terminal fault, matching the engines' degrade paths.
        if (vnow > outcome.completes_at) {
          outcome.completes_at = vnow;
        }
        return outcome;
      }
      vnow = Backoff(iteration, attempt, vnow, result.blocked_until);
      outcome.landed_from = vnow;
    }
  }
  outcome.ok = true;
  return outcome;
}

void WireSession::Deliver(const StripedOutcome& outcome, int iteration) {
  for (const ChannelShare& share : outcome.shares) {
    perf_->pages_sharded += share.pages;
    DeliverShare(share, iteration);
  }
}

void WireSession::DeliverShare(const ChannelShare& share, int iteration) {
  if (share.pages == 0 && share.wire_bytes == 0) {
    return;
  }
  // Compression and delta bursts are smaller than PageWireBytes would
  // predict, so the meter takes the actual wire size.
  NetworkLink& link = channels_.channel(share.channel);
  if (share.pages > 0) {
    link.RecordPageBytes(share.pages, share.wire_bytes);
  } else {
    link.RecordControlBytes(share.wire_bytes);
  }
  if (channels_.count() > 1) {
    trace_->Record(TraceEvent{TraceEventKind::kChannelTransfer, share.done, iteration,
                              share.channel, share.pages, share.wire_bytes, 0,
                              Duration::Zero()});
  }
}

WireSession::Loss WireSession::RoundLost(int channel, TimePoint at) {
  Loss loss;
  const FaultSchedule* faults = channels_.faults(channel);
  if (faults == nullptr) {
    return loss;
  }
  if (faults->InOutage(at)) {
    loss.lost = true;
    loss.retry_floor = faults->OutageEndAt(at);
  } else if (faults->control_loss_p() > 0.0) {
    loss.lost = rng_->Chance(faults->control_loss_p());
  }
  return loss;
}

Duration WireSession::RoundTrip(int channel, TimePoint at) const {
  const FaultSchedule* faults = channels_.faults(channel);
  const Duration extra = faults != nullptr ? faults->ExtraLatencyAt(at) : Duration::Zero();
  return (config_.link.latency + extra) * int64_t{2};
}

void WireSession::TransferFault(int channel, int iteration, int attempt, int64_t pages,
                                int64_t wasted_bytes, TimePoint at) {
  ++result_->burst_faults;
  channels_.channel(channel).RecordRetryBytes(wasted_bytes);
  result_->retry_wire_bytes += wasted_bytes;
  trace_->Record(TraceEvent{TraceEventKind::kTransferFault, at, iteration, attempt, pages,
                            wasted_bytes, 0, Duration::Zero()});
}

void WireSession::ControlLost(int channel, int iteration, int attempt, TimePoint at) {
  const int64_t bytes = config_.control_bytes_per_iteration;
  ++result_->control_losses;
  channels_.channel(channel).RecordRetryBytes(bytes);
  result_->retry_wire_bytes += bytes;
  trace_->Record(TraceEvent{TraceEventKind::kControlLost, at, iteration, attempt, 0, bytes, 0,
                            Duration::Zero()});
}

TimePoint WireSession::RetryAt(int attempt, TimePoint from, TimePoint min_until,
                               Duration* nominal) const {
  *nominal = NominalBackoff(config_.retry_backoff_base, config_.retry_backoff_cap, attempt);
  const TimePoint target = from + *nominal;
  return min_until > target ? min_until : target;
}

void WireSession::RecordBackoff(int iteration, int attempt, Duration nominal, Duration waited,
                                TimePoint at) {
  result_->backoff_time += waited;
  trace_->Record(TraceEvent{TraceEventKind::kRetryBackoff, at, iteration, attempt,
                            nominal.nanos(), 0, 0, waited});
}

TimePoint WireSession::Backoff(int iteration, int attempt, TimePoint from, TimePoint min_until,
                               std::optional<TimePoint> stamp) {
  Duration nominal;
  const TimePoint target = RetryAt(attempt, from, min_until, &nominal);
  RecordBackoff(iteration, attempt, nominal, target - from, stamp.value_or(target));
  return target;
}

void WireSession::WaitBackoff(int iteration, int attempt, TimePoint min_until) {
  const TimePoint from = clock_->now();
  Duration nominal;
  const Duration waited = RetryAt(attempt, from, min_until, &nominal) - from;
  if (!waited.IsZero()) {
    clock_->Advance(waited);
  }
  // Recorded after the wait: events the guest emits while the clock runs
  // (LKM transitions, demand faults) precede it.
  RecordBackoff(iteration, attempt, nominal, waited, clock_->now());
}

void WireSession::FillChannelMeters(MigrationResult* result) const {
  result->total_wire_bytes = channels_.total_wire_bytes();
  result->channels = channels_.count();
  if (channels_.count() > 1) {
    result->channel_wire_bytes = channels_.WireBytesPerChannel();
    result->channel_pages_sent = channels_.PagesSentPerChannel();
    result->channel_retry_bytes = channels_.RetryBytesPerChannel();
  }
}

void WireSession::FillAuditInputs(AuditInputs* inputs) const {
  inputs->link_wire_bytes = channels_.total_wire_bytes();
  inputs->link_pages_sent = channels_.total_pages_sent();
  inputs->link_retry_bytes = channels_.total_retry_bytes();
  inputs->retry_backoff_base = config_.retry_backoff_base;
  inputs->retry_backoff_cap = config_.retry_backoff_cap;
  if (channels_.count() > 1) {
    inputs->channel_wire_bytes = channels_.WireBytesPerChannel();
    inputs->channel_pages_sent = channels_.PagesSentPerChannel();
    inputs->channel_retry_bytes = channels_.RetryBytesPerChannel();
  }
}

}  // namespace javmm
