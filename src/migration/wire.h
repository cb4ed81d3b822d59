// Copyright (c) 2026 The JAVMM Reproduction Authors.
// WireSession: the one wire path every migration engine sends through
// (DESIGN.md §10-§11).
//
// Xen's xc_domain_save streams every batch through the same send/retry code
// whatever the phase; pre-copy, stop-and-copy and post-copy differ in *when*
// pages move, not in *how* they cross the link. A WireSession owns what the
// crossing needs -- the engine's ChannelSet, the private fault Rng and the
// retry settings -- and is the only place a transfer fault, a lost control
// round, a backoff or a per-channel delivery is metered and traced.
//
// Engines keep what is theirs: which pages go, the aggregate burst/control
// events, and where those are stamped. So Send() meters only the waste
// (cut attempts, backoffs) and returns the outcome; the caller records its
// aggregate event and then calls Deliver(), in the order its trace has
// always had.

#ifndef JAVMM_SRC_MIGRATION_WIRE_H_
#define JAVMM_SRC_MIGRATION_WIRE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/perf.h"
#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/migration/config.h"
#include "src/migration/stats.h"
#include "src/net/channel_set.h"
#include "src/sim/clock.h"
#include "src/trace/auditor.h"
#include "src/trace/trace.h"

namespace javmm {

// Outcome of one striped transfer across all channels.
struct StripedOutcome {
  bool ok = false;
  // Success: when the slowest channel finished. Failure: how far simulated
  // time progressed before the retry budget ran out (the caller advances the
  // clock by completes_at - start either way).
  TimePoint completes_at;
  // Where the landing attempt began: the retry instant of the last backoff
  // taken, in channel order; the start when no channel retried.
  TimePoint landed_from;
  // Failed attempts over all channels; 0 = the burst crossed clean.
  int faults = 0;
  std::vector<ChannelShare> shares;
};

// How long a striped send keeps retrying a cut slice.
enum class RetryBudget {
  kBounded,    // config.max_burst_retries per channel, then the burst is lost.
  kUnbounded,  // Until it lands: a paused VM waits the outage out.
};

class WireSession {
 public:
  // Verdict on one round trip (control round, demand-fetch request).
  struct Loss {
    bool lost = false;
    // Earliest useful retry: the end of the outage that lost the round, or
    // the epoch for a Bernoulli loss.
    TimePoint retry_floor;
  };

  // The session shares the engine's clock, trace and counters.
  WireSession(const MigrationConfig& config, SimClock* clock, TraceRecorder* trace,
              PerfCounters* perf);

  // Starts a run at clock->now(): zeroes the meters, anchors the fault
  // schedules there and reseeds the loss stream, so back-to-back runs see
  // identical faults. A healthy link gets no schedule and no Rng, and every
  // fault branch short-circuits. `result` receives the fault counters
  // (burst_faults, control_losses, retry_wire_bytes, backoff_time) until the
  // next Begin().
  void Begin(MigrationResult* result);

  ChannelSet& channels() { return channels_; }
  const ChannelSet& channels() const { return channels_; }

  // Sends `pages` / `wire_bytes` striped over the channels, starting at
  // clock->now(). Each channel retries its slice on its own virtual
  // timeline; every cut attempt is a transfer fault (stamped where it was
  // cut, its `pages` field the whole burst) and every retry a backoff
  // (stamped at the retry instant). The clock does not move and nothing is
  // delivered: the caller advances by completes_at - start and, on success,
  // calls Deliver().
  StripedOutcome Send(int64_t pages, int64_t wire_bytes, int iteration, RetryBudget budget);

  // Meters a landed send's slices on their channels (pages, or control bytes
  // for a page-less payload) and, with more than one channel, records one
  // channel_transfer event per slice at the instant it finished.
  void Deliver(const StripedOutcome& outcome, int iteration);
  // The same for one slice delivered outside a striped send (a control
  // round, a demand fetch, a trickled page).
  void DeliverShare(const ChannelShare& share, int iteration);

  // Whether a round trip on `channel` starting at `at` is lost: always in an
  // outage (no Rng draw, so the draw sequence depends only on the rounds
  // that reach the Bernoulli stage), else with the plan's control-loss
  // probability.
  Loss RoundLost(int channel, TimePoint at);
  // One round trip on `channel` under the latency in effect at `at`.
  Duration RoundTrip(int channel, TimePoint at) const;

  // Meters a transfer attempt an outage cut after `wasted_bytes`, stamped at
  // `at`.
  void TransferFault(int channel, int iteration, int attempt, int64_t pages,
                     int64_t wasted_bytes, TimePoint at);
  // Meters a lost round trip (its request still burned control bytes),
  // stamped at `at`.
  void ControlLost(int channel, int iteration, int attempt, TimePoint at);

  // Backoff before retry `attempt` (1-based) after a failure at `from`:
  // waits until max(from + NominalBackoff(...), min_until) -- retrying
  // inside the outage that caused the failure would fail again. Meters the
  // wait and records it at `stamp` (the retry instant when unset). Returns
  // the retry instant; the clock does not move.
  TimePoint Backoff(int iteration, int attempt, TimePoint from, TimePoint min_until,
                    std::optional<TimePoint> stamp = std::nullopt);
  // Backoff on the real clock: advances it to the retry instant, then
  // records the event there.
  void WaitBackoff(int iteration, int attempt, TimePoint min_until);

  // Copies the link meters into `result`: total wire bytes, the channel
  // count and, with more than one channel, the per-channel meters.
  void FillChannelMeters(MigrationResult* result) const;
  // The link meters and retry settings the TraceAuditor checks a run with.
  void FillAuditInputs(AuditInputs* inputs) const;

 private:
  // The retry instant and nominal wait for Backoff/WaitBackoff.
  TimePoint RetryAt(int attempt, TimePoint from, TimePoint min_until, Duration* nominal) const;
  void RecordBackoff(int iteration, int attempt, Duration nominal, Duration waited,
                     TimePoint at);

  const MigrationConfig& config_;
  SimClock* clock_;
  TraceRecorder* trace_;
  PerfCounters* perf_;
  ChannelSet channels_;
  // Bernoulli loss draws off config.fault_seed; engaged only while a run
  // has a fault plan.
  std::optional<Rng> rng_;
  MigrationResult* result_ = nullptr;
};

}  // namespace javmm

#endif  // JAVMM_SRC_MIGRATION_WIRE_H_
