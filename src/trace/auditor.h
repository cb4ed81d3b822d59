// Copyright (c) 2026 The JAVMM Reproduction Authors.
// Post-run invariant audit over a migration trace.
//
// The paper's headline results (Figures 8-11) are pure accounting over the
// pre-copy race, so a metering bug silently corrupts every reproduced figure.
// The auditor re-derives the aggregates from the event-level trace and checks
// them against MigrationResult and the NetworkLink meters:
//
//   * accounting identities -- sum of burst wire bytes (+ control traffic)
//     == link wire meter == result.total_wire_bytes; sum of burst pages ==
//     link page meter == result.pages_sent; per-iteration burst sums match
//     each IterationRecord; pages_sent == raw + compressed + delta.
//   * timing partition -- iteration spans are ordered and contiguous where
//     the engine performs no out-of-iteration clock advance, the last
//     iteration starts at paused_at, and last_iter_transfer + resumption
//     exactly cover the paused_at -> resumed_at downtime window.
//   * protocol state machine -- daemon<->LKM messages and LKM state
//     transitions follow the Figure-4/7 workflow (including the fallback and
//     abort variants).
//
// Engines run the audit automatically at the end of Migrate() when
// MigrationConfig::audit_trace is set (the default) and store the report in
// MigrationResult::trace_audit.

#ifndef JAVMM_SRC_TRACE_AUDITOR_H_
#define JAVMM_SRC_TRACE_AUDITOR_H_

#include <cstdint>
#include <vector>

#include "src/base/time.h"
#include "src/migration/stats.h"
#include "src/trace/trace.h"

namespace javmm {

// Which engine produced the trace; selects the applicable invariants.
enum class AuditMode {
  kPrecopy,      // MigrationEngine (vanilla Xen or JAVMM).
  kStopAndCopy,  // StopAndCopyEngine: one pause-time iteration.
  kPostcopy,     // PostcopyEngine: no iterations; bursts are faults/prepaging.
};

// Everything the auditor needs from outside the trace/result pair.
// `link_*` are the NetworkLink meters after the run (the engines reset them
// at migration start). `control_bytes_per_iteration` (> 0, pre-copy mode
// only) is the engine's configured per-iteration control round trip: the
// auditor then requires exactly one control-bytes event of exactly that size
// per successful live-iteration round, so the engine's metering and the
// audit share one constant by construction; 0 disables the check (baseline
// engines meter control traffic differently). `retry_backoff_base` /
// `retry_backoff_cap` (base > 0) let the auditor re-derive every backoff
// event's nominal wait via NominalBackoff; base 0 disables that check.
// `expected_demand_faults` / `expected_fault_stall_ns` (post-copy mode only)
// carry the PostcopyResult-side demand-fault counters, which the common
// MigrationResult does not: the auditor then checks the count of demand
// bursts (kBurst with detail == 1) and the sum of their stall time against
// them; negative disables the corresponding identity.
struct AuditInputs {
  int64_t link_wire_bytes = 0;
  int64_t link_pages_sent = 0;
  int64_t link_retry_bytes = 0;
  int64_t control_bytes_per_iteration = 0;
  Duration retry_backoff_base = Duration::Zero();
  Duration retry_backoff_cap = Duration::Zero();
  int64_t expected_demand_faults = -1;
  int64_t expected_fault_stall_ns = -1;
  // Hotness-scored deferral (src/mem/hotness.h, DESIGN.md §12): when false,
  // any hotness_defer event (or nonzero hotness counters in the result) is a
  // violation; when true, the event stream must reproduce the result's
  // deferred/avoided counters exactly and every parked page must be owed to
  // (and scanned by) the stop-and-copy final set.
  bool hotness_enabled = false;
  // Per-channel link meters (src/net/channel_set.h); non-empty only for a
  // multi-channel run, where all three have one entry per channel. The
  // auditor then requires every channel_transfer event to name a live
  // channel, the per-channel event sums to reproduce these meters, the
  // meters to sum to the aggregate `link_*` fields above, and the
  // MigrationResult per-channel mirrors to match. Empty = single channel:
  // any channel_transfer event is itself a violation. In multi-channel
  // post-copy mode the demand-stall identity relaxes from == to >= (the
  // applied stall is the max over per-channel debts, while the events carry
  // each fetch's own stall).
  std::vector<int64_t> channel_wire_bytes;
  std::vector<int64_t> channel_pages_sent;
  std::vector<int64_t> channel_retry_bytes;
};

class TraceAuditor {
 public:
  // Checks every applicable invariant; each failure appends one violation.
  static TraceAuditReport Audit(AuditMode mode, const TraceRecorder& trace,
                                const MigrationResult& result, const AuditInputs& inputs);

  // Shorthand for a fault-free, single-link audit: zero retry meter, no
  // backoff re-derivation. Every engine audits through the AuditInputs form
  // (WireSession::FillAuditInputs); only the trace tests call this one.
  static TraceAuditReport Audit(AuditMode mode, const TraceRecorder& trace,
                                const MigrationResult& result, int64_t link_wire_bytes,
                                int64_t link_pages_sent,
                                int64_t control_bytes_per_iteration = 0) {
    AuditInputs inputs;
    inputs.link_wire_bytes = link_wire_bytes;
    inputs.link_pages_sent = link_pages_sent;
    inputs.control_bytes_per_iteration = control_bytes_per_iteration;
    return Audit(mode, trace, result, inputs);
  }
};

}  // namespace javmm

#endif  // JAVMM_SRC_TRACE_AUDITOR_H_
