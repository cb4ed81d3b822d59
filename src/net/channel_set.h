// Copyright (c) 2026 The JAVMM Reproduction Authors.
//
// Multi-channel migration data plane (DESIGN.md §11). A ChannelSet splits one
// migration link into N deterministic sub-links ("channels"), each carrying
// an equal share of the line rate, each with its own fault schedule and its
// own wire/page/retry meters. PMigrate-KVM does the same with ip_num parallel
// TCP connections; here the channels are simulated, so a fault pinned to one
// channel (a "ch1:" clause) degrades only the traffic sharded onto it.
//
// With count() == 1 every code path reduces exactly to the single-link
// arithmetic the engines used before: the bandwidth share is the full rate
// (divided by 1.0), the sharder produces one full-size share, and the striped
// retry loop (WireSession::Send, src/migration/wire.h) visits one channel
// with the same attempt/backoff sequence -- results stay bit-identical.

#ifndef JAVMM_SRC_NET_CHANNEL_SET_H_
#define JAVMM_SRC_NET_CHANNEL_SET_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/time.h"
#include "src/faults/faults.h"
#include "src/net/link.h"

namespace javmm {

// One channel's slice of a striped transfer.
struct ChannelShare {
  int channel = 0;
  int64_t pages = 0;
  int64_t wire_bytes = 0;
  // Instant this channel's slice finished (success only).
  TimePoint done;
};

class ChannelSet {
 public:
  // Splits `base` into `count` channels of bandwidth_bps / count each (same
  // efficiency, overhead, and latency).
  ChannelSet(const LinkConfig& base, int count);

  int count() const { return static_cast<int>(links_.size()); }
  NetworkLink& channel(int c) { return links_[static_cast<size_t>(c)]; }
  const NetworkLink& channel(int c) const { return links_[static_cast<size_t>(c)]; }

  // Anchors per-channel fault schedules at `origin`. Channel c follows
  // per_channel[c] when per_channel is non-empty (it must then have count()
  // entries), else the shared plan; a channel whose effective plan is not
  // enabled() gets no schedule at all, preserving the fault-free fast path.
  void Anchor(const FaultPlan& shared, const std::vector<FaultPlan>& per_channel,
              TimePoint origin);
  void ClearSchedules();

  // Channel c's schedule, or nullptr when faults do not apply to it.
  const FaultSchedule* faults(int c) const;

  // Deterministic sharder: splits a burst of `pages` pages / `wire_bytes`
  // wire bytes into count() contiguous slices with exact sums -- channel c
  // gets pages*(c+1)/N - pages*c/N pages and the byte range between the
  // page-proportional byte cuts. Page-less payloads (device state, control)
  // shard bytes evenly the same way. A share with zero pages has zero bytes
  // unless the whole burst is page-less.
  std::vector<ChannelShare> Shard(int64_t pages, int64_t wire_bytes) const;

  // Aggregate meters across all channels (the legacy single-link totals).
  int64_t total_wire_bytes() const;
  int64_t total_pages_sent() const;
  int64_t total_retry_bytes() const;
  std::vector<int64_t> WireBytesPerChannel() const;
  std::vector<int64_t> PagesSentPerChannel() const;
  std::vector<int64_t> RetryBytesPerChannel() const;
  void ResetMeters();

 private:
  std::vector<NetworkLink> links_;
  std::vector<std::optional<FaultSchedule>> schedules_;
};

}  // namespace javmm

#endif  // JAVMM_SRC_NET_CHANNEL_SET_H_
