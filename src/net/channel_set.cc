// Copyright (c) 2026 The JAVMM Reproduction Authors.

#include "src/net/channel_set.h"

#include "src/base/macros.h"
#include "src/base/units.h"

namespace javmm {

ChannelSet::ChannelSet(const LinkConfig& base, int count) {
  CHECK_GT(count, 0);
  LinkConfig per_channel = base;
  // Dividing by 1.0 is exact, so a one-channel set carries the base config
  // bit-for-bit.
  per_channel.bandwidth_bps = base.bandwidth_bps / static_cast<double>(count);
  links_.reserve(static_cast<size_t>(count));
  for (int c = 0; c < count; ++c) {
    links_.emplace_back(per_channel);
  }
  schedules_.resize(static_cast<size_t>(count));
}

void ChannelSet::Anchor(const FaultPlan& shared, const std::vector<FaultPlan>& per_channel,
                        TimePoint origin) {
  if (!per_channel.empty()) {
    CHECK_EQ(static_cast<int>(per_channel.size()), count());
  }
  for (int c = 0; c < count(); ++c) {
    const FaultPlan& plan =
        per_channel.empty() ? shared : per_channel[static_cast<size_t>(c)];
    if (plan.enabled()) {
      schedules_[static_cast<size_t>(c)].emplace(plan, origin);
    } else {
      schedules_[static_cast<size_t>(c)].reset();
    }
  }
}

void ChannelSet::ClearSchedules() {
  for (auto& schedule : schedules_) {
    schedule.reset();
  }
}

const FaultSchedule* ChannelSet::faults(int c) const {
  const auto& schedule = schedules_[static_cast<size_t>(c)];
  return schedule ? &*schedule : nullptr;
}

std::vector<ChannelShare> ChannelSet::Shard(int64_t pages, int64_t wire_bytes) const {
  CHECK_GE(pages, 0);
  CHECK_GE(wire_bytes, 0);
  const int64_t n = count();
  std::vector<ChannelShare> shares(static_cast<size_t>(n));
  for (int64_t c = 0; c < n; ++c) {
    ChannelShare& share = shares[static_cast<size_t>(c)];
    share.channel = static_cast<int>(c);
    if (pages > 0) {
      const int64_t page_lo = MulDiv(pages, c, n);
      const int64_t page_hi = MulDiv(pages, c + 1, n);
      share.pages = page_hi - page_lo;
      // wire_bytes * page_hi overflows int64 once memories reach ~2^32 pages
      // (javmm-lint overflow-mul); MulDiv runs the product through 128 bits
      // and truncates exactly like the old int64 division for in-range values.
      share.wire_bytes =
          MulDiv(wire_bytes, page_hi, pages) - MulDiv(wire_bytes, page_lo, pages);
    } else {
      share.pages = 0;
      share.wire_bytes = MulDiv(wire_bytes, c + 1, n) - MulDiv(wire_bytes, c, n);
    }
  }
  return shares;
}

int64_t ChannelSet::total_wire_bytes() const {
  int64_t total = 0;
  for (const NetworkLink& link : links_) {
    total += link.total_wire_bytes();
  }
  return total;
}

int64_t ChannelSet::total_pages_sent() const {
  int64_t total = 0;
  for (const NetworkLink& link : links_) {
    total += link.total_pages_sent();
  }
  return total;
}

int64_t ChannelSet::total_retry_bytes() const {
  int64_t total = 0;
  for (const NetworkLink& link : links_) {
    total += link.total_retry_bytes();
  }
  return total;
}

std::vector<int64_t> ChannelSet::WireBytesPerChannel() const {
  std::vector<int64_t> out;
  out.reserve(links_.size());
  for (const NetworkLink& link : links_) {
    out.push_back(link.total_wire_bytes());
  }
  return out;
}

std::vector<int64_t> ChannelSet::PagesSentPerChannel() const {
  std::vector<int64_t> out;
  out.reserve(links_.size());
  for (const NetworkLink& link : links_) {
    out.push_back(link.total_pages_sent());
  }
  return out;
}

std::vector<int64_t> ChannelSet::RetryBytesPerChannel() const {
  std::vector<int64_t> out;
  out.reserve(links_.size());
  for (const NetworkLink& link : links_) {
    out.push_back(link.total_retry_bytes());
  }
  return out;
}

void ChannelSet::ResetMeters() {
  for (NetworkLink& link : links_) {
    link.ResetMeters();
  }
}

}  // namespace javmm
