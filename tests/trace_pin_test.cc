// Copyright (c) 2026 The JAVMM Reproduction Authors.
// Trace-content pins. The JSON-lines exports pin what a run *reports*; this
// suite pins what the engines *record*: every event's kind, instant,
// iteration, detail and payload, in order. A reordered or re-stamped event
// (a backoff stamped at the wrong instant, a channel event moved ahead of
// its burst) changes no aggregate the auditor or the exports check, so only
// a digest of the full trace catches it.
//
// Battery: the shared 24-scenario golden battery (tests/golden_seed_export.h,
// single link), all four engines striped over 4 channels under the
// `combined` regime with an extra outage pinned to channel 1, and seven
// small-VM recovery runs. Each run replays RunScenario's setup up to the
// migration, drives the engine directly so its trace survives, and compares
// FNV-1a digests of TraceRecorder::ExportJsonLines and of the raw events,
// plus the event count, with constants captured from the tree before the
// engines shared one wire path (src/migration/wire.h).

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/migration_lab.h"
#include "src/migration/baselines.h"
#include "src/migration/engine.h"
#include "tests/golden_seed_export.h"

namespace javmm {
namespace {

struct TracePin {
  uint64_t json_digest;
  uint64_t event_digest;
  int64_t events;
};

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

uint64_t Fnv1a(uint64_t hash, const char* bytes, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<uint8_t>(bytes[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// What one run recorded: the JSON-lines export, plus a digest over every
// raw event field -- the export leaves some out (a burst's detail, which
// marks demand fetches; a control round trip's iteration).
struct TraceDigest {
  std::string json;
  uint64_t events_hash = kFnvOffset;
  int64_t events = 0;
};

TraceDigest DigestOf(const TraceRecorder& trace) {
  TraceDigest digest;
  std::ostringstream os;
  trace.ExportJsonLines(os);
  digest.json = os.str();
  for (const TraceEvent& e : trace.events()) {
    const int64_t fields[] = {static_cast<int64_t>(e.kind), e.at.nanos(), e.iteration, e.detail,
                              e.pages, e.wire_bytes, e.scanned, e.cpu.nanos()};
    digest.events_hash = Fnv1a(digest.events_hash, reinterpret_cast<const char*>(fields),
                               sizeof(fields));
    ++digest.events;
  }
  return digest;
}

// Small-VM recovery runs: fault plans that drive the rarely-hit wire paths
// the battery misses -- a pre-copy burst-retry degrade, post-copy's
// device-state retry, its pre-paging degrade and the one-page trickle after
// it, express fetches cut by outages and the stream fallback after a dead
// express channel.
struct RecoveryRun {
  const char* label;
  EngineKind engine;
  int channels;
  const char* fault_spec;
};

constexpr char kOutageChain[] =
    "bw:300ms-60s@0.01;out:400ms-2900ms;out:3s-5500ms;out:5600ms-8100ms;out:8200ms-10700ms;"
    "out:10800ms-13300ms;out:13400ms-15900ms;out:16s-18500ms;out:18600ms-21100ms;out:30s-31s";

const RecoveryRun kRecoveryRuns[] = {
    {"chain/post-copy", EngineKind::kPostcopy, 1, kOutageChain},
    {"chain/Xen", EngineKind::kXenPrecopy, 2, kOutageChain},
    {"devstate/post-copy", EngineKind::kPostcopy, 4, "out:0s-1s;ch1:out:2s-3s;loss:0.2"},
    {"short-outage/Xen", EngineKind::kXenPrecopy, 1, "bw:0s-50ms@0.5;out:5ms-20ms;loss:0.25"},
    {"ctl-dead/JAVMM", EngineKind::kJavmm, 2, "loss:1.0"},
    {"ctl-dead/post-copy", EngineKind::kPostcopy, 2, "loss:1.0;out:1s-1500ms"},
    {"chainloss/post-copy", EngineKind::kPostcopy, 2,
     "bw:300ms-60s@0.01;out:400ms-2900ms;out:3s-5500ms;out:5600ms-8100ms;out:8200ms-10700ms;"
     "out:10800ms-13300ms;out:13400ms-15900ms;out:20s-21s;ch0:loss:0.05"},
};

// The pinned scenarios, in kPins order: the 24-run golden battery, the four
// engines striped over 4 channels, then the recovery runs. The striped
// runs' channel-1 outage sits after `combined`'s shared 1 s-2.5 s outage:
// ParseMulti rejects overlapping windows on one channel.
std::vector<Scenario> PinnedScenarios() {
  std::vector<Scenario> scenarios = golden::SeedBatteryScenarios();
  const EngineKind kEngines[] = {EngineKind::kXenPrecopy, EngineKind::kJavmm,
                                 EngineKind::kStopAndCopy, EngineKind::kPostcopy};
  for (const EngineKind kind : kEngines) {
    Scenario scenario;
    scenario.label = std::string("striped4/") + EngineKindName(kind);
    scenario.spec = Workloads::Get("crypto");
    scenario.engine = kind;
    scenario.options.warmup = Duration::Seconds(10);
    scenario.options.channels = 4;
    scenario.options.fault_spec = "bw:0s-60s@0.5;loss:0.4;out:1s-2500ms;ch1:out:3s-4s";
    scenarios.push_back(std::move(scenario));
  }
  for (const RecoveryRun& run : kRecoveryRuns) {
    Scenario scenario;
    scenario.label = run.label;
    scenario.spec = Workloads::Get("derby");
    scenario.spec.alloc_rate_bytes_per_sec = 100 * kMiB;
    scenario.spec.old_baseline_bytes = 32 * kMiB;
    scenario.spec.heap.young_max_bytes = 256 * kMiB;
    scenario.spec.heap.old_max_bytes = 128 * kMiB;
    scenario.engine = run.engine;
    scenario.options.lab.vm_bytes = 512 * kMiB;
    scenario.options.lab.os.resident_bytes = 64 * kMiB;
    scenario.options.lab.os.hot_bytes = 8 * kMiB;
    scenario.options.warmup = Duration::Seconds(10);
    scenario.options.channels = run.channels;
    scenario.options.fault_spec = run.fault_spec;
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

// RunScenario's lab setup (seed, assist flag, channels, fault plan), then
// the engine RunScenario would run, constructed here so its trace is
// reachable.
TraceDigest TraceOf(const Scenario& scenario) {
  LabConfig config = scenario.options.lab;
  config.seed = scenario.options.seed;
  config.migration.application_assisted = scenario.engine == EngineKind::kJavmm;
  config.migration.channels = scenario.options.channels;
  if (!scenario.options.fault_spec.empty()) {
    std::string error;
    if (!FaultPlan::ParseMulti(scenario.options.fault_spec, scenario.options.channels,
                               &config.migration.faults, &config.migration.channel_faults,
                               &error)) {
      throw std::runtime_error(error);
    }
  }
  MigrationLab lab(scenario.spec, config);
  lab.Run(scenario.options.warmup);
  TraceDigest digest;
  TraceAuditReport audit;
  switch (scenario.engine) {
    case EngineKind::kXenPrecopy:
    case EngineKind::kJavmm: {
      MigrationEngine engine(&lab.guest(), lab.config().migration);
      audit = engine.Migrate().trace_audit;
      digest = DigestOf(engine.trace());
      break;
    }
    case EngineKind::kStopAndCopy: {
      StopAndCopyEngine engine(&lab.guest(), lab.config().migration);
      audit = engine.Migrate().trace_audit;
      digest = DigestOf(engine.trace());
      break;
    }
    case EngineKind::kPostcopy: {
      PostcopyEngine::Config pc;
      pc.base = lab.config().migration;
      PostcopyEngine engine(&lab.guest(), pc);
      audit = engine.Migrate().common.trace_audit;
      digest = DigestOf(engine.trace());
      break;
    }
  }
  EXPECT_TRUE(audit.ran && audit.ok) << scenario.label << ": " << audit.ToString();
  return digest;
}

// {JSON-lines digest, raw-event digest, event count}, captured from the tree
// before the engines shared one wire path, in PinnedScenarios() order.
const TracePin kPins[] = {
    {0xd662a2b5236d7711ULL, 0x9676417f748d5ec4ULL, 6491},    // healthy/Xen
    {0xedb386542558662fULL, 0xef68d82f75af8ff5ULL, 1672},    // healthy/JAVMM
    {0x898a41ea91180de3ULL, 0xb10877643531f337ULL, 2054},    // healthy/stop-and-copy
    {0x14fcc5d4e022a66eULL, 0xd19bb6373d4551f2ULL, 92763},   // healthy/post-copy
    {0x3d5c0bea2c4f0225ULL, 0x63a15a3724113f9fULL, 6456},    // bw-collapse/Xen
    {0xb3ecfba80cee3c0eULL, 0x0ebcbb4288cfd6c3ULL, 1687},    // bw-collapse/JAVMM
    {0xd1081776f1995457ULL, 0x354beea64e0dd4c8ULL, 2054},    // bw-collapse/stop-and-copy
    {0x004985ed0575070dULL, 0x30802a6bdfe4c421ULL, 109229},  // bw-collapse/post-copy
    {0xb7c9d2d7c3cf6255ULL, 0x461978d6511225aeULL, 6743},    // lossy-ctl/Xen
    {0xf03f1f89cf103d8fULL, 0x5356e391e352ac58ULL, 1686},    // lossy-ctl/JAVMM
    {0x898a41ea91180de3ULL, 0xb10877643531f337ULL, 2054},    // lossy-ctl/stop-and-copy
    {0x8bd326a55d751a01ULL, 0x41deeb38bc655ecaULL, 209833},  // lossy-ctl/post-copy
    {0xe09a1f993d750351ULL, 0xbc67fac4ffbc793aULL, 6408},    // outage/Xen
    {0xa350d78ab15b4862ULL, 0xbd2fcd14eac2d0caULL, 1676},    // outage/JAVMM
    {0x937cf12150c4bea0ULL, 0xd024b4a5b4ca6405ULL, 2056},    // outage/stop-and-copy
    {0x88c26af53414d5b8ULL, 0x9782f62142c4583cULL, 92765},   // outage/post-copy
    {0x4b7892b20e9d67f0ULL, 0xe3b9f88705c4f555ULL, 6474},    // lat-spike/Xen
    {0xb1f9f167efe3d4d9ULL, 0x78cd1d3ecf3cd481ULL, 1680},    // lat-spike/JAVMM
    {0x898a41ea91180de3ULL, 0xb10877643531f337ULL, 2054},    // lat-spike/stop-and-copy
    {0x0f76a35d40f8ea9dULL, 0x16eaf0dc32290b74ULL, 136398},  // lat-spike/post-copy
    {0x52efa77c080a3427ULL, 0x7f24bc0899723808ULL, 6616},    // combined/Xen
    {0xe514ca8338e28a7eULL, 0x1089ba663ede8387ULL, 1702},    // combined/JAVMM
    {0x6ac1c4a0a2d341afULL, 0x5d22cced002888d7ULL, 2056},    // combined/stop-and-copy
    {0x49ae8b01c3952764ULL, 0x60b0fa921ba98a67ULL, 210366},  // combined/post-copy
    {0x19c42f7641c599bdULL, 0x6c401c440ca484c1ULL, 33104},   // striped4/Xen
    {0xb7de16944942734dULL, 0x3f333e3e0eb83958ULL, 8374},    // striped4/JAVMM
    {0x00d05fe89b10d38eULL, 0x802867bc862f5ba5ULL, 10256},   // striped4/stop-and-copy
    {0x5cc2876eb926b0b4ULL, 0xa62fd424dec2f7faULL, 307866},  // striped4/post-copy
    {0xfecca94b3de7a250ULL, 0xe8723ab774fd7cadULL, 130852},  // chain/post-copy
    {0x2250128804a5d55aULL, 0x69a4366e4a6e7040ULL, 1599},    // chain/Xen
    {0x69b723aff17fb2adULL, 0x45c92e377471a48fULL, 66746},   // devstate/post-copy
    {0x86d87027afeeb4baULL, 0x629ab2880498066eULL, 1694},    // short-outage/Xen
    {0x8fe9d1ed6bc7ac00ULL, 0xaf426d0e0bbb1c04ULL, 802},     // ctl-dead/JAVMM
    {0x7953136439a3611aULL, 0xad445a7b66d2d438ULL, 248537},  // ctl-dead/post-copy
    {0xc8f48852396e1d76ULL, 0x494d93336abe1853ULL, 145861},  // chainloss/post-copy
};

class TracePinTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TracePinTest, TraceDigestMatchesPin) {
  const std::vector<Scenario> scenarios = PinnedScenarios();
  ASSERT_EQ(scenarios.size(), std::size(kPins));
  const Scenario& scenario = scenarios[GetParam()];
  const TraceDigest digest = TraceOf(scenario);
  const std::string& trace = digest.json;
  const uint64_t json_digest = Fnv1a(kFnvOffset, trace.data(), trace.size());
  const TracePin& pin = kPins[GetParam()];
  EXPECT_EQ(json_digest, pin.json_digest) << scenario.label;
  EXPECT_EQ(digest.events_hash, pin.event_digest) << scenario.label;
  EXPECT_EQ(digest.events, pin.events) << scenario.label;
}

std::string PinName(const ::testing::TestParamInfo<size_t>& info) {
  std::string name = PinnedScenarios()[info.param].label;
  for (char& c : name) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    c = alnum ? c : '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Battery, TracePinTest, ::testing::Range<size_t>(0, std::size(kPins)),
                         PinName);

}  // namespace
}  // namespace javmm
