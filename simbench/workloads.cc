// Copyright (c) 2026 The JAVMM Reproduction Authors.

#include "workloads.h"

#include <utility>

#include "src/base/units.h"

namespace simbench {

using javmm::Duration;
using javmm::EngineKind;
using javmm::EngineKindName;
using javmm::Scenario;
using javmm::Workloads;

namespace {

constexpr EngineKind kPrecopyEngines[] = {EngineKind::kXenPrecopy, EngineKind::kJavmm};

Scenario Make(std::string label, const char* workload, EngineKind engine, int64_t warmup_s,
              int64_t cooldown_s) {
  Scenario scenario;
  scenario.label = std::move(label);
  scenario.spec = Workloads::Get(workload);
  scenario.engine = engine;
  scenario.options.warmup = Duration::Seconds(warmup_s);
  scenario.options.cooldown = Duration::Seconds(cooldown_s);
  return scenario;
}

// The paper's battery (Figs 10-11): nine SPECjvm2008 proxies x {Xen, JAVMM}
// on the default 2 GiB guest and healthy 1 Gbps link. The guest workload and
// its store pipeline carry most of the host cost, including the slow
// cooldowns after a vanilla-Xen migration.
std::vector<Scenario> PaperSweep() {
  std::vector<Scenario> scenarios;
  for (const javmm::WorkloadSpec& spec : Workloads::All()) {
    for (const EngineKind engine : kPrecopyEngines) {
      scenarios.push_back(
          Make(spec.name + "/" + EngineKindName(engine), spec.name.c_str(), engine, 120, 40));
    }
  }
  return scenarios;
}

// Read-heavy mirror of the paper sweep: the three low-dirty proxies on a
// 16 GiB guest, so engine scans, dirty-log peeks and harvests over large
// bitmaps dominate while the guest is nearly idle.
std::vector<Scenario> BigVmScan() {
  std::vector<Scenario> scenarios;
  for (const char* workload : {"scimark", "mpeg", "compress"}) {
    for (const EngineKind engine : kPrecopyEngines) {
      Scenario scenario =
          Make(std::string(workload) + "/" + EngineKindName(engine), workload, engine, 60, 10);
      scenario.options.lab.vm_bytes = 16 * javmm::kGiB;
      scenarios.push_back(std::move(scenario));
    }
  }
  return scenarios;
}

// Every non-default path: the 6-regime x 4-engine fault matrix, striped
// channels with a per-channel outage, and hotness ordering. Faults, channels,
// trace, audit and the baseline engines do the work; the guest does little.
std::vector<Scenario> FeatureMatrix() {
  struct Regime {
    const char* name;
    const char* spec;
  };
  const Regime kRegimes[] = {
      {"healthy", ""},
      {"bw-collapse", "bw:0s-60s@0.3"},
      {"lossy-ctl", "loss:0.4"},
      {"outage", "out:1s-2s"},
      {"lat-spike", "lat:0s-30s+20ms;loss:0.2"},
      {"combined", "bw:0s-60s@0.5;loss:0.4;out:1s-2500ms"},
  };
  const EngineKind kEngines[] = {EngineKind::kXenPrecopy, EngineKind::kJavmm,
                                 EngineKind::kStopAndCopy, EngineKind::kPostcopy};
  std::vector<Scenario> scenarios;
  for (const Regime& regime : kRegimes) {
    for (const EngineKind engine : kEngines) {
      Scenario scenario = Make(std::string("faults/") + regime.name + "/" + EngineKindName(engine),
                               "crypto", engine, 10, 5);
      scenario.options.fault_spec = regime.spec;
      scenarios.push_back(std::move(scenario));
    }
  }
  for (const int channels : {2, 4}) {
    for (const EngineKind engine : {EngineKind::kJavmm, EngineKind::kPostcopy}) {
      for (const char* spec : {"", "ch1:out:2s-3s"}) {
        Scenario scenario =
            Make("striped/" + std::to_string(channels) + "ch/" + EngineKindName(engine) +
                     (spec[0] == '\0' ? "/healthy" : "/ch1-outage"),
                 "crypto", engine, 10, 5);
        scenario.options.channels = channels;
        scenario.options.fault_spec = spec;
        scenarios.push_back(std::move(scenario));
      }
    }
  }
  for (const char* workload : {"derby", "crypto", "scimark"}) {
    Scenario scenario = Make(std::string("hotness/") + workload, workload,
                             EngineKind::kXenPrecopy, 10, 5);
    scenario.options.hotness_spec = "rate:1,score:8,decay:1,budget:500ms";
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

}  // namespace

std::vector<std::string> WorkloadNames() { return {"paper_sweep", "bigvm_scan", "feature_matrix"}; }

bool BuildWorkload(const std::string& name, uint64_t seed, std::vector<Scenario>* out) {
  if (name == "paper_sweep") {
    *out = PaperSweep();
  } else if (name == "bigvm_scan") {
    *out = BigVmScan();
  } else if (name == "feature_matrix") {
    *out = FeatureMatrix();
  } else {
    return false;
  }
  for (size_t i = 0; i < out->size(); ++i) {
    (*out)[i].options.seed = ScenarioSeed(seed, i);
  }
  return true;
}

uint64_t ScenarioSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool IsPrecopy(EngineKind kind) {
  return kind == EngineKind::kXenPrecopy || kind == EngineKind::kJavmm;
}

}  // namespace simbench
