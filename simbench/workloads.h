// Copyright (c) 2026 The JAVMM Reproduction Authors.
// The benchmark's named workloads: fixed scenario lists whose every scenario
// seed is derived from one workload seed.

#ifndef SIMBENCH_WORKLOADS_H_
#define SIMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runner/scenario.h"

namespace simbench {

// The seed a plain run uses, and the seed held out for confirming a claim
// made on numbers measured with other seeds (README.md, "Seeds").
inline constexpr uint64_t kDefaultSeed = 1;
inline constexpr uint64_t kHeldOutSeed = 9001;

// Workload names in presentation order.
std::vector<std::string> WorkloadNames();

// Fills *out with the scenarios of workload `name`, seeded from `seed`.
// Returns false for an unknown name.
bool BuildWorkload(const std::string& name, uint64_t seed, std::vector<javmm::Scenario>* out);

// Seed of scenario `index` of a workload run with `seed` (SplitMix64 mix, so
// neighbouring seeds give unrelated scenario streams).
uint64_t ScenarioSeed(uint64_t seed, uint64_t index);

// The pre-copy engines, the only runs the sim_* metrics sum over.
bool IsPrecopy(javmm::EngineKind kind);

}  // namespace simbench

#endif  // SIMBENCH_WORKLOADS_H_
