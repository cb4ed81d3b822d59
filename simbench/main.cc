// Copyright (c) 2026 The JAVMM Reproduction Authors.
// simbench: runs one named workload for a given time, checks every run, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
//
//   simbench --workload paper_sweep --seed 1 --seconds 40 --trace 0
//            [--spans-out FILE]     (traced runs: span JSON lines, at exit)
//
// A run repeats the workload's scenario list in passes until --seconds of
// wall time are used. The first pass warms up and is the reference: the
// simulated metrics come from it, and every later pass must reproduce its
// exports and counters exactly, or the run counts as failed. Host times come
// from the later passes: the driving thread's CPU time, scaled by a reference
// loop (see ReferenceLoop) and summarised as per-scenario medians over
// passes, so one slow pass moves no metric.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "phase_driver.h"
#include "workloads.h"

using javmm::MigrationResult;
using javmm::PerfCounters;
using javmm::Scenario;
using javmm::ScenarioRunner;
using simbench::DrivenRun;
using simbench::kPhaseCount;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = simbench::kDefaultSeed;
  int seconds = 40;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload NAME [--seed N] [--seconds N] "
               "[--trace 0|1] [--spans-out FILE]\nworkloads:",
               problem);
  for (const std::string& name : simbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(("missing value for " + flag).c_str());
    }
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &args.seed)) {
        Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number < 1 || number > 3600) {
        Usage("--seconds takes a whole number from 1 to 3600");
      }
      args.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) {
    Usage("--workload is required");
  }
  return args;
}

template <typename T>
double Median(std::vector<T> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) + static_cast<double>(v[n / 2])) / 2;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

double GeometricMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (const double x : v) {
    log_sum += std::log(std::max(x, 1.0));
  }
  return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

// Everything a later pass must reproduce bit for bit.
bool SameOutputs(const DrivenRun& a, const DrivenRun& b) {
  return a.export_json == b.export_json &&
         a.record.output.result.perf == b.record.output.result.perf &&
         a.minor_gcs == b.minor_gcs && a.sim_advanced_ns == b.sim_advanced_ns &&
         (!a.traced || !b.traced || a.phase_perf == b.phase_perf);
}

// Empty when a traced run's phases tile its run span and its counter deltas
// sum to the run's counters; otherwise what failed.
std::string LedgerProblem(const DrivenRun& run) {
  if (!run.traced || !run.record.ran) {
    return "";
  }
  int64_t cpu = 0;
  PerfCounters perf;
  for (int p = 0; p < kPhaseCount; ++p) {
    cpu += run.phase_cpu_ns[p];
    perf.Add(run.phase_perf[p]);
  }
  if (cpu != run.run_cpu_ns) {
    return "phase spans do not cover the run span";
  }
  if (!(perf == run.record.output.result.perf)) {
    return "phase counter deltas do not sum to the run's counters";
  }
  return "";
}

// run_ms.tail is this percentile of the pooled per-run host times, and every
// run has at least kTailBeyond samples above it. A fixed percentile, because
// the scenario mix puts clusters of near-equal runs at the top: a percentile
// chosen from the sample count would hop between clusters as the number of
// passes changes.
constexpr int64_t kTailPercentile = 90;
constexpr int64_t kTailBeyond = 10;

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

int64_t PeakRssKib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

int64_t WallNs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              since)
      .count();
}

// Host times are scaled to a fixed speed of the host's shared memory system.
// On a shared host, other tenants' use of the last-level cache and memory
// bandwidth slows the simulator by up to half for minutes at a time, while the
// CPU clock stays steady; medians within one run cannot remove drift slower
// than the run. So before each timed experiment the run times this loop --
// dependent random read-modify-writes over 64 MiB, a working set that lives
// in the shared cache only while the neighbours let it -- and scales that
// experiment's host times by kReferenceLoopNs / (the loop's time). A scaled
// time reads as host time on a machine where the loop takes kReferenceLoopNs,
// about its time on a quiet 2.0 GHz Xeon VM. Raw CPU times are printed beside
// the scaled ones.
constexpr double kReferenceLoopNs = 4e6;

class ReferenceLoop {
 public:
  // Thread CPU time of one loop. Every loop visits the same words.
  int64_t TimeNs() {
    const int64_t start = simbench::ThreadCpuNs();
    uint64_t x = 88172645463325252ULL;
    uint64_t sum = 0;
    for (int64_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      uint64_t& word = words_[x & (kWords - 1)];
      word += x;
      sum += word;
    }
    sink_ = sum;
    return simbench::ThreadCpuNs() - start;
  }

 private:
  static constexpr size_t kWords = size_t{8} << 20;  // 64 MiB.
  static constexpr int64_t kSteps = 200000;
  std::vector<uint64_t> words_ = std::vector<uint64_t>(kWords, 1);
  volatile uint64_t sink_ = 0;
};

// Host time of one pass through the scenario list, per scenario. run_ns,
// setup_ns and phase_ns are scaled (see ReferenceLoop).
struct PassSamples {
  bool traced = false;
  int64_t wall_ns = 0;
  std::vector<int64_t> run_ns;
  std::vector<int64_t> setup_ns;
  std::vector<std::array<int64_t, kPhaseCount>> phase_ns;
  std::vector<int64_t> raw_run_ns;
  std::vector<int64_t> reference_ns;
};

// Each scenario's median over `passes` of `field`.
template <typename F>
std::vector<double> ScenarioMedians(const std::vector<PassSamples>& passes, size_t scenarios,
                                    F field) {
  std::vector<double> medians;
  for (size_t i = 0; i < scenarios; ++i) {
    std::vector<int64_t> v;
    for (const PassSamples& pass : passes) {
      v.push_back(field(pass, i));
    }
    medians.push_back(Median(std::move(v)));
  }
  return medians;
}

template <typename F>
double SumOfMedians(const std::vector<PassSamples>& passes, size_t scenarios, F field) {
  double sum = 0;
  for (const double m : ScenarioMedians(passes, scenarios, field)) {
    sum += m;
  }
  return sum;
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::vector<Scenario> scenarios;
  if (!simbench::BuildWorkload(args.workload, args.seed, &scenarios)) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  const size_t n = scenarios.size();
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto fail = [&failed](const Scenario& s, const std::string& why) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s (seed %llu): %s\n", s.label.c_str(),
                 static_cast<unsigned long long>(s.options.seed), why.c_str());
  };

  // The phase driver must match the library's own runner. One scenario per
  // run, rotated by seed, is compared byte for byte; the tests compare all.
  {
    const Scenario& s = scenarios[args.seed % n];
    const javmm::RunRecord expected = ScenarioRunner::RunOne(s);
    javmm::RunReport report;
    report.runs.push_back(expected);
    std::ostringstream os;
    report.ExportJsonLines(os);
    const DrivenRun got = simbench::DriveScenario(s, nullptr);
    ++attempted;
    if (got.export_json != os.str() ||
        !(got.record.output.result.perf == expected.output.result.perf)) {
      fail(s, "phase driver output differs from ScenarioRunner::RunOne");
    }
  }

  simbench::SpanRecorder spans;
  std::vector<DrivenRun> reference;  // First pass, the determinism reference.
  std::vector<PassSamples> passes;
  // Allocated after pass 0, so that peak RSS is the simulator's alone.
  std::unique_ptr<ReferenceLoop> loop;
  int64_t peak_rss_kib = 0;
  // Pass 0 is the warm-up and determinism reference; its host times are not
  // used. After it come enough timed passes for kTailBeyond runs above the
  // tail percentile, or, when traced, two traced and two untraced passes.
  const int64_t n_runs = static_cast<int64_t>(n);
  const int64_t min_passes =
      1 + (args.trace ? 4
                      : std::max<int64_t>(2, (kTailBeyond * 100 / (100 - kTailPercentile) +
                                              n_runs - 1) /
                                                 n_runs));
  const auto wall_start = std::chrono::steady_clock::now();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds) * 1000000000;
  // Start another pass only if one more pass of average length still ends
  // inside the budget.
  while (static_cast<int64_t>(passes.size()) < min_passes ||
         WallNs(wall_start) / static_cast<int64_t>(passes.size()) *
                 static_cast<int64_t>(passes.size() + 1) <=
             budget_ns) {
    if (!passes.empty() && loop == nullptr) {
      peak_rss_kib = PeakRssKib();
      loop = std::make_unique<ReferenceLoop>();
    }
    PassSamples pass;
    // Traced mode alternates traced and untraced passes, starting traced;
    // the difference is the tracing overhead.
    pass.traced = args.trace && passes.size() % 2 == 0;
    const auto pass_start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      const int64_t reference_ns = loop != nullptr ? loop->TimeNs() : 0;
      DrivenRun run = simbench::DriveScenario(scenarios[i], pass.traced ? &spans : nullptr);
      ++attempted;
      const javmm::RunRecord& rec = run.record;
      const std::string ledger = LedgerProblem(run);
      if (!rec.ran) {
        fail(scenarios[i], "run threw: " + rec.error);
      } else if (rec.verification_failed()) {
        fail(scenarios[i], "verification: " + rec.output.result.verification.detail);
      } else if (rec.audit_failed()) {
        fail(scenarios[i], "trace audit: " + rec.output.result.trace_audit.ToString());
      } else if (!ledger.empty()) {
        fail(scenarios[i], ledger);
      } else if (!passes.empty() && !SameOutputs(reference[i], run)) {
        fail(scenarios[i], "pass " + std::to_string(passes.size()) + " differs from pass 0");
      }
      const double scale =
          reference_ns > 0 ? kReferenceLoopNs / static_cast<double>(reference_ns) : 1;
      const auto scaled = [scale](int64_t ns) {
        return static_cast<int64_t>(std::llround(static_cast<double>(ns) * scale));
      };
      pass.run_ns.push_back(scaled(run.run_cpu_ns));
      pass.setup_ns.push_back(scaled(run.setup_cpu_ns));
      pass.phase_ns.emplace_back();
      for (int p = 0; p < kPhaseCount; ++p) {
        pass.phase_ns.back()[p] = scaled(run.phase_cpu_ns[p]);
      }
      pass.raw_run_ns.push_back(run.run_cpu_ns);
      pass.reference_ns.push_back(reference_ns);
      if (passes.empty()) {
        reference.push_back(std::move(run));
      }
    }
    pass.wall_ns = WallNs(pass_start);
    int64_t scaled_ns = 0;
    int64_t raw_ns = 0;
    for (size_t i = 0; i < n; ++i) {
      scaled_ns += pass.run_ns[i];
      raw_ns += pass.raw_run_ns[i];
    }
    std::fprintf(stderr,
                 "pass %zu%s: scaled %.3f s, raw cpu %.3f s, wall %.3f s, reference loop %.3f ms\n",
                 passes.size(), pass.traced ? " (traced)" : "",
                 static_cast<double>(scaled_ns) / 1e9, static_cast<double>(raw_ns) / 1e9,
                 static_cast<double>(pass.wall_ns) / 1e9, Median(pass.reference_ns) / 1e6);
    passes.push_back(std::move(pass));
  }

  std::vector<PassSamples> timed;   // Untraced passes: end-to-end host time.
  std::vector<PassSamples> traced;  // Traced passes: per-layer host time.
  for (size_t p = 1; p < passes.size(); ++p) {
    (passes[p].traced ? traced : timed).push_back(passes[p]);
  }

  // ---- Simulated totals (first pass; identical in every pass). ----
  double sim_advanced_s = 0;
  double warm_cool_sim_s = 0;
  double precopy_total_s = 0;
  double precopy_downtime_s = 0;
  double precopy_wire_bytes = 0;
  int64_t pages_scanned = 0;
  int64_t pages_sent = 0;
  int64_t guest_frames = 0;
  int64_t iterations = 0;
  int64_t minor_gcs = 0;
  int64_t skipped_bitmap = 0;
  int64_t lkm_bitmap_bytes = 0;
  int64_t lkm_pfn_cache_bytes = 0;
  int64_t burst_faults = 0;
  int64_t control_losses = 0;
  int64_t wire_bytes = 0;
  int64_t retry_wire_bytes = 0;
  double backoff_s = 0;
  int64_t total_export_bytes = 0;
  PerfCounters perf;
  std::array<PerfCounters, kPhaseCount> phase_perf{};
  for (size_t i = 0; i < n; ++i) {
    const DrivenRun& run = reference[i];
    const MigrationResult& r = run.record.output.result;
    sim_advanced_s += static_cast<double>(run.sim_advanced_ns) / 1e9;
    warm_cool_sim_s +=
        (scenarios[i].options.warmup + scenarios[i].options.cooldown).ToSecondsF();
    if (simbench::IsPrecopy(scenarios[i].engine)) {
      precopy_total_s += r.total_time.ToSecondsF();
      precopy_downtime_s += r.downtime.Total().ToSecondsF();
      precopy_wire_bytes += static_cast<double>(r.total_wire_bytes);
    }
    for (const javmm::IterationRecord& it : r.iterations) {
      pages_scanned += it.pages_scanned;
    }
    pages_sent += r.pages_sent;
    guest_frames += r.vm_bytes / javmm::kPageSize;
    iterations += r.iteration_count();
    minor_gcs += run.minor_gcs;
    skipped_bitmap += r.pages_skipped_bitmap;
    lkm_bitmap_bytes += r.lkm_bitmap_bytes;
    lkm_pfn_cache_bytes += r.lkm_pfn_cache_bytes;
    burst_faults += r.burst_faults;
    control_losses += r.control_losses;
    wire_bytes += r.total_wire_bytes;
    retry_wire_bytes += r.retry_wire_bytes;
    backoff_s += r.backoff_time.ToSecondsF();
    total_export_bytes += static_cast<int64_t>(run.export_json.size());
    perf.Add(r.perf);
    for (int p = 0; p < kPhaseCount; ++p) {
      phase_perf[p].Add(run.phase_perf[p]);
    }
  }

  const auto run_ns = [](const PassSamples& p, size_t i) { return p.run_ns[i]; };
  const auto raw_run_ns = [](const PassSamples& p, size_t i) { return p.raw_run_ns[i]; };
  const auto setup_ns = [](const PassSamples& p, size_t i) { return p.setup_ns[i]; };
  // Per-scenario ledger on standard error: what each run simulated and what
  // it cost.
  const std::vector<double> host_ns = ScenarioMedians(args.trace ? traced : timed, n, run_ns);
  for (size_t i = 0; i < n; ++i) {
    std::fprintf(stderr, "  %-34s sim %10.1f s  migration %9.3f s  host %9.3f ms (median)\n",
                 scenarios[i].label.c_str(),
                 static_cast<double>(reference[i].sim_advanced_ns) / 1e9,
                 reference[i].record.output.result.total_time.ToSecondsF(), host_ns[i] / 1e6);
  }
  std::vector<Metric> metrics;
  std::printf("simbench: workload=%s seed=%llu scenarios=%zu passes=%zu (%zu traced) "
              "attempted=%lld\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), n,
              passes.size(), traced.size(), static_cast<long long>(attempted));

  if (!args.trace) {
    const double pass_ns = SumOfMedians(timed, n, run_ns);
    std::vector<int64_t> pooled;
    std::vector<int64_t> pass_wall;
    std::vector<int64_t> loop_ns;
    for (const PassSamples& pass : timed) {
      pooled.insert(pooled.end(), pass.run_ns.begin(), pass.run_ns.end());
      loop_ns.insert(loop_ns.end(), pass.reference_ns.begin(), pass.reference_ns.end());
      pass_wall.push_back(pass.wall_ns);
    }
    std::sort(pooled.begin(), pooled.end());
    // Nearest-rank tail percentile.
    const size_t samples = pooled.size();
    const size_t rank =
        std::max<size_t>(1, (static_cast<size_t>(kTailPercentile) * samples + 99) / 100);
    const double tail_ms = static_cast<double>(pooled[rank - 1]) / 1e6;

    metrics = {
        {"sim_s_per_host_s", "sim_s/host_s", Ratio(sim_advanced_s, pass_ns / 1e9)},
        {"run_ms.geomean", "ms", GeometricMean(ScenarioMedians(timed, n, run_ns)) / 1e6},
        {"run_ms.tail", "ms", tail_ms},
        {"setup_s", "s", SumOfMedians(timed, n, setup_ns) / 1e9},
        {"peak_rss_mib", "MiB", static_cast<double>(peak_rss_kib) / 1024},
        {"sim_migration_s", "sim_s", precopy_total_s},
        {"sim_downtime_s", "sim_s", precopy_downtime_s},
        {"sim_wire_gib", "GiB", precopy_wire_bytes / static_cast<double>(javmm::kGiB)},
    };
    for (const Metric& m : metrics) {
      std::printf("  %-22s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("  %-22s %16.6f ratio (%lld of %lld runs)\n", "failed_frac",
                Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                static_cast<long long>(failed), static_cast<long long>(attempted));
    std::printf("  run_ms.tail is p%lld over %zu runs (%zu above it); pooled p50 %.3f ms\n",
                static_cast<long long>(kTailPercentile), samples, samples - rank,
                Median(pooled) / 1e6);
    std::printf("  host time per pass (sums of per-scenario medians): scaled %.3f s, raw cpu "
                "%.3f s; median pass wall %.3f s; reference loop %.3f ms (scaled to %.3f)\n",
                pass_ns / 1e9, SumOfMedians(timed, n, raw_run_ns) / 1e9,
                Median(pass_wall) / 1e9, Median(loop_ns) / 1e6, kReferenceLoopNs / 1e6);
  } else {
    // Per-phase host time per pass, as sums of per-scenario medians.
    std::array<double, kPhaseCount> phase_s{};
    double phases_total_s = 0;
    for (int p = 0; p < kPhaseCount; ++p) {
      phase_s[p] = SumOfMedians(traced, n, [p](const PassSamples& s, size_t i) {
                     return s.phase_ns[i][p];
                   }) / 1e9;
      phases_total_s += phase_s[p];
    }
    const auto share = [&](int p) { return Ratio(phase_s[p], phases_total_s); };
    const double traced_s = SumOfMedians(traced, n, run_ns) / 1e9;
    const double untraced_s = SumOfMedians(timed, n, run_ns) / 1e9;
    std::vector<int64_t> loop_ns;
    for (const PassSamples& pass : traced) {
      loop_ns.insert(loop_ns.end(), pass.reference_ns.begin(), pass.reference_ns.end());
    }
    const auto mem = [&](const char* ph, const PerfCounters& c) {
      const std::string prefix = std::string("mem.") + ph + ".";
      metrics.push_back({prefix + "write_runs", "count", static_cast<double>(c.write_runs)});
      metrics.push_back({prefix + "pages_written", "count", static_cast<double>(c.pages_written)});
      metrics.push_back({prefix + "pte_lookups", "count", static_cast<double>(c.pte_lookups)});
      metrics.push_back({prefix + "pages_per_probe", "pages/probe",
                         Ratio(static_cast<double>(c.pages_written),
                               static_cast<double>(c.pte_lookups))});
    };

    metrics = {
        {"core.setup_share", "ratio", share(simbench::kSetup)},
        {"core.teardown_share", "ratio", share(simbench::kTeardown)},
        {"core.teardown_cpu_s", "s", phase_s[simbench::kTeardown]},
        {"workload.warmup_share", "ratio", share(simbench::kWarmup)},
        {"workload.cooldown_share", "ratio", share(simbench::kCooldown)},
        {"workload.warmup_cpu_s", "s", phase_s[simbench::kWarmup]},
        {"workload.cooldown_cpu_s", "s", phase_s[simbench::kCooldown]},
        {"workload.host_ns_per_sim_s", "ns/sim_s",
         Ratio((phase_s[simbench::kWarmup] + phase_s[simbench::kCooldown]) * 1e9,
               warm_cool_sim_s)},
        {"jvm.minor_gcs", "count", static_cast<double>(minor_gcs)},
    };
    mem("warmup", phase_perf[simbench::kWarmup]);
    mem("migrate", phase_perf[simbench::kMigrate]);
    mem("cooldown", phase_perf[simbench::kCooldown]);
    const std::vector<Metric> rest = {
        {"mem.dirtylog.harvests", "count", static_cast<double>(perf.harvests)},
        {"mem.dirtylog.pages_harvested", "count", static_cast<double>(perf.pages_harvested)},
        {"mem.dirtylog.word_scans", "count", static_cast<double>(perf.dirty_word_scans)},
        {"mem.dirtylog.page_peeks", "count", static_cast<double>(perf.page_peeks)},
        {"migration.migrate_share", "ratio", share(simbench::kMigrate)},
        {"migration.migrate_cpu_s", "s", phase_s[simbench::kMigrate]},
        {"migration.host_us_per_page_sent", "us/page",
         Ratio(phase_s[simbench::kMigrate] * 1e6, static_cast<double>(pages_sent))},
        {"migration.pages_scanned", "count", static_cast<double>(pages_scanned)},
        {"migration.pages_sent", "count", static_cast<double>(pages_sent)},
        {"migration.resend_ratio", "ratio",
         Ratio(static_cast<double>(pages_sent), static_cast<double>(guest_frames))},
        {"migration.iterations", "count", static_cast<double>(iterations)},
        {"migration.bursts_flushed", "count", static_cast<double>(perf.bursts_flushed)},
        {"migration.allocations", "count", static_cast<double>(perf.allocations)},
        {"migration.buffer_reuses", "count", static_cast<double>(perf.buffer_reuses)},
        {"guest.lkm.pages_skipped_bitmap", "count", static_cast<double>(skipped_bitmap)},
        {"guest.lkm.bitmap_bytes", "bytes", static_cast<double>(lkm_bitmap_bytes)},
        {"guest.lkm.pfn_cache_bytes", "bytes", static_cast<double>(lkm_pfn_cache_bytes)},
        {"net.pages_sharded", "count", static_cast<double>(perf.pages_sharded)},
        {"net.burst_faults", "count", static_cast<double>(burst_faults)},
        {"net.control_losses", "count", static_cast<double>(control_losses)},
        {"net.retry_wire_bytes", "bytes", static_cast<double>(retry_wire_bytes)},
        {"net.backoff_sim_s", "sim_s", backoff_s},
        {"net.goodput_ratio", "ratio",
         Ratio(static_cast<double>(wire_bytes - retry_wire_bytes),
               static_cast<double>(wire_bytes))},
        {"trace.events", "count", static_cast<double>(perf.trace_events)},
        {"trace.events_per_run", "events/run",
         Ratio(static_cast<double>(perf.trace_events), static_cast<double>(n))},
        {"runner.export_share", "ratio", share(simbench::kExport)},
        {"runner.export_cpu_s", "s", phase_s[simbench::kExport]},
        {"runner.export_bytes", "bytes", static_cast<double>(total_export_bytes)},
        {"bench.trace_overhead", "ratio", Ratio(traced_s - untraced_s, untraced_s)},
        {"bench.reference_loop_ms", "ms", Median(loop_ns) / 1e6},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    for (const Metric& m : metrics) {
      std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    double shares = 0;
    std::printf("  phase shares of traced host time (%.3f s per pass):", phases_total_s);
    for (int p = 0; p < kPhaseCount; ++p) {
      shares += share(p);
      std::printf(" %s %.1f%%", simbench::PhaseName(p), 100 * share(p));
    }
    std::printf("\n  shares sum to %.3f%%; traced %.3f s vs untraced %.3f s per pass\n",
                100 * shares, traced_s, untraced_s);
    if (!args.spans_out.empty() && !spans.WriteJsonLines(args.spans_out)) {
      std::fprintf(stderr, "simbench: could not write spans to %s\n", args.spans_out.c_str());
    }
  }
  std::fflush(stdout);
  PrintJson(failed == 0, attempted, failed, metrics);
  return 0;
}
