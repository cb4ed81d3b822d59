// Copyright (c) 2026 The JAVMM Reproduction Authors.
// `migrate_cli` -- the management-command analogue of the paper's "Xen
// management command to invoke application-assisted live migration" (§3.3):
// run any workload/engine/link combination from the command line and get the
// three headline metrics, the downtime breakdown, optional per-iteration CSV,
// and multi-seed summaries with 90% confidence intervals.
//
// Examples:
//   migrate_cli --workload=derby --engine=javmm
//   migrate_cli --workload=xml --engine=xen --young-mib=1536 --repeat=3
//   migrate_cli --workload=crypto --engine=auto --bandwidth-gbps=2.5 --csv
//   migrate_cli --workload=derby --engine=postcopy
//   migrate_cli --workload=crypto --engine=javmm --faults="bw:0s-60s@0.1;loss:0.05"
//   migrate_cli --list

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "src/core/migration_lab.h"
#include "src/core/policy.h"
#include "src/faults/faults.h"
#include "src/migration/baselines.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace {

using namespace javmm;  // NOLINT

struct CliOptions {
  std::string workload = "derby";
  std::string engine = "javmm";  // xen | javmm | auto | postcopy | stopcopy
  uint64_t seed = 1;
  int repeat = 1;
  double bandwidth_gbps = 1.0;
  int64_t vm_mib = 2048;
  int64_t young_mib = 0;  // 0 = workload default.
  double warmup_s = 120;
  bool compress = false;
  bool csv = false;
  bool list = false;
  int channels = 1;       // Migration data-plane sub-links (DESIGN.md §11).
  std::string trace_out;  // JSON-lines trace of the last run ("" = off).
  std::string faults;     // FaultPlan spec for the migration link ("" = healthy).
  std::string hotness;    // HotnessConfig spec, pre-copy only ("" = off).
  HotnessConfig hotness_config;  // Parsed + validated in main().
};

void PrintUsage() {
  std::printf(
      "usage: migrate_cli [options]\n"
      "  --workload=NAME       one of the SPECjvm2008 proxies (--list)\n"
      "  --engine=MODE         xen | javmm | auto | postcopy | stopcopy\n"
      "  --seed=N              PRNG seed (default 1)\n"
      "  --repeat=N            runs with seeds seed..seed+N-1, CI summary\n"
      "  --bandwidth-gbps=G    migration link speed (default 1.0)\n"
      "  --vm-mib=M            guest memory (default 2048)\n"
      "  --young-mib=M         override the young-generation cap (-Xmn)\n"
      "  --warmup-s=S          workload warmup before migrating (default 120)\n"
      "  --compress            enable the compression extension (all engines\n"
      "                        except postcopy, which ships pages raw)\n"
      "  --channels=N          stripe the migration data plane over N\n"
      "                        fault-isolated sub-links (default 1)\n"
      "  --faults=SPEC         deterministic link-fault plan, e.g.\n"
      "                        \"bw:2s-30s@0.1;lat:0s-5s+10ms;out:4s-5s;loss:0.05\";\n"
      "                        prefix a clause with chK: to pin it to sub-link K,\n"
      "                        e.g. \"ch1:out:7s-8s;loss:0.05\" (needs --channels>K)\n"
      "  --hotness=SPEC        hotness-scored coldest-first ordering with\n"
      "                        hot-page deferral (pre-copy engines only):\n"
      "                        \"on\" for defaults or e.g.\n"
      "                        \"rate:2,score:8,decay:1,budget:500ms\"\n"
      "  --csv                 print per-iteration records as CSV\n"
      "  --trace-out=FILE      write the last run's migration trace as JSON lines\n"
      "  --list                list workloads and exit\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

// Parses flag `name`'s whole `value` into `out`: an empty value, trailing
// characters ("2x"), a sign on an unsigned flag, a non-finite or an
// out-of-range number is an error (printed), never a silently truncated
// prefix.
template <typename T>
bool ParseNumber(const char* name, const std::string& value, T* out) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(static_cast<double>(parsed))) {
    std::fprintf(stderr, "bad %s value '%s': not a number\n", name, value.c_str());
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--workload", &value)) {
      options->workload = value;
    } else if (ParseFlag(argv[i], "--engine", &value)) {
      options->engine = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      if (!ParseNumber("--seed", value, &options->seed)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--repeat", &value)) {
      if (!ParseNumber("--repeat", value, &options->repeat)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--bandwidth-gbps", &value)) {
      if (!ParseNumber("--bandwidth-gbps", value, &options->bandwidth_gbps)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--vm-mib", &value)) {
      if (!ParseNumber("--vm-mib", value, &options->vm_mib)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--young-mib", &value)) {
      if (!ParseNumber("--young-mib", value, &options->young_mib)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--warmup-s", &value)) {
      if (!ParseNumber("--warmup-s", value, &options->warmup_s)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--trace-out", &value)) {
      options->trace_out = value;
    } else if (ParseFlag(argv[i], "--faults", &value)) {
      options->faults = value;
    } else if (ParseFlag(argv[i], "--channels", &value)) {
      if (!ParseNumber("--channels", value, &options->channels)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--hotness", &value)) {
      options->hotness = value;
    } else if (std::strcmp(argv[i], "--compress") == 0) {
      options->compress = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      options->csv = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      options->list = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", argv[i]);
      return false;
    }
  }
  return true;
}

// The workload as every run builds it: the named proxy, with --young-mib
// overriding its young-generation cap.
WorkloadSpec SpecFor(const CliOptions& options) {
  WorkloadSpec spec = Workloads::Get(options.workload);
  if (options.young_mib > 0) {
    spec = Workloads::WithYoungCap(spec, options.young_mib * kMiB);
  }
  return spec;
}

// Range checks for the numeric flags and the workload name, so no flag value
// reaches a CHECK in the link, the clock or the lab. The bounds also keep the
// derived byte and nanosecond values far from int64 overflow. Returns false
// after printing why.
bool ValidateOptions(const CliOptions& options) {
  constexpr int64_t kMaxMib = int64_t{1} << 20;  // 1 TiB.
  constexpr int kMaxChannels = 1024;
  if (options.channels <= 0) {
    std::fprintf(stderr, "--channels must be >= 1, got %d\n", options.channels);
    return false;
  }
  if (options.channels > kMaxChannels) {
    std::fprintf(stderr, "--channels must be <= %d, got %d\n", kMaxChannels, options.channels);
    return false;
  }
  if (!(options.bandwidth_gbps >= 0.001 && options.bandwidth_gbps <= 10000.0)) {
    std::fprintf(stderr, "--bandwidth-gbps must be in [0.001, 10000], got %g\n",
                 options.bandwidth_gbps);
    return false;
  }
  if (options.vm_mib < 1 || options.vm_mib > kMaxMib) {
    std::fprintf(stderr, "--vm-mib must be in [1, %lld], got %lld\n",
                 static_cast<long long>(kMaxMib), static_cast<long long>(options.vm_mib));
    return false;
  }
  if (options.young_mib < 0 || options.young_mib > kMaxMib) {
    std::fprintf(stderr, "--young-mib must be in [0, %lld] (0 = workload default), got %lld\n",
                 static_cast<long long>(kMaxMib), static_cast<long long>(options.young_mib));
    return false;
  }
  if (!(options.warmup_s >= 0.0 && options.warmup_s <= 1e6)) {
    std::fprintf(stderr, "--warmup-s must be in [0, 1000000], got %g\n", options.warmup_s);
    return false;
  }
  bool known = false;
  for (const WorkloadSpec& spec : Workloads::All()) {
    known = known || spec.name == options.workload;
  }
  if (!known) {
    std::fprintf(stderr, "unknown --workload '%s' (see --list)\n", options.workload.c_str());
    return false;
  }
  const WorkloadSpec spec = SpecFor(options);
  LabConfig config;
  config.vm_bytes = options.vm_mib * kMiB;
  if (!MigrationLab::HeapFitsVm(spec, config)) {
    std::fprintf(stderr,
                 "--vm-mib=%lld is too small for workload '%s': its %s young cap, the guest "
                 "OS and the memory guard leave no room for its %s old generation\n",
                 static_cast<long long>(options.vm_mib), options.workload.c_str(),
                 FormatBytes(spec.heap.young_max_bytes).c_str(),
                 FormatBytes(spec.old_baseline_bytes).c_str());
    return false;
  }
  return true;
}

// Applies --channels and parses --faults into config->migration.{faults,
// channel_faults}. Returns false (after printing the parse error) on a
// malformed spec -- including a chK: clause naming a channel >= --channels;
// an empty spec only sets the channel count.
bool ApplyFaults(const CliOptions& options, LabConfig* config) {
  config->migration.channels = options.channels;
  std::string error;
  if (!FaultPlan::ParseMulti(options.faults, options.channels, &config->migration.faults,
                             &config->migration.channel_faults, &error)) {
    std::fprintf(stderr, "bad --faults spec '%s': %s\n", options.faults.c_str(), error.c_str());
    return false;
  }
  return true;
}

// Per-channel traffic rows, shown only when the data plane was striped.
void AddChannelRows(Table* table, const MigrationResult& last) {
  if (last.channels <= 1) {
    return;
  }
  for (int c = 0; c < last.channels; ++c) {
    const size_t i = static_cast<size_t>(c);
    char label[32];
    std::snprintf(label, sizeof(label), "channel %d", c);
    char cell[96];
    std::snprintf(cell, sizeof(cell), "%s wire, %lld pages, %s retry",
                  FormatBytes(last.channel_wire_bytes[i]).c_str(),
                  static_cast<long long>(last.channel_pages_sent[i]),
                  FormatBytes(last.channel_retry_bytes[i]).c_str());
    table->Row().Cell(label).Cell(cell);
  }
}

// Writes `trace` to options.trace_out as JSON lines; returns false on I/O
// failure. No-op (true) when the flag was not given.
bool MaybeExportTrace(const CliOptions& options, const TraceRecorder& trace) {
  if (options.trace_out.empty()) {
    return true;
  }
  std::ofstream out(options.trace_out);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", options.trace_out.c_str());
    return false;
  }
  trace.ExportJsonLines(out);
  return static_cast<bool>(out);
}

void WarnIfAuditFailed(const MigrationResult& result) {
  if (result.trace_audit.ran && !result.trace_audit.ok) {
    std::fprintf(stderr, "TRACE AUDIT FAILED: %s\n", result.trace_audit.ToString().c_str());
  }
}

void PrintCsv(const MigrationResult& result) {
  std::printf("iter,duration_s,pages_sent,wire_bytes,skipped_dirty,skipped_bitmap,"
              "dirty_after\n");
  for (const IterationRecord& it : result.iterations) {
    std::printf("%d,%.4f,%lld,%lld,%lld,%lld,%lld\n", it.index, it.duration.ToSecondsF(),
                static_cast<long long>(it.pages_sent), static_cast<long long>(it.wire_bytes),
                static_cast<long long>(it.pages_skipped_dirty),
                static_cast<long long>(it.pages_skipped_bitmap),
                static_cast<long long>(it.dirty_pages_after));
  }
}

int RunPrecopyStyle(const CliOptions& options) {
  Summary time_s;
  Summary traffic_gib;
  Summary downtime_s;
  MigrationResult last;
  std::string engine_used = options.engine;
  for (int run = 0; run < options.repeat; ++run) {
    const WorkloadSpec spec = SpecFor(options);
    LabConfig config;
    config.vm_bytes = options.vm_mib * kMiB;
    config.seed = options.seed + static_cast<uint64_t>(run);
    config.migration.link.bandwidth_bps = options.bandwidth_gbps * 1e9;
    config.migration.compress_pages = options.compress;
    if (!ApplyFaults(options, &config)) {
      return 2;
    }
    bool assisted = options.engine == "javmm";
    MigrationLab lab(spec, config);
    lab.Run(Duration::SecondsF(options.warmup_s));
    if (options.engine == "auto") {
      const PolicyDecision decision = AdaptiveMigrationPolicy::Decide(
          lab.app().heap(), config.migration.link);
      assisted = decision.use_assisted;
      engine_used = assisted ? "javmm (auto)" : "xen (auto)";
      std::printf("policy: %s -> %s\n", decision.reason.c_str(),
                  assisted ? "JAVMM" : "plain pre-copy");
    }
    // Take the lab's copy of the migration config: the lab forks a dedicated
    // fault_seed off the run seed, so the Bernoulli control-loss draws are
    // reproducible per --seed without perturbing the OS/app streams.
    MigrationConfig mig = lab.config().migration;
    mig.application_assisted = assisted;
    mig.hotness = options.hotness_config;
    MigrationEngine engine(&lab.guest(), mig);
    MigrationResult result = engine.Migrate();
    // Enrich the downtime breakdown with the JVM-side components (as
    // MigrationLab::Migrate does when it drives the engine itself).
    if (result.assisted && !result.fell_back_unassisted) {
      const GcLog& gc_log = lab.app().heap().gc_log();
      for (auto it = gc_log.minor.rbegin(); it != gc_log.minor.rend(); ++it) {
        if (it->enforced && it->at >= result.started_at) {
          result.downtime.enforced_gc = it->duration + it->full_gc_penalty;
          break;
        }
      }
      result.downtime.safepoint_wait = lab.app().last_safepoint_wait();
    }
    lab.Run(Duration::Seconds(20));
    if (!result.verification.ok) {
      std::fprintf(stderr, "VERIFICATION FAILED: %s\n", result.verification.detail.c_str());
      return 1;
    }
    WarnIfAuditFailed(result);
    if (run + 1 == options.repeat && !MaybeExportTrace(options, engine.trace())) {
      return 1;
    }
    time_s.Add(result.total_time.ToSecondsF());
    traffic_gib.Add(static_cast<double>(result.total_wire_bytes) / static_cast<double>(kGiB));
    downtime_s.Add(result.downtime.Total().ToSecondsF());
    last = result;
  }

  Table table({"metric", options.repeat > 1 ? "mean ± 90% CI" : "value"});
  table.Row().Cell("engine").Cell(engine_used);
  table.Row().Cell("completion time").Cell(time_s.ToString(1.0, " s"));
  table.Row().Cell("network traffic").Cell(traffic_gib.ToString(1.0, " GiB"));
  table.Row().Cell("downtime").Cell(downtime_s.ToString(1.0, " s"));
  table.Row().Cell("iterations").Cell(static_cast<int64_t>(last.iteration_count()));
  if (!options.faults.empty()) {
    char faults[96];
    std::snprintf(faults, sizeof(faults), "%lld ctl-loss, %lld burst, %lld round-timeout",
                  static_cast<long long>(last.control_losses),
                  static_cast<long long>(last.burst_faults),
                  static_cast<long long>(last.round_timeouts));
    table.Row().Cell("faults survived").Cell(faults);
    table.Row().Cell("retry traffic").Cell(FormatBytes(last.retry_wire_bytes));
    table.Row().Cell("backoff").Cell(last.backoff_time.ToString());
    table.Row().Cell("degraded").Cell(
        last.degraded ? DegradeReasonName(last.degrade_reason) : "no");
  }
  if (last.hotness) {
    table.Row().Cell("hot pages deferred").Cell(last.pages_deferred_hot);
    table.Row().Cell("re-sends avoided").Cell(last.resend_pages_avoided);
  }
  AddChannelRows(&table, last);
  table.Row().Cell("verified").Cell("yes");
  table.Print(std::cout);
  if (last.assisted) {
    std::printf("downtime breakdown: gc %s, final update %s, last iter %s, resume %s\n",
                last.downtime.enforced_gc.ToString().c_str(),
                last.downtime.final_bitmap_update.ToString().c_str(),
                last.downtime.last_iter_transfer.ToString().c_str(),
                last.downtime.resumption.ToString().c_str());
  }
  if (options.csv) {
    PrintCsv(last);
  }
  return 0;
}

// Fault-recovery rows shared by every engine table; `stream_fallbacks` < 0
// hides the post-copy-only row.
void AddFaultRows(Table* table, const MigrationResult& last, int64_t stream_fallbacks) {
  char faults[96];
  std::snprintf(faults, sizeof(faults), "%lld ctl-loss, %lld burst",
                static_cast<long long>(last.control_losses),
                static_cast<long long>(last.burst_faults));
  table->Row().Cell("faults survived").Cell(faults);
  table->Row().Cell("retry traffic").Cell(FormatBytes(last.retry_wire_bytes));
  table->Row().Cell("backoff").Cell(last.backoff_time.ToString());
  if (stream_fallbacks >= 0) {
    table->Row().Cell("stream fallbacks").Cell(stream_fallbacks);
  }
  table->Row().Cell("degraded").Cell(
      last.degraded ? DegradeReasonName(last.degrade_reason) : "no");
}

int RunBaseline(const CliOptions& options) {
  const bool stopcopy = options.engine == "stopcopy";
  if (!stopcopy && options.compress) {
    std::fprintf(stderr,
                 "--compress is not implemented for post-copy (pages ship raw over the "
                 "demand/pre-paging streams); drop the flag or use --engine=stopcopy\n");
    return 2;
  }
  Summary time_s;
  Summary traffic_gib;
  Summary downtime_s;
  Summary dwindow_s;
  Summary stall_s;
  MigrationResult last;
  PostcopyResult last_pc;
  for (int run = 0; run < options.repeat; ++run) {
    const WorkloadSpec spec = SpecFor(options);
    LabConfig config;
    config.vm_bytes = options.vm_mib * kMiB;
    config.seed = options.seed + static_cast<uint64_t>(run);
    config.migration.link.bandwidth_bps = options.bandwidth_gbps * 1e9;
    config.migration.compress_pages = options.compress;
    if (!ApplyFaults(options, &config)) {
      return 2;
    }
    MigrationLab lab(spec, config);
    lab.Run(Duration::SecondsF(options.warmup_s));
    // Take the lab's copy of the migration config: the lab forks a dedicated
    // fault_seed off the run seed, so the fault process is reproducible per
    // --seed without perturbing the OS/app streams.
    if (stopcopy) {
      StopAndCopyEngine engine(&lab.guest(), lab.config().migration);
      const MigrationResult result = engine.Migrate();
      WarnIfAuditFailed(result);
      if (run + 1 == options.repeat && !MaybeExportTrace(options, engine.trace())) {
        return 1;
      }
      if (!result.verification.ok) {
        std::fprintf(stderr, "VERIFICATION FAILED\n");
        return 1;
      }
      time_s.Add(result.total_time.ToSecondsF());
      traffic_gib.Add(static_cast<double>(result.total_wire_bytes) / static_cast<double>(kGiB));
      downtime_s.Add(result.downtime.Total().ToSecondsF());
      last = result;
    } else {
      PostcopyEngine::Config pc;
      pc.base = lab.config().migration;
      PostcopyEngine engine(&lab.guest(), pc);
      const PostcopyResult result = engine.Migrate();
      WarnIfAuditFailed(result.common);
      if (run + 1 == options.repeat && !MaybeExportTrace(options, engine.trace())) {
        return 1;
      }
      time_s.Add(result.common.total_time.ToSecondsF());
      traffic_gib.Add(static_cast<double>(result.common.total_wire_bytes) /
                      static_cast<double>(kGiB));
      downtime_s.Add(result.common.downtime.Total().ToSecondsF());
      dwindow_s.Add(result.degradation_window.ToSecondsF());
      stall_s.Add(result.fault_stall.ToSecondsF());
      last = result.common;
      last_pc = result;
    }
  }

  Table table({"metric", options.repeat > 1 ? "mean ± 90% CI" : "value"});
  table.Row().Cell("engine").Cell(stopcopy ? "stop-and-copy" : "post-copy");
  table.Row().Cell("completion time").Cell(time_s.ToString(1.0, " s"));
  table.Row().Cell("network traffic").Cell(traffic_gib.ToString(1.0, " GiB"));
  table.Row().Cell("downtime").Cell(downtime_s.ToString(1.0, " s"));
  if (!stopcopy) {
    table.Row().Cell("degradation window").Cell(dwindow_s.ToString(1.0, " s"));
    table.Row().Cell("demand faults").Cell(last_pc.demand_faults);
    table.Row().Cell("fault stall").Cell(stall_s.ToString(1.0, " s"));
  }
  if (!options.faults.empty()) {
    AddFaultRows(&table, last, stopcopy ? int64_t{-1} : last_pc.stream_fallback_fetches);
  }
  AddChannelRows(&table, last);
  table.Row().Cell("verified").Cell("yes");
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  if (options.list) {
    Table table({"workload", "category", "description"});
    for (const WorkloadSpec& spec : Workloads::All()) {
      table.Row()
          .Cell(spec.name)
          .Cell(static_cast<int64_t>(spec.category))
          .Cell(spec.description);
    }
    table.Print(std::cout);
    return 0;
  }
  if (options.repeat < 1 ||
      (options.engine != "xen" && options.engine != "javmm" && options.engine != "auto" &&
       options.engine != "postcopy" && options.engine != "stopcopy")) {
    PrintUsage();
    return 2;
  }
  if (!ValidateOptions(options)) {
    return 2;
  }
  {
    std::string error;
    if (!HotnessConfig::Parse(options.hotness, &options.hotness_config, &error)) {
      std::fprintf(stderr, "bad --hotness spec '%s': %s\n", options.hotness.c_str(),
                   error.c_str());
      return 2;
    }
    if (options.hotness_config.enabled &&
        (options.engine == "postcopy" || options.engine == "stopcopy")) {
      std::fprintf(stderr,
                   "--hotness orders pre-copy rounds; --engine=%s has none. Drop the flag "
                   "or use a pre-copy engine (xen, javmm, auto)\n",
                   options.engine.c_str());
      return 2;
    }
  }
  if (options.engine == "postcopy" || options.engine == "stopcopy") {
    return RunBaseline(options);
  }
  return RunPrecopyStyle(options);
}
