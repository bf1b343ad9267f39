// pipebench entry point:
//   pipebench --workload tune_cold|serve_drift --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
// Sets up (three times, reporting the median), runs the three stages
// with the workload's time split, checks every answer, and prints one
// JSON object as the last line of stdout: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench.h"

namespace pipebench {
namespace {

constexpr int kSetups = 3;
// Each stage's seconds are spread over this many slices of the run.
constexpr int kSlices = 4;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload "
               "tune_cold|serve_drift --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE]\n",
               why);
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv, std::string* trace_out) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0) || config.seconds > 3600) {
        Usage("--seconds takes a number in (0, 3600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--trace-out") {
      *trace_out = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.workload != "tune_cold" && config.workload != "serve_drift") {
    Usage("--workload must be tune_cold or serve_drift");
  }
  if (config.work_dir.empty()) Usage("--work-dir is required");
  return config;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double PerQuery(const LayerStats& l, const std::string& name) {
  return l.Total(name) / l.Total("workload.queries_built");
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The per-layer metrics, in BENCHMARK.json order. Medians are over
// calls; "per query" counts are over every query the run built.
void LayerMetrics(const LayerStats& l, MetricSet* out) {
  const double greedy_runs = static_cast<double>(l.Count("advisor.greedy_ms"));
  const double search_runs = l.Total("advisor.search_runs");
  const double advisor_runs = greedy_runs + search_runs;
  const double saved = l.Total("workload.access_calls_saved");
  struct Row {
    const char* name;
    const char* unit;
    double value;
  };
  const Row rows[] = {
      {"optimizer.call_ms", "ms", l.Median("optimizer.call_ms")},
      {"optimizer.paths_considered", "paths",
       l.Median("optimizer.paths_considered")},
      {"optimizer.calls", "calls/query",
       PerQuery(l, "workload.optimizer_calls")},
      {"pinum.build_ms", "ms", l.Median("pinum.build_ms")},
      {"pinum.plan_phase_ms", "ms", l.Median("pinum.plan_phase_ms")},
      {"pinum.access_phase_ms", "ms", l.Median("pinum.access_phase_ms")},
      {"pinum.iocs", "iocs", l.Median("pinum.iocs")},
      {"pinum.plans_exported", "plans", l.Median("pinum.plans_exported")},
      {"pinum.plans_cached", "plans", l.Median("pinum.plans_cached")},
      {"pinum.kept_plan_ratio", "ratio",
       Ratio(l.Total("pinum.plans_cached_sum"),
             l.Total("pinum.plans_exported_sum"))},
      {"inum.classic_build_ms", "ms", l.Median("inum.classic_build_ms")},
      {"inum.classic_calls", "calls/query",
       Ratio(l.Total("inum.classic_calls"),
             static_cast<double>(l.Count("inum.classic_build_ms")))},
      {"inum.seal_ms", "ms", l.Median("inum.seal_ms")},
      {"inum.plans", "plans/query", PerQuery(l, "inum.plans")},
      {"inum.plans_pruned", "plans/query", PerQuery(l, "inum.plans_pruned")},
      {"inum.terms", "terms/query", PerQuery(l, "inum.terms")},
      {"inum.postings", "postings/query", PerQuery(l, "inum.postings")},
      {"inum.arena_bytes", "bytes/query", PerQuery(l, "inum.arena_bytes")},
      {"inum.cost_ns", "ns", l.Median("inum.cost_ns")},
      {"inum.cost_with_extra_ns", "ns", l.Median("inum.cost_with_extra_ns")},
      {"inum.snapshot_save_ms", "ms", l.Median("inum.snapshot_save_ms")},
      {"inum.snapshot_records_patched", "records",
       l.Median("inum.snapshot_records_patched")},
      {"inum.snapshot_map_ms", "ms", l.Median("inum.snapshot_map_ms")},
      {"inum.snapshot_load_ms", "ms", l.Median("inum.snapshot_load_ms")},
      {"workload.generate_ms", "ms", l.Median("workload.generate_ms")},
      {"workload.build_all_ms", "ms", l.Median("workload.build_all_ms")},
      {"workload.access_calls_saved", "calls/query",
       PerQuery(l, "workload.access_calls_saved")},
      {"workload.access_share_ratio", "ratio",
       Ratio(saved, l.Total("workload.access_cost_calls") + saved)},
      {"workload.drift_ms", "ms", l.Median("workload.drift_ms")},
      {"workload.stale_queries", "queries", l.Median("workload.stale_queries")},
      {"workload.rebuild_ms", "ms", l.Median("workload.rebuild_ms")},
      {"advisor.candidates_ms", "ms", l.Median("advisor.candidates_ms")},
      {"advisor.greedy_ms", "ms", l.Median("advisor.greedy_ms")},
      {"advisor.search_ms", "ms", l.Median("advisor.search_ms")},
      {"advisor.evaluations", "configs/run",
       Ratio(l.Total("advisor.evaluations"), advisor_runs)},
      {"advisor.full_evaluations", "configs/run",
       Ratio(l.Total("advisor.full_evaluations"), advisor_runs)},
      {"advisor.full_eval_ratio", "ratio",
       Ratio(l.Total("advisor.full_evaluations"),
             l.Total("advisor.evaluations"))},
      {"advisor.restarts_completed", "restarts/run",
       Ratio(l.Total("advisor.restarts_completed"), search_runs)},
      {"advisor.swaps_accepted", "swaps/run",
       Ratio(l.Total("advisor.swaps_accepted"), search_runs)},
      {"advisor.swap_candidates_pruned", "candidates/run",
       Ratio(l.Total("advisor.swap_candidates_pruned"), search_runs)},
      {"serving.reseal_ms", "ms", l.Median("serving.reseal_ms")},
      {"serving.batch_cost_us", "us", l.Median("serving.batch_cost_us")},
      {"serving.whatif_per_s", "answers/s",
       l.Median("serving.whatif_per_s")},
      {"serving.whatif_p90_us", "us", l.Median("serving.whatif_p90_us")},
      {"serving.whatif_p99_us", "us", l.Median("serving.whatif_p99_us")},
      {"serving.queue_depth", "requests",
       Ratio(l.Total("serving.queue_depth_sum"),
             l.Total("serving.queue_depth_samples"))},
      {"serving.generations", "count", l.Total("serving.generations")},
      {"serving.submitted", "count", l.Total("serving.submitted")},
      {"serving.answered", "count", l.Total("serving.answered")},
      {"serving.shed", "count", l.Total("serving.shed")},
      {"serving.expired", "count", l.Total("serving.expired")},
      {"serving.pricing_failures", "count",
       l.Total("serving.pricing_failures")},
  };
  for (const Row& r : rows) out->Set(r.name, r.value, r.unit);
  const std::map<std::string, trace::LayerSummary> spans = trace::Summarize();
  for (const char* layer :
       {"optimizer", "pinum", "inum", "workload", "advisor", "serving"}) {
    auto it = spans.find(layer);
    const trace::LayerSummary s =
        it == spans.end() ? trace::LayerSummary{} : it->second;
    out->Set(std::string(layer) + ".span_calls", static_cast<double>(s.calls),
             "count");
    out->Set(std::string(layer) + ".self_ms", s.self_ms, "ms");
  }
  out->Set("trace.spans", static_cast<double>(trace::NumSpans()), "count");
}

int Main(int argc, char** argv) {
  std::string trace_out;
  const RunConfig config = ParseArgs(argc, argv, &trace_out);
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) Usage(("cannot create --work-dir: " + ec.message()).c_str());
  if (config.trace) trace::EnableTracing();

  Ledger ledger;
  MetricSet e2e;
  LayerStats layers;
  const StageIo io{&config, &ledger, &e2e, &layers};

  // Set-up is repeated and its median reported, so work moved into it
  // shows; the last set-up is the one the timed loops start from.
  std::vector<double> setup_s;
  std::unique_ptr<AdviseSetup> advise;
  std::unique_ptr<ServeSetup> serve;
  for (int i = 0; i < kSetups; ++i) {
    advise.reset();
    serve.reset();
    trace::Operation op;
    const Clock::time_point start = Clock::now();
    advise = SetUpAdvise(&layers);
    serve = advise ? SetUpServe(config, &layers) : nullptr;
    setup_s.push_back(MsSince(start) / 1000.0);
    ledger.Op(advise && serve, "set-up");
    if (!advise || !serve) {
      std::fprintf(stderr, "pipebench: set-up failed\n");
      return 1;
    }
  }

  {
    struct Timed {
      const char* name;
      std::unique_ptr<Stage> stage;
    };
    Timed stages[] = {{"tune", MakeTuneStage(io)},
                      {"advise", MakeAdviseStage(io, advise.get())},
                      {"serve", MakeServeStage(io, serve.get())}};
    for (int s = 0; s < kSlices; ++s) {
      for (Timed& t : stages) {
        t.stage->Slice(StageSeconds(config, t.name) / kSlices);
      }
    }
    for (Timed& t : stages) t.stage->Finish();
  }
  serve.reset();
  advise.reset();
  if (config.trace) RunLayerProbe(io);

  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MB");

  MetricSet printed;
  if (config.trace) {
    LayerMetrics(layers, &printed);
    if (!trace_out.empty() &&
        !trace::Write(trace_out, config.workload, config.seed, e2e)) {
      return 1;
    }
  }
  const MetricSet& shown = config.trace ? printed : e2e;
  std::fprintf(stderr,
               "pipebench: workload=%s seed=%" PRIu64
               " seconds=%g trace=%d attempted=%" PRId64 " failed=%" PRId64
               " correct=%s\n",
               config.workload.c_str(), config.seed, config.seconds,
               config.trace ? 1 : 0, ledger.attempted(), ledger.failed(),
               ledger.correct() ? "true" : "false");
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              ledger.correct() ? "true" : "false", ledger.attempted(),
              ledger.failed(), shown.Json().c_str());
  std::fflush(stdout);
  return ledger.correct() ? 0 : 1;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) { return pipebench::Main(argc, argv); }
