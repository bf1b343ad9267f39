// pipebench: the repo's one pipeline benchmark. Shared declarations for
// the stages (tune.cc, advise.cc, serve.cc), the traced layer probe
// (layers.cc), the span recorder (trace.cc) and the entry point (main.cc).
//
// Every run drives all three pipeline stages, so every end-to-end metric
// exists on every workload; the workload names the stage that receives
// most of the measured seconds (README.md, "Workloads").
#ifndef PIPEBENCH_BENCH_H_
#define PIPEBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "common/rng.h"
#include "inum/access_cost_table.h"
#include "query/query.h"
#include "serving/serving_engine.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"
#include "workload/workload_family.h"

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Mixes the run seed with stage/role/index tags into an independent
/// input seed (SplitMix64 finalizer), so every generated input is a pure
/// function of --seed and its position in the run.
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Counts operations and their failures across threads. A failed
/// correctness check is also a failed operation and marks the run
/// incorrect; other failures (a shed request, a failed reseal) only
/// count.
class Ledger {
 public:
  void Op(bool ok, const std::string& what);
  void Check(bool ok, const std::string& what);
  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }
  bool correct() const { return correct_.load(); }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<bool> correct_{true};
  std::mutex log_mu_;
  int logged_ = 0;  // guarded by log_mu_
};

/// Named numeric results with units, printed in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Per-layer observations gathered while the stages run: per-call
/// samples (reported as medians) and running totals. Thread-safe.
class LayerStats {
 public:
  void Sample(const std::string& name, double value);
  void Add(const std::string& name, double value);
  double Median(const std::string& name) const;
  size_t Count(const std::string& name) const;
  double Total(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> totals_;
};

double Median(std::vector<double> values);
/// Prints a stage's per-round samples to stderr (diagnostics only).
void LogSamples(const char* what, const std::vector<double>& values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// ---- Tracing --------------------------------------------------------------
//
// Spans wrap every call the benchmark makes into a layer's public
// function; the span name is "<layer>.<function>". Off (one relaxed load
// per span) unless EnableTracing() ran. Spans stay in per-thread
// buffers and are written out once, after the run.
namespace trace {

void EnableTracing();
bool Enabled();

/// RAII span. Records name, start, end, parent span and operation id.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  Clock::time_point start_;
};

/// RAII operation scope: spans opened inside share one operation id.
class Operation {
 public:
  Operation();
  ~Operation();
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

 private:
  uint64_t previous_ = 0;
};

/// Per-layer totals over every recorded span.
struct LayerSummary {
  int64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, LayerSummary> Summarize();
size_t NumSpans();

/// Writes every span (Chrome trace-event format, readable by Perfetto)
/// plus the per-layer summary and `extra` metrics to `path`.
bool Write(const std::string& path, const std::string& workload,
           uint64_t seed, const MetricSet& extra);

}  // namespace trace

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto InSpan(const char* name, Fn&& fn) {
  trace::Span span(name);
  return fn();
}

// ---- Shared input helpers --------------------------------------------------

/// Random atomic configuration over the candidates relevant to `q`: at
/// most one candidate per table the query reads, each table filled with
/// probability `p_fill`.
pinum::IndexConfig RandomAtomicConfig(const pinum::Query& q,
                                      const pinum::CandidateSet& set,
                                      pinum::Rng* rng, double p_fill = 0.6);

/// `times`-fold replication of a query list with renamed clones: the
/// recurring-template regime in which queries share access-cost calls.
std::vector<pinum::Query> Replicate(const std::vector<pinum::Query>& queries,
                                    int times);

/// MakeWorkloadInstance under a span; aborts the run on error (inputs
/// are generated by the benchmark, so an error is a benchmark bug).
std::unique_ptr<pinum::WorkloadInstance> Generate(
    const std::string& family, uint64_t seed, int num_queries,
    LayerStats* layers);

/// Sum of per-query SealedCache::Cost in query order: the reference an
/// evaluator's or engine's workload cost must equal bit for bit.
double SumOfCosts(const std::vector<pinum::SealedCache>& sealed,
                  const pinum::IndexConfig& config);

/// Relative closeness used by the optimizer oracles.
inline bool WithinRel(double a, double b, double rel) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= rel * scale;
}

// ---- Stages -----------------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for snapshot files.
  std::string work_dir;
};

struct StageIo {
  const RunConfig* config = nullptr;
  Ledger* ledger = nullptr;
  MetricSet* e2e = nullptr;
  LayerStats* layers = nullptr;
};

/// The paper's workload: the star generator's default seed. Tune
/// sessions 0 and 1, one advise grid cell and the serving world use it
/// unseeded, so those figures do not hinge on how expensive one seed's
/// 7-table query happens to be.
constexpr uint64_t kPaperSeed = 42;

/// Seconds of the run a stage measures: the workload's own stage gets
/// kPrimaryShare, the other two split the rest. The advise stage is no
/// workload's own: it always runs on its share (see README.md).
constexpr double kPrimaryShare = 0.5;
double StageSeconds(const RunConfig& config, const std::string& stage);

/// One built workload: the instance (world), the builder bound to it,
/// and BuildAll's result. Heap-held: the builder keeps pointers into the
/// instance.
struct BuiltWorkload {
  std::unique_ptr<pinum::WorkloadInstance> instance;
  std::vector<pinum::Query> queries;
  std::unique_ptr<pinum::WorkloadCacheBuilder> builder;
  pinum::WorkloadCacheResult result;
};

/// Binds a fresh serial builder to `w->instance` and builds
/// `w->queries` (BuildAll: build and seal) under a span, recording
/// workload- and inum-layer stats. Returns false (after logging) when
/// the build fails.
bool BuildWorkload(BuiltWorkload* w, LayerStats* layers);

/// advise stage input: caches built once per set-up.
struct AdviseSetup {
  std::vector<BuiltWorkload> grid;
};

/// serve stage input: the always-on engine over a built workload, with
/// its initial snapshot on disk.
struct ServeSetup {
  BuiltWorkload world;
  std::unique_ptr<pinum::ServingEngine> engine;
  std::string snapshot_path;
};

std::unique_ptr<AdviseSetup> SetUpAdvise(LayerStats* layers);
std::unique_ptr<ServeSetup> SetUpServe(const RunConfig& config,
                                       LayerStats* layers);

/// One pipeline stage, measured in slices spread over the run so that
/// every stage samples the machine across the whole run rather than one
/// stretch of it. Slice runs whole rounds of the stage's operations for
/// about `seconds` (at least one round); Finish runs the end-of-run
/// oracles and sets the stage's end-to-end metrics.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual void Slice(double seconds) = 0;
  virtual void Finish() = 0;
};

std::unique_ptr<Stage> MakeTuneStage(const StageIo& io);
std::unique_ptr<Stage> MakeAdviseStage(const StageIo& io, AdviseSetup* setup);
std::unique_ptr<Stage> MakeServeStage(const StageIo& io, ServeSetup* setup);

/// Traced runs only: direct calls into the lower layers that BuildAll
/// hides (BuildInumCachePinum, Optimizer::Optimize, SealedCache::Seal,
/// SealedCache::Cost / CostWithExtra, GenerateCandidates).
void RunLayerProbe(const StageIo& io);

}  // namespace pipebench

#endif  // PIPEBENCH_BENCH_H_
