// serve stage: an always-on ServingEngine over the paper workload (the
// star generator's default seed) replicated 2x; --seed drives the
// configurations, the clients and the drift. Closed-loop clients each
// SubmitCost a window of seeded random atomic configurations and wait
// for the answers while the dispatcher runs. Beside them one maintenance thread
// repeats a cycle: seeded drift through WithWorld,
// Reseal(StaleNames()), SaveSnapshot; every second cycle it also
// restarts from the snapshot, several times each through
// LoadSnapshotMapped and LoadSnapshot. Drift alternates between scaling
// leaf tables and restoring their statistics, so the world's size stays
// bounded and late cycles cost what early ones do.
#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "workload/drift.h"

#include "bench.h"

namespace pipebench {
namespace {

using pinum::IndexConfig;

constexpr int kReplicas = 2;
// Client threads plus the maintenance thread stay below the 4 cores the
// reference figures were taken on, leaving one for the dispatcher.
constexpr int kClients = 2;
// Requests each client keeps in flight: it submits this many, then waits
// for all their answers (a closed loop with a window). The engine
// coalesces them into one sweep, so a request's time is mostly pricing
// rather than two thread wake-ups, whose cost on a shared VM swings with
// the host's load.
constexpr int kInFlight = 4;
constexpr size_t kConfigPool = 256;
constexpr size_t kProbeConfigs = 32;
// Queries one drift cycle stales, at least (leaf tables first): most of
// the workload, so nearly every cycle rebuilds the 7-table query and
// the median cycle does not flip between two cost modes.
constexpr size_t kStaleTarget = 16;
constexpr int kRestartEvery = 2;
constexpr int kRestartsPerKind = 8;
// Cycles per slice, at least, so every slice restarts.
constexpr int kMinCyclesPerSlice = 2;
// Latency quantiles and throughput are taken per window of this length
// and reported as medians over windows, so one stalled window (a vCPU
// preempted by the host) cannot move the figure.
constexpr auto kWindow = std::chrono::milliseconds(250);
// A client's window counts only with enough samples for a p99 with at
// least ten beyond it. Only the median is bounded end to end: on a
// shared VM throughput, p90 and p99 swing with the host's load (wake-ups
// of idle vCPUs) by more than any bound the benchmark may set, so they
// are reported per layer.
constexpr size_t kMinWindowSamples = 1000;

struct ClientLog {
  int64_t shed = 0;
  int64_t not_ok = 0;
  /// Answers that differ from an earlier answer to the same
  /// (configuration, generation).
  int64_t inconsistent = 0;
  /// (config << 32 | generation) -> (first cost seen, answers seen).
  std::unordered_map<uint64_t, std::pair<double, int64_t>> answers;
  std::vector<float> window;  // latencies of the current window
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> window_p90_us;
  uint64_t samples = 0;
  /// Read by the window sampler while the client runs.
  std::atomic<uint64_t> answered{0};
};

double QuantileInPlace(std::vector<float>* v, double q) {
  auto nth =
      v->begin() + static_cast<long>(q * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), nth, v->end());
  return *nth;
}

// Keeps the serving threads alive for the whole run while letting them
// work only during the stage's slices. Threads started per slice would
// each get a fresh malloc arena and make the process's peak RSS depend
// on thread churn rather than on the program.
class Gate {
 public:
  /// Worker side: parks until a slice opens; false once the run is over.
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_ || shut_; });
    --parked_;
    return !shut_;
  }
  /// Worker side: whether the current slice is still running.
  bool IsOpen() const { return open_flag_.load(std::memory_order_relaxed); }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    open_flag_.store(true);
    cv_.notify_all();
  }
  /// Ends the slice and waits until all `workers` are parked again.
  void Close(int workers) {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = false;
    open_flag_.store(false);
    cv_.wait(lock, [&] { return parked_ == workers; });
  }
  void Shut() {
    std::lock_guard<std::mutex> lock(mu_);
    shut_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;  // guarded by mu_
  bool shut_ = false;  // guarded by mu_
  int parked_ = 0;     // guarded by mu_
  std::atomic<bool> open_flag_{false};
};

// One submitted request awaiting its answer.
struct Pending {
  uint32_t config = 0;
  Clock::time_point start;
  std::future<pinum::CostAnswer> answer;
};

void ClientLoop(pinum::ServingEngine* engine,
                const std::vector<IndexConfig>& configs, uint64_t seed,
                Gate* gate, const std::atomic<uint64_t>& window_epoch,
                ClientLog* log) {
  pinum::Rng rng(seed);
  while (gate->Wait()) {
    uint64_t epoch = window_epoch.load();
    log->window.clear();
    std::vector<Pending> batch;
    while (gate->IsOpen()) {
      batch.clear();
      for (int i = 0; i < kInFlight; ++i) {
        trace::Operation op;
        const uint32_t idx = static_cast<uint32_t>(rng.Index(configs.size()));
        const Clock::time_point start = Clock::now();
        auto submitted = InSpan("serving.SubmitCost", [&] {
          return engine->SubmitCost(configs[idx]);
        });
        if (!submitted.ok()) {
          ++log->shed;
          continue;
        }
        batch.push_back({idx, start, std::move(*submitted)});
      }
      for (Pending& p : batch) {
        const pinum::CostAnswer answer = p.answer.get();
        log->window.push_back(static_cast<float>(
            std::chrono::duration<double, std::micro>(Clock::now() - p.start)
                .count()));
        if (!answer.status.ok()) {
          ++log->not_ok;
          continue;
        }
        const uint64_t key =
            static_cast<uint64_t>(p.config) << 32 | answer.generation;
        auto [it, fresh] = log->answers.try_emplace(key, answer.cost, 0);
        if (!fresh && it->second.first != answer.cost) {
          ++log->inconsistent;
        } else {
          ++it->second.second;
        }
        log->answered.fetch_add(1, std::memory_order_relaxed);
      }
      const uint64_t now = window_epoch.load(std::memory_order_relaxed);
      if (now != epoch) {
        epoch = now;
        if (log->window.size() >= kMinWindowSamples) {
          log->samples += log->window.size();
          log->window_p50_us.push_back(QuantileInPlace(&log->window, 0.50));
          log->window_p90_us.push_back(QuantileInPlace(&log->window, 0.90));
          log->window_p99_us.push_back(QuantileInPlace(&log->window, 0.99));
        }
        log->window.clear();
      }
    }
  }
}

// Answers every probe through a restarted cache vector and compares
// them with the generation the snapshot was saved from.
bool SameAnswers(const std::vector<pinum::SealedCache>& restarted,
                 const pinum::ServingGeneration& saved,
                 const std::vector<IndexConfig>& probes) {
  const pinum::WorkloadCostEvaluator a(&restarted);
  const pinum::WorkloadCostEvaluator b(&saved.sealed());
  for (const IndexConfig& p : probes) {
    if (a.Cost(p) != b.Cost(p)) return false;
  }
  return true;
}

std::vector<IndexConfig> MakeConfigs(const BuiltWorkload& w, size_t n,
                                     uint64_t seed) {
  pinum::Rng rng(seed);
  std::vector<IndexConfig> configs;
  for (size_t i = 0; i < n; ++i) {
    const pinum::Query& q = w.queries[rng.Index(w.queries.size())];
    configs.push_back(RandomAtomicConfig(q, w.instance->set, &rng));
  }
  return configs;
}

class ServeStage : public Stage {
 public:
  ServeStage(const StageIo& io, ServeSetup* setup)
      : io_(io),
        setup_(setup),
        engine_(setup->engine.get()),
        configs_(MakeConfigs(setup->world, kConfigPool,
                             MixSeed(io.config->seed, 410))),
        probes_(MakeConfigs(setup->world, kProbeConfigs,
                            MixSeed(io.config->seed, 411))),
        clients_(kClients) {
    gen_ = engine_->Pin();
    expected_[gen_->id] = ExpectedCosts(*gen_);
    engine_->StartDispatcher();
    maintenance_ = std::thread([this] {
      while (gate_.Wait()) MaintenanceSlice();
    });
    for (int c = 0; c < kClients; ++c) {
      clients_threads_.emplace_back(
          ClientLoop, engine_, std::cref(configs_),
          MixSeed(io_.config->seed, 420, static_cast<uint64_t>(c)), &gate_,
          std::cref(window_epoch_), &clients_[static_cast<size_t>(c)]);
    }
  }

  ~ServeStage() override {
    gate_.Shut();
    for (std::thread& t : clients_threads_) t.join();
    maintenance_.join();
    engine_->StopDispatcher();
  }
  ServeStage(const ServeStage&) = delete;
  ServeStage& operator=(const ServeStage&) = delete;

  void Slice(double seconds) override {
    auto answered_now = [&] {
      uint64_t n = 0;
      for (const ClientLog& log : clients_) n += log.answered.load();
      return n;
    };
    gate_.Open();
    const Clock::time_point start = Clock::now();
    Clock::time_point window_start = start;
    uint64_t window_answers = answered_now();
    while (MsSince(start) < seconds * 1000.0) {
      std::this_thread::sleep_until(window_start + kWindow);
      const uint64_t now = answered_now();
      window_rates_.push_back(static_cast<double>(now - window_answers) /
                              (MsSince(window_start) / 1000.0));
      window_epoch_.fetch_add(1);
      window_start = Clock::now();
      window_answers = now;
    }
    gate_.Close(kClients + 1);
  }

  void Finish() override {
    Ledger* ledger = io_.ledger;
    LayerStats* layers = io_.layers;
    // Every OK answer equals the per-query cost sum over the generation
    // its id names, and repeats any earlier answer to the same question.
    std::vector<double> p50, p90, p99;
    uint64_t samples = 0;
    for (const ClientLog& log : clients_) {
      p50.insert(p50.end(), log.window_p50_us.begin(), log.window_p50_us.end());
      p90.insert(p90.end(), log.window_p90_us.begin(), log.window_p90_us.end());
      p99.insert(p99.end(), log.window_p99_us.begin(), log.window_p99_us.end());
      samples += log.samples;
      for (int64_t i = 0; i < log.shed; ++i) ledger->Op(false, "request shed");
      for (int64_t i = 0; i < log.not_ok; ++i) {
        ledger->Op(false, "what-if answer with a non-OK status");
      }
      for (int64_t i = 0; i < log.inconsistent; ++i) {
        ledger->Check(false, "two answers to one question differ");
      }
      for (const auto& [key, seen] : log.answers) {
        const uint32_t config = static_cast<uint32_t>(key >> 32);
        auto gen = expected_.find(key & 0xffffffffu);
        const bool ok =
            gen != expected_.end() && gen->second[config] == seen.first;
        // One check per distinct question; its repeats count as
        // operations with the same outcome.
        ledger->Check(ok, "what-if answer differs from its generation");
        for (int64_t i = 1; i < seen.second; ++i) {
          ledger->Op(ok, "what-if answer");
        }
      }
    }

    // The final generation answers the probe set bit-identically to a
    // cold build by a fresh builder over the drifted world.
    {
      pinum::WorkloadCacheOptions options;
      options.num_threads = 1;
      pinum::WorkloadInstance& inst = *setup_->world.instance;
      pinum::WorkloadCacheBuilder builder(&inst.catalog(), &inst.set,
                                          &inst.stats(), options);
      auto built = builder.BuildAll(setup_->world.queries);
      bool same = built.ok();
      for (size_t i = 0; same && i < probes_.size(); ++i) {
        same = engine_->Cost(probes_[i]).cost ==
               SumOfCosts(built->sealed, probes_[i]);
      }
      ledger->Check(same, "final generation differs from a cold rebuild");
    }

    // BatchCost per configuration, measured apart from the queue.
    {
      const Clock::time_point t = Clock::now();
      auto answers = InSpan("serving.BatchCost",
                            [&] { return engine_->BatchCost(configs_); });
      layers->Sample("serving.batch_cost_us",
                     MsSince(t) * 1000.0 /
                         static_cast<double>(configs_.size()));
      ledger->Op(answers.size() == configs_.size(), "BatchCost");
    }

    const pinum::ServingStats stats = engine_->Stats();
    layers->Add("serving.submitted", static_cast<double>(stats.submitted));
    layers->Add("serving.answered", static_cast<double>(stats.answered));
    layers->Add("serving.shed", static_cast<double>(stats.shed_unavailable));
    layers->Add("serving.expired",
                static_cast<double>(stats.deadline_expired));
    layers->Add("serving.pricing_failures",
                static_cast<double>(stats.pricing_failures));
    layers->Add("serving.generations",
                static_cast<double>(engine_->CurrentGenerationId()));

    LogSamples("what-if answers/s per window", window_rates_);
    LogSamples("reseal cycle ms", reseal_ms_);
    std::fprintf(stderr,
                 "pipebench: what-if latency: %zu client windows, %" PRIu64
                 " samples\n",
                 p99.size(), samples);
    MetricSet* e2e = io_.e2e;
    e2e->Set("whatif_p50_us", Median(p50), "us");
    layers->Sample("serving.whatif_per_s", Median(window_rates_));
    layers->Sample("serving.whatif_p90_us", Median(p90));
    layers->Sample("serving.whatif_p99_us", Median(p99));
    e2e->Set("reseal_p50_ms", Median(reseal_ms_), "ms");
    e2e->Set("restart_map_ms", Median(restart_map_ms_), "ms");
    e2e->Set("restart_load_ms", Median(restart_load_ms_), "ms");
    double bytes = 0;
    for (double b : snapshot_bytes_) bytes += b;
    e2e->Set("snapshot_bytes",
             bytes / static_cast<double>(snapshot_bytes_.size()), "bytes");
  }

 private:
  // What every pool configuration must cost under `gen`: computed when
  // the generation is published, so no generation is kept alive for the
  // end-of-run check.
  std::vector<double> ExpectedCosts(const pinum::ServingGeneration& gen) const {
    std::vector<double> costs;
    costs.reserve(configs_.size());
    for (const IndexConfig& c : configs_) {
      costs.push_back(SumOfCosts(gen.sealed(), c));
    }
    return costs;
  }

  void MaintenanceSlice() {
    for (int n = 0; n < kMinCyclesPerSlice || gate_.IsOpen(); ++n, ++cycle_) {
      Cycle();
      if (cycle_ % kRestartEvery == kRestartEvery - 1) Restarts();
    }
  }

  // Drift, reseal, save: one timed maintenance cycle.
  void Cycle() {
    BuiltWorkload& world = setup_->world;
    pinum::WorkloadInstance& inst = *world.instance;
    LayerStats* layers = io_.layers;
    trace::Operation op;
    layers->Add("serving.queue_depth_sum",
                static_cast<double>(engine_->Pending()));
    layers->Add("serving.queue_depth_samples", 1);

    const Clock::time_point drift_start = Clock::now();
    bool drift_ok = true;
    {
      trace::Span span("serving.WithWorld");
      engine_->WithWorld([&] {
        if (cycle_ % 2 == 0) {
          saved_stats_ = inst.stats().all();
          auto drift = InSpan("workload.ApplyDrift", [&] {
            return pinum::ApplyDrift(
                world.queries, &inst.set, &inst.mutable_stats(), kStaleTarget,
                MixSeed(io_.config->seed, 430, static_cast<uint64_t>(cycle_)));
          });
          drift_ok = drift.ok();
          if (drift_ok) drifted_ = drift->drifted_tables;
        } else {
          for (pinum::TableId t : drifted_) {
            inst.mutable_stats().Put(t, saved_stats_.at(t));
          }
        }
      });
    }
    const Clock::time_point applied = Clock::now();
    layers->Sample("workload.drift_ms", MsSince(drift_start));

    const std::vector<std::string> stale =
        InSpan("serving.StaleNames", [&] { return engine_->StaleNames(); });
    layers->Sample("workload.stale_queries", static_cast<double>(stale.size()));
    Clock::time_point t = Clock::now();
    const pinum::Status resealed =
        InSpan("serving.Reseal", [&] { return engine_->Reseal(stale); });
    layers->Sample("serving.reseal_ms", MsSince(t));
    gen_ = engine_->Pin();
    pinum::SnapshotSaveStats save_stats;
    t = Clock::now();
    const pinum::Status saved = InSpan("workload.SaveSnapshot", [&] {
      return world.builder->SaveSnapshot(setup_->snapshot_path, gen_->result,
                                         world.queries, &save_stats);
    });
    layers->Sample("inum.snapshot_save_ms", MsSince(t));
    reseal_ms_.push_back(MsSince(applied));
    io_.ledger->Op(drift_ok && resealed.ok() && saved.ok(),
                   "drift/reseal/save cycle " + std::to_string(cycle_) + ": " +
                       resealed.ToString() + " " + saved.ToString());
    expected_[gen_->id] = ExpectedCosts(*gen_);
    snapshot_bytes_.push_back(static_cast<double>(
        std::filesystem::file_size(setup_->snapshot_path)));
    layers->Sample("inum.snapshot_records_patched",
                   static_cast<double>(save_stats.caches_patched));
  }

  // Restarts from the snapshot just saved, each timed from the file to
  // its first answer, then checked against the generation saved.
  void Restarts() {
    BuiltWorkload& world = setup_->world;
    LayerStats* layers = io_.layers;
    Ledger* ledger = io_.ledger;
    for (int r = 0; r < kRestartsPerKind; ++r) {
      trace::Operation op;
      const Clock::time_point t = Clock::now();
      auto mapped = InSpan("workload.LoadSnapshotMapped", [&] {
        return world.builder->LoadSnapshotMapped(setup_->snapshot_path);
      });
      layers->Sample("inum.snapshot_map_ms", MsSince(t));
      if (mapped.ok()) {
        trace::Span span("advisor.WorkloadCostEvaluator::Cost");
        (void)pinum::WorkloadCostEvaluator(&mapped->sealed).Cost(probes_[0]);
      }
      restart_map_ms_.push_back(MsSince(t));
      ledger->Op(mapped.ok(), "mapped restart");
      if (mapped.ok()) {
        ledger->Check(SameAnswers(mapped->sealed, *gen_, probes_),
                      "mapped restart differs from the saved generation");
      }
    }
    for (int r = 0; r < kRestartsPerKind; ++r) {
      trace::Operation op;
      const Clock::time_point t = Clock::now();
      auto loaded = InSpan("workload.LoadSnapshot", [&] {
        return world.builder->LoadSnapshot(setup_->snapshot_path);
      });
      layers->Sample("inum.snapshot_load_ms", MsSince(t));
      if (loaded.ok()) {
        trace::Span span("advisor.WorkloadCostEvaluator::Cost");
        (void)pinum::WorkloadCostEvaluator(&loaded->sealed).Cost(probes_[0]);
      }
      restart_load_ms_.push_back(MsSince(t));
      ledger->Op(loaded.ok(), "decoded restart");
      if (loaded.ok()) {
        ledger->Check(SameAnswers(loaded->sealed, *gen_, probes_),
                      "decoded restart differs from the saved generation");
      }
    }
  }

  const StageIo io_;
  ServeSetup* setup_;
  pinum::ServingEngine* engine_;
  const std::vector<IndexConfig> configs_;
  const std::vector<IndexConfig> probes_;
  std::vector<ClientLog> clients_;
  std::vector<double> window_rates_;
  std::atomic<uint64_t> window_epoch_{0};

  // Maintenance state: touched by the maintenance thread while a slice
  // runs, and by Finish after the thread has been joined.
  int cycle_ = 0;
  std::map<pinum::TableId, pinum::TableStats> saved_stats_;
  std::vector<pinum::TableId> drifted_;
  std::shared_ptr<const pinum::ServingGeneration> gen_;
  /// Generation id -> ExpectedCosts of that generation.
  std::map<uint64_t, std::vector<double>> expected_;
  std::vector<double> reseal_ms_;
  std::vector<double> restart_map_ms_;
  std::vector<double> restart_load_ms_;
  std::vector<double> snapshot_bytes_;

  // Declared last: the threads use every member above.
  Gate gate_;
  std::thread maintenance_;
  std::vector<std::thread> clients_threads_;
};

}  // namespace

std::unique_ptr<ServeSetup> SetUpServe(const RunConfig& config,
                                       LayerStats* layers) {
  auto setup = std::make_unique<ServeSetup>();
  BuiltWorkload& w = setup->world;
  w.instance = Generate("star", kPaperSeed, 10, layers);
  w.queries = Replicate(w.instance->queries, kReplicas);
  if (!BuildWorkload(&w, layers)) return nullptr;
  setup->engine = std::make_unique<pinum::ServingEngine>(
      w.builder.get(), &w.queries, w.result, pinum::ServingOptions{});
  setup->snapshot_path = config.work_dir + "/serve.snapshot";
  // A save patches unchanged records from an existing file at the same
  // path; every set-up starts from none so each pays a full save.
  std::filesystem::remove(setup->snapshot_path);
  const pinum::Status saved = InSpan("workload.SaveSnapshot", [&] {
    return w.builder->SaveSnapshot(setup->snapshot_path, w.result, w.queries);
  });
  if (!saved.ok()) {
    std::fprintf(stderr, "pipebench: initial snapshot: %s\n",
                 saved.ToString().c_str());
    return nullptr;
  }
  return setup;
}

std::unique_ptr<Stage> MakeServeStage(const StageIo& io, ServeSetup* setup) {
  return std::make_unique<ServeStage>(io, setup);
}

}  // namespace pipebench
