// tune stage: repeated cold tuning sessions. Each round generates fresh
// instances — the paper's 10-query star workload with its 7-table Q10,
// that workload replicated 2x so clones share access-cost calls, and a
// chain, skew and fact_pair instance drawn from --seed — builds and
// seals each with a fresh WorkloadCacheBuilder, and runs the greedy
// advisor. It also builds the paper workload's four smallest queries
// (2-4 tables) with the classic INUM builder, whose hundreds of plain
// optimizer calls keep a speed-up of the hooked calls from hiding a
// slower baseline.

#include "advisor/greedy_advisor.h"
#include "inum/inum_builder.h"
#include "inum/sealed_cache.h"
#include "optimizer/optimizer.h"
#include "pinum/pinum_builder.h"

#include "bench.h"

namespace pipebench {
namespace {

using pinum::IndexConfig;

struct TuneInput {
  const char* family;
  int num_queries;  // 0 = family default
  int replicas;
  bool paper;  // the fixed paper instance; otherwise seeded per round
};

// One round, in order. Index 0 is the paper workload the classic builder
// and the optimizer oracles also use.
const TuneInput kRound[] = {
    {"star", 10, 1, true},  {"star", 10, 2, true},   {"chain", 0, 1, false},
    {"skew", 0, 1, false},  {"fact_pair", 0, 1, false},
};
constexpr size_t kClassicQueries = 4;
constexpr int64_t kBudgetBytes = 3LL << 30;
constexpr int kOracleConfigsPerQuery = 2;
constexpr int kNljOffQueries = 2;
constexpr int kNljOffConfigs = 3;
constexpr int kClassicConfigs = 3;
constexpr double kRel = 1e-9;

pinum::AdvisorOptions TuneAdvisorOptions() {
  pinum::AdvisorOptions options;
  options.budget_bytes = kBudgetBytes;
  return options;
}

pinum::PinumBuildOptions NljOffPinum() {
  pinum::PinumBuildOptions options;
  options.base_knobs.enable_nestloop = false;
  return options;
}

double DirectCost(const pinum::WorkloadInstance& inst, const pinum::Query& q,
                  const IndexConfig& config, bool nestloop) {
  const pinum::Catalog sub = inst.set.Subset(config);
  pinum::Optimizer optimizer(&sub, &inst.stats());
  pinum::PlannerKnobs knobs;
  knobs.enable_nestloop = nestloop;
  auto r = InSpan("optimizer.Optimize",
                  [&] { return optimizer.Optimize(q, knobs); });
  return r.ok() ? r->best->cost.total : -1.0;
}

// Sealed costs are upper bounds on a direct optimizer call: the cache
// prices real plans, so it can miss a cheaper one but never invent one.
void CheckSealedAgainstOptimizer(const BuiltWorkload& w, uint64_t seed,
                                 Ledger* ledger) {
  const pinum::WorkloadInstance& inst = *w.instance;
  pinum::Rng rng(seed);
  for (size_t qi = 0; qi < w.queries.size(); ++qi) {
    for (int t = 0; t < kOracleConfigsPerQuery; ++t) {
      const IndexConfig config =
          RandomAtomicConfig(w.queries[qi], inst.set, &rng);
      const double direct = DirectCost(inst, w.queries[qi], config, true);
      const double sealed = w.result.sealed[qi].Cost(config);
      ledger->Check(direct >= 0 && sealed >= direct * (1 - kRel),
                    inst.family + " " + w.queries[qi].name +
                        ": sealed cost below a direct optimizer call");
    }
  }
}

// With nested loops off PINUM's exported plan set is complete, so the
// sealed cost equals a direct optimizer call.
void CheckNljOffExact(const BuiltWorkload& w, uint64_t seed, Ledger* ledger) {
  const pinum::WorkloadInstance& inst = *w.instance;
  pinum::Rng rng(seed);
  for (int s = 0; s < kNljOffQueries; ++s) {
    const pinum::Query& q = w.queries[rng.Index(w.queries.size())];
    pinum::PinumBuildStats stats;
    auto cache = InSpan("pinum.BuildInumCachePinum", [&] {
      return pinum::BuildInumCachePinum(q, inst.catalog(), inst.set,
                                        inst.stats(), NljOffPinum(), &stats);
    });
    if (!cache.ok()) {
      ledger->Check(false, "NLJ-off PINUM build of " + q.name);
      continue;
    }
    const pinum::SealedCache sealed =
        InSpan("inum.SealedCache::Seal", [&] {
          return pinum::SealedCache::Seal(*cache, inst.set.NumIndexIds());
        });
    for (int t = 0; t < kNljOffConfigs; ++t) {
      const IndexConfig config = RandomAtomicConfig(q, inst.set, &rng);
      const double direct = DirectCost(inst, q, config, false);
      ledger->Check(
          direct >= 0 && WithinRel(sealed.Cost(config), direct, kRel),
          inst.family + " " + q.name +
              ": NLJ-off sealed cost differs from the optimizer");
    }
  }
}

// PINUM's cost never exceeds classic INUM's where PINUM's plan set
// provably covers classic's: with nested loops off on both, PINUM
// exports every per-IOC optimum while classic keeps one winner per IOC.
// (With NLJ plans on, PINUM's extreme calls are an approximation and
// can price slightly above classic; see CHANGES.md.)
void CheckPinumNotAboveClassic(const BuiltWorkload& paper, uint64_t seed,
                               Ledger* ledger) {
  const pinum::WorkloadInstance& inst = *paper.instance;
  pinum::Rng rng(seed);
  pinum::InumBuildOptions classic_options;
  classic_options.include_nlj_plans = false;
  classic_options.base_knobs.enable_nestloop = false;
  for (size_t qi = 0; qi < kClassicQueries; ++qi) {
    const pinum::Query& q = paper.queries[qi];
    pinum::InumBuildStats classic_stats;
    auto classic = InSpan("inum.BuildInumCacheClassic", [&] {
      return pinum::BuildInumCacheClassic(q, inst.catalog(), inst.set,
                                          inst.stats(), classic_options,
                                          &classic_stats);
    });
    pinum::PinumBuildStats pinum_stats;
    auto pinum_cache = InSpan("pinum.BuildInumCachePinum", [&] {
      return pinum::BuildInumCachePinum(q, inst.catalog(), inst.set,
                                        inst.stats(), NljOffPinum(),
                                        &pinum_stats);
    });
    if (!classic.ok() || !pinum_cache.ok()) {
      ledger->Check(false, "NLJ-off classic/PINUM builds of " + q.name);
      continue;
    }
    for (int t = 0; t < kClassicConfigs; ++t) {
      const IndexConfig c = RandomAtomicConfig(q, inst.set, &rng);
      ledger->Check(pinum_cache->Cost(c) <= classic->Cost(c) * (1 + kRel),
                    q.name + ": NLJ-off PINUM cost above classic INUM");
    }
  }
}

// Greedy's reported cost is the workload cost of its picks, and the
// picks fit the budget.
void CheckGreedy(const BuiltWorkload& w, const pinum::AdvisorResult& r,
                 Ledger* ledger) {
  const IndexConfig chosen(r.chosen.begin(), r.chosen.end());
  ledger->Check(SumOfCosts(w.result.sealed, chosen) == r.workload_cost_after &&
                    r.total_size_bytes <= kBudgetBytes,
                w.instance->family + ": greedy result is not the cost of"
                                     " its picks within the budget");
}

struct RoundRates {
  std::vector<double> tune_queries_per_s;
  std::vector<double> inum_queries_per_s;
};

void RunRound(const StageIo& io, uint64_t round, RoundRates* rates) {
  const RunConfig& config = *io.config;
  Ledger* ledger = io.ledger;
  LayerStats* layers = io.layers;
  std::vector<BuiltWorkload> built;
  double tune_ms = 0;
  int64_t tune_queries = 0;
  for (size_t i = 0; i < std::size(kRound); ++i) {
    const TuneInput& in = kRound[i];
    trace::Operation op;
    BuiltWorkload w;
    pinum::AdvisorResult greedy;
    const Clock::time_point start = Clock::now();
    w.instance = Generate(in.family,
                          in.paper ? kPaperSeed
                                   : MixSeed(config.seed, 100 + i, round),
                          in.num_queries, layers);
    w.queries = Replicate(w.instance->queries, in.replicas);
    const bool ok = BuildWorkload(&w, layers);
    if (ok) {
      const Clock::time_point g = Clock::now();
      greedy = InSpan("advisor.RunGreedyAdvisor", [&] {
        return pinum::RunGreedyAdvisor(w.result.sealed, w.instance->set,
                                       TuneAdvisorOptions());
      });
      layers->Sample("advisor.greedy_ms", MsSince(g));
    }
    const double ms = MsSince(start);
    ledger->Op(ok, std::string("cold tuning session on ") + in.family);
    if (!ok) continue;
    tune_ms += ms;
    tune_queries += static_cast<int64_t>(w.queries.size());
    layers->Add("advisor.evaluations", static_cast<double>(greedy.evaluations));
    layers->Add("advisor.full_evaluations",
                static_cast<double>(greedy.full_evaluations));
    CheckGreedy(w, greedy, ledger);
    built.push_back(std::move(w));
  }
  if (built.size() != std::size(kRound)) return;
  rates->tune_queries_per_s.push_back(tune_queries / (tune_ms / 1000.0));

  // Classic INUM over the paper workload's smallest queries.
  const BuiltWorkload& paper = built.front();
  const pinum::WorkloadInstance& inst = *paper.instance;
  double classic_ms = 0;
  int64_t classic_queries = 0;
  for (size_t qi = 0; qi < kClassicQueries; ++qi) {
    trace::Operation op;
    pinum::InumBuildStats stats;
    const Clock::time_point start = Clock::now();
    auto classic = InSpan("inum.BuildInumCacheClassic", [&] {
      return pinum::BuildInumCacheClassic(paper.queries[qi], inst.catalog(),
                                          inst.set, inst.stats(),
                                          pinum::InumBuildOptions{}, &stats);
    });
    const double ms = MsSince(start);
    ledger->Op(classic.ok(), "classic INUM build of " + paper.queries[qi].name);
    if (!classic.ok()) continue;
    classic_ms += ms;
    ++classic_queries;
    layers->Sample("inum.classic_build_ms", ms);
    layers->Add("inum.classic_calls",
                static_cast<double>(stats.plan_cache_calls +
                                    stats.access_cost_calls));
  }
  if (classic_queries > 0) {
    rates->inum_queries_per_s.push_back(classic_queries /
                                        (classic_ms / 1000.0));
  }

  // The optimizer oracles are expensive (one optimizer call per sampled
  // configuration), so they run on the first round only.
  if (round == 0) {
    for (size_t i = 0; i < built.size(); ++i) {
      if (kRound[i].replicas > 1) continue;  // same queries as index 0
      CheckSealedAgainstOptimizer(built[i], MixSeed(config.seed, 200 + i),
                                  ledger);
    }
    CheckNljOffExact(built[0], MixSeed(config.seed, 210), ledger);
    CheckNljOffExact(built[2], MixSeed(config.seed, 211), ledger);
    CheckPinumNotAboveClassic(paper, MixSeed(config.seed, 212), ledger);
  }
}

class TuneStage : public Stage {
 public:
  explicit TuneStage(const StageIo& io) : io_(io) {}

  void Slice(double seconds) override {
    const Clock::time_point start = Clock::now();
    do {
      RunRound(io_, round_++, &rates_);
    } while (MsSince(start) < seconds * 1000.0);
  }

  // Medians over rounds keep a burst of machine noise in one round from
  // moving the figure.
  void Finish() override {
    LogSamples("tune queries/s per round", rates_.tune_queries_per_s);
    LogSamples("classic queries/s per round", rates_.inum_queries_per_s);
    io_.e2e->Set("tune_queries_per_s", Median(rates_.tune_queries_per_s),
                 "queries/s");
    io_.e2e->Set("inum_queries_per_s", Median(rates_.inum_queries_per_s),
                 "queries/s");
  }

 private:
  const StageIo io_;
  uint64_t round_ = 0;
  RoundRates rates_;
};

}  // namespace

std::unique_ptr<Stage> MakeTuneStage(const StageIo& io) {
  return std::make_unique<TuneStage>(io);
}

}  // namespace pipebench
