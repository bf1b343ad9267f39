// Traced runs only: BuildAll and Reseal do not expose their inner
// layers, so after the timed loops the traced run calls the lower
// layers' public functions directly on the tune stage's paper workload
// (session 0's inputs).
#include "advisor/candidate_generator.h"
#include "inum/sealed_cache.h"
#include "optimizer/optimizer.h"
#include "pinum/pinum_builder.h"
#include "workload/drift.h"

#include "bench.h"

namespace pipebench {
namespace {

constexpr int kCostConfigsPerQuery = 64;
constexpr size_t kStaleTarget = 4;

}  // namespace

void RunLayerProbe(const StageIo& io) {
  LayerStats* layers = io.layers;
  Ledger* ledger = io.ledger;
  BuiltWorkload w;
  w.instance = Generate("star", kPaperSeed, 10, layers);
  w.queries = w.instance->queries;
  const pinum::WorkloadInstance& inst = *w.instance;

  {
    trace::Operation op;
    const Clock::time_point t = Clock::now();
    std::vector<pinum::IndexDef> candidates;
    {
      trace::Span span("advisor.GenerateCandidates");
      candidates = pinum::GenerateCandidates(w.queries, inst.catalog(),
                                             inst.stats(),
                                             pinum::CandidateOptions{});
    }
    layers->Sample("advisor.candidates_ms", MsSince(t));
    ledger->Op(!candidates.empty(), "GenerateCandidates");
  }

  pinum::Rng rng(MixSeed(io.config->seed, 500));
  for (const pinum::Query& q : w.queries) {
    trace::Operation op;
    const pinum::Optimizer optimizer(&inst.set.universe, &inst.stats());
    Clock::time_point t = Clock::now();
    auto optimized = InSpan("optimizer.Optimize", [&] {
      return optimizer.Optimize(q, pinum::PlannerKnobs{});
    });
    layers->Sample("optimizer.call_ms", MsSince(t));
    ledger->Op(optimized.ok(), "Optimize " + q.name);
    if (optimized.ok()) {
      layers->Sample("optimizer.paths_considered",
                     static_cast<double>(optimized->paths_considered));
    }

    pinum::PinumBuildStats stats;
    t = Clock::now();
    auto cache = InSpan("pinum.BuildInumCachePinum", [&] {
      return pinum::BuildInumCachePinum(q, inst.catalog(), inst.set,
                                        inst.stats(),
                                        pinum::PinumBuildOptions{}, &stats);
    });
    layers->Sample("pinum.build_ms", MsSince(t));
    ledger->Op(cache.ok(), "BuildInumCachePinum " + q.name);
    if (!cache.ok()) continue;
    layers->Sample("pinum.plan_phase_ms", stats.plan_cache_ms);
    layers->Sample("pinum.access_phase_ms", stats.access_cost_ms);
    layers->Sample("pinum.iocs", static_cast<double>(stats.iocs_total));
    layers->Sample("pinum.plans_exported",
                   static_cast<double>(stats.plans_exported));
    layers->Sample("pinum.plans_cached",
                   static_cast<double>(stats.plans_cached));
    layers->Add("pinum.plans_exported_sum",
                static_cast<double>(stats.plans_exported));
    layers->Add("pinum.plans_cached_sum",
                static_cast<double>(stats.plans_cached));

    t = Clock::now();
    const pinum::SealedCache sealed = InSpan("inum.SealedCache::Seal", [&] {
      return pinum::SealedCache::Seal(*cache, inst.set.NumIndexIds());
    });
    layers->Sample("inum.seal_ms", MsSince(t));

    std::vector<pinum::IndexConfig> configs;
    for (int i = 0; i < kCostConfigsPerQuery; ++i) {
      configs.push_back(RandomAtomicConfig(q, inst.set, &rng));
    }
    double sink = 0;
    t = Clock::now();
    {
      trace::Span span("inum.SealedCache::Cost");
      for (const pinum::IndexConfig& c : configs) sink += sealed.Cost(c);
    }
    layers->Sample("inum.cost_ns",
                   MsSince(t) * 1e6 / static_cast<double>(configs.size()));

    pinum::SealedCache::CostContext ctx;
    sealed.PrepareContext(configs.front(), &ctx);
    t = Clock::now();
    {
      trace::Span span("inum.SealedCache::CostWithExtra");
      for (pinum::IndexId id : inst.set.candidate_ids) {
        sink += sealed.CostWithExtra(&ctx, id);
      }
    }
    layers->Sample("inum.cost_with_extra_ns",
                   MsSince(t) * 1e6 /
                       static_cast<double>(inst.set.candidate_ids.size()));
    ledger->Op(sink > 0, "sealed pricing of " + q.name);
  }

  // The rebuild Reseal runs, called directly after a drift.
  {
    trace::Operation op;
    w.queries = w.instance->queries;
    const bool built = BuildWorkload(&w, layers);
    ledger->Op(built, "probe BuildAll");
    if (!built) return;
    auto drift = pinum::ApplyDrift(w.queries, &w.instance->set,
                                   &w.instance->mutable_stats(), kStaleTarget,
                                   MixSeed(io.config->seed, 510));
    ledger->Op(drift.ok(), "probe drift");
    if (!drift.ok()) return;
    const Clock::time_point t = Clock::now();
    auto rebuilt = InSpan("workload.RebuildQueriesInto", [&] {
      return w.builder->RebuildQueriesInto(drift->stale_queries, w.queries,
                                           w.result);
    });
    layers->Sample("workload.rebuild_ms", MsSince(t));
    ledger->Op(rebuilt.ok(), "RebuildQueriesInto");
  }
}

}  // namespace pipebench
