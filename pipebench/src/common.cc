#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench.h"

namespace pipebench {

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
               (b * 0xc2b2ae3d27d4eb4fULL) ^ 0x165667b19e3779f9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Ledger::Op(bool ok, const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return;
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(log_mu_);
  // The first failures say what broke; the rest only count.
  if (logged_ < 20) {
    ++logged_;
    std::fprintf(stderr, "pipebench: FAILED %s\n", what.c_str());
  }
}

void Ledger::Check(bool ok, const std::string& what) {
  if (!ok) correct_.store(false);
  Op(ok, "check: " + what);
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char buf[96];
    // Non-finite values have no JSON literal; they only arise from a
    // broken run, which then reports null.
    if (std::isfinite(entries_[i].value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

void LayerStats::Sample(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(value);
}

void LayerStats::Add(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_[name] += value;
}

double LayerStats::Median(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : pipebench::Median(it->second);
}

size_t LayerStats::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : it->second.size();
}

double LayerStats::Total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void LogSamples(const char* what, const std::vector<double>& values) {
  std::string line = std::string("pipebench: ") + what + ":";
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    line += buf;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

pinum::IndexConfig RandomAtomicConfig(const pinum::Query& q,
                                      const pinum::CandidateSet& set,
                                      pinum::Rng* rng, double p_fill) {
  std::map<pinum::TableId, std::vector<pinum::IndexId>> per_table;
  for (pinum::IndexId id : set.candidate_ids) {
    const pinum::IndexDef* def = set.universe.FindIndex(id);
    if (def != nullptr && q.PosOfTable(def->table) >= 0) {
      per_table[def->table].push_back(id);
    }
  }
  pinum::IndexConfig config;
  for (auto& [table, ids] : per_table) {
    (void)table;
    if (rng->Chance(p_fill)) config.push_back(ids[rng->Index(ids.size())]);
  }
  return config;
}

std::vector<pinum::Query> Replicate(const std::vector<pinum::Query>& queries,
                                    int times) {
  std::vector<pinum::Query> out;
  for (int r = 0; r < times; ++r) {
    for (const pinum::Query& q : queries) {
      pinum::Query clone = q;
      if (r > 0) clone.name += "_r" + std::to_string(r);
      out.push_back(std::move(clone));
    }
  }
  return out;
}

std::unique_ptr<pinum::WorkloadInstance> Generate(const std::string& family,
                                                  uint64_t seed,
                                                  int num_queries,
                                                  LayerStats* layers) {
  pinum::WorkloadFamilyOptions options;
  options.seed = seed;
  options.num_queries = num_queries;
  const Clock::time_point start = Clock::now();
  auto made = InSpan("workload.MakeWorkloadInstance", [&] {
    return pinum::MakeWorkloadInstance(family, options);
  });
  layers->Sample("workload.generate_ms", MsSince(start));
  if (!made.ok()) {
    std::fprintf(stderr, "pipebench: generating %s seed %" PRIu64 ": %s\n",
                 family.c_str(), seed, made.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*made);
}

double SumOfCosts(const std::vector<pinum::SealedCache>& sealed,
                  const pinum::IndexConfig& config) {
  double total = 0;
  for (const pinum::SealedCache& cache : sealed) total += cache.Cost(config);
  return total;
}

bool BuildWorkload(BuiltWorkload* w, LayerStats* layers) {
  pinum::WorkloadCacheOptions options;
  // Serial builds: the figure then measures the optimizer's work, not
  // how many idle cores the machine had during the run.
  options.num_threads = 1;
  w->builder = std::make_unique<pinum::WorkloadCacheBuilder>(
      &w->instance->catalog(), &w->instance->set, &w->instance->stats(),
      options);
  const Clock::time_point start = Clock::now();
  auto built = InSpan("workload.BuildAll",
                      [&] { return w->builder->BuildAll(w->queries); });
  const double ms = MsSince(start);
  if (!built.ok()) {
    std::fprintf(stderr, "pipebench: BuildAll: %s\n",
                 built.status().ToString().c_str());
    return false;
  }
  w->result = std::move(*built);
  const pinum::WorkloadCacheStats& t = w->result.totals;
  layers->Sample("workload.build_all_ms", ms);
  layers->Add("workload.queries_built", static_cast<double>(w->queries.size()));
  layers->Add("workload.optimizer_calls",
              static_cast<double>(t.plan_cache_calls + t.access_cost_calls));
  layers->Add("workload.access_cost_calls",
              static_cast<double>(t.access_cost_calls));
  layers->Add("workload.access_calls_saved",
              static_cast<double>(t.access_calls_saved));
  layers->Add("inum.plans", static_cast<double>(t.plans_cached));
  layers->Add("inum.plans_pruned", static_cast<double>(t.plans_pruned));
  layers->Add("inum.terms", static_cast<double>(t.terms));
  layers->Add("inum.postings", static_cast<double>(t.postings));
  size_t arena = 0;
  for (const pinum::SealedCache& c : w->result.sealed) {
    arena += c.ArenaBytes();
  }
  layers->Add("inum.arena_bytes", static_cast<double>(arena));
  return true;
}

double StageSeconds(const RunConfig& config, const std::string& stage) {
  static const std::map<std::string, std::string> kStageOf = {
      {"tune_cold", "tune"}, {"serve_drift", "serve"}};
  const double share = kStageOf.at(config.workload) == stage
                           ? kPrimaryShare
                           : (1.0 - kPrimaryShare) / 2.0;
  return config.seconds * share;
}

}  // namespace pipebench
