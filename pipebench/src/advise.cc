// advise stage: greedy and search advisor runs over a fixed grid of
// (instance, budget) cells on caches built once per set-up. No optimizer
// call happens here: all time goes to the advisor and to the sealed
// caches' delta pricing. Search runs use fixed restarts and no time
// budget, so their results are deterministic. The grid's instances are
// fixed (the paper workload and the corpus's first chain and skew
// seeds); --seed drives the search seeds and the sampled greedy steps.
#include <algorithm>
#include <unordered_set>

#include "advisor/search_advisor.h"

#include "bench.h"

namespace pipebench {
namespace {

using pinum::IndexConfig;

struct GridInput {
  const char* family;
  int num_queries;
  uint64_t seed;
};
const GridInput kGrid[] = {
    {"chain", 60, 1}, {"skew", 30, 1}, {"star", 10, kPaperSeed}};
const int64_t kBudgets[] = {1LL << 30, 4LL << 30};
constexpr int kSearchRestarts = 8;
constexpr int kSampledGreedySteps = 2;

pinum::AdvisorOptions Options(int64_t budget) {
  pinum::AdvisorOptions options;
  options.budget_bytes = budget;
  return options;
}

// Re-prices step `k` of a greedy run by brute force: the pick must have
// the lowest cost among all candidates that still fit the budget.
bool GreedyStepIsBest(const BuiltWorkload& w, const pinum::AdvisorResult& r,
                      size_t k, int64_t budget) {
  const std::vector<pinum::AdvisorCandidate> candidates =
      pinum::ResolveAdvisorCandidates(w.instance->set);
  IndexConfig base(r.chosen.begin(), r.chosen.begin() + static_cast<long>(k));
  int64_t used = 0;
  for (size_t i = 0; i < k; ++i) used += r.steps[i].size_bytes;
  const std::unordered_set<pinum::IndexId> in_base(base.begin(), base.end());
  double best = pinum::kInfiniteCost;
  for (const pinum::AdvisorCandidate& c : candidates) {
    if (in_base.count(c.id) || used + c.size_bytes > budget) continue;
    IndexConfig config = base;
    config.push_back(c.id);
    best = std::min(best, SumOfCosts(w.result.sealed, config));
  }
  base.push_back(r.chosen[k]);
  const double picked = SumOfCosts(w.result.sealed, base);
  return picked == r.steps[k].workload_cost_after && picked <= best &&
         used + r.steps[k].size_bytes <= budget;
}

struct CellResult {
  IndexConfig greedy_chosen;
  IndexConfig search_chosen;
  double before = 0;
  double search_after = 0;
};

}  // namespace

std::unique_ptr<AdviseSetup> SetUpAdvise(LayerStats* layers) {
  auto setup = std::make_unique<AdviseSetup>();
  for (size_t i = 0; i < std::size(kGrid); ++i) {
    BuiltWorkload w;
    w.instance = Generate(kGrid[i].family, kGrid[i].seed,
                          kGrid[i].num_queries, layers);
    w.queries = w.instance->queries;
    if (!BuildWorkload(&w, layers)) return nullptr;
    setup->grid.push_back(std::move(w));
  }
  return setup;
}

namespace {

class AdviseStage : public Stage {
 public:
  AdviseStage(const StageIo& io, AdviseSetup* setup)
      : io_(io), setup_(setup) {}

  void Slice(double seconds) override {
    const Clock::time_point start = Clock::now();
    do {
      RunRound(round_++);
    } while (MsSince(start) < seconds * 1000.0);
  }

  // Rates are medians over rounds; the cost ratio sums the first round.
  // Search time is reported per layer (advisor.search_ms): on a shared
  // VM its run-to-run spread exceeds any bound the benchmark may set.
  void Finish() override {
    double before = 0, after = 0;
    for (const CellResult& c : first_) {
      before += c.before;
      after += c.search_after;
    }
    LogSamples("greedy runs/s per round", greedy_rates_);
    io_.e2e->Set("greedy_per_s", Median(greedy_rates_), "runs/s");
    io_.e2e->Set("advised_cost_ratio", after / before, "ratio");
  }

 private:
  // One pass over the grid. Round 0 is the reference pass: it samples
  // greedy steps for the brute-force check, and every later round must
  // choose the same sets.
  void RunRound(int round) {
    Ledger* ledger = io_.ledger;
    LayerStats* layers = io_.layers;
    double greedy_ms = 0;
    size_t cell = 0;
    for (const BuiltWorkload& w : setup_->grid) {
      for (int64_t budget : kBudgets) {
        const std::string where = w.instance->family + " budget " +
                                  std::to_string(budget >> 30) + "GiB";
        pinum::AdvisorResult greedy;
        {
          trace::Operation op;
          const Clock::time_point t = Clock::now();
          {
            trace::Span span("advisor.RunGreedyAdvisor");
            greedy = pinum::RunGreedyAdvisor(w.result.sealed, w.instance->set,
                                             Options(budget));
          }
          const double ms = MsSince(t);
          greedy_ms += ms;
          layers->Sample("advisor.greedy_ms", ms);
          layers->Add("advisor.evaluations",
                      static_cast<double>(greedy.evaluations));
          layers->Add("advisor.full_evaluations",
                      static_cast<double>(greedy.full_evaluations));
          ledger->Op(true, "greedy run");
        }
        pinum::SearchResult search;
        {
          trace::Operation op;
          pinum::SearchOptions options;
          options.base = Options(budget);
          options.seed = MixSeed(io_.config->seed, 320 + cell);
          options.max_restarts = kSearchRestarts;
          const Clock::time_point t = Clock::now();
          {
            trace::Span span("advisor.RunSearchAdvisor");
            search = pinum::RunSearchAdvisor(w.result.sealed, w.instance->set,
                                             options);
          }
          const double ms = MsSince(t);
          layers->Sample("advisor.search_ms", ms);
          layers->Add("advisor.evaluations",
                      static_cast<double>(search.evaluations));
          layers->Add("advisor.full_evaluations",
                      static_cast<double>(search.full_evaluations));
          layers->Add("advisor.restarts_completed",
                      static_cast<double>(search.restarts_completed));
          layers->Add("advisor.swaps_accepted",
                      static_cast<double>(search.swaps_accepted));
          layers->Add("advisor.swap_candidates_pruned",
                      static_cast<double>(search.swap_candidates_pruned));
          layers->Add("advisor.search_runs", 1);
          ledger->Op(true, "search run");
        }

        // Oracles, outside the timed calls.
        const IndexConfig greedy_chosen(greedy.chosen.begin(),
                                        greedy.chosen.end());
        ledger->Check(
            SumOfCosts(w.result.sealed, greedy_chosen) ==
                    greedy.workload_cost_after &&
                greedy.total_size_bytes <= budget,
            where + ": greedy cost is not the re-priced cost of its picks");
        ledger->Check(
            SumOfCosts(w.result.sealed, search.chosen) ==
                    search.workload_cost_after &&
                search.greedy_cost_after == greedy.workload_cost_after &&
                search.workload_cost_after <= greedy.workload_cost_after &&
                search.total_size_bytes <= budget,
            where + ": search result worse than greedy or mis-priced");
        if (round == 0) {
          pinum::Rng rng(MixSeed(io_.config->seed, 340 + cell));
          for (int s = 0; s < kSampledGreedySteps && !greedy.steps.empty();
               ++s) {
            const size_t k = rng.Index(greedy.steps.size());
            ledger->Check(GreedyStepIsBest(w, greedy, k, budget),
                          where + ": greedy step " + std::to_string(k) +
                              " is not the brute-force best pick");
          }
          first_.push_back({greedy_chosen, search.chosen,
                           search.workload_cost_before,
                           search.workload_cost_after});
        } else {
          ledger->Check(first_[cell].greedy_chosen == greedy_chosen &&
                            first_[cell].search_chosen == search.chosen,
                        where + ": a second pass chose a different set");
        }
        ++cell;
      }
    }
    greedy_rates_.push_back(cell / (greedy_ms / 1000.0));
  }

  const StageIo io_;
  AdviseSetup* setup_;
  int round_ = 0;
  std::vector<double> greedy_rates_;
  std::vector<CellResult> first_;
};

}  // namespace

std::unique_ptr<Stage> MakeAdviseStage(const StageIo& io, AdviseSetup* setup) {
  return std::make_unique<AdviseStage>(io, setup);
}

}  // namespace pipebench
