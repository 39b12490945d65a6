#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "server/wire.h"
#include "util/logging.h"

namespace wirebench {
namespace {

// Rates measured on a 4-CPU x86 host at the default 1.5M-row population;
// see NOTES.md.
const WorkloadSettings kWorkloads[] = {
    // name, nominal rate, burst, warm-up requests. At 40k req/s some hot
    // runs hung like churn's (see NOTES.md).
    {"adhoc", 200, 1, 1200},
    {"hot", 20000, 1, 40000},
    // churn is not gated in BENCHMARK.json; at this rate its requests
    // hang in some runs, which it exists to show (see NOTES.md).
    {"churn", 1600, kConnections, 8000},
};

constexpr size_t kHotPoints = 35;
constexpr size_t kChurnQueries = 10000;
constexpr double kZipfExponent = 1.1;
// adhoc mix: two thirds points, one third filtered GROUP BYs, so the
// median falls among the points and p90 among the GROUP BYs rather than
// in the gap between them. Self-joins are left to the traced run: one
// costs about 0.6 s of server CPU at this size, so even a 0.5% share
// saturated the server (see NOTES.md).
constexpr double kAdhocPointShare = 2.0 / 3.0;

std::unique_ptr<themis::CategoricalSampler> ZipfSampler(size_t n) {
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
  }
  return std::make_unique<themis::CategoricalSampler>(weights);
}

}  // namespace

const WorkloadSettings* FindWorkload(const std::string& name) {
  for (const WorkloadSettings& settings : kWorkloads) {
    if (settings.name == name) return &settings;
  }
  return nullptr;
}

Workload::Workload(const WorkloadSettings& settings,
                   const themis::data::Table& population, uint64_t seed)
    : settings_(settings),
      factory_(population),
      rng_(seed * 1009 + 17),
      extra_rng_(seed * 1009 + 29) {
  std::unordered_set<std::string> texts;
  const auto add_distinct = [&](BenchQuery query) {
    if (!texts.insert(query.sql).second) return;
    fixed_.push_back(Add(std::move(query)));
  };
  if (settings_.name == "hot") {
    // Every 1-D and 2-D GROUP BY plus a fixed set of point queries.
    for (size_t a = 0; a < 5; ++a) {
      add_distinct(factory_.PlainGroupBy({a}));
      for (size_t b = a + 1; b < 5; ++b) {
        add_distinct(factory_.PlainGroupBy({a, b}));
      }
    }
    while (fixed_.size() < 15 + kHotPoints) {
      add_distinct(factory_.RandomPoint(rng_));
    }
  } else if (settings_.name == "churn") {
    while (fixed_.size() < kChurnQueries) {
      add_distinct(factory_.RandomGroupBy(rng_));
    }
  }
  if (!fixed_.empty()) {
    std::shuffle(fixed_.begin(), fixed_.end(), rng_.engine());
    zipf_ = ZipfSampler(fixed_.size());
  }
}

uint32_t Workload::Add(BenchQuery query) {
  themis::server::WireRequest request;
  request.sql = query.sql;
  lines_.push_back(themis::server::EncodeRequest(request) + "\n");
  queries_.push_back(std::move(query));
  return static_cast<uint32_t>(queries_.size() - 1);
}

uint32_t Workload::Next() {
  if (zipf_ != nullptr) return fixed_[zipf_->Sample(rng_)];
  // adhoc: every text is new.
  while (true) {
    BenchQuery query = rng_.UniformDouble() < kAdhocPointShare
                           ? factory_.RandomPoint(rng_)
                           : factory_.RandomGroupBy(rng_);
    if (!seen_.insert(query.sql).second) continue;
    return Add(std::move(query));
  }
}

PhasePlan Workload::MakePhase(double rate, double seconds) {
  PhasePlan plan;
  plan.burst = settings_.burst;
  plan.arrivals = PoissonArrivals(rate / static_cast<double>(plan.burst),
                                  seconds, rng_, [this] { return Next(); });
  return plan;
}

PhasePlan Workload::MakeWarmup() {
  const double rate = 3 * settings_.nominal_rate;
  return MakePhase(rate, static_cast<double>(settings_.warmup_requests) / rate);
}

BenchQuery Workload::ExtraQuery(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPoint: return factory_.RandomPoint(extra_rng_);
    case QueryKind::kGroupBy: return factory_.RandomGroupBy(extra_rng_);
    case QueryKind::kJoin: return factory_.RandomJoin(extra_rng_);
  }
  THEMIS_CHECK(false);
  return {};
}

}  // namespace wirebench
