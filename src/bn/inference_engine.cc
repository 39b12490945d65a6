#include "bn/inference_engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace themis::bn {

namespace {

/// Canonical evidence rendering: "a=v" pairs sorted by attribute index.
void AppendEvidence(const Evidence& evidence, std::string* key) {
  std::vector<std::pair<size_t, data::ValueCode>> sorted(evidence.begin(),
                                                         evidence.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [attr, code] : sorted) {
    key->append(std::to_string(attr));
    key->push_back('=');
    key->append(std::to_string(code));
    key->push_back(',');
  }
}

std::string ProbabilityKey(const Evidence& evidence) {
  std::string key = "P|";
  AppendEvidence(evidence, &key);
  return key;
}

std::string TableKey(const std::vector<size_t>& sorted_attrs,
                     double population_size) {
  std::string key = "T|";
  for (size_t a : sorted_attrs) {
    key.append(std::to_string(a));
    key.push_back(',');
  }
  char scale[32];
  std::snprintf(scale, sizeof(scale), "|%a", population_size);  // exact
  key.append(scale);
  return key;
}

}  // namespace

InferenceEngine::InferenceEngine(const BayesianNetwork* network)
    : InferenceEngine(network, Options()) {}

InferenceEngine::InferenceEngine(const BayesianNetwork* network,
                                 Options options)
    : network_(network),
      ve_(network),
      cost_aware_(options.cache_bytes > 0),
      cache_enabled_(options.enable_cache),
      cache_(options.cache_bytes > 0 ? options.cache_bytes
                                     : options.cache_capacity) {}

size_t InferenceEngine::EntryCost(const CacheValue& value) const {
  if (!cost_aware_) return 1;
  if (const auto* table =
          std::get_if<std::shared_ptr<const data::Table>>(&value)) {
    // The table's code columns and weights.
    return sizeof(CacheValue) + sizeof(data::Table) +
           (*table)->num_rows() *
               data::Table::ScanBytesPerRow((*table)->num_attributes());
  }
  // Scalar probability: key string + value + list/map overhead.
  return sizeof(CacheValue) + 64;
}

bool InferenceEngine::cache_enabled() const {
  return cache_enabled_.load(std::memory_order_relaxed);
}

void InferenceEngine::set_cache_enabled(bool enabled) {
  cache_enabled_.store(enabled, std::memory_order_relaxed);
}

void InferenceEngine::set_cache_bytes(size_t cache_bytes) {
  if (!cost_aware_ || cache_bytes == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  cache_.set_capacity(cache_bytes);
}

void InferenceEngine::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Clear();
  hits_ = 0;
  misses_ = 0;
}

InferenceCacheStats InferenceEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  InferenceCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = cache_.evictions();
  stats.rejections = cache_.rejections();
  stats.entries = cache_.size();
  stats.cost = cache_.total_cost();
  stats.capacity = cache_.capacity();
  return stats;
}

Result<double> InferenceEngine::Probability(const Evidence& evidence) const {
  const bool enabled = cache_enabled();
  std::string key;
  if (enabled) {
    key = ProbabilityKey(evidence);  // pure; built outside the lock
    std::lock_guard<std::mutex> lock(mu_);
    if (auto cached = cache_.Get(key)) {
      ++hits_;
      return std::get<double>(*cached);
    }
    ++misses_;
  }
  THEMIS_ASSIGN_OR_RETURN(double p, ve_.Probability(evidence));
  if (enabled) {
    CacheValue value = p;
    const size_t cost = EntryCost(value);
    std::lock_guard<std::mutex> lock(mu_);
    cache_.Put(key, std::move(value), cost);
  }
  return p;
}

Result<std::shared_ptr<const data::Table>> InferenceEngine::MarginalTable(
    const std::vector<size_t>& attrs, double population_size) const {
  std::vector<size_t> sorted = attrs;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  const bool enabled = cache_enabled();
  std::string key;
  if (enabled) {
    key = TableKey(sorted, population_size);
    std::lock_guard<std::mutex> lock(mu_);
    if (auto cached = cache_.Get(key)) {
      ++hits_;
      return std::get<std::shared_ptr<const data::Table>>(*cached);
    }
    ++misses_;
  }
  THEMIS_ASSIGN_OR_RETURN(data::Table joint,
                          ve_.JointTable(sorted, population_size));
  auto table = std::make_shared<const data::Table>(std::move(joint));
  if (enabled) {
    CacheValue value = table;
    const size_t cost = EntryCost(value);
    std::lock_guard<std::mutex> lock(mu_);
    cache_.Put(key, std::move(value), cost);
  }
  return table;
}

}  // namespace themis::bn
