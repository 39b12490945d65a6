#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "aggregate/aggregate_io.h"
#include "data/csv.h"
#include "server/wire.h"
#include "stats/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace wirebench {
namespace {

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Mean percent difference over the union of groups; a group only one
// side has costs the maximum, 200 (paper Sec 6.3).
double GroupByError(const std::map<std::string, double>& truth,
                    const themis::sql::QueryResult& served) {
  const std::map<std::string, double> estimate = served.ValueMap();
  double total = 0;
  size_t count = 0;
  for (const auto& [group, value] : truth) {
    auto it = estimate.find(group);
    total += it == estimate.end()
                 ? themis::stats::kMaxPercentDifference
                 : themis::stats::PercentDifference(value, it->second);
    ++count;
  }
  for (const auto& [group, value] : estimate) {
    if (truth.count(group) == 0) {
      total += themis::stats::kMaxPercentDifference;
      ++count;
    }
  }
  return count == 0 ? 0 : total / static_cast<double>(count);
}

}  // namespace

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--server") {
      options->server_path = value;
    } else if (flag == "--work") {
      options->work_dir = value;
    } else if (flag == "--rows") {
      options->rows = std::strtoull(value, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0 || options->workload.empty() ||
      options->server_path.empty() || options->work_dir.empty() ||
      options->seconds <= 0 || options->rows == 0) {
    std::fprintf(stderr,
                 "usage: wirebench --workload W --seed N --seconds S "
                 "--trace 0|1 --server THEMIS_CLI --work DIR [--rows N]\n");
    return false;
  }
  return true;
}

std::unique_ptr<ServerProcess> LaunchServer(const Options& options,
                                            const Dataset& dataset) {
  std::vector<std::string> argv = {options.server_path, dataset.sample_csv};
  for (const std::string& path : dataset.aggregate_csvs) argv.push_back(path);
  for (const char* arg : {"--n", "", "--serve", "0"}) argv.emplace_back(arg);
  argv[argv.size() - 3] = std::to_string(options.rows);
  return ServerProcess::Launch(argv, 120);
}

std::unique_ptr<themis::core::ThemisDb> BuildDb(const Options& options,
                                                const Dataset& dataset,
                                                SpanRecorder* spans) {
  // Mirrors themis_cli: the aggregates intern into the sample's schema,
  // and the population size is passed explicitly.
  const auto span = [&](const char* name) {
    return spans == nullptr ? nullptr
                            : std::make_unique<ScopedSpan>(spans, name, 0);
  };
  themis::Result<themis::data::Table> sample =
      themis::Status::Internal("unread");
  {
    auto s = span("data.ReadCsv");
    sample = themis::data::ReadCsv(dataset.sample_csv);
  }
  THEMIS_CHECK(sample.ok()) << sample.status().ToString();
  themis::core::ThemisOptions db_options;
  db_options.population_size = static_cast<double>(options.rows);
  auto db = std::make_unique<themis::core::ThemisDb>(db_options);
  THEMIS_CHECK_OK(db->InsertSample("sample", sample->Clone()));
  for (const std::string& path : dataset.aggregate_csvs) {
    themis::Result<themis::aggregate::AggregateSpec> spec =
        themis::Status::Internal("unread");
    {
      auto s = span("aggregate.ReadAggregateCsv");
      spec = themis::aggregate::ReadAggregateCsv(*sample->schema(), path);
    }
    THEMIS_CHECK(spec.ok()) << spec.status().ToString();
    THEMIS_CHECK_OK(db->InsertAggregate("sample", std::move(spec).value()));
  }
  {
    auto s = span("core.ThemisDb::Build");
    THEMIS_CHECK_OK(db->Build());
  }
  return db;
}

void PrintHost(themis::server::Client& client) {
  auto stats = client.Stats();
  if (!stats.ok()) {
    std::printf("host: STATS failed: %s\n",
                stats.status().ToString().c_str());
    return;
  }
  const themis::server::HostStats& host = stats->host;
  std::printf("host: cpus=%zu simd=%s l1d=%zu l2=%zu l3=%zu line=%zu "
              "probed=%d\n",
              host.num_cpus, host.simd_backend.c_str(), host.l1d_bytes,
              host.l2_bytes, host.l3_bytes, host.cache_line_bytes,
              host.cache_probed ? 1 : 0);
}

bool CheckStatuses(const std::string& label, const PhaseResult& phase) {
  if (phase.errors == 0 && phase.error_codes.empty()) return true;
  std::fprintf(stderr, "%s: %zu error answers:", label.c_str(),
               phase.errors);
  for (const auto& [code, count] : phase.error_codes) {
    std::fprintf(stderr, " %s=%zu", code.c_str(), count);
  }
  std::fprintf(stderr, "\n");
  return false;
}

void PrintPhase(const std::string& label, double rate,
                const PhaseResult& phase) {
  const size_t n = phase.latency_ms.size();
  std::printf(
      "phase %-12s offered=%.0f/s sent=%zu ok=%zu refused=%zu errors=%zu "
      "timeouts=%zu hung=%zu backlog=%zu p50=%.3fms p90=%.3fms "
      "p99=%.3fms(%zu beyond) max=%.3fms(n=%zu)\n",
      label.c_str(), rate, phase.attempted, phase.ok, phase.refused,
      phase.errors, phase.timeouts, phase.hung, phase.backlog_at_end,
      Quantile(phase.latency_ms, 0.5), Quantile(phase.latency_ms, 0.9),
      Quantile(phase.latency_ms, 0.99), n / 100,
      Quantile(phase.latency_ms, 1.0), n);
}

void PrintHealth(const PhaseResult& phase, double steal_pct) {
  const double late = Quantile(phase.late_ms, 0.99);
  std::printf("gen.late_ms=%.3f (p50 %.3f, p90 %.3f, max %.3f) "
              "host.steal_pct=%.3f%s\n",
              late, Quantile(phase.late_ms, 0.5), Quantile(phase.late_ms, 0.9),
              Quantile(phase.late_ms, 1.0), steal_pct,
              late > 1.0 ? "  WARNING: the generator fell behind its "
                           "schedule; latencies include its lateness"
                         : "");
}

bool ScoreAnswers(uint16_t port, const Dataset& dataset,
                  const std::vector<BenchQuery>& queries,
                  Accuracy* accuracy) {
  std::vector<themis::Result<std::string>> lines(
      queries.size(), themis::Status::Internal("not sent"));
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kConnections; ++t) {
    clients.emplace_back([&, t] {
      auto client = themis::server::Client::Connect(port);
      for (size_t i = t; i < queries.size(); i += kConnections) {
        if (!client.ok()) {
          lines[i] = client.status();
          continue;
        }
        themis::server::WireRequest request;
        request.sql = queries[i].sql;
        lines[i] = client->RoundTrip(themis::server::EncodeRequest(request));
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  GroundTruth truth(dataset.population);
  bool ok = true;
  std::vector<double> point_errors;
  std::vector<double> groupby_errors;
  for (size_t i = 0; i < queries.size(); ++i) {
    const BenchQuery& query = queries[i];
    auto result = lines[i].ok()
                      ? themis::server::DecodeResultResponse(*lines[i])
                      : themis::Result<themis::sql::QueryResult>(
                            lines[i].status());
    if (!result.ok()) {
      std::fprintf(stderr, "scored query failed: %s: %s\n",
                   query.sql.c_str(), result.status().ToString().c_str());
      ok = false;
      continue;
    }
    accuracy->lines.emplace_back(query.sql, *lines[i]);
    if (query.kind == QueryKind::kPoint) {
      const double served =
          result->rows.empty() ? 0.0 : result->rows[0].values[0];
      point_errors.push_back(
          themis::stats::PercentDifference(truth.Point(query), served));
    } else {
      groupby_errors.push_back(GroupByError(truth.GroupBy(query), *result));
    }
  }
  accuracy->point_pct = Median(point_errors);
  accuracy->groupby_pct = Median(groupby_errors);
  return ok;
}

bool CheckAgainstOracle(
    const Options& options, const Dataset& dataset,
    const std::vector<std::pair<std::string, std::string>>& served) {
  std::unique_ptr<themis::core::ThemisDb> oracle =
      BuildDb(options, dataset, nullptr);
  size_t checked = 0;
  size_t mismatched = 0;
  for (const auto& [sql, line] : served) {
    auto answer = oracle->Query(sql);
    const std::string expected =
        answer.ok() ? themis::server::EncodeResultResponse(*answer)
                    : themis::server::EncodeErrorResponse(answer.status());
    ++checked;
    if (expected != line && ++mismatched <= 3) {
      std::fprintf(stderr,
                   "served answer differs from the oracle:\n  %s\n  "
                   "served   %s\n  expected %s\n",
                   sql.c_str(), line.c_str(), expected.c_str());
    }
  }
  std::printf("oracle: %zu served answers compared, %zu differ\n", checked,
              mismatched);
  return mismatched == 0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Print(bool correct, size_t attempted, size_t failed) const {
  std::string json = themis::StrFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no infinity; a latency quantile that landed on failed
    // requests reads as a billion ms.
    const double value = std::isfinite(m.value) ? m.value : 1e9;
    std::printf("%-28s %.6g %s\n", m.name.c_str(), value, m.unit.c_str());
    json += themis::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              i == 0 ? "" : ", ", m.name.c_str(), value,
                              m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace wirebench
