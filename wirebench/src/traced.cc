#include "traced.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/catalog.h"
#include "obs/trace.h"
#include "server/wire.h"
#include "sql/parser.h"
#include "util/logging.h"

namespace wirebench {
namespace {

// The in-process replay covers at most the last kMaxWarmupReplay warm-up
// requests, then the nominal phase, and stops after kMaxReplayRequests
// requests or --seconds, whichever comes first; per-layer figures are per
// call, so a shorter replay only widens their spread.
constexpr size_t kMaxWarmupReplay = 2000;
constexpr size_t kMaxReplayRequests = 10000;
// Extra queries for layers a workload's own stream never reaches.
constexpr size_t kProbePoints = 50;
constexpr size_t kProbeJoins = 2;

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Server and cache counters from two STATS snapshots.
struct CounterDeltas {
  double plan_hits = 0, plan_misses = 0;
  double memo_hits = 0, memo_misses = 0, memo_evictions = 0;
  double flights = 0, followers = 0;
  double inference_hits = 0, inference_misses = 0;
  double bytes_hits = 0, bytes_misses = 0, bytes_evictions = 0;
  double batches = 0, batched = 0, rejected = 0, served = 0;
};

CounterDeltas Delta(const themis::server::ServerStats& a,
                    const themis::server::ServerStats& b) {
  const auto& ra = a.relations.at("sample");
  const auto& rb = b.relations.at("sample");
  const auto d = [](size_t after, size_t before) {
    return static_cast<double>(after) - static_cast<double>(before);
  };
  CounterDeltas out;
  out.plan_hits = d(rb.plan_cache_hits, ra.plan_cache_hits);
  out.plan_misses = d(rb.plan_cache_misses, ra.plan_cache_misses);
  out.memo_hits = d(rb.result_memo.hits, ra.result_memo.hits);
  out.memo_misses = d(rb.result_memo.misses, ra.result_memo.misses);
  out.memo_evictions = d(rb.result_memo.evictions, ra.result_memo.evictions);
  out.flights =
      d(rb.result_memo.coalesced_flights, ra.result_memo.coalesced_flights);
  out.followers =
      d(rb.result_memo.coalesced_hits, ra.result_memo.coalesced_hits);
  out.inference_hits = d(rb.inference_cache.hits, ra.inference_cache.hits);
  out.inference_misses =
      d(rb.inference_cache.misses, ra.inference_cache.misses);
  out.bytes_hits = d(b.server.response_cache_hits, a.server.response_cache_hits);
  out.bytes_misses =
      d(b.server.response_cache_misses, a.server.response_cache_misses);
  out.bytes_evictions =
      d(b.server.response_cache_evictions, a.server.response_cache_evictions);
  out.batches = d(b.server.batches_formed, a.server.batches_formed);
  out.batched = d(b.server.batched_requests, a.server.batched_requests);
  out.rejected = d(b.server.rejected_overload, a.server.rejected_overload);
  out.served = d(b.server.served_ok + b.server.served_error,
                 a.server.served_ok + a.server.served_error);
  return out;
}

struct WirePhase {
  CounterDeltas counters;
  double p50_us = 0;
  double late_ms = 0;
  double steal_pct = 0;
  bool correct = true;
};

// The wire half: warm-up and nominal phase against a fresh server, with
// STATS read around the timed phase.
bool RunWire(const Options& options, Workload& workload,
             const Dataset& dataset, const PhasePlan& warmup,
             const PhasePlan& nominal, WirePhase* out) {
  std::unique_ptr<ServerProcess> server = LaunchServer(options, dataset);
  if (server == nullptr) return false;
  auto client = themis::server::Client::Connect(server->port());
  THEMIS_CHECK(client.ok()) << client.status().ToString();
  PrintHost(*client);
  LoadGenerator generator(server->port(), kConnections, kClientTimeoutS);
  out->correct &= CheckStatuses("warmup",
                                generator.Run(warmup, workload.lines()));
  auto before = client->Stats();
  const HostCpu host_before = HostCpu::Now();
  const PhaseResult timed = generator.Run(nominal, workload.lines());
  out->steal_pct = StealPct(host_before, HostCpu::Now());
  auto after = client->Stats();
  THEMIS_CHECK(before.ok() && after.ok());
  out->correct &= CheckStatuses("nominal", timed);
  PrintPhase("nominal", workload.settings().nominal_rate, timed);
  PrintHealth(timed, out->steal_pct);
  out->counters = Delta(*before, *after);
  out->p50_us = Quantile(timed.latency_ms, 0.5) * 1e3;
  out->late_ms = Quantile(timed.late_ms, 0.99);
  return true;
}

// Calls into each module the way Catalog::Query does, one span per call.
// ExecutePlan carries an obs::TraceContext, so the evaluator's own
// execute and executor-scan stage times are read back, and rows scanned
// are the evaluator's executor_stats() deltas. The program records no
// split of a GROUP BY's scans between the reweighted sample and the K BN
// samples, nor BN inference time; those are direct calls made with the
// evaluator's own arguments (its pool, shard size and inference options),
// outside the Catalog::Query span.
class Replayer {
 public:
  Replayer(const themis::core::ThemisDb& db, SpanRecorder* spans)
      : catalog_(db.catalog()),
        evaluator_(db.evaluator()),
        model_(db.model()),
        engine_(model_->network(), EngineOptions(model_->options())),
        pool_(catalog_.pool()),
        shard_rows_(model_->options().shard_rows > 0
                        ? model_->options().shard_rows
                        : themis::sql::ShardRowsEnvOverride()),
        spans_(spans) {
    sample_exec_.RegisterTable("sample", &model_->reweighted_sample());
    bn_execs_.resize(model_->bn_samples().size());
    for (size_t k = 0; k < bn_execs_.size(); ++k) {
      bn_execs_[k].RegisterTable("sample", &model_->bn_samples()[k]);
    }
  }

  /// Replays one request; false on an error answer.
  bool Replay(const std::string& line, uint64_t request) {
    ScopedSpan root(spans_, "request", request);
    std::string sql;
    {
      ScopedSpan span(spans_, "server.ParseRequest", request);
      auto parsed = themis::server::ParseRequest(
          line.substr(0, line.size() - 1));  // without the newline
      if (!parsed.ok()) return false;
      sql = parsed->sql;
    }
    themis::core::QueryPlanPtr plan;
    themis::Result<themis::sql::QueryResult> result =
        themis::Status::Internal("not run");
    themis::obs::TraceContext trace;
    const uint64_t rows_before = evaluator_->executor_stats().rows_scanned;
    {
      ScopedSpan query(spans_, "core.Catalog::Query", request);
      {
        ScopedSpan span(spans_, "core.Catalog::Route", request);
        if (!catalog_.Route(sql).ok()) return false;
      }
      {
        ScopedSpan span(spans_, "core.HybridEvaluator::Plan", request);
        auto planned = evaluator_->Plan(sql);
        if (!planned.ok()) return false;
        plan = *planned;
      }
      {
        ScopedSpan span(spans_, ExecName(*plan), request);
        result = evaluator_->ExecutePlan(
            *plan, themis::core::AnswerMode::kHybrid, nullptr, &trace);
      }
    }
    if (!result.ok()) return false;
    const bool executed =
        trace.StageCount(themis::obs::Stage::kExecute) > 0;  // memo missed
    if (executed) {
      execute_ns_ += trace.StageTotalNs(themis::obs::Stage::kExecute);
      scan_ns_ += trace.StageTotalNs(themis::obs::Stage::kExecutorScan);
      ++executions_;
    }
    {
      ScopedSpan span(spans_, "server.EncodeResultResponse", request);
      response_bytes_ += themis::server::EncodeResultResponse(*result).size();
      ++responses_;
    }
    // Direct layer calls, outside the Catalog::Query span.
    {
      ScopedSpan span(spans_, "sql.Parse", request);
      if (!themis::sql::Parse(sql).ok()) return false;
    }
    // Joins are left out: their scans take seconds each.
    if (plan->kind == themis::core::PlanKind::kGroupBy && !IsJoin(*plan) &&
        executed) {
      rows_scanned_ += evaluator_->executor_stats().rows_scanned - rows_before;
      ++groupby_executions_;
      if (!ScanSplit(*plan, request)) return false;
    }
    if (plan->kind == themis::core::PlanKind::kPoint && !plan->out_of_domain &&
        !evaluator_->SampleContains(plan->point_attrs, plan->point_values)) {
      themis::bn::Evidence evidence;
      for (size_t i = 0; i < plan->point_attrs.size(); ++i) {
        evidence[plan->point_attrs[i]] = plan->point_values[i];
      }
      ScopedSpan span(spans_, "bn.InferenceEngine::Probability", request);
      if (!engine_.Probability(evidence).ok()) return false;
    }
    return true;
  }

  double rows_scanned_per_groupby() const {
    return Ratio(static_cast<double>(rows_scanned_), groupby_executions_);
  }
  double response_bytes() const {
    return Ratio(static_cast<double>(response_bytes_), responses_);
  }
  /// Mean evaluator stage times (us) over the plans that missed the memo.
  double execute_stage_us() const {
    return Ratio(execute_ns_ / 1e3, executions_);
  }
  double scan_stage_us() const { return Ratio(scan_ns_ / 1e3, executions_); }

 private:
  // The options HybridEvaluator gives its own inference engine.
  static themis::bn::InferenceEngine::Options EngineOptions(
      const themis::core::ThemisOptions& options) {
    themis::bn::InferenceEngine::Options out;
    out.enable_cache = options.enable_inference_cache;
    out.cache_capacity = options.inference_cache_capacity;
    out.cache_bytes = options.inference_cache_bytes;
    return out;
  }

  // The hybrid GROUP BY's scans, split as the evaluator runs them: the
  // reweighted sample, then the K BN samples as one pool fan-out.
  bool ScanSplit(const themis::core::QueryPlan& plan, uint64_t request) {
    {
      ScopedSpan span(spans_, "sql.Executor::Query/sample", request);
      if (!sample_exec_.Execute(plan.stmt, pool_, shard_rows_).ok()) {
        return false;
      }
    }
    std::vector<char> ok(bn_execs_.size(), 0);
    {
      ScopedSpan span(spans_, "sql.Executor::Query/bn", request);
      pool_->ParallelFor(0, bn_execs_.size(), [&](size_t k) {
        ok[k] = bn_execs_[k].Execute(plan.stmt, pool_, shard_rows_).ok();
      });
    }
    return std::find(ok.begin(), ok.end(), 0) == ok.end();
  }

  static bool IsJoin(const themis::core::QueryPlan& plan) {
    return plan.stmt.tables.size() == 2;
  }

  static const char* ExecName(const themis::core::QueryPlan& plan) {
    if (IsJoin(plan)) return "core.exec/join";
    switch (plan.kind) {
      case themis::core::PlanKind::kPoint: return "core.exec/point";
      case themis::core::PlanKind::kGroupBy: return "core.exec/groupby";
      case themis::core::PlanKind::kPassthrough:
        return "core.exec/passthrough";
    }
    return "core.exec/other";
  }

  const themis::core::Catalog& catalog_;
  const themis::core::HybridEvaluator* evaluator_;
  const themis::core::ThemisModel* model_;
  themis::bn::InferenceEngine engine_;
  themis::util::ThreadPool* pool_;
  size_t shard_rows_;
  themis::sql::Executor sample_exec_;
  std::vector<themis::sql::Executor> bn_execs_;
  SpanRecorder* spans_;
  uint64_t rows_scanned_ = 0;
  double groupby_executions_ = 0;
  uint64_t response_bytes_ = 0;
  double responses_ = 0;
  double execute_ns_ = 0;
  double scan_ns_ = 0;
  double executions_ = 0;
};

}  // namespace

int RunTraced(const Options& options, Workload& workload,
              const Dataset& dataset) {
  const PhasePlan warmup = workload.MakeWarmup();
  const PhasePlan nominal = workload.MakePhase(
      workload.settings().nominal_rate, options.seconds * 0.5);

  WirePhase wire;
  if (!RunWire(options, workload, dataset, warmup, nominal, &wire)) return 1;

  SpanRecorder spans;
  std::unique_ptr<themis::core::ThemisDb> db =
      BuildDb(options, dataset, &spans);
  Replayer replayer(*db, &spans);
  bool correct = wire.correct;
  size_t failed = 0;
  const auto replay = [&](const std::string& line, uint64_t id) {
    if (!replayer.Replay(line, id)) ++failed;
  };
  // The same streams in process: warm-up, then the nominal phase, each
  // burst copy as its own request.
  const auto start = std::chrono::steady_clock::now();
  const auto out_of_time = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() > options.seconds;
  };
  uint64_t request = 0;
  uint64_t first_nominal = 0;
  for (const PhasePlan* plan : {&warmup, &nominal}) {
    const size_t total = plan->arrivals.size() * plan->burst;
    size_t skip = 0;
    if (plan == &warmup) {
      skip = total > kMaxWarmupReplay ? total - kMaxWarmupReplay : 0;
    } else {
      first_nominal = request;
    }
    size_t index = 0;
    for (const Arrival& arrival : plan->arrivals) {
      for (size_t k = 0; k < plan->burst; ++k) {
        if (index++ < skip) continue;
        if (request >= kMaxReplayRequests || out_of_time()) break;
        replay(workload.lines()[arrival.query], ++request);
      }
    }
  }
  const uint64_t last_nominal = request;
  // Layers the stream never reached still get timed, on extra queries.
  const auto calls = [&](const char* name) {
    const auto summary = spans.Summarize();
    auto it = summary.find(name);
    return it == summary.end() ? size_t{0} : it->second.calls;
  };
  std::vector<std::pair<QueryKind, size_t>> probes = {
      {QueryKind::kJoin, kProbeJoins}};
  if (calls("core.exec/point") == 0) {
    probes.emplace_back(QueryKind::kPoint, kProbePoints);
  }
  if (calls("core.exec/groupby") == 0) {
    probes.emplace_back(QueryKind::kGroupBy, kProbePoints);
  }
  for (const auto& [kind, count] : probes) {
    for (size_t i = 0; i < count; ++i) {
      themis::server::WireRequest wire_request;
      wire_request.sql = workload.ExtraQuery(kind).sql;
      replay(themis::server::EncodeRequest(wire_request) + "\n", ++request);
    }
  }
  const std::string span_path = options.work_dir + "/spans.jsonl";
  if (!spans.Write(span_path)) {
    std::fprintf(stderr, "could not write %s\n", span_path.c_str());
  }

  const std::map<std::string, SpanSummary> summary = spans.Summarize();
  const auto self_us = [&](const char* name) {
    auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.mean_self_us();
  };
  const auto total_s = [&](const char* name) {
    auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.total_self_us / 1e6;
  };
  // In-process Catalog::Query p50 over the nominal part of the replay.
  std::vector<double> inproc_us;
  const auto& query_summary = summary.at("core.Catalog::Query");
  for (size_t i = 0; i < query_summary.duration_us.size(); ++i) {
    if (query_summary.requests[i] > first_nominal &&
        query_summary.requests[i] <= last_nominal) {
      inproc_us.push_back(query_summary.duration_us[i]);
    }
  }

  const themis::core::BuildStats& build = db->model()->build_stats();
  const CounterDeltas& c = wire.counters;
  std::printf("requests replayed in process: %llu; cache shares of served "
              "requests: response bytes %.1f%%, result memo %.1f%%, "
              "single-flight followers %.1f%%, micro-batched %.1f%%\n",
              static_cast<unsigned long long>(request),
              100 * Ratio(c.bytes_hits, c.served),
              100 * Ratio(c.memo_hits, c.served),
              100 * Ratio(c.followers, c.served),
              100 * Ratio(c.batched, c.served));
  std::printf("evaluator stages per executed plan: execute %.1f us, "
              "executor scan %.1f us (summed over its scans)\n",
              replayer.execute_stage_us(), replayer.scan_stage_us());

  Report report;
  report.Add("data.read_csv_s", total_s("data.ReadCsv"), "s");
  report.Add("aggregate.read_s", total_s("aggregate.ReadAggregateCsv"), "s");
  report.Add("core.build_s", total_s("core.ThemisDb::Build"), "s");
  report.Add("reweight.ipf_s", build.reweight_seconds, "s");
  report.Add("reweight.ipf_iterations", build.reweight_iterations, "count");
  report.Add("bn.structure_s", build.bn_structure_seconds, "s");
  report.Add("bn.parameter_s", build.bn_parameter_seconds, "s");
  report.Add("bn.generate_s", build.generate_seconds, "s");
  report.Add("core.exec_groupby_us", self_us("core.exec/groupby"), "us");
  report.Add("sql.scan_sample_us", self_us("sql.Executor::Query/sample"),
             "us");
  report.Add("sql.scan_bn_us", self_us("sql.Executor::Query/bn"), "us");
  report.Add("sql.rows_scanned_per_q", replayer.rows_scanned_per_groupby(),
             "count");
  report.Add("core.exec_point_us", self_us("core.exec/point"), "us");
  report.Add("bn.prob_us", self_us("bn.InferenceEngine::Probability"), "us");
  report.Add("core.exec_join_us", self_us("core.exec/join"), "us");
  report.Add("core.route_us", self_us("core.Catalog::Route"), "us");
  report.Add("core.plan_us", self_us("core.HybridEvaluator::Plan"), "us");
  report.Add("sql.parse_us", self_us("sql.Parse"), "us");
  report.Add("server.parse_us", self_us("server.ParseRequest"), "us");
  report.Add("server.encode_us", self_us("server.EncodeResultResponse"),
             "us");
  report.Add("server.response_bytes", replayer.response_bytes(), "bytes");
  report.Add("server.wire_overhead_us",
             wire.p50_us - Quantile(inproc_us, 0.5), "us");
  report.Add("core.plan_cache_hit_ratio",
             Ratio(c.plan_hits, c.plan_hits + c.plan_misses), "ratio");
  report.Add("core.memo_hit_ratio",
             Ratio(c.memo_hits, c.memo_hits + c.memo_misses), "ratio");
  report.Add("core.memo_evictions", c.memo_evictions, "count");
  report.Add("bn.inference_cache_hit_ratio",
             Ratio(c.inference_hits, c.inference_hits + c.inference_misses),
             "ratio");
  report.Add("server.response_cache_hit_ratio",
             Ratio(c.bytes_hits, c.bytes_hits + c.bytes_misses), "ratio");
  report.Add("server.response_cache_evictions", c.bytes_evictions, "count");
  report.Add("core.coalesced_per_flight", Ratio(c.followers, c.flights),
             "count");
  report.Add("server.batch_size_mean", Ratio(c.batched, c.batches), "count");
  report.Add("server.rejected_overload", c.rejected, "count");
  report.Add("gen.late_ms", wire.late_ms, "ms");
  report.Add("host.steal_pct", wire.steal_pct, "%");
  correct &= failed == 0;
  report.Print(correct, request, failed);
  return correct ? 0 : 1;
}

}  // namespace wirebench
