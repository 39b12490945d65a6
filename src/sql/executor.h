#ifndef THEMIS_SQL_EXECUTOR_H_
#define THEMIS_SQL_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/table.h"
#include "obs/trace.h"
#include "simd/simd.h"
#include "sql/ast.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace themis::sql {

/// One output row: the group-by key (display labels, empty for global
/// aggregates) and one value per aggregate select item.
struct ResultRow {
  std::vector<std::string> group;
  std::vector<double> values;
};

/// Result of executing a SELECT. Rows are sorted by group key for
/// deterministic output.
struct QueryResult {
  std::vector<std::string> group_names;
  std::vector<std::string> value_names;
  std::vector<ResultRow> rows;

  /// Maps "g1|g2|..." group keys to the value at `value_index`; convenient
  /// for comparing a truth result against an estimate.
  std::map<std::string, double> ValueMap(size_t value_index = 0) const;

  /// Pretty-printed table for examples and benchmarks.
  std::string ToString() const;
};

/// Numeric interpretation of a domain label for SUM/AVG and ordered
/// comparisons: plain numbers parse directly; equi-width bucket labels
/// "[lo,hi)" evaluate to their midpoint; anything else is NaN.
double NumericValueOfLabel(const std::string& label);

/// The THEMIS_SHARD_ROWS environment override as a row count, or 0 when
/// the variable is unset or not a positive integer. Each Executor
/// snapshots this once at construction — queries never re-read the
/// environment, so a mid-run setenv cannot change the shard layout (and
/// with it the float summation order) of a live executor.
size_t ShardRowsEnvOverride();

/// Per-shard working-set target of the automatic shard policy, derived
/// from the probed cache topology (util::CpuTopology::Host()): half the
/// L2 clamped to [256 KiB, 2 MiB], or 256 KiB when the probe found
/// nothing. Constant for the process lifetime, so the shard layout — and
/// with it the float summation order — is stable across runs on one host.
size_t AutoShardTargetBytes();

/// Rows per shard of sharded scans and hash-join probes: `requested` when
/// positive, else the THEMIS_SHARD_ROWS environment variable when set to a
/// positive integer, else automatic. The automatic size targets an
/// AutoShardTargetBytes() per-shard working set: with `bytes_per_row` > 0
/// (bytes the scan touches per row, see data::Table::ScanBytesPerRow) it
/// returns AutoShardTargetBytes() / bytes_per_row clamped to
/// [1024, 262144]; with bytes_per_row 0 (caller has no column
/// information) it returns the legacy 8192. Deterministic for a fixed
/// query, table, and host — never derived from the pool size — so the
/// shard layout, and with it the float summation order, is identical at
/// every pool size. This is how ThemisOptions::shard_rows (0 = auto)
/// resolves.
size_t ResolveShardRows(size_t requested, size_t bytes_per_row = 0);

/// Live counters of one Executor, aggregated over every query it has run
/// (all answer modes funnel through here, so these are the system-wide
/// scan-path counters surfaced by Catalog::Stats() and the server's
/// STATS verb). Queries on tables beyond uint32 rows fall back to the
/// reference path and update only rows_scanned and groups_emitted.
struct ExecutorStats {
  /// Active SIMD kernel backend ("scalar" / "sse4" / "avx2" / "neon"),
  /// resolved once at Executor construction (simd::FromEnv). Summing
  /// stats keeps the first non-empty name — every executor in a process
  /// resolves the same backend unless THEMIS_SIMD changed between
  /// constructions.
  std::string simd_backend;
  /// Rows fed through the filter pipeline. A model's sample holds one row
  /// per distinct tuple (Table::Compact) and a BN marginal table one per
  /// nonzero cell, so over them this counts tuples and cells, not draws.
  uint64_t rows_scanned = 0;
  uint64_t rows_passed = 0;      ///< rows surviving every filter
  uint64_t groups_emitted = 0;   ///< result rows materialized
  uint64_t join_build_rows = 0;  ///< rows inserted into join build tables
  uint64_t join_probe_rows = 0;  ///< filtered rows probed into build tables
  /// Rows evaluated by the FilterScan/FilterCompact kernels (counted once
  /// per filter applied, so a 2-filter scan counts each row twice).
  uint64_t filter_kernel_rows = 0;
  /// Selected rows batched through the gather/pack kernels (group-key
  /// packing, join-key build, probe-code gather).
  uint64_t gather_kernel_rows = 0;
  /// Shards (pooled) / chunks (sequential) whose scan, join-build, or
  /// join-probe body actually ran. A cancelled query executes fewer
  /// shards than its layout calls for — the observable the cancellation
  /// tests assert on.
  uint64_t shards_executed = 0;
  /// Executions that unwound early with kCancelled / kDeadlineExceeded
  /// instead of finishing the plan.
  uint64_t queries_cancelled = 0;

  ExecutorStats& operator+=(const ExecutorStats& other) {
    if (simd_backend.empty()) simd_backend = other.simd_backend;
    rows_scanned += other.rows_scanned;
    rows_passed += other.rows_passed;
    groups_emitted += other.groups_emitted;
    join_build_rows += other.join_build_rows;
    join_probe_rows += other.join_probe_rows;
    filter_kernel_rows += other.filter_kernel_rows;
    gather_kernel_rows += other.gather_kernel_rows;
    shards_executed += other.shards_executed;
    queries_cancelled += other.queries_cancelled;
    return *this;
  }
};

/// Executes SQL over registered, weighted, in-memory tables. COUNT(*) is
/// evaluated as SUM(weight) and joins multiply weights, so queries over a
/// reweighted sample estimate the corresponding population answers
/// (Sec 4.1).
///
/// The execution pipeline is code-native and vectorized: filters evaluate
/// per shard into selection vectors (one pass per filter over the
/// dictionary-code column, no per-row filter-list walk), GROUP BY keys
/// pack the group columns' codes into one uint64_t (TupleKey fallback
/// when the widths exceed 64 bits) aggregated into a flat open-addressing
/// table, and hash joins build/probe on packed code keys (differing
/// domains are bridged by a once-per-domain code translation). Labels are
/// decoded only at result materialization, where groups sort by their
/// decoded labels — so output order, float summation order, and hence
/// bitwise results are identical to the retained row-at-a-time reference
/// path at every pool size.
///
/// The integer inner loops (filter compare + compact, group/join key
/// gather + pack, code translation, weight/numeric gathers) run on the
/// simd::Kernels backend resolved once at construction from THEMIS_SIMD
/// (default: most capable of AVX2 / SSE4 / NEON the host supports). The
/// kernels move integers and copy doubles only — all float arithmetic
/// stays scalar, in row order — so the SIMD and scalar backends are
/// bitwise identical by construction; executor_diff_test proves it.
class Executor {
 public:
  Executor();

  /// Registers `table` under `name` (pointer must outlive the executor).
  void RegisterTable(const std::string& name, const data::Table* table);

  /// Parses and executes `sql`. `trace` (optional, like `cancel`) records
  /// the shard-loop portion of the execution as an obs::Stage::
  /// kExecutorScan span; a null trace costs one pointer check.
  Result<QueryResult> Query(const std::string& sql,
                            util::ThreadPool* pool = nullptr,
                            size_t shard_rows = 0,
                            const util::CancelToken* cancel = nullptr,
                            obs::TraceContext* trace = nullptr) const;

  /// Executes a parsed statement. With a pool, large single-table scans,
  /// the build side of large hash joins, and hash-join probes are sharded
  /// by row range across the pool's workers. The shard layout is fixed by
  /// the row count and `shard_rows` (0 = auto, see ResolveShardRows)
  /// alone — never the pool size — and partial aggregates merge in shard
  /// order, so the result is bitwise identical for every pool size
  /// (including a 1-thread pool); only the pool-less call takes the
  /// unsharded path, whose float summation order differs.
  ///
  /// `cancel` (optional) is polled once on entry and once per shard/chunk
  /// in the scan, join-build, and join-probe loops: a fired token makes
  /// the remaining shards no-ops and the call returns the token's
  /// kCancelled / kDeadlineExceeded status instead of a partial answer.
  /// Completed answers are unaffected — a token that never fires leaves
  /// the execution (and its bitwise result) identical to passing nullptr.
  Result<QueryResult> Execute(const SelectStatement& stmt,
                              util::ThreadPool* pool = nullptr,
                              size_t shard_rows = 0,
                              const util::CancelToken* cancel = nullptr,
                              obs::TraceContext* trace = nullptr) const;

  /// The retained row-at-a-time reference implementation (the
  /// pre-vectorization executor, kept verbatim): label-string group and
  /// join keys in ordered maps, per-row temporaries. Differential tests
  /// and bench_executor check the vectorized path is bitwise identical to
  /// — and measure its speedup over — this path. Does not update stats()
  /// and does not poll any cancel token (it is the oracle, never the
  /// serving path).
  Result<QueryResult> ExecuteReference(const SelectStatement& stmt,
                                       util::ThreadPool* pool = nullptr,
                                       size_t shard_rows = 0) const;

  /// Snapshot of the cumulative per-executor counters (thread-safe;
  /// queries running concurrently with the snapshot may be partially
  /// counted).
  ExecutorStats stats() const;

 private:
  struct StatCounters {
    std::atomic<uint64_t> rows_scanned{0};
    std::atomic<uint64_t> rows_passed{0};
    std::atomic<uint64_t> groups_emitted{0};
    std::atomic<uint64_t> join_build_rows{0};
    std::atomic<uint64_t> join_probe_rows{0};
    std::atomic<uint64_t> filter_kernel_rows{0};
    std::atomic<uint64_t> gather_kernel_rows{0};
    std::atomic<uint64_t> shards_executed{0};
    std::atomic<uint64_t> queries_cancelled{0};
  };

  std::unordered_map<std::string, const data::Table*> catalog_;
  /// Heap-allocated so the executor stays movable despite the atomics;
  /// queries tally locally and add here once at the end.
  std::unique_ptr<StatCounters> counters_;
  /// THEMIS_SHARD_ROWS, read once at construction: no getenv on the
  /// query hot path, and the shard layout (which fixes the float
  /// summation order) cannot drift if the environment changes mid-run.
  size_t env_shard_rows_ = 0;
  /// The SIMD kernel table, resolved once at construction from
  /// THEMIS_SIMD (same snapshot discipline as env_shard_rows_): tests pin
  /// backends per instance via setenv before construction, and a live
  /// executor's kernels never change. Points at a static table.
  const simd::Kernels* kernels_ = nullptr;
};

}  // namespace themis::sql

#endif  // THEMIS_SQL_EXECUTOR_H_
