/// \file bench.hpp
/// Shared vocabulary of axc_bench: the four workloads, their seeded
/// traffic, the metric report, span records and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "axc/service/protocol.hpp"

namespace axc_bench {

using axc::service::Bytes;

// --- Workloads ------------------------------------------------------------

enum class Workload { EncodeCold, GateCold, ErrorCold, CacheHot };

inline constexpr Workload kWorkloads[] = {
    Workload::EncodeCold, Workload::GateCold, Workload::ErrorCold,
    Workload::CacheHot};
inline constexpr Workload kColdWorkloads[] = {
    Workload::EncodeCold, Workload::GateCold, Workload::ErrorCold};

std::string_view workload_name(Workload workload);
std::optional<Workload> parse_workload(std::string_view name);

/// Load-thread count and per-thread pipeline depth. Four closed-loop
/// callers, one multiplexed connection each; the cold workloads wait for
/// every reply (depth 1), cache_hot batches 8 submits then 8 collects
/// like a client sweep does.
inline constexpr unsigned kLoadThreads = 4;
unsigned pipeline_depth(Workload workload);

/// Request \p index of a cold workload. Every index yields distinct
/// request bytes (a unique seed field), so nothing repeats within a run;
/// the endpoint/configuration mix cycles with the index and does not
/// depend on \p seed, which only moves seeds and tie-breaking values.
Bytes cold_request(Workload workload, std::uint64_t seed, std::uint64_t index);

/// cache_hot's 256 distinct cheap requests, 32 on each of the 8 cacheable
/// endpoints.
inline constexpr std::size_t kHotPoolSize = 256;
std::vector<Bytes> hot_pool(std::uint64_t seed);
/// Pool slot replayed as request \p index (uniform over the pool).
std::size_t hot_slot(std::uint64_t seed, std::uint64_t index);

/// \p count distinct indices drawn from [0, \p limit) by \p seed, sorted.
std::vector<std::uint64_t> seeded_sample(std::uint64_t seed,
                                         std::uint64_t limit,
                                         std::size_t count);

// --- Hashing and time -----------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                           std::uint64_t hash = kFnvOffset) {
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Drops the process-wide characterization memo and tape compile cache.
void clear_process_caches();

/// Process CPU time (user + system, all threads) in nanoseconds.
std::int64_t process_cpu_ns();
/// Peak resident set size of this process in MiB.
double peak_rss_mib();

// --- Statistics -----------------------------------------------------------

/// Nearest-rank percentile (q in (0, 100]) of \p values; 0 when empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

// --- Report ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Metrics of one run, in insertion order.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// --- Spans ----------------------------------------------------------------

/// One timed interval. Spans of one request share \p request; \p parent
/// indexes the enclosing span in the same log (-1 = a root).
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

/// In-memory span log, written out once at exit. Not thread-safe: the
/// live phase fills it from the main thread after the load threads join,
/// and the replay is single-threaded.
///
/// Span names are the layer functions they time ("logic.characterize"),
/// or "request" (client submit to collect), "service.inbound" (submit to
/// dispatch start), "service.dispatch", "service.outbound" (dispatch end
/// to collect) and "replay.<endpoint>" (one replayed request).
class TraceLog {
 public:
  /// Opens a span now; close() stamps its end. Returns its id.
  std::int64_t open(const char* name, std::int64_t request,
                    std::int64_t parent = -1) {
    spans_.push_back({name, now_ns(), 0, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  std::int64_t add(const SpanRecord& span) {
    spans_.push_back(span);
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes one JSON object per line; false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
};

// --- Runs -----------------------------------------------------------------

struct RunOptions {
  Workload workload = Workload::EncodeCold;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Caps the requests of each timed phase (smoke runs); 0 = no cap.
  std::uint64_t max_requests = 0;
  /// Set-ups per run; setup_s is their median.
  unsigned setup_repeats = 21;
  /// Untimed load before the timed phase.
  double warmup_seconds = 5.0;
  /// Requests re-run through in-process dispatch() after the timed phase.
  std::size_t oracle_requests = 64;
  /// Requests per cold workload replayed layer by layer (trace runs).
  std::size_t ledger_requests = 100;
  /// Where a trace run writes its spans ("" = keep them in memory only).
  std::string spans_path;
};

struct RunOutcome {
  Report metrics;  ///< end-to-end (untraced) or per-layer (traced) metrics
  Report info;     ///< printed alongside, not part of the result object
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// FNV-1a over the per-response FNV-1a hashes of the leading
  /// digest_requests requests, in request order (hex).
  std::string digest;
  std::uint64_t digest_requests = 0;
  std::vector<std::string> problems;  ///< failed correctness checks
};

/// Runs one workload in this process: set-up, timed closed-loop phase(s),
/// oracle re-check and, for trace runs, the layer-by-layer replay.
RunOutcome run_workload(const RunOptions& options);

/// The layer-by-layer replay of a trace run: the first \p per_workload
/// requests of every cold workload, dispatched in-process and then
/// replayed through the library layers under bench-owned spans, plus the
/// cache_hot pool through the cache-hit and codec paths. Appends the
/// per-layer metrics to \p metrics, the spans to \p log and any replay
/// mismatch to \p problems.
void run_ledger(std::uint64_t seed, std::size_t per_workload, Report& metrics,
                TraceLog& log, std::vector<std::string>& problems);

}  // namespace axc_bench
