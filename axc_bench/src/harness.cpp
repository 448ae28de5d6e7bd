// One workload, end to end: the served stack in this process, four
// closed-loop callers over loopback TCP, and the correctness checks.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "axc/common/rng.hpp"
#include "axc/logic/characterize.hpp"
#include "axc/logic/tape.hpp"
#include "axc/obs/obs.hpp"
#include "axc/service/endpoints.hpp"
#include "axc/service/reactor.hpp"
#include "axc/service/server.hpp"
#include "axc/service/tcp.hpp"
#include "bench.hpp"

namespace axc_bench {

namespace svc = axc::service;

void clear_process_caches() {
  axc::logic::clear_characterization_cache();
  axc::logic::clear_compile_cache();
}

namespace {

// The program under test: axc_server's reactor set-up with the worker
// count pinned, so the numbers do not follow the host's core count.
constexpr unsigned kServerWorkers = 2;
constexpr std::size_t kQueueCapacity = 64;
constexpr std::size_t kCacheCapacity = 1024;

/// response_digest covers this many leading requests of a timed phase.
constexpr std::uint64_t kColdDigestRequests = 100;
constexpr std::uint64_t kHotDigestRequests = 1000;

/// Latency samples each caller keeps (a uniform reservoir beyond this), so
/// the load generator's memory does not grow with throughput and peak RSS
/// stays the server's.
constexpr std::size_t kLatencyReservoir = 1 << 16;

/// Untraced runs keep the completion records of the digest's requests and
/// of every 64th of the first 64 x 4096 requests, the pool the oracle
/// samples from.
constexpr std::uint64_t kOracleStride = 64;
constexpr std::uint64_t kOracleReach = kOracleStride * 4096;

constexpr std::int64_t kNoDeadline = INT64_MAX;

std::uint64_t canonical_key(std::span<const std::uint8_t> request) {
  return svc::canonical_request_key(svc::canonical_request_bytes(request));
}

bool ok_at_full_fidelity(std::span<const std::uint8_t> response) {
  return svc::response_status(response) == svc::Status::Ok &&
         svc::response_level(response) == std::uint8_t{0};
}

/// What the traced dispatcher saw for one request.
struct DispatchRecord {
  std::uint64_t key = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t queue_depth = 0;
};

/// State shared with the traced dispatcher, which runs on server workers.
struct DispatchProbe {
  std::atomic<bool> recording{false};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<const svc::Server*> server{nullptr};
  std::mutex mutex;
  std::vector<DispatchRecord> records;  ///< guarded by mutex
};

/// ServerOptions::dispatcher for trace runs: the server's default
/// dispatch plus two clock reads and a queue-depth sample.
svc::Dispatcher traced_dispatcher(DispatchProbe& probe) {
  return [&probe](std::span<const std::uint8_t> request, unsigned level) {
    svc::DispatchOptions options;
    options.eval_threads = 1;
    options.degrade_level = level;
    probe.calls.fetch_add(1, std::memory_order_relaxed);
    if (!probe.recording.load(std::memory_order_relaxed)) {
      return svc::dispatch(request, options);
    }
    DispatchRecord record;
    const svc::Server* server = probe.server.load();
    record.queue_depth = server != nullptr ? server->queue_depth() : 0;
    record.start_ns = now_ns();
    svc::Bytes response = svc::dispatch(request, options);
    record.end_ns = now_ns();
    record.key = canonical_key(request);
    const std::lock_guard<std::mutex> lock(probe.mutex);
    probe.records.push_back(record);
    return response;
  };
}

/// The server, its reactor and the load's connections. Members are
/// destroyed connections first, server last.
struct Stack {
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<svc::ReactorServer> reactor;
  std::vector<std::unique_ptr<svc::TcpConnection>> connections;
};

std::unique_ptr<Stack> bring_up(DispatchProbe* probe) {
  auto stack = std::make_unique<Stack>();
  svc::ServerOptions options;
  options.workers = kServerWorkers;
  options.queue_capacity = kQueueCapacity;
  options.cache_capacity = kCacheCapacity;
  options.eval_threads = 1;
  if (probe != nullptr) options.dispatcher = traced_dispatcher(*probe);
  stack->server = std::make_unique<svc::Server>(std::move(options));
  if (probe != nullptr) probe->server = stack->server.get();
  stack->reactor = std::make_unique<svc::ReactorServer>(*stack->server);
  svc::TcpConnectionOptions connection_options;
  connection_options.multiplex = true;
  for (unsigned i = 0; i < kLoadThreads; ++i) {
    stack->connections.push_back(std::make_unique<svc::TcpConnection>(
        "127.0.0.1", stack->reactor->port(), connection_options));
  }
  return stack;
}

/// One answered request as the client saw it.
struct Completion {
  std::uint64_t index = 0;
  std::int64_t submit_ns = 0;
  std::int64_t collect_ns = 0;
  std::uint64_t hash = 0;  ///< FNV-1a of the response bytes
  std::uint64_t key = 0;   ///< canonical request key (trace runs only)
};

/// A closed-loop phase: each caller takes `depth` consecutive indices,
/// submits them, then collects them, until the index limit or deadline.
struct PhaseSpec {
  unsigned depth = 1;
  std::uint64_t first_index = 0;
  std::uint64_t end_index = UINT64_MAX;  ///< exclusive
  std::int64_t duration_ns = kNoDeadline;
  std::uint64_t seed = 1;  ///< seeds the latency reservoirs
  bool record_keys = false;
  /// Request bytes for an index; may build them in the scratch buffer.
  std::function<std::span<const std::uint8_t>(std::uint64_t, Bytes&)>
      request;
  /// Extra per-response check beyond "Ok at level 0".
  std::function<bool(std::uint64_t, const Bytes&)> accept;
  /// Whether the completion record of an index is kept.
  std::function<bool(std::uint64_t)> keep;
};

struct CallerLog {
  std::vector<double> latency_ms;  ///< reservoir of Ok latencies
  std::uint64_t ok = 0;
  std::vector<Completion> kept;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t last_collect_ns = 0;
  std::vector<std::string> errors;
};

struct PhaseResult {
  std::vector<double> latency_ms;  ///< Ok responses (reservoir-sampled)
  std::vector<Completion> kept;    ///< sorted by index
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t next_index = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::vector<std::string> errors;

  double ok_per_second() const {
    return wall_ns > 0 ? static_cast<double>(attempted - failed) * 1e9 /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }
};

void note_error(CallerLog& log, std::string message) {
  if (log.errors.size() < 4) log.errors.push_back(std::move(message));
}

void caller(svc::TcpConnection& connection, const PhaseSpec& spec,
            std::atomic<std::uint64_t>& next, const std::int64_t& deadline,
            unsigned thread, CallerLog& log) {
  axc::Rng reservoir(spec.seed * kLoadThreads + thread);
  std::vector<Bytes> scratch(spec.depth);
  std::vector<std::uint32_t> ids(spec.depth);
  std::vector<Completion> batch(spec.depth);
  unsigned submitted = 0;
  unsigned collected = 0;
  try {
    while (now_ns() < deadline) {
      const std::uint64_t base = next.fetch_add(spec.depth);
      if (base >= spec.end_index) break;
      const unsigned n = static_cast<unsigned>(
          std::min<std::uint64_t>(spec.depth, spec.end_index - base));
      submitted = 0;
      collected = 0;
      for (unsigned j = 0; j < n; ++j) {
        const std::uint64_t index = base + j;
        const std::span<const std::uint8_t> request =
            spec.request(index, scratch[j]);
        batch[j].index = index;
        batch[j].key = spec.record_keys ? canonical_key(request) : 0;
        batch[j].submit_ns = now_ns();
        ids[j] = connection.submit(request);
        ++submitted;
      }
      for (unsigned j = 0; j < n; ++j) {
        const Bytes response = connection.collect(ids[j]);
        Completion& done = batch[j];
        done.collect_ns = now_ns();
        ++collected;
        ++log.attempted;
        log.last_collect_ns = done.collect_ns;
        if (!ok_at_full_fidelity(response) ||
            (spec.accept && !spec.accept(done.index, response))) {
          ++log.failed;
          note_error(log, "request " + std::to_string(done.index) +
                              ": unexpected response (status " +
                              std::to_string(response.size() > 1
                                                 ? response[1]
                                                 : 255) +
                              ")");
          continue;
        }
        const double latency_ms =
            static_cast<double>(done.collect_ns - done.submit_ns) / 1e6;
        if (log.latency_ms.size() < kLatencyReservoir) {
          log.latency_ms.push_back(latency_ms);
        } else if (const std::uint64_t slot = reservoir.below(log.ok + 1);
                   slot < kLatencyReservoir) {
          log.latency_ms[slot] = latency_ms;
        }
        ++log.ok;
        if (spec.keep(done.index)) {
          done.hash = fnv1a(response);
          log.kept.push_back(done);
        }
      }
    }
  } catch (const std::exception& e) {
    // The connection is unusable; whatever was submitted and not
    // collected counts as attempted and failed.
    log.attempted += submitted - collected;
    log.failed += submitted - collected;
    note_error(log, std::string("transport: ") + e.what());
  }
}

PhaseResult run_phase(Stack& stack, const PhaseSpec& spec) {
  std::atomic<std::uint64_t> next{spec.first_index};
  std::atomic<bool> go{false};
  std::int64_t deadline = kNoDeadline;
  std::vector<CallerLog> logs(kLoadThreads);
  std::vector<std::thread> threads;
  threads.reserve(kLoadThreads);
  for (unsigned t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&, t] {
      go.wait(false);
      caller(*stack.connections[t], spec, next, deadline, t, logs[t]);
    });
  }
  const std::int64_t cpu_start = process_cpu_ns();
  const std::int64_t start = now_ns();
  if (spec.duration_ns != kNoDeadline) deadline = start + spec.duration_ns;
  go.store(true);
  go.notify_all();
  for (std::thread& thread : threads) thread.join();
  const std::int64_t cpu_end = process_cpu_ns();

  PhaseResult result;
  std::int64_t end = start;
  for (CallerLog& log : logs) {
    result.latency_ms.insert(result.latency_ms.end(), log.latency_ms.begin(),
                             log.latency_ms.end());
    result.kept.insert(result.kept.end(), log.kept.begin(), log.kept.end());
    result.attempted += log.attempted;
    result.failed += log.failed;
    end = std::max(end, log.last_collect_ns);
    for (std::string& error : log.errors) {
      result.errors.push_back(std::move(error));
    }
  }
  std::sort(result.kept.begin(), result.kept.end(),
            [](const Completion& a, const Completion& b) {
              return a.index < b.index;
            });
  result.next_index = std::min(next.load(), spec.end_index);
  result.wall_ns = end - start;
  result.cpu_ns = cpu_end - cpu_start;
  return result;
}

/// FNV-1a over the response hashes of requests [first, first + count) in
/// request order; nullopt when one of them is missing.
std::optional<std::uint64_t> response_digest(
    const std::vector<Completion>& kept, std::uint64_t first,
    std::uint64_t count) {
  std::uint64_t digest = kFnvOffset;
  std::uint64_t expected = first;
  for (const Completion& done : kept) {
    if (done.index < first) continue;
    if (done.index >= first + count) break;
    if (done.index != expected) return std::nullopt;
    std::uint8_t le[8];
    for (int b = 0; b < 8; ++b) {
      le[b] = static_cast<std::uint8_t>(done.hash >> (8 * b));
    }
    digest = fnv1a(le, digest);
    ++expected;
  }
  if (expected != first + count) return std::nullopt;
  return digest;
}

std::string hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

std::int64_t seconds_to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

/// Re-runs a seeded sample of the answered requests through in-process
/// dispatch() on cleared process caches and compares the bytes' hashes.
void oracle_check(const RunOptions& options, const std::vector<Bytes>& pool,
                  const std::vector<Completion>& kept,
                  std::vector<std::string>& problems, Report& info) {
  clear_process_caches();
  const std::vector<std::uint64_t> picks =
      seeded_sample(options.seed, kept.size(), options.oracle_requests);
  std::uint64_t mismatches = 0;
  for (const std::uint64_t pick : picks) {
    const Completion& done = kept[pick];
    const Bytes request =
        options.workload == Workload::CacheHot
            ? pool[hot_slot(options.seed, done.index)]
            : cold_request(options.workload, options.seed, done.index);
    svc::DispatchOptions dispatch_options;
    dispatch_options.eval_threads = 1;
    if (fnv1a(svc::dispatch(request, dispatch_options)) != done.hash) {
      ++mismatches;
      problems.push_back("oracle: request " + std::to_string(done.index) +
                         " differs from in-process dispatch()");
    }
  }
  info.add("oracle_mismatches", static_cast<double>(mismatches), "count",
           picks.size());
}

/// Per-request service stages of a traced phase: joins the client's
/// completions with the dispatcher's records by canonical key.
void service_stages(const std::vector<Completion>& completions,
                    const std::vector<DispatchRecord>& records,
                    Report& metrics, TraceLog& log) {
  std::unordered_map<std::uint64_t, const DispatchRecord*> by_key;
  for (const DispatchRecord& record : records) by_key[record.key] = &record;
  std::vector<double> inbound;
  std::vector<double> dispatched;
  std::vector<double> outbound;
  for (const Completion& done : completions) {
    const auto it = by_key.find(done.key);
    if (it == by_key.end()) continue;
    const DispatchRecord& record = *it->second;
    const auto request = static_cast<std::int64_t>(done.index);
    const std::int64_t root = log.add(
        {"request", done.submit_ns, done.collect_ns, -1, request});
    log.add({"service.inbound", done.submit_ns, record.start_ns, root,
             request});
    log.add({"service.dispatch", record.start_ns, record.end_ns, root,
             request});
    log.add({"service.outbound", record.end_ns, done.collect_ns, root,
             request});
    inbound.push_back(static_cast<double>(record.start_ns - done.submit_ns) /
                      1e6);
    dispatched.push_back(
        static_cast<double>(record.end_ns - record.start_ns) / 1e6);
    outbound.push_back(static_cast<double>(done.collect_ns - record.end_ns) /
                       1e6);
  }
  double depth_sum = 0.0;
  for (const DispatchRecord& record : records) {
    depth_sum += static_cast<double>(record.queue_depth);
  }
  const std::uint64_t n = dispatched.size();
  metrics.add("service.dispatch.ms_p50", percentile(dispatched, 50), "ms", n);
  metrics.add("service.dispatch.ms_p99", percentile(dispatched, 99), "ms", n);
  metrics.add("service.inbound.ms_p50", percentile(inbound, 50), "ms", n);
  metrics.add("service.inbound.ms_p99", percentile(inbound, 99), "ms", n);
  metrics.add("service.outbound.ms_p50", percentile(outbound, 50), "ms", n);
  metrics.add("service.queue_depth.mean",
              records.empty() ? 0.0
                              : depth_sum / static_cast<double>(records.size()),
              "jobs", records.size());
}

/// hits / (hits + misses); 0 for a workload that never looked anything up.
void add_hit_ratio(Report& metrics, std::string name, std::uint64_t hits,
                   std::uint64_t misses) {
  const std::uint64_t lookups = hits + misses;
  metrics.add(std::move(name),
              lookups == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(lookups),
              "ratio", lookups);
}

}  // namespace

RunOutcome run_workload(const RunOptions& options) {
  RunOutcome out;
  const Workload workload = options.workload;
  const bool hot = workload == Workload::CacheHot;
  const std::vector<Bytes> pool = hot ? hot_pool(options.seed)
                                      : std::vector<Bytes>{};
  std::vector<Bytes> primed(pool.size());
  DispatchProbe probe;
  DispatchProbe* const traced = options.trace ? &probe : nullptr;
  TraceLog log;

  // The stack under test. cache_hot's priming goes over the same
  // connections, from cold process caches.
  PhaseSpec priming;
  priming.depth = pipeline_depth(workload);
  priming.end_index = pool.size();
  priming.request = [&pool](std::uint64_t index, Bytes&) {
    return std::span<const std::uint8_t>(pool[index]);
  };
  priming.accept = [&primed](std::uint64_t index, const Bytes& response) {
    primed[index] = response;
    return true;
  };
  priming.keep = [](std::uint64_t) { return true; };
  priming.record_keys = options.trace;

  clear_process_caches();
  probe.recording = options.trace;
  std::unique_ptr<Stack> stack = bring_up(traced);
  PhaseResult primed_phase;
  if (hot) primed_phase = run_phase(*stack, priming);
  probe.recording = false;
  if (primed_phase.failed != 0) {
    out.problems.push_back("cache_hot priming: " +
                           std::to_string(primed_phase.failed) +
                           " requests failed");
    out.problems.insert(out.problems.end(), primed_phase.errors.begin(),
                        primed_phase.errors.end());
    return out;
  }

  const std::uint64_t digest_requests =
      hot ? kHotDigestRequests : kColdDigestRequests;
  // The timed traffic, or the warm-up's from another seed: every request
  // of a cold workload stays distinct from every timed one.
  const auto traffic = [&](std::uint64_t seed) {
    PhaseSpec spec;
    spec.depth = pipeline_depth(workload);
    spec.seed = seed;
    if (hot) {
      spec.request = [&pool, seed](std::uint64_t index, Bytes&) {
        return std::span<const std::uint8_t>(pool[hot_slot(seed, index)]);
      };
      spec.accept = [&primed, seed](std::uint64_t index,
                                    const Bytes& response) {
        return response == primed[hot_slot(seed, index)];
      };
    } else {
      spec.request = [workload, seed](std::uint64_t index, Bytes& scratch) {
        scratch = cold_request(workload, seed, index);
        return std::span<const std::uint8_t>(scratch);
      };
    }
    return spec;
  };

  // Warm-up: a new process serves its first seconds measurably slower on
  // a virtual machine, so load runs untimed first.
  PhaseSpec warmup = traffic(options.seed ^ 0x9e3779b97f4a7c15ULL);
  warmup.duration_ns = seconds_to_ns(options.warmup_seconds);
  if (options.max_requests != 0) warmup.end_index = options.max_requests;
  warmup.keep = [](std::uint64_t) { return false; };
  const PhaseResult warmed = run_phase(*stack, warmup);
  out.attempted += warmed.attempted;
  out.failed += warmed.failed;
  out.problems.insert(out.problems.end(), warmed.errors.begin(),
                      warmed.errors.end());

  // Set-up time, measured on fresh stacks once the host is warm (a cold
  // host's thread wake-ups make it bimodal), each from cold process caches
  // and each primed like the stack under test.
  std::vector<double> setup_seconds;
  PhaseSpec reprime = priming;
  reprime.record_keys = false;
  reprime.accept = [&primed](std::uint64_t index, const Bytes& response) {
    return response == primed[index];
  };
  for (unsigned r = 0; r < options.setup_repeats; ++r) {
    clear_process_caches();
    const std::int64_t start = now_ns();
    std::unique_ptr<Stack> fresh = bring_up(nullptr);
    const std::uint64_t failed = hot ? run_phase(*fresh, reprime).failed : 0;
    setup_seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
    if (failed != 0) {
      out.problems.push_back("set-up: a primed response changed");
      return out;
    }
  }
  clear_process_caches();

  PhaseSpec timed = traffic(options.seed);
  if (options.trace) {
    timed.keep = [](std::uint64_t) { return true; };
  } else {
    timed.keep = [digest_requests](std::uint64_t index) {
      return index < digest_requests ||
             (index < kOracleReach &&
              index % kOracleStride == kOracleStride - 1);
    };
  }

  axc::obs::Counter& wakeups =
      axc::obs::counter("service.reactor.epoll_wakeups");
  const axc::obs::Counter& cache_hits = axc::obs::counter("service.cache.hits");
  PhaseResult phase;
  std::vector<Completion> answered;
  if (!options.trace) {
    timed.duration_ns = seconds_to_ns(options.seconds);
    if (options.max_requests != 0) timed.end_index = options.max_requests;
    const std::uint64_t hits_before = cache_hits.value();
    phase = run_phase(*stack, timed);
    const std::uint64_t hits = cache_hits.value() - hits_before;
    if (!hot && hits != 0) {
      out.problems.push_back(std::to_string(hits) +
                             " result-cache hits on a cold workload");
    }
    const double rss = peak_rss_mib();
    const std::uint64_t ok = phase.attempted - phase.failed;
    out.metrics.add("throughput_rps", phase.ok_per_second(), "req/s", ok);
    out.metrics.add("latency_p50_ms", percentile(phase.latency_ms, 50), "ms",
                    ok);
    out.metrics.add("latency_p99_ms", percentile(phase.latency_ms, 99), "ms",
                    ok);
    out.metrics.add("cpu_ms_per_req",
                    phase.attempted == 0
                        ? 0.0
                        : static_cast<double>(phase.cpu_ns) / 1e6 /
                              static_cast<double>(phase.attempted),
                    "ms", phase.attempted);
    out.metrics.add("peak_rss_mib", rss, "MiB", 1);
    out.metrics.add("setup_s", median(setup_seconds), "s",
                    setup_seconds.size());
    answered = phase.kept;
  } else {
    // Untraced and traced halves of the same run: their throughput ratio
    // is the tracing overhead. Both start from cold process caches.
    const std::int64_t half = seconds_to_ns(options.seconds / 2);
    timed.duration_ns = half;
    if (options.max_requests != 0) timed.end_index = options.max_requests;
    const PhaseResult untraced = run_phase(*stack, timed);

    clear_process_caches();
    timed.first_index = untraced.next_index;
    if (options.max_requests != 0) {
      timed.end_index = untraced.next_index + options.max_requests;
    }
    timed.record_keys = true;
    const std::uint64_t calls_before = probe.calls.load();
    const std::uint64_t wakeups_before = wakeups.value();
    const auto compile_before = axc::logic::compile_cache_stats();
    const auto memo_before = axc::logic::characterization_cache_stats();
    probe.recording = true;
    phase = run_phase(*stack, timed);
    probe.recording = false;
    const std::uint64_t calls = probe.calls.load() - calls_before;
    const std::uint64_t woke = wakeups.value() - wakeups_before;
    const auto compile_after = axc::logic::compile_cache_stats();
    const auto memo_after = axc::logic::characterization_cache_stats();

    std::vector<DispatchRecord> records;
    {
      const std::lock_guard<std::mutex> lock(probe.mutex);
      records = probe.records;
    }
    service_stages(hot ? primed_phase.kept : phase.kept, records, out.metrics,
                   log);
    const double requests = static_cast<double>(std::max<std::uint64_t>(
        phase.attempted, 1));
    out.metrics.add("service.cache.hit_ratio",
                    1.0 - static_cast<double>(calls) / requests, "ratio",
                    phase.attempted);
    out.metrics.add("service.reactor.wakeups_per_req",
                    static_cast<double>(woke) / requests, "count",
                    phase.attempted);
    add_hit_ratio(out.metrics, "logic.compile.hit_ratio",
                  compile_after.hits - compile_before.hits,
                  compile_after.misses - compile_before.misses);
    add_hit_ratio(out.metrics, "logic.characterize_cache.hit_ratio",
                  memo_after.hits - memo_before.hits,
                  memo_after.misses - memo_before.misses);
    out.info.add("throughput_rps.untraced", untraced.ok_per_second(),
                 "req/s", untraced.attempted - untraced.failed);
    out.info.add("throughput_rps.traced", phase.ok_per_second(), "req/s",
                 phase.attempted - phase.failed);
    const double base = untraced.ok_per_second();
    out.metrics.add(
        "trace.overhead_pct",
        base > 0 ? 100.0 * (base - phase.ok_per_second()) / base : 0.0, "%",
        untraced.attempted + phase.attempted);
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;
    for (const std::string& error : untraced.errors) {
      out.problems.push_back(error);
    }
    answered = untraced.kept;
    answered.insert(answered.end(), phase.kept.begin(), phase.kept.end());
  }
  out.attempted += phase.attempted;
  out.failed += phase.failed;
  for (const std::string& error : phase.errors) out.problems.push_back(error);
  probe.server = nullptr;
  stack.reset();

  out.info.add("failed_ratio",
               out.attempted == 0 ? 0.0
                                  : static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted),
               "ratio", out.attempted);
  const std::uint64_t digest_count =
      std::min<std::uint64_t>(digest_requests, answered.size());
  if (const auto digest = response_digest(answered, 0, digest_count)) {
    out.digest = hex(*digest);
    out.digest_requests = digest_count;
  } else {
    out.problems.push_back("response_digest: a leading request is missing");
  }
  if (answered.empty()) {
    out.problems.push_back("no request was answered");
  } else {
    oracle_check(options, pool, answered, out.problems, out.info);
  }

  if (options.trace) {
    run_ledger(options.seed, options.ledger_requests, out.metrics, log,
               out.problems);
    if (!options.spans_path.empty() && !log.write(options.spans_path)) {
      out.problems.push_back("cannot write spans to " + options.spans_path);
    }
  }
  return out;
}

}  // namespace axc_bench
