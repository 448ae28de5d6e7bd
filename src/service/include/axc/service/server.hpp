/// \file server.hpp
/// The multi-threaded job server behind every transport.
///
/// Architecture (one box of DESIGN.md §8):
///
///   submit() -> [header parse] -> [result cache] -> [bounded MPMC queue]
///                                                      -> worker pool
///                                                         -> dispatch()
///                                                         -> cache insert
///                                                         -> done(response)
///
/// Load shedding is explicit, never implicit: a full queue answers
/// Status::Overloaded synchronously (the client sees backpressure instead
/// of unbounded latency), a request whose deadline expired while queued
/// answers DeadlineExceeded without executing, and a stopping server
/// answers ShuttingDown. stop() is a graceful drain: accepted jobs all
/// complete and every done() callback fires exactly once before the
/// workers join.
///
/// Instrumented through axc::obs: per-endpoint request counters
/// (service.<endpoint>.requests), queue-depth histogram
/// (service.queue_depth), per-endpoint execution spans
/// (service.latency.<endpoint> — wall-clock, so in the report's timings
/// section), cache hit/miss counters (service.cache.{hits,misses} — the
/// derived hit_rate appears in every run report) and rejected-request
/// counters (service.rejected.{overloaded,deadline,bad_request,
/// shutting_down}).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "axc/service/cache.hpp"
#include "axc/service/endpoints.hpp"
#include "axc/service/overload.hpp"
#include "axc/service/protocol.hpp"

namespace axc::service {

/// One response callback. Fired exactly once per submit(), possibly
/// synchronously (rejections and cache hits) and possibly from a worker
/// thread; implementations must be thread-safe against that.
using ResponseCallback = std::function<void(Bytes)>;

/// Pluggable request executor (tests gate it; production uses dispatch()).
/// The second argument is the degrade level the OverloadController
/// assigned at admission (0 unless overload degradation is enabled).
using Dispatcher =
    std::function<Bytes(std::span<const std::uint8_t>, unsigned)>;

/// True when \p endpoint's responses are pure functions of the request's
/// canonical bytes: the result cache holds them, and peers may replicate
/// them through CacheInsert. False for Ping, Shutdown, CacheInsert and
/// any byte value that names no endpoint.
bool is_cacheable(Endpoint endpoint);

struct ServerOptions {
  /// Worker threads; 0 = hardware concurrency (minimum 1).
  unsigned workers = 0;
  /// Pending-job bound K: with a full queue, submit() answers Overloaded.
  /// Jobs already executing do not count against K.
  std::size_t queue_capacity = 64;
  /// Result-cache entries across all shards; 0 disables caching.
  std::size_t cache_capacity = 1024;
  unsigned cache_shards = 8;
  /// Worker threads *inside* one job (see DispatchOptions::eval_threads).
  unsigned eval_threads = 1;
  /// Replaces dispatch() wholesale when set (tests); eval_threads is then
  /// the custom dispatcher's problem.
  Dispatcher dispatcher = {};
  /// Degrade-don't-drop policy; max_level = 0 (default) keeps the
  /// pre-overload behavior (every job at full fidelity).
  OverloadPolicy overload{};
  /// Honour Endpoint::CacheInsert requests (cluster replication): peers
  /// may seed this server's result cache with validated full-fidelity
  /// entries. Off by default — a stray or hostile client must not be able
  /// to poison a cache that didn't opt in to being a replica.
  bool accept_cache_inserts = false;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  /// Graceful: equivalent to stop().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues one request. \p done fires exactly once with the complete
  /// response bytes — synchronously for rejections (Overloaded,
  /// ShuttingDown, malformed header) and cache hits, from a worker thread
  /// otherwise.
  void submit(Bytes request, ResponseCallback done);

  /// Synchronous convenience over submit(): blocks until the response.
  Bytes call(std::span<const std::uint8_t> request);

  /// Stops accepting work, completes every queued job, joins the workers.
  /// Idempotent; safe to call while submits race (they get ShuttingDown).
  void stop();

  /// Asynchronous stop signal for transports/signal handlers: flips the
  /// accepting flag (new submits answer ShuttingDown) without joining.
  /// A later stop() — e.g. from the destructor — performs the join.
  void request_stop();

  bool stopping() const;

  /// Jobs currently queued (executing jobs excluded).
  std::size_t queue_depth() const;

  const ServerOptions& options() const { return options_; }
  ResultCache& cache() { return cache_; }

 private:
  struct Job {
    Bytes request;
    ResponseCallback done;
    Endpoint endpoint = Endpoint::Ping;
    bool cacheable = false;
    std::uint64_t cache_key = 0;
    Bytes canonical;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /// Ladder rung assigned by the OverloadController at admission.
    unsigned degrade_level = 0;
  };

  void worker_loop();
  void run_job(Job& job);
  /// Validates and applies one Endpoint::CacheInsert request; returns the
  /// response synchronously (replication seeding never queues behind
  /// compute jobs).
  Bytes handle_cache_insert(std::span<const std::uint8_t> request);

  ServerOptions options_;
  ResultCache cache_;
  Dispatcher dispatcher_;
  OverloadController overload_;  ///< guarded by mutex_

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<Job> queue_;
  bool accepting_ = true;
  bool joining_ = false;  ///< workers should exit once the queue drains
  std::vector<std::thread> workers_;
};

}  // namespace axc::service
