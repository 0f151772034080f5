#ifndef UJOIN_SERVE_SEARCH_SERVER_H_
#define UJOIN_SERVE_SEARCH_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "join/join_stats.h"
#include "join/search.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/scrape_server.h"
#include "obs/watchdog.h"
#include "serve/workspace_pool.h"
#include "util/loopback_listener.h"
#include "util/status.h"

namespace ujoin {

namespace obs {
class SpanCollector;
class TraceRecorder;
}  // namespace obs

namespace serve {

/// \brief Configuration of one SearchServer instance.
struct ServeOptions {
  /// TCP port to bind on 127.0.0.1 (0 picks an ephemeral port, readable
  /// from SearchServer::port() after Start).
  int port = 0;
  /// Admission control: connections served concurrently.  Each admitted
  /// connection leases one pooled QueryWorkspace; connections beyond the
  /// cap receive a busy response and are closed.
  int max_connections = 4;
  /// Per-query verification limits applied to every request (deadline and
  /// world-count budget; see JoinOptions::limits for semantics).
  SearchLimits limits;
  /// Longest accepted request line, in bytes.  A longer complete line is
  /// answered with an error; a longer partial line closes the connection
  /// (the frame boundary is lost).
  size_t max_request_bytes = size_t{1} << 16;
  /// Port of the embedded Prometheus scrape endpoint (/metrics + /healthz +
  /// /debug/slow): 0 picks an ephemeral port, -1 disables the endpoint.
  int metrics_port = -1;
  /// Per-batch caps (serve hardening; see protocol.h BatchGuard).  A batch
  /// that exceeds either cap is answered with a structured error and the
  /// connection is closed.  <= 0 disables the respective cap.
  int64_t max_batch_requests = 1024;
  int64_t max_batch_bytes = int64_t{1} << 20;
  /// Structured query log (borrowed, must outlive the server; null = off).
  /// One JSONL record per answered request, buffered per connection and
  /// flushed at batch boundaries so the probe path stays allocation-free.
  obs::QueryLog* query_log = nullptr;
  /// Trace sink for per-query spans (borrowed; null = off).  The sink's
  /// probe sampler and slow-keep threshold decide which queries' spans are
  /// kept; probe indexes are assigned in fold order.  Span collection
  /// allocates — it is a debugging mode, same caveat as JoinOptions::trace.
  obs::TraceRecorder* trace = nullptr;
  /// Idle keep-alive timeout, milliseconds.  A connection that sends no
  /// bytes for this long is closed (after its final batch flush) and
  /// counted under serve_idle_closed_connections.  <= 0 keeps connections
  /// open until the peer hangs up (the historical behavior).
  int64_t idle_timeout_ms = 0;
  /// Stall watchdog (see obs/watchdog.h).  > 0 starts a watchdog thread
  /// over the global flight recorder: a query stalls when it runs past
  /// 4x its own deadline, or past this flat threshold when it has none.
  /// Captured stalls are served at /debug/stalls on the scrape endpoint.
  /// <= 0 disables the watchdog.
  int64_t watchdog_ms = 0;
  /// When non-empty, every watchdog capture also dumps the full flight
  /// record here (reason "watchdog").
  std::string watchdog_dump_path;
};

/// \brief Resident similarity-search service: a frozen SimilaritySearcher
/// behind a newline-delimited TCP protocol (see protocol.h).
///
/// One accept thread admits connections against the workspace pool; a fixed
/// crew of `max_connections` connection threads (started once, joined at
/// Stop) each serve one connection at a time with a leased workspace, so the
/// steady-state probe path keeps its zero-allocation property across
/// connections.  The searcher is immutable after Create/Load, which is what
/// makes the concurrent Search calls safe without any locking on the query
/// path.
///
/// Observability follows the repo's fold discipline: every query records
/// into a private JoinStats + obs::Recorder and is folded into the server's
/// run-level aggregates under one mutex.  All folded state is int64, so the
/// aggregates are bit-identical to an in-process SearchMany over the same
/// queries regardless of connection count or interleaving — the property
/// the differential harness (tests/serve/) asserts.  Serve-layer events
/// (connections, rejections, request errors, batch sizes) go to a separate
/// recorder so the query-path fold stays directly comparable; the /metrics
/// page renders the merge of both.
class SearchServer {
 public:
  /// `searcher` is borrowed and must outlive the server.
  SearchServer(const SimilaritySearcher* searcher, const ServeOptions& options);
  ~SearchServer();

  SearchServer(const SearchServer&) = delete;
  SearchServer& operator=(const SearchServer&) = delete;

  /// Binds the sockets and starts the accept + connection threads.  Call at
  /// most once.
  Status Start();

  /// Drains the threads and closes the sockets.  Idempotent; also run by
  /// the destructor.  In-flight queries complete; idle connections are
  /// closed at the next 100 ms poll tick.
  void Stop();

  /// The bound query port, valid after a successful Start().
  int port() const { return listener_.port(); }
  /// The bound scrape port, or -1 when the endpoint is disabled.
  int metrics_port() const;

  /// Snapshot of the folded per-query recorder (query-path metrics only;
  /// comparable to an in-process SearchMany fold over the same queries).
  obs::Recorder QueryMetrics() const;
  /// Snapshot of the serve-layer recorder (connections, rejections,
  /// request errors, batch sizes).
  obs::Recorder ServeMetrics() const;
  /// Snapshot of the folded per-query JoinStats.
  JoinStats Stats() const;

  /// Snapshots of the slow-query rings (worst first).  The verify-worlds
  /// ring's deterministic fields are client-count invariant (a pure top-N
  /// by (verify cost, content)); the latency ring is wall-clock ordered and
  /// makes no such promise.
  std::vector<obs::QueryLogRecord> SlowQueriesByVerifyWorlds() const;
  std::vector<obs::QueryLogRecord> SlowQueriesByLatency() const;
  /// The current /debug/slow page body (also served by the scrape
  /// endpoint when one is running).
  std::string SlowQueriesJson() const;

  /// Lifetime watchdog captures (0 when the watchdog is disabled).
  int64_t WatchdogCaptures() const;
  /// The current /debug/stalls page body (the "ujoin.stalls" JSON; empty
  /// ring renders as zero stalls).  Valid only while the watchdog runs.
  std::string StallsJson() const;

 private:
  /// A connection handed to a worker: the socket plus the connection
  /// ordinal (accept order, from 1) that attributes its query-log records.
  struct Mail {
    int fd = -1;
    int64_t conn = 0;
  };

  void AcceptLoop();
  void ConnectionWorker(int slot);
  void HandleConnection(int fd, int slot, int64_t conn);
  /// Folds one answered query into the run-level aggregates: stats and
  /// metrics merge, the record (when given) is offered to both slow-query
  /// rings, and the query's spans (when given) pass the trace keep gate.
  void FoldQuery(const JoinStats& query_stats, const obs::Recorder& query_rec,
                 bool error, const obs::QueryLogRecord* record,
                 const obs::SpanCollector* spans);
  /// Closes a batch of `batch_queries` requests: flushes the connection's
  /// query-log buffer, then serve-layer accounting plus a fresh /metrics
  /// snapshot.
  void FinishBatch(int64_t batch_queries, obs::QueryLogBuffer* log_buffer);
  void PushSnapshotLocked();

  const SimilaritySearcher* searcher_;
  ServeOptions options_;

  LoopbackListener listener_;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  WorkspacePool pool_;
  // Connection-thread mailboxes: mailbox_[slot] holds the connection handed
  // to worker `slot` (fd < 0 = idle).  Guarded by mailbox_mu_.
  std::mutex mailbox_mu_;
  std::condition_variable mailbox_cv_;
  std::vector<Mail> mailbox_;
  std::vector<std::thread> workers_;
  int64_t connections_accepted_ = 0;  // accept thread only

  // Run-level aggregates, folded query by query.  Guarded by agg_mu_.
  mutable std::mutex agg_mu_;
  JoinStats stats_;
  obs::Recorder query_metrics_;
  obs::Recorder serve_metrics_;
  obs::SlowQueryRing slow_by_worlds_{obs::SlowQueryRing::Key::kVerifyWorlds};
  obs::SlowQueryRing slow_by_latency_{obs::SlowQueryRing::Key::kLatencyNs};
  int64_t trace_probe_index_ = 0;  // guarded by agg_mu_

  obs::ScrapeServer scrape_;
  bool scrape_running_ = false;

  // Stall watchdog over the global flight recorder (null = disabled).  Its
  // lifetime captures fold into the serve recorder as a counter delta at
  // each snapshot push, so /metrics and ServeMetrics() stay consistent.
  std::unique_ptr<obs::Watchdog> watchdog_;
  int64_t watchdog_captures_folded_ = 0;  // guarded by agg_mu_
};

}  // namespace serve
}  // namespace ujoin

#endif  // UJOIN_SERVE_SEARCH_SERVER_H_
