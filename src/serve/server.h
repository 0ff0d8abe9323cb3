#ifndef PBITREE_SERVE_SERVER_H_
#define PBITREE_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "exec/thread_pool.h"
#include "join/segmented_set.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "storage/segment_store.h"

namespace pbitree {

class ElementSetStore;

namespace serve {

/// \brief Configuration of the query service daemon. Every knob has an
/// environment variable read through the checked env path: a set value
/// outside the accepted range aborts with a message instead of being
/// silently clamped (see ServeConfig::FromEnv).
struct ServeConfig {
  /// TCP port to listen on (loopback only). 0 picks an ephemeral port,
  /// readable via Server::port() — what tests and benches use.
  int port = 7433;
  /// Concurrent client connections; further connects are turned away
  /// with a kError frame before any request is read.
  size_t max_clients = 64;
  /// Queries executing at once. Each admitted query runs on a
  /// work_pages / max_concurrent budget slice, so the slices sum to
  /// the configured join budget regardless of client count.
  size_t max_concurrent = 4;
  /// Queries allowed to wait behind the executing ones; the next one
  /// is rejected (kResourceExhausted) instead of queued.
  size_t queue_depth = 16;
  /// Total buffer-page budget shared by the concurrent queries.
  size_t work_pages = 512;
  /// Width of the segment fan-out of queries over a segmented store
  /// (level >= 1): the server owns one pool of `threads - 1` workers
  /// shared by every query, and the query's own thread is the last of
  /// the `threads` executors. 1 = no pool; each query joins its
  /// segments serially. Level-0 queries are always serial. Queries
  /// themselves still run concurrently on their connection threads.
  size_t threads = 1;
  /// Epoch-keyed query-result cache (see serve/result_cache.h).
  ResultCacheConfig cache;

  /// Reads PBITREE_SERVE_PORT / _MAX_CLIENTS / _MAX_CONCURRENT /
  /// _QUEUE_DEPTH / _WORK_PAGES / _THREADS via EnvInt64Checked, plus
  /// the result-cache knobs via ResultCacheConfig::FromEnv.
  static ServeConfig FromEnv();
};

/// \brief The long-lived query service: opens nothing itself — it
/// serves a database opened through SegmentStore::Open — keeps the
/// buffer pools and element-set handles warm across queries, and
/// serves containment joins to concurrent clients over the
/// serve/protocol.h wire format, streaming results through a
/// SocketSink with no server-side materialisation.
///
/// Each store level is served one way:
///  - level 0 through the attached ElementSetStore only: every query
///    pins a snapshot epoch (the result-cache key) and the `update`
///    op commits live mutations;
///  - level > 0 through warm SegmentedSet handles only, joined by the
///    scatter-gather path at epoch 0; `update` answers Unimplemented.
/// Start() refuses the other two combinations with InvalidArgument.
///
/// Lifecycle: construct over an open SegmentStore, attach the element
/// store at level 0, Start() (warms the segmented handles, binds,
/// spawns the accept loop), serve until BeginShutdown()/Shutdown().
/// Shutdown drains: the listener closes first, in-flight queries run
/// to completion and flush their sinks, queued admissions are
/// cancelled, and every pool of the store gets a final flush + Sync
/// barrier.
///
/// Concurrency model: one thread per connection (bounded by
/// max_clients), queries gated by the AdmissionController, segment
/// fan-out on the server's one worker pool (RunOptions::shared_pool) so
/// the thread budget is global, and per-query page budgets sliced from
/// `work_pages` (each segment task of a query gets the whole slice).
/// Every handler thread bills into the server's MetricRegistry —
/// `metrics` requests return its JSON snapshot, and the serve_query
/// latency histogram is the p50/p99 source.
class Server {
 public:
  /// Serves `store` at any level (see the class comment). The caller
  /// keeps ownership and must keep the store alive for the server's
  /// lifetime; Shutdown's durability barrier covers every segment file.
  Server(SegmentStore* store, ServeConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The element store a level-0 database is served through: joins
  /// read their sets from it under a ReadPin (so every query is
  /// attributable to one snapshot epoch, the result-cache key), and
  /// `update` commits through it. Required at level 0, refused at
  /// level > 0. Call before Start(); the caller keeps ownership and
  /// must outlive the server.
  void AttachElementStore(ElementSetStore* store) { estore_ = store; }

  /// Checks the store level against the attached element store, warms
  /// the segmented sets (level > 0), binds and starts accepting.
  Status Start();

  /// The bound port (after Start; useful with cfg.port == 0).
  int port() const { return port_; }

  /// Stops accepting connections and cancels queued admissions;
  /// in-flight queries keep running. Idempotent, non-blocking.
  void BeginShutdown();

  /// BeginShutdown + wait for every connection to finish + final
  /// FlushAll/Sync durability barrier. Idempotent.
  Status Shutdown();

  /// The server-wide registry (counters, queue gauge, latency
  /// histograms). Snapshot it around requests to observe warmness.
  obs::MetricRegistry* registry() { return &registry_; }

  /// Exposed for deterministic admission tests.
  AdmissionController* admission() { return &admission_; }

  size_t active_connections() const;
  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }

  /// The query-result cache (tests inspect bytes/entries).
  ResultCache* result_cache() { return &cache_; }

  /// Budget slice each admitted query runs on.
  size_t PerQueryWorkPages() const;

 private:
  struct Conn {
    int fd = -1;
    std::thread th;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void HandleConnection(Conn* conn);
  /// Serves one request. A non-OK return means the connection itself
  /// is broken (write failure) and must be dropped; request-level
  /// problems are answered with kError frames and return OK.
  Status HandleRequest(int fd, const Request& req);
  Status HandleJoin(int fd, const Request& req);
  Status HandleUpdate(int fd, const Request& req);

  /// Joins finished connection threads and closes their sockets.
  /// Pass `all` to block until every connection is done first.
  void Reap(bool all);

  /// Borrowed store: its main pool serves level-0 joins and spill
  /// files, its per-segment pools the segmented joins.
  SegmentStore* store_;
  ServeConfig cfg_;
  /// Borrowed element store, attached exactly when the level is 0.
  ElementSetStore* estore_ = nullptr;
  ResultCache cache_;

  obs::MetricRegistry registry_;
  AdmissionController admission_;
  /// Segment fan-out workers: threads - 1 of them, null at threads 1.
  std::unique_ptr<ThreadPool> pool_;
  /// Warm handles to every set of a level > 0 store, loaded in Start().
  std::map<std::string, SegmentedSet> seg_sets_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;

  mutable std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::list<Conn> conns_;

  std::atomic<uint64_t> queries_served_{0};
};

}  // namespace serve
}  // namespace pbitree

#endif  // PBITREE_SERVE_SERVER_H_
