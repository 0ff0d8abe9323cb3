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
#include "exec/exec_context.h"
#include "join/element_set.h"
#include "join/segmented_set.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
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
  /// Width of the shared worker pool (exec/) that fans out the segment
  /// pairs of queries over a segmented store (level >= 1). 1 = each
  /// query joins its segments serially; queries over unsegmented sets
  /// are always serial. Queries themselves still run concurrently on
  /// their connection threads.
  size_t threads = 1;
  /// Epoch-keyed query-result cache (see serve/result_cache.h).
  ResultCacheConfig cache;

  /// Reads PBITREE_SERVE_PORT / _MAX_CLIENTS / _MAX_CONCURRENT /
  /// _QUEUE_DEPTH / _WORK_PAGES / _THREADS via EnvInt64Checked, plus
  /// the result-cache knobs via ResultCacheConfig::FromEnv.
  static ServeConfig FromEnv();
};

/// \brief The long-lived query service: loads the catalog once, keeps
/// the buffer pool and element-set handles warm across queries, and
/// serves containment joins to concurrent clients over the
/// serve/protocol.h wire format, streaming results through a
/// SocketSink with no server-side materialisation.
///
/// Lifecycle: construct with a warm BufferManager and a loaded
/// Catalog, Start() (binds, preloads every catalogued element set,
/// spawns the accept loop), serve until BeginShutdown()/Shutdown().
/// Shutdown drains: the listener closes first, in-flight queries run
/// to completion and flush their sinks, queued admissions are
/// cancelled, and the backend gets a final FlushAll + Sync barrier.
///
/// Concurrency model: one thread per connection (bounded by
/// max_clients), queries gated by the AdmissionController, segment
/// fan-out on one shared ExecContext pool (RunOptions::shared_exec) so
/// the thread budget is global, and per-query page budgets sliced from
/// `work_pages` (each segment task of a query gets the whole slice). Every handler thread bills into the server's
/// MetricRegistry — `metrics` requests return its JSON snapshot, and
/// the serve_query latency histogram is the p50/p99 source.
class Server {
 public:
  Server(BufferManager* bm, Catalog catalog, ServeConfig cfg);
  /// Serves a (possibly code-space-sharded) SegmentStore: master-entry
  /// sets are warmed as SegmentedSet handles and joined through the
  /// scatter-gather path; ordinary entries behave as before. The caller
  /// keeps ownership and must keep the store alive for the server's
  /// lifetime; Shutdown's durability barrier covers every segment file.
  Server(SegmentStore* store, ServeConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves a mutable database: joins read their element sets through
  /// `store` under a ReadPin (so every query is attributable to one
  /// snapshot epoch, the result-cache key), and the `update` / `epoch`
  /// wire ops come alive. Call before Start(); the caller keeps
  /// ownership and must outlive the server. Without an attached store
  /// the database is static and every query runs at epoch 0.
  void AttachElementStore(ElementSetStore* store) { estore_ = store; }

  /// Preloads the catalogued sets, binds and starts accepting.
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

  BufferManager* bm_;
  Catalog catalog_;
  ServeConfig cfg_;
  /// Borrowed segment store (null when constructed from a bare pool +
  /// catalog). Owns the per-segment pools the segmented joins run on.
  SegmentStore* store_ = nullptr;
  /// Borrowed mutable element store (null for a static database).
  ElementSetStore* estore_ = nullptr;
  ResultCache cache_;

  obs::MetricRegistry registry_;
  AdmissionController admission_;
  std::unique_ptr<ExecContext> exec_;
  /// Warm handles to every catalogued set, loaded once in Start().
  std::map<std::string, ElementSet> sets_;
  /// Warm handles to the segmented (master-entry) sets.
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
