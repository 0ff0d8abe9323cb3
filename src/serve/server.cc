#include "serve/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/env.h"
#include "framework/runner.h"
#include "join/algorithm_registry.h"
#include "serve/socket_sink.h"
#include "storage/element_store.h"

namespace pbitree {
namespace serve {

namespace {

void CloseIfOpen(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

ServeConfig ServeConfig::FromEnv() {
  ServeConfig cfg;
  cfg.port = static_cast<int>(
      EnvInt64Checked("PBITREE_SERVE_PORT", cfg.port, 0, 65535));
  cfg.max_clients = static_cast<size_t>(EnvInt64Checked(
      "PBITREE_SERVE_MAX_CLIENTS", static_cast<int64_t>(cfg.max_clients), 1,
      4096));
  cfg.max_concurrent = static_cast<size_t>(EnvInt64Checked(
      "PBITREE_SERVE_MAX_CONCURRENT", static_cast<int64_t>(cfg.max_concurrent),
      1, 1024));
  cfg.queue_depth = static_cast<size_t>(EnvInt64Checked(
      "PBITREE_SERVE_QUEUE_DEPTH", static_cast<int64_t>(cfg.queue_depth), 0,
      1 << 20));
  // Floor 3 * max_concurrent keeps every slice at the engine's minimum
  // working-storage budget even at full concurrency.
  cfg.work_pages = static_cast<size_t>(EnvInt64Checked(
      "PBITREE_SERVE_WORK_PAGES", static_cast<int64_t>(cfg.work_pages),
      3 * static_cast<int64_t>(cfg.max_concurrent), 1 << 24));
  cfg.threads = static_cast<size_t>(EnvInt64Checked(
      "PBITREE_SERVE_THREADS", static_cast<int64_t>(cfg.threads), 1, 1024));
  cfg.cache = ResultCacheConfig::FromEnv();
  return cfg;
}

Server::Server(SegmentStore* store, ServeConfig cfg)
    : store_(store),
      cfg_(cfg),
      cache_(cfg.cache),
      admission_(cfg.max_concurrent, cfg.queue_depth) {}

Server::~Server() {
  if (started_.load()) (void)Shutdown();
}

size_t Server::PerQueryWorkPages() const {
  size_t slice = cfg_.work_pages / cfg_.max_concurrent;
  return slice < 3 ? 3 : slice;
}

Status Server::Start() {
  if (started_.load()) return Status::InvalidArgument("server already started");

  // One way to serve each level: level 0 through the attached element
  // store, whose live handles see committed mutations; level > 0
  // through warm SegmentedSet handles, immutable by construction.
  const int level = store_->level();
  if (level == 0 && estore_ == nullptr) {
    return Status::InvalidArgument(
        "a level-0 store is served through its element store; call "
        "AttachElementStore before Start");
  }
  if (level > 0 && estore_ != nullptr) {
    return Status::InvalidArgument(
        "a segmented store (level " + std::to_string(level) +
        ") is served read-only; attach no element store");
  }
  // Warm up once: after this the daemon never touches the catalog
  // again — repeated queries hit these handles and whatever pages the
  // pools have retained.
  if (level > 0) {
    for (const std::string& name : store_->Names()) {
      PBITREE_ASSIGN_OR_RETURN(SegmentedSet set, store_->Load(name));
      seg_sets_.emplace(name, std::move(set));
    }
  }
  if (cfg_.threads > 1) pool_ = std::make_unique<ThreadPool>(cfg_.threads - 1);

  if (::pipe(wake_pipe_) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(cfg_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError(std::string("bind port ") +
                           std::to_string(cfg_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  started_.store(true);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::OK();
}

void Server::BeginShutdown() {
  draining_.store(true);
  admission_.Close();
  if (wake_pipe_[1] >= 0) {
    char b = 'x';
    (void)!::write(wake_pipe_[1], &b, 1);
  }
  // Unblock connection threads parked in a request read. Sockets stay
  // open for writing: an in-flight query keeps streaming its results.
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (Conn& c : conns_) {
    if (!c.done.load()) ::shutdown(c.fd, SHUT_RD);
  }
}

Status Server::Shutdown() {
  if (!started_.load()) return Status::OK();
  BeginShutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  Reap(/*all=*/true);
  CloseIfOpen(&listen_fd_);
  CloseIfOpen(&wake_pipe_[0]);
  CloseIfOpen(&wake_pipe_[1]);
  started_.store(false);
  // Durability barrier: every query ran with flush_pool=false, so the
  // pools may hold dirty pages. No queries are running now, making the
  // pool-wide flush safe; Sync pushes it through every backend.
  return store_->FlushAndSync();
}

size_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  size_t n = 0;
  for (const Conn& c : conns_) {
    if (!c.done.load()) ++n;
  }
  return n;
}

void Server::Reap(bool all) {
  std::unique_lock<std::mutex> lock(conn_mu_);
  if (all) {
    conn_cv_.wait(lock, [&] {
      for (const Conn& c : conns_) {
        if (!c.done.load()) return false;
      }
      return true;
    });
  }
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load()) {
      it->th.join();
      ::close(it->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  obs::MetricScope scope(&registry_);
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int r = ::poll(fds, 2, -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // BeginShutdown woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    Reap(/*all=*/false);
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (draining_.load()) {
      ::close(cfd);
      continue;
    }
    size_t active = 0;
    for (const Conn& c : conns_) {
      if (!c.done.load()) ++active;
    }
    if (active >= cfg_.max_clients) {
      obs::Count(obs::Counter::kServeRejected);
      (void)WriteFrame(cfd, FrameType::kError,
                       EncodeError(Status::ResourceExhausted(
                           "server at max_clients=" +
                           std::to_string(cfg_.max_clients))));
      ::close(cfd);
      continue;
    }
    conns_.emplace_back();
    Conn& conn = conns_.back();
    conn.fd = cfd;
    conn.th = std::thread(&Server::HandleConnection, this, &conn);
  }
  // Stop the listener as soon as accepting ends: late connects are
  // refused (or reset from the backlog) instead of parking in a queue
  // nobody will ever serve.
  CloseIfOpen(&listen_fd_);
}

void Server::HandleConnection(Conn* conn) {
  // All work on this connection — admission waits, join execution on
  // this thread, pool tasks it schedules — bills into the server
  // registry, the source of the `metrics` snapshot and the serve_query
  // latency histogram.
  obs::MetricScope scope(&registry_);
  const int fd = conn->fd;
  for (;;) {
    Request req;
    bool clean_eof = false;
    Status st = ReadRequestFrame(fd, &req, &clean_eof);
    if (!st.ok()) {
      // A malformed request is unrecoverable (framing may be lost);
      // answer best-effort and drop the connection.
      if (!clean_eof && st.code() != StatusCode::kIOError) {
        (void)WriteFrame(fd, FrameType::kError, EncodeError(st));
      }
      break;
    }
    if (!HandleRequest(fd, req).ok()) break;
    if (draining_.load()) break;
  }
  {
    // Set under conn_mu_: Reap(all) reads `done` under the lock and then
    // waits, so a store and notify between its check and its wait would
    // be lost and the drain would never end.
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn->done.store(true);
  }
  conn_cv_.notify_all();
}

Status Server::HandleRequest(int fd, const Request& req) {
  if (req.op == "ping") return WriteFrame(fd, FrameType::kText, "pong");
  if (req.op == "list") {
    std::string out;
    if (estore_ != nullptr) {
      auto pin = estore_->PinForRead();
      for (const std::string& name : estore_->SetNames()) {
        StatusOr<const ElementSet*> set = estore_->GetSet(name);
        if (!set.ok()) continue;
        out += name;
        out += ' ';
        out += std::to_string((*set)->num_records());
        out += '\n';
      }
    }
    for (const auto& [name, set] : seg_sets_) {
      out += name;
      out += ' ';
      out += std::to_string(set.num_records);
      out += '\n';
    }
    return WriteFrame(fd, FrameType::kText, out);
  }
  if (req.op == "metrics") {
    return WriteFrame(fd, FrameType::kText, registry_.Snapshot().ToJson());
  }
  if (req.op == "epoch") {
    const uint64_t e = estore_ != nullptr ? estore_->epoch() : 0;
    return WriteFrame(fd, FrameType::kText, "epoch=" + std::to_string(e));
  }
  if (req.op == "join") return HandleJoin(fd, req);
  if (req.op == "update") return HandleUpdate(fd, req);
  return WriteFrame(
      fd, FrameType::kError,
      EncodeError(Status::InvalidArgument("unknown op '" + req.op + "'")));
}

Status Server::HandleJoin(int fd, const Request& req) {
  auto a_it = req.params.find("a");
  auto d_it = req.params.find("d");
  if (a_it == req.params.end() || d_it == req.params.end()) {
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::InvalidArgument(
                          "join requires a=<tag> and d=<tag>")));
  }
  // At level 0 the query pins a snapshot of the element store: the
  // shared lock keeps mutation batches out for the query's whole
  // execution and the pinned epoch keys the result cache. A segmented
  // store never changes, so its queries run at epoch 0.
  std::optional<ElementSetStore::ReadPin> pin;
  if (estore_ != nullptr) pin.emplace(estore_->PinForRead());
  const uint64_t epoch = pin ? pin->epoch() : 0;

  const ElementSet* a = nullptr;
  const ElementSet* d = nullptr;
  const SegmentedSet* seg_a = nullptr;
  const SegmentedSet* seg_d = nullptr;
  if (estore_ != nullptr) {
    auto find = [&](const std::string& tag) -> const ElementSet* {
      StatusOr<const ElementSet*> live = estore_->GetSet(tag);
      return live.ok() ? *live : nullptr;
    };
    a = find(a_it->second);
    d = find(d_it->second);
  } else {
    auto find = [&](const std::string& tag) -> const SegmentedSet* {
      auto it = seg_sets_.find(tag);
      return it == seg_sets_.end() ? nullptr : &it->second;
    };
    seg_a = find(a_it->second);
    seg_d = find(d_it->second);
  }
  const bool has_a = a != nullptr || seg_a != nullptr;
  if (!has_a || (d == nullptr && seg_d == nullptr)) {
    const std::string& missing = has_a ? d_it->second : a_it->second;
    return WriteFrame(fd, FrameType::kError,
                      EncodeError(Status::NotFound("no element set named '" +
                                                   missing + "'")));
  }

  std::string alg_name = "auto";
  if (auto it = req.params.find("alg"); it != req.params.end()) {
    alg_name = it->second;
  }
  Algorithm alg{};
  if (alg_name == "auto") {
    // Table 1 over the inputs' sortedness and height profile.
    alg = a != nullptr
              ? ChooseAlgorithm({a->sorted_by_start}, {d->sorted_by_start},
                                a->SingleHeight())
              : ChooseAlgorithm({seg_a->sorted_by_start},
                                {seg_d->sorted_by_start},
                                seg_a->SingleHeight());
  } else {
    // Registry lookup: the error names every valid algorithm.
    StatusOr<Algorithm> parsed = AlgorithmFromName(alg_name);
    if (!parsed.ok()) {
      return WriteFrame(fd, FrameType::kError, EncodeError(parsed.status()));
    }
    alg = *parsed;
  }

  // Queue wait counts toward the client-observed query latency.
  obs::LatencyTimer query_timer(obs::Latency::kServeQuery);

  // Admission control covers cache hits too: replaying a large cached
  // result still occupies this thread and the client's socket for the
  // whole stream, so hits queue under the same concurrency and
  // queue-depth limits as computed joins.
  AdmissionSlot slot(&admission_);
  if (!slot.ok()) {
    return WriteFrame(fd, FrameType::kError, EncodeError(slot.status()));
  }
  obs::Count(obs::Counter::kServeQueries);

  // Result cache: a hit replays the stored pairs through a fresh
  // SocketSink, whose chunking depends only on the pair sequence — the
  // pair stream is byte-identical to the uncached one at the same
  // epoch. A zero byte budget (PBITREE_RESULT_CACHE_BYTES=0) never hits
  // and never keeps a copy.
  ResultCache::Key cache_key{a_it->second, d_it->second, alg_name, epoch};
  if (std::shared_ptr<const ResultCache::Entry> hit =
          cache_.Lookup(cache_key)) {
    SocketSink sink(fd);
    PBITREE_RETURN_IF_ERROR(sink.OnBatch(hit->pairs));
    PBITREE_RETURN_IF_ERROR(sink.Flush());
    query_timer.Finish();
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    // A replay did no join work: keep the pair count and algorithm
    // but zero the producing run's timing/IO so clients never
    // attribute its cost to this reply.
    JoinSummary summary = hit->summary;
    summary.wall_seconds = 0.0;
    summary.page_reads = 0;
    summary.page_writes = 0;
    return WriteFrame(fd, FrameType::kDone, EncodeDone(summary));
  }

  RunOptions options;
  options.work_pages = PerQueryWorkPages();
  options.shared_pool = pool_.get();
  options.flush_pool = false;  // phase op; see RunOptions::flush_pool
  BufferManager* bm = store_->main_bm();
  SocketSink socket_sink(fd);
  CachingSink sink(&socket_sink, cache_.max_bytes());
  StatusOr<RunResult> run =
      a != nullptr ? RunJoin(alg, bm, *a, *d, &sink, options)
                   : RunSegmentedJoin(alg, bm, *seg_a, *seg_d, &sink, options);
  if (!run.ok()) {
    // If the sink died the socket is gone — fail the connection; any
    // other failure is reported to the (still healthy) client.
    if (!socket_sink.status().ok()) return socket_sink.status();
    return WriteFrame(fd, FrameType::kError, EncodeError(run.status()));
  }
  PBITREE_RETURN_IF_ERROR(socket_sink.Flush());
  query_timer.Finish();
  queries_served_.fetch_add(1, std::memory_order_relaxed);

  JoinSummary summary;
  summary.pairs = run->output_pairs;
  summary.page_reads = run->page_reads;
  summary.page_writes = run->page_writes;
  summary.wall_seconds = run->wall_seconds;
  summary.algorithm = AlgorithmName(run->algorithm);
  if (sink.cacheable()) {
    auto entry = std::make_shared<ResultCache::Entry>();
    entry->pairs = sink.TakePairs();
    entry->summary = summary;
    cache_.Insert(cache_key, std::move(entry));
  }
  return WriteFrame(fd, FrameType::kDone, EncodeDone(summary));
}

Status Server::HandleUpdate(int fd, const Request& req) {
  auto reply_error = [&](const Status& st) {
    return WriteFrame(fd, FrameType::kError, EncodeError(st));
  };
  if (estore_ == nullptr) {
    // Typed refusal, never a silently corrupted database: a segmented
    // server has no mutable store to attach (see segment_store.h).
    return reply_error(Status::Unimplemented(
        "live updates of a segmented database are not supported; mutate "
        "an unsegmented database (or rebuild the segments offline)"));
  }
  auto set_it = req.params.find("set");
  auto action_it = req.params.find("action");
  if (set_it == req.params.end() || action_it == req.params.end()) {
    return reply_error(Status::InvalidArgument(
        "update requires set=<name> and action=insert|delete"));
  }
  auto param_u64 = [&](const char* name, uint64_t* out) -> Status {
    auto it = req.params.find(name);
    if (it == req.params.end() || !ParseU64(it->second, out)) {
      return Status::InvalidArgument(std::string("update needs numeric ") +
                                     name + "=<u64>");
    }
    return Status::OK();
  };
  auto param_u32 = [&](const char* name, uint32_t* out) -> Status {
    uint64_t v = 0;
    Status st = param_u64(name, &v);
    if (!st.ok()) return st;
    if (v > UINT32_MAX) {  // reject, never silently truncate
      return Status::InvalidArgument(std::string("update ") + name + "=" +
                                     std::to_string(v) +
                                     " does not fit in 32 bits");
    }
    *out = static_cast<uint32_t>(v);
    return Status::OK();
  };

  // Each update request is its own batch: mutate, then commit (or roll
  // back so the writer lock is released and the old state stands).
  const std::string& action = action_it->second;
  Status st;
  Code new_code = kInvalidCode;
  if (action == "insert") {
    uint64_t parent = 0;
    uint32_t tag = 0, doc = 0;
    st = param_u64("parent", &parent);
    if (st.ok()) st = param_u32("tag", &tag);
    if (st.ok()) st = param_u32("doc", &doc);
    if (!st.ok()) return reply_error(st);
    StatusOr<Code> code = estore_->InsertChild(set_it->second, parent, tag, doc);
    st = code.ok() ? Status::OK() : code.status();
    if (code.ok()) new_code = *code;
  } else if (action == "delete") {
    uint64_t code = 0;
    st = param_u64("code", &code);
    if (!st.ok()) return reply_error(st);
    st = estore_->DeleteElement(set_it->second, code);
  } else {
    return reply_error(Status::InvalidArgument(
        "unknown update action '" + action + "' (want insert|delete)"));
  }
  if (st.ok()) st = estore_->Commit();
  if (!st.ok()) {
    (void)estore_->Rollback();  // owner-checked; no-op if never opened
    return reply_error(st);
  }
  // Committed: every pre-bump cached result is stale by key; reclaim
  // its bytes now instead of waiting for LRU pressure.
  cache_.EvictStaleEpochs(estore_->epoch());
  std::string ok = "ok epoch=" + std::to_string(estore_->epoch());
  if (action == "insert") ok += " code=" + std::to_string(new_code);
  return WriteFrame(fd, FrameType::kText, ok);
}

}  // namespace serve
}  // namespace pbitree
