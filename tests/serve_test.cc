// Serving-layer suite: wire-protocol round trips, the admission
// controller's gate/queue/reject/close behaviour, and end-to-end
// Server/Client integration — result parity with direct RunJoin across
// the algorithm matrix, concurrent mixed-algorithm clients, admission
// rejection, warm-server invariants (no catalog reloads, no physical
// re-reads on repeated queries), graceful drain, and a mid-stream
// client disconnect that must abort the join without leaking a pinned
// frame or a temp page.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "framework/planner.h"
#include "framework/runner.h"
#include "join/algorithm_registry.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "obs/metrics.h"
#include "pbitree/code.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/element_store.h"
#include "storage/segment_store.h"

namespace pbitree {
namespace {

using serve::AdmissionController;
using serve::AdmissionSlot;
using serve::Client;
using serve::FrameType;
using serve::JoinSummary;
using serve::Request;
using serve::ServeConfig;
using serve::Server;

// ---------------------------------------------------------------------
// Protocol units: request lines, done/error payloads, host:port.

TEST(ServeProtocolTest, RequestRoundTrip) {
  Request r;
  r.op = "join";
  r.params["a"] = "section";
  r.params["d"] = "figure";
  r.params["alg"] = "MHCJ+Rollup";
  auto line = serve::EncodeRequest(r);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  auto back = serve::ParseRequest(*line);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, r);
}

TEST(ServeProtocolTest, RequestRejectsUnsafeTokens) {
  Request r;
  r.op = "two words";
  EXPECT_EQ(serve::EncodeRequest(r).status().code(),
            StatusCode::kInvalidArgument);
  r.op = "join";
  r.params["a"] = "has space";
  EXPECT_EQ(serve::EncodeRequest(r).status().code(),
            StatusCode::kInvalidArgument);
  r.params.clear();
  r.params["k=y"] = "v";
  EXPECT_EQ(serve::EncodeRequest(r).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, ParseRequestRejectsMalformedLines) {
  EXPECT_EQ(serve::ParseRequest("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::ParseRequest("a=b join").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::ParseRequest("join =v").status().code(),
            StatusCode::kInvalidArgument);
  auto ok = serve::ParseRequest("  ping  ");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->op, "ping");
  EXPECT_TRUE(ok->params.empty());
}

TEST(ServeProtocolTest, DoneSummaryRoundTrip) {
  JoinSummary s;
  s.pairs = 12345;
  s.page_reads = 678;
  s.page_writes = 90;
  s.wall_seconds = 0.25;
  s.algorithm = "ADB+";
  auto back = serve::ParseDone(serve::EncodeDone(s));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->pairs, s.pairs);
  EXPECT_EQ(back->page_reads, s.page_reads);
  EXPECT_EQ(back->page_writes, s.page_writes);
  EXPECT_DOUBLE_EQ(back->wall_seconds, s.wall_seconds);
  EXPECT_EQ(back->algorithm, s.algorithm);
}

TEST(ServeProtocolTest, DoneRejectsMalformedPayload) {
  EXPECT_EQ(serve::ParseDone("pairs=ten").status().code(),
            StatusCode::kInternal);
  EXPECT_EQ(serve::ParseDone("").status().code(), StatusCode::kInternal);
}

TEST(ServeProtocolTest, ErrorRoundTripPreservesCodeAndMessage) {
  // Every error code survives the wire, each with its message.
  for (int c = 1; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    const Status st(static_cast<StatusCode>(c), "code " + std::to_string(c));
    Status back = serve::DecodeError(serve::EncodeError(st));
    EXPECT_EQ(back.code(), st.code()) << st.ToString();
    EXPECT_EQ(back.message(), st.message());
  }
  EXPECT_EQ(serve::DecodeError("not-a-code oops").code(),
            StatusCode::kInternal);
  EXPECT_EQ(serve::DecodeError("99 beyond the enum").code(),
            StatusCode::kInternal);
  EXPECT_EQ(serve::DecodeError(
                std::to_string(static_cast<int>(StatusCode::kUnimplemented) +
                               1) +
                " one past the last code")
                .code(),
            StatusCode::kInternal);
  EXPECT_EQ(serve::DecodeError("0 ok is not an error").code(),
            StatusCode::kInternal);
}

TEST(ServeProtocolTest, ParseHostPort) {
  std::string host;
  int port = 0;
  ASSERT_TRUE(serve::ParseHostPort("localhost:7433", &host, &port).ok());
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 7433);
  ASSERT_TRUE(serve::ParseHostPort("9999", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9999);
  EXPECT_FALSE(serve::ParseHostPort("host:0", &host, &port).ok());
  EXPECT_FALSE(serve::ParseHostPort("host:port", &host, &port).ok());
  EXPECT_FALSE(serve::ParseHostPort("host:70000", &host, &port).ok());
}

TEST(ServeProtocolTest, AlgorithmFromNameCoversTheMatrix) {
  for (Algorithm alg :
       {Algorithm::kShcj, Algorithm::kMhcj, Algorithm::kMhcjRollup,
        Algorithm::kVpj, Algorithm::kInljn, Algorithm::kStackTree,
        Algorithm::kMpmgjn, Algorithm::kAdb}) {
    auto parsed = AlgorithmFromName(AlgorithmName(alg));
    ASSERT_TRUE(parsed.ok()) << AlgorithmName(alg);
    EXPECT_EQ(*parsed, alg);
  }
  EXPECT_FALSE(AlgorithmFromName("QUICKSORT").ok());
  EXPECT_FALSE(AlgorithmFromName("").ok());
}

// ---------------------------------------------------------------------
// Admission controller.

TEST(AdmissionTest, AdmitsUpToLimitThenRejects) {
  AdmissionController ac(/*max_concurrent=*/2, /*max_queued=*/0);
  ASSERT_TRUE(ac.Admit().ok());
  ASSERT_TRUE(ac.Admit().ok());
  EXPECT_EQ(ac.in_flight(), 2u);
  EXPECT_EQ(ac.Admit().code(), StatusCode::kResourceExhausted);
  ac.Release();
  ASSERT_TRUE(ac.Admit().ok());
  ac.Release();
  ac.Release();
  EXPECT_EQ(ac.in_flight(), 0u);
}

TEST(AdmissionTest, QueuedWaitersAdmitInFifoOrderAndOverflowRejects) {
  AdmissionController ac(/*max_concurrent=*/1, /*max_queued=*/2);
  ASSERT_TRUE(ac.Admit().ok());  // occupy the slot

  std::atomic<int> started{0};
  std::vector<int> order;
  std::mutex order_mu;
  auto waiter = [&](int id) {
    ++started;
    Status st = ac.Admit();
    ASSERT_TRUE(st.ok()) << st.ToString();
    {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(id);
    }
    ac.Release();
  };
  std::thread t1(waiter, 1);
  while (ac.queued() < 1) std::this_thread::yield();
  std::thread t2(waiter, 2);
  while (ac.queued() < 2) std::this_thread::yield();

  // Queue full: the next admit is shed, not parked.
  EXPECT_EQ(ac.Admit().code(), StatusCode::kResourceExhausted);

  ac.Release();  // frees the slot; waiter 1 then waiter 2 run
  t1.join();
  t2.join();
  EXPECT_EQ(started.load(), 2);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(ac.in_flight(), 0u);
  EXPECT_EQ(ac.queued(), 0u);
}

TEST(AdmissionTest, CloseCancelsWaitersAndFutureAdmits) {
  AdmissionController ac(/*max_concurrent=*/1, /*max_queued=*/4);
  ASSERT_TRUE(ac.Admit().ok());
  std::thread waiter([&] {
    EXPECT_EQ(ac.Admit().code(), StatusCode::kCancelled);
  });
  while (ac.queued() < 1) std::this_thread::yield();
  ac.Close();
  waiter.join();
  EXPECT_EQ(ac.Admit().code(), StatusCode::kCancelled);
  ac.Release();  // in-flight slot stays valid through Close (drain)
  EXPECT_EQ(ac.in_flight(), 0u);
}

TEST(AdmissionTest, SlotGuardReleasesExactlyWhenAdmitted) {
  AdmissionController ac(/*max_concurrent=*/1, /*max_queued=*/0);
  {
    AdmissionSlot slot(&ac);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(ac.in_flight(), 1u);
    AdmissionSlot rejected(&ac);
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  }  // `rejected` must not Release a slot it never held
  EXPECT_EQ(ac.in_flight(), 0u);
  AdmissionSlot again(&ac);
  EXPECT_TRUE(again.ok());
}

// ---------------------------------------------------------------------
// Env-knob validation (the checked read path aborts on nonsense).

TEST(ServeConfigDeathTest, OutOfRangeKnobAbortsWithTheRange) {
  ::setenv("PBITREE_SERVE_PORT", "70000", 1);
  EXPECT_DEATH(ServeConfig::FromEnv(), "PBITREE_SERVE_PORT");
  ::unsetenv("PBITREE_SERVE_PORT");
  ::setenv("PBITREE_SERVE_MAX_CONCURRENT", "0", 1);
  EXPECT_DEATH(ServeConfig::FromEnv(), "PBITREE_SERVE_MAX_CONCURRENT");
  ::unsetenv("PBITREE_SERVE_MAX_CONCURRENT");
  ::setenv("PBITREE_SERVE_WORK_PAGES", "not-a-number", 1);
  EXPECT_DEATH(ServeConfig::FromEnv(), "PBITREE_SERVE_WORK_PAGES");
  ::unsetenv("PBITREE_SERVE_WORK_PAGES");
}

TEST(ServeConfigTest, DefaultsSurviveUnsetEnv) {
  ServeConfig cfg = ServeConfig::FromEnv();
  EXPECT_EQ(cfg.port, 7433);
  EXPECT_EQ(cfg.max_clients, 64u);
  EXPECT_EQ(cfg.max_concurrent, 4u);
  EXPECT_EQ(cfg.queue_depth, 16u);
  EXPECT_EQ(cfg.work_pages, 512u);
  EXPECT_EQ(cfg.threads, 1u);
}

// ---------------------------------------------------------------------
// Server/Client integration.

constexpr int kTreeHeight = 16;

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SegmentStore::Options opts;
    opts.backend = "mem";
    opts.pool_pages = 512;
    opts.create_level = 0;
    auto store = SegmentStore::Open(opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    bm_ = store_->main_bm();
    disk_ = bm_->disk();
    catalog_ = store_->main_catalog();

    Random rng(2026);
    // A single-height ancestor set (SHCJ requires one; height 6 of a
    // height-16 tree holds 512 distinct codes) over multi-height
    // descendants.
    a_codes_ = RandomCodes(&rng, 400, 6, 6);
    d_codes_ = RandomCodes(&rng, 2500, 0, 5);
    a_ = MakeSet(a_codes_);
    d_ = MakeSet(d_codes_);
    expect_sorted_ = BruteForce(a_codes_, d_codes_);

    ASSERT_TRUE(catalog_->Put("anc", a_).ok());
    ASSERT_TRUE(catalog_->Put("desc", d_).ok());
  }

  void TearDown() override {
    if (server_ != nullptr) {
      EXPECT_TRUE(server_->Shutdown().ok());
    }
    server_.reset();
    estore_.reset();
    EXPECT_EQ(bm_->PinnedFrames(), 0u);
    EXPECT_TRUE(a_.file.Drop(bm_).ok());
    EXPECT_TRUE(d_.file.Drop(bm_).ok());
  }

  /// Starts the fixture server (ephemeral port) with `cfg` defaults
  /// tuned for tests, serving the catalogued sets through an element
  /// store the way every level-0 server does.
  void StartServer(ServeConfig cfg = TestConfig()) {
    // The element store loads the sets from the saved catalog.
    ASSERT_TRUE(catalog_->Save(bm_).ok());
    auto estore = ElementSetStore::Open(bm_);
    ASSERT_TRUE(estore.ok()) << estore.status().ToString();
    estore_ = std::move(*estore);
    server_ = std::make_unique<Server>(store_.get(), cfg);
    server_->AttachElementStore(estore_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
    baseline_live_pages_ = disk_->num_live_pages();
  }

  static ServeConfig TestConfig() {
    ServeConfig cfg;
    cfg.port = 0;  // ephemeral
    cfg.max_clients = 16;
    cfg.max_concurrent = 2;
    cfg.queue_depth = 8;
    cfg.work_pages = 64;
    cfg.threads = 1;
    return cfg;
  }

  Client Connect() {
    Client c;
    EXPECT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    return c;
  }

  ElementSet MakeSet(const std::vector<Code>& codes,
                     int tree_height = kTreeHeight) {
    auto builder =
        ElementSetBuilder::Create(bm_, PBiTreeSpec{tree_height});
    EXPECT_TRUE(builder.ok());
    for (Code c : codes) EXPECT_TRUE(builder->AddCode(c).ok());
    auto built = builder->Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.value_or(ElementSet{});
  }

  std::vector<Code> RandomCodes(Random* rng, int n, int min_height,
                                int max_height,
                                int tree_height = kTreeHeight) {
    std::vector<Code> out;
    std::set<Code> seen;
    PBiTreeSpec spec{tree_height};
    while (static_cast<int>(out.size()) < n) {
      Code c = rng->UniformRange(1, spec.MaxCode());
      int h = HeightOf(c);
      if (h < min_height || h > max_height) continue;
      if (seen.insert(c).second) out.push_back(c);
    }
    return out;
  }

  static std::vector<ResultPair> BruteForce(const std::vector<Code>& a,
                                            const std::vector<Code>& d) {
    std::vector<ResultPair> out;
    for (Code x : a) {
      for (Code y : d) {
        if (IsAncestor(x, y)) out.push_back(ResultPair{x, y});
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Polls until every server connection finished (the handler threads
  /// observed the hangup) or the deadline passes.
  void WaitForIdleConnections() {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server_->active_connections() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server_->active_connections(), 0u);
  }

  /// The served database: a level-0 store on the mem backend, opened
  /// the one way every server opens one.
  std::unique_ptr<SegmentStore> store_;
  BufferManager* bm_ = nullptr;
  DiskManager* disk_ = nullptr;
  Catalog* catalog_ = nullptr;
  std::unique_ptr<ElementSetStore> estore_;
  std::unique_ptr<Server> server_;
  std::vector<Code> a_codes_, d_codes_;
  ElementSet a_, d_;
  std::vector<ResultPair> expect_sorted_;
  uint64_t baseline_live_pages_ = 0;
};

TEST_F(ServeTest, PingListMetrics) {
  StartServer();
  Client c = Connect();
  EXPECT_TRUE(c.Ping().ok());

  auto listing = c.List();
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_NE(listing->find("anc " + std::to_string(a_.num_records())),
            std::string::npos);
  EXPECT_NE(listing->find("desc " + std::to_string(d_.num_records())),
            std::string::npos);

  auto metrics = c.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("\"serve_queries\""), std::string::npos);
  EXPECT_NE(metrics->find("\"serve_query\""), std::string::npos);
}

TEST_F(ServeTest, JoinMatrixMatchesDirectRunByteForByte) {
  StartServer();
  Client c = Connect();
  for (Algorithm alg :
       {Algorithm::kShcj, Algorithm::kMhcj, Algorithm::kMhcjRollup,
        Algorithm::kVpj, Algorithm::kInljn, Algorithm::kStackTree,
        Algorithm::kMpmgjn, Algorithm::kAdb}) {
    SCOPED_TRACE(AlgorithmName(alg));
    VectorSink via_server;
    auto summary = c.Join("anc", "desc", AlgorithmName(alg), &via_server);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(summary->algorithm, AlgorithmName(alg));
    EXPECT_EQ(summary->pairs, via_server.pairs().size());

    // Same options the server used → identical emission sequence.
    RunOptions opts;
    opts.work_pages = server_->PerQueryWorkPages();
    VectorSink direct;
    auto run = RunJoin(alg, bm_, a_, d_, &direct, opts);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(via_server.pairs(), direct.pairs());

    // And both match ground truth as a set.
    via_server.Sort();
    EXPECT_EQ(via_server.pairs(), expect_sorted_);
  }
  EXPECT_EQ(server_->queries_served(), 8u);
}

TEST_F(ServeTest, RequestErrorsKeepTheConnectionUsable) {
  StartServer();
  Client c = Connect();
  CountingSink sink;
  EXPECT_EQ(c.Join("nope", "desc", "auto", &sink).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(c.Join("anc", "desc", "BOGOSORT", &sink).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(c.Ping().ok());
  VectorSink ok_sink;
  auto summary = c.Join("anc", "desc", "SHCJ", &ok_sink);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ok_sink.Sort();
  EXPECT_EQ(ok_sink.pairs(), expect_sorted_);
}

TEST_F(ServeTest, FourConcurrentClientsMixedAlgorithms) {
  StartServer();
  const char* algs[4] = {"SHCJ", "STACKTREE", "MPMGJN", "auto"};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      Client c;
      if (!c.Connect("127.0.0.1", server_->port()).ok()) {
        ++failures;
        return;
      }
      for (int rep = 0; rep < 3; ++rep) {
        VectorSink sink;
        auto summary = c.Join("anc", "desc", algs[i], &sink);
        if (!summary.ok()) {
          ADD_FAILURE() << "client " << i << ": "
                        << summary.status().ToString();
          ++failures;
          return;
        }
        sink.Sort();
        if (sink.pairs() != expect_sorted_) {
          ADD_FAILURE() << "client " << i << " result mismatch";
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->queries_served(), 12u);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

TEST_F(ServeTest, AdmissionRejectionReachesTheClient) {
  ServeConfig cfg = TestConfig();
  cfg.max_concurrent = 1;
  cfg.queue_depth = 0;
  StartServer(cfg);
  // Occupy the only slot out-of-band: the next query must be shed with
  // kResourceExhausted (no queue), and admitted again after Release.
  ASSERT_TRUE(server_->admission()->Admit().ok());
  Client c = Connect();
  CountingSink sink;
  EXPECT_EQ(c.Join("anc", "desc", "SHCJ", &sink).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_GE(server_->registry()->Snapshot().counter(
                obs::Counter::kServeRejected),
            1u);
  server_->admission()->Release();
  auto summary = c.Join("anc", "desc", "SHCJ", &sink);
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
}

TEST_F(ServeTest, WarmServerNeverReloadsTheCatalogOrRereadsPages) {
  // Sorted inputs let STACKTREE run without materialising anything —
  // the repeat-query page traffic is exactly the two scans, which a
  // warm pool absorbs entirely.
  std::vector<Code> a_sorted = a_codes_;
  std::vector<Code> d_sorted = d_codes_;
  auto start_order = [](Code x, Code y) {
    return StartOf(x) != StartOf(y) ? StartOf(x) < StartOf(y)
                                    : EndOf(x) > EndOf(y);
  };
  std::sort(a_sorted.begin(), a_sorted.end(), start_order);
  std::sort(d_sorted.begin(), d_sorted.end(), start_order);
  ElementSet a2 = MakeSet(a_sorted);
  ElementSet d2 = MakeSet(d_sorted);
  a2.sorted_by_start = true;
  d2.sorted_by_start = true;
  ASSERT_TRUE(catalog_->Put("anc2", a2).ok());
  ASSERT_TRUE(catalog_->Put("desc2", d2).ok());

  StartServer();
  Client c = Connect();
  // Query 1 warms the pool; its reads are the cold cost.
  CountingSink sink;
  auto first = c.Join("anc2", "desc2", "STACKTREE", &sink);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  const obs::MetricsSnapshot before = server_->registry()->Snapshot();
  for (int rep = 0; rep < 3; ++rep) {
    CountingSink again;
    auto summary = c.Join("anc2", "desc2", "STACKTREE", &again);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(summary->pairs, first->pairs);
    EXPECT_EQ(summary->page_reads, 0u) << "physical re-read on rep " << rep;
  }
  const obs::MetricsSnapshot delta =
      server_->registry()->Snapshot().Delta(before);
  // The daemon loaded the catalog before Start and never again; the
  // repeat queries did zero physical page reads (pool-resident data).
  EXPECT_EQ(delta.counter(obs::Counter::kCatalogLoads), 0u);
  EXPECT_EQ(delta.counter(obs::Counter::kPageReads), 0u);
  EXPECT_EQ(delta.counter(obs::Counter::kServeQueries), 3u);

  EXPECT_TRUE(a2.file.Drop(bm_).ok());
  EXPECT_TRUE(d2.file.Drop(bm_).ok());
}

TEST_F(ServeTest, GracefulShutdownDrainsInFlightAndCancelsQueued) {
  ServeConfig cfg = TestConfig();
  cfg.max_concurrent = 1;
  cfg.queue_depth = 4;
  StartServer(cfg);

  // Simulate an in-flight query by holding the only slot out-of-band,
  // and park a real client query behind it in the admission queue.
  ASSERT_TRUE(server_->admission()->Admit().ok());
  std::thread queued_client([&] {
    Client c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    CountingSink sink;
    // Queued at BeginShutdown time → cancelled, never executed.
    EXPECT_EQ(c.Join("anc", "desc", "SHCJ", &sink).status().code(),
              StatusCode::kCancelled);
  });
  while (server_->admission()->queued() < 1) std::this_thread::yield();

  server_->BeginShutdown();
  queued_client.join();

  // New connections are refused while draining.
  Client late;
  if (late.Connect("127.0.0.1", server_->port()).ok()) {
    EXPECT_FALSE(late.Ping().ok());
  }

  // The "in-flight query" finishes; the drain then completes and syncs.
  server_->admission()->Release();
  EXPECT_TRUE(server_->Shutdown().ok());
  EXPECT_EQ(server_->queries_served(), 0u);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  server_.reset();
}

TEST_F(ServeTest, ClientDisconnectMidStreamAbortsWithoutLeaks) {
  // A dense join whose output (~a million pairs, ~16 MB on the wire)
  // far exceeds kernel socket buffering: the server must still be
  // streaming when the client's hangup (an RST — it closes with unread
  // data) lands. A taller tree gives high-coverage ancestors: 56 codes
  // at heights [18, 23] of a height-24 tree each cover a few percent of
  // the 400k low descendants.
  constexpr int kBigHeight = 24;
  Random rng(7);
  std::vector<Code> big_a = RandomCodes(&rng, 56, 18, 23, kBigHeight);
  std::vector<Code> big_d = RandomCodes(&rng, 400000, 0, 6, kBigHeight);
  ElementSet a_big = MakeSet(big_a, kBigHeight);
  ElementSet d_big = MakeSet(big_d, kBigHeight);
  ASSERT_TRUE(catalog_->Put("bigA", a_big).ok());
  ASSERT_TRUE(catalog_->Put("bigD", d_big).ok());
  StartServer();

  {
    Client c = Connect();
    Request req;
    req.op = "join";
    req.params["a"] = "bigA";
    req.params["d"] = "bigD";
    req.params["alg"] = "SHCJ";
    req.params["alg"] = "MHCJ";  // the multi-height big_a needs it
    ASSERT_TRUE(serve::WriteRequestFrame(c.fd(), req).ok());
    FrameType type{};
    std::string payload;
    ASSERT_TRUE(serve::ReadFrame(c.fd(), &type, &payload).ok());
    ASSERT_EQ(type, FrameType::kPairs);
  }  // client destructor closes the socket with the stream in flight

  // The server-side write fails, the join aborts through the sink-error
  // path, and the connection handler finishes. Nothing may leak: no
  // pinned frames, no temp pages beyond the baseline.
  WaitForIdleConnections();
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  EXPECT_EQ(disk_->num_live_pages(), baseline_live_pages_);

  // The daemon is still healthy for the next client.
  Client again = Connect();
  EXPECT_TRUE(again.Ping().ok());
  VectorSink sink;
  auto summary = again.Join("anc", "desc", "SHCJ", &sink);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  sink.Sort();
  EXPECT_EQ(sink.pairs(), expect_sorted_);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  EXPECT_EQ(disk_->num_live_pages(), baseline_live_pages_);

  EXPECT_TRUE(server_->Shutdown().ok());
  server_.reset();
  EXPECT_TRUE(a_big.file.Drop(bm_).ok());
  EXPECT_TRUE(d_big.file.Drop(bm_).ok());
}

TEST_F(ServeTest, SharedExecPoolServesParallelPartitionedQueries) {
  // Segments are the only parallel unit: serve the fixture sets from a
  // level-1 store, so every query fans its two segment pairs out on the
  // daemon's one shared pool.
  SegmentStore::Options store_opts;
  store_opts.backend = "mem";
  store_opts.pool_pages = 256;
  store_opts.create_level = 1;
  auto store = SegmentStore::Open(store_opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->StoreSet("anc", a_, bm_).ok());
  ASSERT_TRUE((*store)->StoreSet("desc", d_, bm_).ok());

  ServeConfig cfg = TestConfig();
  cfg.threads = 2;  // one shared pool for every query
  server_ = std::make_unique<Server>(store->get(), cfg);
  ASSERT_TRUE(server_->Start().ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      Client c;
      if (!c.Connect("127.0.0.1", server_->port()).ok()) {
        ++failures;
        return;
      }
      VectorSink sink;
      auto summary = c.Join("anc", "desc", "MHCJ", &sink);
      if (!summary.ok()) {
        ADD_FAILURE() << summary.status().ToString();
        ++failures;
        return;
      }
      sink.Sort();
      if (sink.pairs() != expect_sorted_) {
        ADD_FAILURE() << "parallel result mismatch";
        ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(server_->registry()->Snapshot().counter(obs::Counter::kPoolTasks),
            0u);
  EXPECT_TRUE(server_->Shutdown().ok());
  server_.reset();  // before the store it serves
  for (size_t k = 0; k < (*store)->num_segments(); ++k) {
    EXPECT_EQ((*store)->segment_bm(k)->PinnedFrames(), 0u);
  }
}

}  // namespace
}  // namespace pbitree
