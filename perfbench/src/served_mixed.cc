// served_mixed: a mutable XMark-like database (ElementSetStore, file
// backend, one fsync per commit) behind an in-process serve::Server on
// an ephemeral loopback port. Two reader connections run a closed loop
// of `auto` joins drawn Zipf(s=1) over B1-B10; one writer connection
// runs an open loop at a fixed commit rate, inserting `bidder` children
// under random `open_auction` elements and deleting earlier inserts,
// so every commit bumps the epoch and invalidates the result cache.
// The warm pool and the result cache both hold the whole database.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "common/random.h"
#include "datagen/xmark_gen.h"
#include "framework/planner.h"
#include "framework/runner.h"
#include "pbitree/binarize.h"
#include "serve/client.h"
#include "serve/server.h"
#include "storage/element_store.h"
#include "storage/page.h"
#include "storage/segment_store.h"
#include "workloads.h"
#include "xml/data_tree.h"

namespace perfbench {
namespace {

using namespace pbitree;
using Clock = std::chrono::steady_clock;

constexpr int kReaders = 2;
constexpr double kCommitsPerSecond = 10.0;
constexpr size_t kMaxLiveInserts = 64;
constexpr size_t kPoolPages = 4096;  // holds the whole database warm

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The writer's progress as readers see it: `seq` is odd while an
/// update is in flight, `epoch` is the last committed epoch. A reader
/// whose request started and ended with the same even `seq` ran
/// entirely inside epoch `epoch`.
class WriterClock {
 public:
  struct Mark {
    uint64_t seq = 0;
    uint64_t epoch = 0;
  };
  void Reset(uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    mark_ = {0, epoch};
  }
  Mark Read() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mark_;
  }
  void Begin() {
    std::lock_guard<std::mutex> lock(mu_);
    ++mark_.seq;
  }
  void End(std::optional<uint64_t> committed) {
    std::lock_guard<std::mutex> lock(mu_);
    if (committed.has_value()) mark_.epoch = *committed;
    ++mark_.seq;
  }

 private:
  mutable std::mutex mu_;
  Mark mark_;
};

class ServedMixed : public Workload {
 public:
  explicit ServedMixed(const Config& cfg)
      : cfg_(cfg), writer_rng_(cfg.seed * 3 + 1) {
    sf_ = 0.05 * cfg.scale;
    joins_ = XmarkJoins();
    scfg_.port = 0;  // ephemeral
    scfg_.max_clients = 8;
    scfg_.max_concurrent = 4;
    scfg_.queue_depth = 16;
    scfg_.work_pages = 512;
    scfg_.threads = 1;
  }

  ~ServedMixed() override { (void)Teardown(); }

  Status Setup(const std::string& dir, Tracer* tracer) override {
    PBITREE_RETURN_IF_ERROR(Teardown());
    DataTree tree;
    {
      Tracer::Span span(tracer, "GenerateXmark");
      XmarkOptions gen;
      gen.scale_factor = sf_;
      gen.seed = cfg_.seed;
      PBITREE_RETURN_IF_ERROR(GenerateXmark(&tree, gen));
    }
    PBiTreeSpec spec;
    {
      Tracer::Span span(tracer, "BinarizeTree");
      PBITREE_RETURN_IF_ERROR(BinarizeTree(&tree, &spec));
    }
    TagId auction_tag = 0;
    if (!tree.FindTag("open_auction", &auction_tag) ||
        !tree.FindTag("bidder", &bidder_tag_)) {
      return Status::NotFound("document lacks open_auction or bidder");
    }
    auction_codes_.clear();
    for (NodeId id : tree.NodesWithTag(auction_tag)) {
      auction_codes_.push_back(tree.node(id).code);
    }

    SegmentStore::Options opts;
    opts.backend = "file";
    opts.path = dir + "/served.db";
    opts.pool_pages = kPoolPages;
    opts.create_level = 0;
    opts.page_codec = PageCodecKind::kRaw;
    path_ = opts.path;
    {
      std::unique_ptr<SegmentStore> build;
      {
        Tracer::Span span(tracer, "SegmentStore::Open");
        PBITREE_ASSIGN_OR_RETURN(build, SegmentStore::Open(opts));
      }
      std::set<std::string> tags;
      for (const TagJoinSpec& j : joins_) {
        tags.insert(j.ancestor_tag);
        tags.insert(j.descendant_tag);
      }
      for (const std::string& tag : tags) {
        Tracer::Span span(tracer, "ExtractTagSetByName");
        PBITREE_ASSIGN_OR_RETURN(
            ElementSet set,
            ExtractTagSetByName(build->main_bm(), tree, spec, tag, 0,
                                PageCodecKind::kRaw));
        PBITREE_RETURN_IF_ERROR(build->main_catalog()->Put(tag, set));
      }
      Tracer::Span span(tracer, "Catalog::Save");
      PBITREE_RETURN_IF_ERROR(build->main_catalog()->Save(build->main_bm()));
      PBITREE_RETURN_IF_ERROR(build->FlushAndSync());
    }

    // Reopen the way the daemon does: SegmentStore::Open replays any
    // commit log (ElementSetStore::Recover) before the pool warms.
    opts.create_level = -1;
    {
      Tracer::Span span(tracer, "SegmentStore::Open");
      PBITREE_ASSIGN_OR_RETURN(store_, SegmentStore::Open(opts));
    }
    {
      Tracer::Span span(tracer, "ElementSetStore::Open");
      PBITREE_ASSIGN_OR_RETURN(estore_,
                               ElementSetStore::Open(store_->main_bm()));
    }
    server_ = std::make_unique<serve::Server>(store_.get(), scfg_);
    server_->AttachElementStore(estore_.get());
    {
      Tracer::Span span(tracer, "Server::Start");
      PBITREE_RETURN_IF_ERROR(server_->Start());
    }
    for (int i = 0; i <= kReaders; ++i) {
      Tracer::Span span(tracer, "Client::Connect");
      clients_.emplace_back();
      PBITREE_RETURN_IF_ERROR(
          clients_.back().Connect("127.0.0.1", server_->port()));
    }
    // Warm the pool (and the cache at the opening epoch) with one pass.
    for (const TagJoinSpec& j : joins_) {
      Tracer::Span span(tracer, "Client::Join");
      ChecksumSink sink;
      PBITREE_RETURN_IF_ERROR(
          clients_[0].Join(j.ancestor_tag, j.descendant_tag, "auto", &sink)
              .status());
    }
    live_.clear();
    writer_clock_.Reset(estore_->epoch());
    return Status::OK();
  }

  Status Measure(double seconds, Tracer* tracer, PhaseResult* out) override {
    const obs::MetricsSnapshot before = server_->registry()->Snapshot();
    const DiskStats disk_before = store_->main_bm()->disk()->stats();

    ++phase_;
    std::vector<ReaderOut> readers(kReaders);
    WriterOut writer;
    StopSignal stop;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));

    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        ReaderLoop(r, deadline, tracer, &readers[static_cast<size_t>(r)]);
      });
    }
    threads.emplace_back([&] { WriterLoop(start, &stop, tracer, &writer); });
    for (int r = 0; r < kReaders; ++r) threads[static_cast<size_t>(r)].join();
    stop.Stop();
    threads.back().join();
    out->wall_s = std::chrono::duration<double>(Clock::now() - start).count();

    for (ReaderOut& r : readers) {
      out->query_ms.insert(out->query_ms.end(), r.all.begin(), r.all.end());
      out->hit_ms.insert(out->hit_ms.end(), r.hit.begin(), r.hit.end());
      out->miss_ms.insert(out->miss_ms.end(), r.miss.begin(), r.miss.end());
      out->attempted += r.attempted;
      out->failed += r.failed;
      out->pairs += r.pairs;
      out->pages += r.pages;
    }
    out->queries = out->query_ms.size();
    out->update_ms = writer.update_ms;
    out->attempted += writer.attempted;
    out->failed += writer.failed;
    out->bytes_per_element = BytesPerElement();

    const obs::MetricsSnapshot m =
        server_->registry()->Snapshot().Delta(before);
    const DiskStats disk_after = store_->main_bm()->disk()->stats();
    AddLayers(m, disk_before, disk_after, writer, out);
    return Status::OK();
  }

  Status Verify(Report* layer) override {
    if (!mismatch_.empty()) return Status::Corruption(mismatch_);
    // The writer has stopped: every served join must now equal a
    // direct RunJoin over the store's sets at the final epoch.
    double plan_us = 0.0;
    const uint64_t epoch = estore_->epoch();
    for (const TagJoinSpec& j : joins_) {
      ChecksumSink served;
      auto summary =
          clients_[0].Join(j.ancestor_tag, j.descendant_tag, "auto", &served);
      if (!summary.ok()) return summary.status();

      ElementSetStore::ReadPin pin = estore_->PinForRead();
      if (pin.epoch() != epoch) {
        return Status::Internal("epoch moved after the writer stopped");
      }
      PBITREE_ASSIGN_OR_RETURN(const ElementSet* a,
                               estore_->GetSet(j.ancestor_tag));
      PBITREE_ASSIGN_OR_RETURN(const ElementSet* d,
                               estore_->GetSet(j.descendant_tag));
      InputProperties pa, pd;
      pa.sorted = a->sorted_by_start;
      pd.sorted = d->sorted_by_start;
      const double p0 = NowSeconds();
      const Algorithm alg = ChooseAlgorithm(pa, pd, a->SingleHeight());
      plan_us += (NowSeconds() - p0) * 1e6;
      ChecksumSink direct;
      RunOptions opts;
      opts.work_pages = server_->PerQueryWorkPages();
      opts.flush_pool = false;
      PBITREE_RETURN_IF_ERROR(
          RunJoin(alg, store_->main_bm(), *a, *d, &direct, opts).status());
      if (!(direct.digest() == served.digest())) {
        return Status::Corruption(j.name + " served " +
                                  served.digest().ToString() + " but direct " +
                                  AlgorithmName(alg) + " gave " +
                                  direct.digest().ToString());
      }
    }
    layer->Add("framework.plan_us", plan_us / static_cast<double>(joins_.size()),
               "us/query", "ChooseAlgorithm in the final direct check");
    std::printf("check served_mixed: %llu same-epoch reply groups agree; %zu "
                "joins equal direct RunJoin at final epoch %llu\n",
                static_cast<unsigned long long>(epoch_groups_.size()),
                joins_.size(), static_cast<unsigned long long>(epoch));
    return Status::OK();
  }

  Status Teardown() override {
    clients_.clear();
    Status st = Status::OK();
    if (server_ != nullptr) st = server_->Shutdown();
    server_.reset();
    estore_.reset();
    store_.reset();
    return st;
  }

  std::vector<std::pair<std::string, std::string>> Environment()
      const override {
    char sf[32], rate[32];
    std::snprintf(sf, sizeof(sf), "%g", sf_);
    std::snprintf(rate, sizeof(rate), "%g", kCommitsPerSecond);
    return {{"backend", "file"},
            {"codec", "raw"},
            {"threads", std::to_string(scfg_.threads)},
            {"xmark_sf", sf},
            {"pool_pages", std::to_string(kPoolPages)},
            {"work_pages", std::to_string(scfg_.work_pages)},
            {"max_concurrent", std::to_string(scfg_.max_concurrent)},
            {"result_cache_bytes", std::to_string(scfg_.cache.max_bytes)},
            {"readers", std::to_string(kReaders) + " closed loop"},
            {"writer", std::string(rate) + " commits/s open loop"}};
  }

 private:
  struct WriterOut {
    std::vector<double> update_ms;
    uint64_t attempted = 0, failed = 0, commits = 0, slack_exhausted = 0;
    double late_ms_max = 0.0;
  };

  struct ReaderOut {
    std::vector<double> all, hit, miss;
    uint64_t attempted = 0, failed = 0, pairs = 0, pages = 0;
  };

  void ReaderLoop(int r, Clock::time_point deadline, Tracer* tracer,
                  ReaderOut* out) {
    serve::Client& client = clients_[static_cast<size_t>(r) + 1];
    Random rng(cfg_.seed * 1000003 + static_cast<uint64_t>(r) * 7919 +
               phase_);
    ZipfSampler zipf(joins_.size(), 1.0);
    while (Clock::now() < deadline) {
      const size_t ji = zipf.Sample(rng.NextDouble());
      const TagJoinSpec& j = joins_[ji];
      const uint64_t qid = next_query_id_.fetch_add(1) + 1;
      ++out->attempted;
      ChecksumSink sink;
      const WriterClock::Mark m0 = writer_clock_.Read();
      const Clock::time_point t0 = Clock::now();
      StatusOr<serve::JoinSummary> summary = [&] {
        Tracer::Span span(tracer, "Client::Join", qid);
        return client.Join(j.ancestor_tag, j.descendant_tag, "auto", &sink);
      }();
      const double ms = MsBetween(t0, Clock::now());
      const WriterClock::Mark m1 = writer_clock_.Read();
      if (!summary.ok()) {
        ++out->failed;
        continue;
      }
      out->all.push_back(ms);
      (summary->wall_seconds == 0.0 ? out->hit : out->miss).push_back(ms);
      out->pairs += summary->pairs;
      out->pages += summary->page_reads + summary->page_writes;
      if (m0.seq == m1.seq && m0.seq % 2 == 0) {
        CheckEpochGroup(ji, m0.epoch, sink.digest());
      }
    }
  }

  void WriterLoop(Clock::time_point start, StopSignal* stop, Tracer* tracer,
                  WriterOut* out) {
    serve::Client& client = clients_[0];
    OpenLoopSchedule schedule(start, kCommitsPerSecond);
    for (uint64_t i = 0;; ++i) {
      if (stop->WaitUntil(schedule.Due(i))) return;
      const Clock::time_point sent = Clock::now();
      out->late_ms_max = std::max(out->late_ms_max, schedule.LateMs(i, sent));
      const bool insert =
          live_.empty() ||
          (live_.size() < kMaxLiveInserts && writer_rng_.Uniform(2) == 0);
      const uint64_t qid = next_query_id_.fetch_add(1) + 1;
      ++out->attempted;
      writer_clock_.Begin();
      std::optional<uint64_t> committed;
      Status st;
      if (insert) {
        Tracer::Span span(tracer, "Client::InsertChild", qid);
        const Code parent =
            auction_codes_[writer_rng_.Uniform(auction_codes_.size())];
        auto res = client.InsertChild("bidder", parent, bidder_tag_, 0);
        st = res.status();
        if (res.ok()) {
          live_.push_back(res->code);
          committed = res->epoch;
        }
      } else {
        Tracer::Span span(tracer, "Client::DeleteElement", qid);
        const size_t k = writer_rng_.Uniform(live_.size());
        auto res = client.DeleteElement("bidder", live_[k]);
        st = res.status();
        if (res.ok()) {
          live_[k] = live_.back();
          live_.pop_back();
          committed = res->epoch;
        }
      }
      writer_clock_.End(committed);
      // Timed from when the request was due, so a stall that delays
      // later commits shows in their latency.
      out->update_ms.push_back(MsBetween(schedule.Due(i), Clock::now()));
      if (st.ok()) {
        ++out->commits;
      } else {
        ++out->failed;
        if (st.IsSlackExhausted()) ++out->slack_exhausted;
        std::fprintf(stderr, "update failed: %s\n", st.ToString().c_str());
      }
    }
  }

  void CheckEpochGroup(size_t join, uint64_t epoch, const PairDigest& got) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, first] = epoch_groups_.emplace(std::make_pair(join, epoch), got);
    if (!first && !(it->second == got) && mismatch_.empty()) {
      mismatch_ = joins_[join].name + " at epoch " + std::to_string(epoch) +
                  " replied " + got.ToString() + " after " +
                  it->second.ToString();
    }
  }

  void AddLayers(const obs::MetricsSnapshot& m, const DiskStats& disk_before,
                 const DiskStats& disk_after, const WriterOut& writer,
                 PhaseResult* out) {
    Report& layer = out->layer;
    const obs::HistogramStat& q =
        m.latencies[static_cast<size_t>(obs::Latency::kServeQuery)];
    const obs::HistogramStat& w =
        m.latencies[static_cast<size_t>(obs::Latency::kServeQueueWait)];
    const double server_ms =
        Ratio(static_cast<double>(q.total_nanos) / 1e6,
              static_cast<double>(q.count));
    double client_total = 0.0;
    for (double v : out->query_ms) client_total += v;
    const double client_ms =
        Ratio(client_total, static_cast<double>(out->query_ms.size()));
    char base[128];
    std::snprintf(base, sizeof(base), "n=%llu",
                  static_cast<unsigned long long>(q.count));
    layer.Add("serve.server_ms_mean", server_ms, "ms", base);
    std::snprintf(base, sizeof(base), "client_round_trip_ms=%.4f", client_ms);
    layer.Add("serve.transport_ms_mean", client_ms - server_ms, "ms", base);
    layer.Add("serve.queue_wait_ms_mean",
              Ratio(static_cast<double>(w.total_nanos) / 1e6,
                    static_cast<double>(w.count)),
              "ms");
    const double hits = static_cast<double>(m.counter(obs::Counter::kServeCacheHits));
    const double misses =
        static_cast<double>(m.counter(obs::Counter::kServeCacheMisses));
    std::snprintf(base, sizeof(base), "hits=%.0f lookups=%.0f", hits,
                  hits + misses);
    layer.Add("serve.cache_hit_ratio", Ratio(hits, hits + misses), "ratio",
              base);
    layer.Add("serve.cache_evictions",
              static_cast<double>(m.counter(obs::Counter::kServeCacheEvictions)),
              "count");
    layer.Add("serve.cache_bytes_max",
              static_cast<double>(m.gauge(obs::Gauge::kServeCacheBytes)),
              "bytes");
    layer.Add("serve.rejected",
              static_cast<double>(m.counter(obs::Counter::kServeRejected)),
              "count");

    // Device-level allocation deltas: commits, plus any temporary pages
    // the concurrent joins allocate.
    const double commits = static_cast<double>(writer.commits);
    std::snprintf(base, sizeof(base), "commits=%llu",
                  static_cast<unsigned long long>(writer.commits));
    layer.Add("storage.commit_pages_allocated",
              Ratio(static_cast<double>(disk_after.pages_allocated -
                                        disk_before.pages_allocated),
                    commits),
              "pages/commit", base);
    layer.Add("storage.commit_pages_freed",
              Ratio(static_cast<double>(disk_after.pages_freed -
                                        disk_before.pages_freed),
                    commits),
              "pages/commit", base);
    layer.Add("storage.slack_exhausted",
              static_cast<double>(writer.slack_exhausted), "count");
    layer.Add("storage.db_pages", DbPages(), "pages");
    layer.Add("loadgen.writer_late_ms_max", writer.late_ms_max, "ms");

    // Server-side engine work: page I/O and join phases of the misses.
    AddEngineLayers(m, out->queries, static_cast<double>(q.total_nanos) / 1e6,
                    0.0, &layer);
  }

  double DbPages() const {
    std::error_code ec;
    return static_cast<double>(std::filesystem::file_size(path_, ec)) /
           static_cast<double>(kPageSize);
  }

  double BytesPerElement() {
    ElementSetStore::ReadPin pin = estore_->PinForRead();
    double elements = 0.0;
    for (const std::string& name : estore_->SetNames()) {
      auto set = estore_->GetSet(name);
      if (set.ok()) elements += static_cast<double>((*set)->num_records());
    }
    return Ratio(DbPages() * static_cast<double>(kPageSize), elements);
  }

  Config cfg_;
  double sf_ = 0.0;
  std::vector<TagJoinSpec> joins_;
  serve::ServeConfig scfg_;
  std::string path_;
  std::unique_ptr<SegmentStore> store_;
  std::unique_ptr<ElementSetStore> estore_;
  std::unique_ptr<serve::Server> server_;
  std::vector<serve::Client> clients_;  // [0] writer, then the readers

  std::vector<Code> auction_codes_;
  TagId bidder_tag_ = 0;
  std::vector<Code> live_;  // the writer's inserts not yet deleted
  Random writer_rng_;
  WriterClock writer_clock_;
  std::atomic<uint64_t> next_query_id_{0};
  uint64_t phase_ = 0;  // measured phases so far; reseeds the readers

  std::mutex mu_;
  std::map<std::pair<size_t, uint64_t>, PairDigest> epoch_groups_;
  std::string mismatch_;
};

}  // namespace

std::unique_ptr<Workload> MakeServedMixed(const Config& cfg) {
  return std::make_unique<ServedMixed>(cfg);
}

}  // namespace perfbench
