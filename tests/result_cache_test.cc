// Result-cache suite: the epoch-keyed LRU itself (budget, eviction
// order, duplicate keys, stale-epoch reclaim, obs counters), the
// CachingSink tee (abandon-over-budget semantics), the checked env
// knobs (invalid values abort), and the serving layer end to end — a
// repeated join must be a cache hit with a byte-identical reply (at the
// opening epoch and after a commit), a committed update must bump the
// epoch and invalidate, Start must serve a level-0 store only through
// an attached element store and a segmented one only without, and a
// segmented server must answer updates with the typed Unimplemented
// condition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "obs/metrics.h"
#include "pbitree/code.h"
#include "serve/client.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "storage/element_store.h"
#include "storage/segment_store.h"

namespace pbitree {
namespace {

using serve::CachingSink;
using serve::Client;
using serve::JoinSummary;
using serve::ResultCache;
using serve::ResultCacheConfig;
using serve::ServeConfig;
using serve::Server;

std::shared_ptr<const ResultCache::Entry> MakeEntry(size_t num_pairs) {
  auto entry = std::make_shared<ResultCache::Entry>();
  for (size_t i = 0; i < num_pairs; ++i) {
    entry->pairs.push_back(ResultPair{i + 1, i + 2});
  }
  entry->summary.pairs = num_pairs;
  return entry;
}

ResultCache::Key K(const std::string& alg, uint64_t epoch) {
  return ResultCache::Key{"anc", "desc", alg, epoch};
}

// ---------------------------------------------------------------------
// The cache data structure.

TEST(ResultCacheTest, LruEvictionUnderByteBudgetWithCounters) {
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  ResultCacheConfig cfg;
  // Room for exactly two 10-pair entries.
  cfg.max_bytes = 2 * ResultCache::EntryBytes(10) + 32;
  ResultCache cache(cfg);

  cache.Insert(K("A", 0), MakeEntry(10));
  cache.Insert(K("B", 0), MakeEntry(10));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), 2 * ResultCache::EntryBytes(10));

  // Touch A so B becomes the LRU victim.
  EXPECT_NE(cache.Lookup(K("A", 0)), nullptr);
  cache.Insert(K("C", 0), MakeEntry(10));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Lookup(K("B", 0)), nullptr);
  EXPECT_NE(cache.Lookup(K("A", 0)), nullptr);
  EXPECT_NE(cache.Lookup(K("C", 0)), nullptr);

  auto snap = reg.Snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kServeCacheHits), 3u);
  EXPECT_EQ(snap.counter(obs::Counter::kServeCacheMisses), 1u);
  EXPECT_EQ(snap.counter(obs::Counter::kServeCacheEvictions), 1u);
}

TEST(ResultCacheTest, EntryOverTheWholeBudgetIsNeverCached) {
  ResultCacheConfig cfg;
  cfg.max_bytes = ResultCache::EntryBytes(4);
  ResultCache cache(cfg);
  cache.Insert(K("A", 0), MakeEntry(100));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  // A fitting entry still goes in.
  cache.Insert(K("A", 0), MakeEntry(4));
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCacheTest, DuplicateKeyReplacesTheEntry) {
  ResultCacheConfig cfg;
  ResultCache cache(cfg);
  cache.Insert(K("A", 0), MakeEntry(1));
  cache.Insert(K("A", 0), MakeEntry(5));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), ResultCache::EntryBytes(5));
  auto hit = cache.Lookup(K("A", 0));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->pairs.size(), 5u);
}

TEST(ResultCacheTest, EvictStaleEpochsDropsOnlyOlderEpochs) {
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  ResultCacheConfig cfg;
  ResultCache cache(cfg);
  cache.Insert(K("A", 0), MakeEntry(2));
  cache.Insert(K("B", 0), MakeEntry(2));
  cache.Insert(K("A", 1), MakeEntry(3));
  cache.EvictStaleEpochs(1);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), ResultCache::EntryBytes(3));
  EXPECT_EQ(cache.Lookup(K("A", 0)), nullptr);
  EXPECT_NE(cache.Lookup(K("A", 1)), nullptr);
  // Invalidation is not a budget eviction.
  EXPECT_EQ(reg.Snapshot().counter(obs::Counter::kServeCacheEvictions), 0u);
}

TEST(ResultCacheTest, DisabledCacheNeverStoresOrHits) {
  // A zero byte budget is the cache switched off: nothing is stored,
  // not even an empty result, and lookups count no miss.
  obs::MetricRegistry reg;
  obs::MetricScope scope(&reg);
  ResultCacheConfig off;
  off.max_bytes = 0;
  ResultCache cache(off);
  cache.Insert(K("A", 0), MakeEntry(1));
  cache.Insert(K("B", 0), MakeEntry(0));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Lookup(K("A", 0)), nullptr);
  EXPECT_EQ(cache.Lookup(K("B", 0)), nullptr);
  EXPECT_EQ(reg.Snapshot().counter(obs::Counter::kServeCacheMisses), 0u);
}

TEST(ResultCacheTest, ClearDropsEverything) {
  ResultCacheConfig cfg;
  ResultCache cache(cfg);
  cache.Insert(K("A", 0), MakeEntry(2));
  cache.Insert(K("B", 2), MakeEntry(2));
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

// ---------------------------------------------------------------------
// The tee sink.

TEST(CachingSinkTest, TeesPairsAndStaysCacheableWithinBudget) {
  VectorSink inner;
  CachingSink sink(&inner, ResultCache::EntryBytes(8));
  ASSERT_TRUE(sink.OnPair(10, 11).ok());
  std::vector<ResultPair> batch = {{20, 21}, {22, 23}};
  ASSERT_TRUE(sink.OnBatch(std::span<const ResultPair>(batch)).ok());
  EXPECT_TRUE(sink.cacheable());
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_EQ(inner.pairs().size(), 3u);
  std::vector<ResultPair> copy = sink.TakePairs();
  EXPECT_EQ(copy, inner.pairs());
}

TEST(CachingSinkTest, AbandonsTheCopyOverBudgetButKeepsStreaming) {
  VectorSink inner;
  CachingSink sink(&inner, ResultCache::EntryBytes(2));
  for (Code i = 0; i < 5; ++i) {
    ASSERT_TRUE(sink.OnPair(i + 1, i + 2).ok());
  }
  EXPECT_FALSE(sink.cacheable());
  EXPECT_EQ(sink.count(), 5u);
  EXPECT_EQ(inner.pairs().size(), 5u);  // the client saw everything
  EXPECT_TRUE(sink.TakePairs().empty());
}

TEST(CachingSinkTest, ZeroBudgetAbandonsImmediately) {
  VectorSink inner;
  CachingSink sink(&inner, 0);
  ASSERT_TRUE(sink.OnPair(1, 2).ok());
  EXPECT_FALSE(sink.cacheable());
  EXPECT_EQ(inner.pairs().size(), 1u);
}

// ---------------------------------------------------------------------
// Env knobs: defaults, application, and checked-abort on nonsense.

TEST(ResultCacheConfigTest, DefaultsAndEnvApplication) {
  ::unsetenv("PBITREE_RESULT_CACHE_BYTES");
  ResultCacheConfig def = ResultCacheConfig::FromEnv();
  EXPECT_EQ(def.max_bytes, size_t{64} << 20);

  ::setenv("PBITREE_RESULT_CACHE_BYTES", "1048576", 1);
  EXPECT_EQ(ResultCacheConfig::FromEnv().max_bytes, size_t{1} << 20);
  ::setenv("PBITREE_RESULT_CACHE_BYTES", "0", 1);  // the cache off
  EXPECT_EQ(ResultCacheConfig::FromEnv().max_bytes, 0u);
  ::unsetenv("PBITREE_RESULT_CACHE_BYTES");
}

TEST(ResultCacheConfigDeathTest, InvalidKnobValuesAbortWithTheName) {
  ::setenv("PBITREE_RESULT_CACHE_BYTES", "-1", 1);
  EXPECT_DEATH(ResultCacheConfig::FromEnv(), "PBITREE_RESULT_CACHE_BYTES");
  ::setenv("PBITREE_RESULT_CACHE_BYTES", "lots", 1);
  EXPECT_DEATH(ResultCacheConfig::FromEnv(), "PBITREE_RESULT_CACHE_BYTES");
  ::unsetenv("PBITREE_RESULT_CACHE_BYTES");
}

// ---------------------------------------------------------------------
// End to end: a mutable database behind the serving layer.

constexpr int kTreeHeight = 10;

class CachedServeTest : public ::testing::Test {
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

    Random rng(404);
    PBiTreeSpec spec{kTreeHeight};
    std::set<Code> seen;
    auto draw = [&](int n, int min_h, int max_h, std::vector<Code>* out) {
      while (static_cast<int>(out->size()) < n) {
        Code c = rng.UniformRange(1, spec.MaxCode());
        int h = HeightOf(c);
        if (h < min_h || h > max_h) continue;
        if (seen.insert(c).second) out->push_back(c);
      }
    };
    draw(30, 4, 6, &anc_codes_);
    draw(300, 0, 3, &desc_codes_);
    BuildSet("anc", anc_codes_);
    BuildSet("desc", desc_codes_);

    // The mutable path reads its sets through the store, so the catalog
    // must be durable before the store opens.
    ASSERT_TRUE(store_->main_catalog()->Save(bm_).ok());
    auto estore = ElementSetStore::Open(bm_);
    ASSERT_TRUE(estore.ok()) << estore.status().ToString();
    estore_ = std::move(*estore);
  }

  void TearDown() override {
    if (server_ != nullptr) {
      EXPECT_TRUE(server_->Shutdown().ok());
    }
    server_.reset();
    estore_.reset();
    EXPECT_EQ(bm_->PinnedFrames(), 0u);
  }

  void BuildSet(const std::string& name, const std::vector<Code>& codes) {
    auto builder = ElementSetBuilder::Create(bm_, PBiTreeSpec{kTreeHeight});
    ASSERT_TRUE(builder.ok());
    uint32_t doc = 1;
    for (Code c : codes) ASSERT_TRUE(builder->AddCode(c, 0, doc++).ok());
    auto built = builder->Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE(store_->main_catalog()->Put(name, *built).ok());
  }

  static ServeConfig TestConfig() {
    ServeConfig cfg;
    cfg.port = 0;
    cfg.max_clients = 8;
    cfg.max_concurrent = 2;
    cfg.queue_depth = 4;
    cfg.work_pages = 64;
    return cfg;
  }

  void StartServer(ServeConfig cfg = TestConfig()) {
    server_ = std::make_unique<Server>(store_.get(), cfg);
    server_->AttachElementStore(estore_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connect() {
    Client c;
    EXPECT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    return c;
  }

  std::vector<ResultPair> BruteForce(const std::vector<Code>& a,
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

  uint64_t Counter(obs::Counter c) {
    return server_->registry()->Snapshot().counter(c);
  }

  /// The served database: a level-0 store on the mem backend, opened
  /// the one way every server opens one.
  std::unique_ptr<SegmentStore> store_;
  BufferManager* bm_ = nullptr;
  std::unique_ptr<ElementSetStore> estore_;
  std::unique_ptr<Server> server_;
  std::vector<Code> anc_codes_, desc_codes_;
};

TEST_F(CachedServeTest, RepeatedJoinHitsTheCacheByteIdentically) {
  StartServer();
  Client c = Connect();

  // The attached store also feeds `list`.
  auto listing = c.List();
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_NE(listing->find("anc"), std::string::npos);
  EXPECT_NE(listing->find("desc"), std::string::npos);

  VectorSink first;
  auto s1 = c.Join("anc", "desc", "MHCJ", &first);
  ASSERT_TRUE(s1.ok()) << s1.status().ToString();
  EXPECT_EQ(Counter(obs::Counter::kServeCacheMisses), 1u);
  EXPECT_EQ(Counter(obs::Counter::kServeCacheHits), 0u);
  EXPECT_EQ(server_->result_cache()->entries(), 1u);
  EXPECT_GT(server_->result_cache()->bytes(), 0u);

  VectorSink second;
  auto s2 = c.Join("anc", "desc", "MHCJ", &second);
  ASSERT_TRUE(s2.ok()) << s2.status().ToString();
  EXPECT_EQ(Counter(obs::Counter::kServeCacheHits), 1u);
  EXPECT_EQ(Counter(obs::Counter::kServeCacheMisses), 1u);

  // Byte-identical reply: same pairs in the same order, same counts.
  EXPECT_EQ(second.pairs(), first.pairs());
  EXPECT_EQ(s2->pairs, s1->pairs);
  EXPECT_EQ(s2->algorithm, s1->algorithm);
  EXPECT_EQ(server_->queries_served(), 2u);

  // And both match ground truth.
  second.Sort();
  EXPECT_EQ(second.pairs(), BruteForce(anc_codes_, desc_codes_));

  // A different algorithm keys separately: miss, new entry.
  VectorSink other;
  ASSERT_TRUE(c.Join("anc", "desc", "STACKTREE", &other).ok());
  EXPECT_EQ(Counter(obs::Counter::kServeCacheMisses), 2u);
  EXPECT_EQ(server_->result_cache()->entries(), 2u);
}

TEST_F(CachedServeTest, CommittedUpdateBumpsEpochAndInvalidates) {
  StartServer();
  Client c = Connect();

  auto epoch = c.Epoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 0u);

  VectorSink before;
  ASSERT_TRUE(c.Join("anc", "desc", "MHCJ", &before).ok());
  EXPECT_EQ(server_->result_cache()->entries(), 1u);

  // Insert a child of the first ancestor through the wire.
  auto up = c.InsertChild("desc", anc_codes_[0], 0, 9001);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(up->epoch, 1u);
  EXPECT_TRUE(IsAncestor(anc_codes_[0], up->code));
  EXPECT_EQ(estore_->epoch(), 1u);
  // Eager invalidation reclaimed the epoch-0 entry.
  EXPECT_EQ(server_->result_cache()->entries(), 0u);

  // The post-commit join is a miss at the new epoch and sees the new
  // element.
  VectorSink after;
  ASSERT_TRUE(c.Join("anc", "desc", "MHCJ", &after).ok());
  EXPECT_EQ(Counter(obs::Counter::kServeCacheHits), 0u);
  EXPECT_EQ(Counter(obs::Counter::kServeCacheMisses), 2u);
  std::vector<Code> desc_now = desc_codes_;
  desc_now.push_back(up->code);
  after.Sort();
  EXPECT_EQ(after.pairs(), BruteForce(anc_codes_, desc_now));
  EXPECT_GT(after.pairs().size(), 0u);

  // Delete it again: another epoch, the original result returns.
  auto down = c.DeleteElement("desc", up->code);
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  EXPECT_EQ(down->epoch, 2u);
  VectorSink again;
  ASSERT_TRUE(c.Join("anc", "desc", "MHCJ", &again).ok());
  again.Sort();
  EXPECT_EQ(again.pairs(), BruteForce(anc_codes_, desc_codes_));

  // Bad updates surface as request errors, not corruption.
  EXPECT_EQ(c.InsertChild("nope", anc_codes_[0], 0, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(c.DeleteElement("desc", up->code).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(estore_->epoch(), 2u);
}

TEST_F(CachedServeTest, RepeatedJoinAfterCommitHitsTheCacheByteIdentically) {
  // Parity holds at every epoch, not only the opening one: after a
  // commit, the first join at the new epoch computes and the repeat
  // replays the same pair sequence.
  StartServer();
  Client c = Connect();
  auto up = c.InsertChild("desc", anc_codes_[0], 0, 9002);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  ASSERT_EQ(up->epoch, 1u);

  VectorSink miss;
  auto s1 = c.Join("anc", "desc", "MHCJ", &miss);
  ASSERT_TRUE(s1.ok()) << s1.status().ToString();
  VectorSink hit;
  auto s2 = c.Join("anc", "desc", "MHCJ", &hit);
  ASSERT_TRUE(s2.ok()) << s2.status().ToString();
  EXPECT_EQ(Counter(obs::Counter::kServeCacheMisses), 1u);
  EXPECT_EQ(Counter(obs::Counter::kServeCacheHits), 1u);
  EXPECT_EQ(hit.pairs(), miss.pairs());
  EXPECT_EQ(s2->pairs, s1->pairs);

  std::vector<Code> desc_now = desc_codes_;
  desc_now.push_back(up->code);
  hit.Sort();
  EXPECT_EQ(hit.pairs(), BruteForce(anc_codes_, desc_now));
}

TEST_F(CachedServeTest, StartServesEachLevelOneWay) {
  // Level 0 is served only through an attached element store.
  Server bare(store_.get(), TestConfig());
  Status st = bare.Start();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();

  // Level > 0 is served only through its segmented handles.
  SegmentStore::Options opts;
  opts.backend = "mem";
  opts.pool_pages = 256;
  opts.create_level = 1;
  auto seg_store = SegmentStore::Open(opts);
  ASSERT_TRUE(seg_store.ok()) << seg_store.status().ToString();
  auto anc = estore_->GetSet("anc");
  ASSERT_TRUE(anc.ok()) << anc.status().ToString();
  ASSERT_TRUE((*seg_store)->StoreSet("anc", **anc, bm_).ok());
  {
    Server attached(seg_store->get(), TestConfig());
    attached.AttachElementStore(estore_.get());
    st = attached.Start();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }

  // Without one it serves joins at epoch 0 and refuses updates typed.
  server_ = std::make_unique<Server>(seg_store->get(), TestConfig());
  ASSERT_TRUE(server_->Start().ok());
  Client c = Connect();
  st = c.InsertChild("anc", anc_codes_[0], 0, 1).status();
  EXPECT_TRUE(st.IsUnimplemented()) << st.ToString();
  auto epoch = c.Epoch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 0u);
  VectorSink sink;
  ASSERT_TRUE(c.Join("anc", "anc", "MHCJ", &sink).ok());
  EXPECT_TRUE(server_->Shutdown().ok());
  server_.reset();  // before the store it serves
}

TEST_F(CachedServeTest, UpdateRejectsTagAndDocThatOverflow32Bits) {
  StartServer();
  Client c = Connect();

  // tag/doc travel as u64 text but are stored as u32: a value above
  // UINT32_MAX must be a typed request error, never a silent
  // truncation (4294967296 would otherwise insert as tag 0).
  auto raw_update = [&](const std::string& tag, const std::string& doc) {
    serve::Request req;
    req.op = "update";
    req.params["set"] = "desc";
    req.params["action"] = "insert";
    req.params["parent"] = std::to_string(anc_codes_[0]);
    req.params["tag"] = tag;
    req.params["doc"] = doc;
    EXPECT_TRUE(serve::WriteRequestFrame(c.fd(), req).ok());
    serve::FrameType type{};
    std::string payload;
    EXPECT_TRUE(serve::ReadFrame(c.fd(), &type, &payload).ok());
    EXPECT_EQ(type, serve::FrameType::kError);
    return serve::DecodeError(payload);
  };
  EXPECT_EQ(raw_update("4294967296", "1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(raw_update("1", "18446744073709551615").code(),
            StatusCode::kInvalidArgument);

  // Nothing was committed: the epoch is untouched and a valid update
  // still goes through on the same connection.
  EXPECT_EQ(estore_->epoch(), 0u);
  auto ok = c.InsertChild("desc", anc_codes_[0], 0, 77);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->epoch, 1u);
}

TEST_F(CachedServeTest, CacheDisabledByConfigServesEveryQueryFresh) {
  ServeConfig cfg = TestConfig();
  cfg.cache.max_bytes = 0;  // PBITREE_RESULT_CACHE_BYTES=0
  StartServer(cfg);

  Client c = Connect();
  VectorSink a, b;
  ASSERT_TRUE(c.Join("anc", "desc", "MHCJ", &a).ok());
  ASSERT_TRUE(c.Join("anc", "desc", "MHCJ", &b).ok());
  EXPECT_EQ(a.pairs(), b.pairs());
  EXPECT_EQ(server_->result_cache()->entries(), 0u);
  EXPECT_EQ(Counter(obs::Counter::kServeCacheHits), 0u);
  EXPECT_EQ(Counter(obs::Counter::kServeCacheMisses), 0u);
}

}  // namespace
}  // namespace pbitree
