// Mutable element-store suite: epoch-based incremental updates over
// catalogued sets. Covers the batch lifecycle (insert/delete, commit,
// rollback), epoch bumps and reader pins, the re-binarization fallback
// (cross-set containment must survive a re-embedding), a randomized
// mutate-then-join differential (every registry algorithm over the
// mutated handle, plus a rebuilt-from-scratch set) for both page
// codecs, the typed Unimplemented guards on segmented stores, and
// crash consistency: a torn-write sweep across the commit sequence
// where every reopened database must be exactly the old or the new
// committed state — never corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "join/algorithm_registry.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "pbitree/code.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/element_store.h"
#include "storage/heap_file.h"
#include "storage/io_backend.h"
#include "storage/page_codec.h"
#include "storage/segment_store.h"

namespace pbitree {
namespace {

using RecordTuple = std::tuple<Code, uint32_t, uint32_t>;

std::vector<ElementRecord> ScanSet(BufferManager* bm, const ElementSet& set) {
  std::vector<ElementRecord> out;
  if (!set.file.valid()) return out;
  HeapFile::Scanner scan(bm, set.file);
  for (std::span<const ElementRecord> batch = scan.NextElementBatch();
       !batch.empty(); batch = scan.NextElementBatch()) {
    out.insert(out.end(), batch.begin(), batch.end());
  }
  EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
  return out;
}

std::multiset<RecordTuple> RecordBag(const std::vector<ElementRecord>& recs) {
  std::multiset<RecordTuple> bag;
  for (const ElementRecord& r : recs) bag.emplace(r.code, r.tag, r.doc);
  return bag;
}

std::multiset<Code> CodeBag(const std::vector<ElementRecord>& recs) {
  std::multiset<Code> bag;
  for (const ElementRecord& r : recs) bag.insert(r.code);
  return bag;
}

std::vector<ResultPair> BruteForceJoin(const std::vector<Code>& a,
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

FaultSchedule MustParse(const std::string& spec) {
  auto s = FaultSchedule::Parse(spec);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return *s;
}

// ---------------------------------------------------------------------
// In-memory fixture: one catalogued set, parameterised by page codec.

class MutableStoreTest : public ::testing::TestWithParam<PageCodecKind> {
 protected:
  static constexpr int kHeight = 12;

  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 512);
  }

  void TearDown() override {
    store_.reset();
    EXPECT_EQ(bm_->PinnedFrames(), 0u);
  }

  /// Builds set `name` from `recs`, catalogues it, persists the catalog.
  void BuildSet(const std::string& name, const std::vector<ElementRecord>& recs,
                int height = kHeight) {
    auto builder =
        ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{height}, GetParam());
    ASSERT_TRUE(builder.ok()) << builder.status().ToString();
    for (const ElementRecord& r : recs) {
      ASSERT_TRUE(builder->Add(r).ok());
    }
    auto built = builder->Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ElementSet set = *built;
    auto catalog = Catalog::Load(bm_.get());
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    ASSERT_TRUE(catalog->Put(name, set).ok());
    ASSERT_TRUE(catalog->Save(bm_.get()).ok());
  }

  void OpenStore() {
    auto opened = ElementSetStore::Open(bm_.get());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    store_ = std::move(*opened);
  }

  std::vector<ElementRecord> Scan(const std::string& name) {
    auto set = store_->GetSet(name);
    EXPECT_TRUE(set.ok()) << set.status().ToString();
    if (!set.ok()) return {};
    return ScanSet(bm_.get(), **set);
  }

  std::vector<ElementRecord> MakeRandomRecords(Random* rng, size_t n,
                                               uint32_t first_doc = 1) {
    std::vector<ElementRecord> out;
    std::set<Code> seen;
    PBiTreeSpec spec{kHeight};
    uint32_t doc = first_doc;
    while (out.size() < n) {
      Code c = rng->UniformRange(1, spec.MaxCode());
      if (seen.insert(c).second) {
        out.push_back(ElementRecord{c, static_cast<uint32_t>(doc % 7), doc});
        ++doc;
      }
    }
    return out;
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<ElementSetStore> store_;
};

TEST_P(MutableStoreTest, InsertCommitBumpsEpochAndPersists) {
  Random rng(11);
  std::vector<ElementRecord> recs = MakeRandomRecords(&rng, 100);
  BuildSet("data", recs);
  OpenStore();
  EXPECT_EQ(store_->epoch(), 0u);

  const ElementRecord extra{PBiTreeSpec{kHeight}.RootCode(), 3, 9001};
  ASSERT_FALSE(CodeBag(recs).count(extra.code));
  ASSERT_TRUE(store_->InsertRecord("data", extra).ok());
  EXPECT_TRUE(store_->InBatch());
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_FALSE(store_->InBatch());
  EXPECT_EQ(store_->epoch(), 1u);

  std::vector<ElementRecord> after = Scan("data");
  std::multiset<RecordTuple> want = RecordBag(recs);
  want.emplace(extra.code, extra.tag, extra.doc);
  EXPECT_EQ(RecordBag(after), want);

  // A second store over the same pool reloads the *persisted* catalog:
  // the commit (records, metadata, epoch) must all be there.
  auto reopened = ElementSetStore::Open(bm_.get());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->epoch(), 1u);
  auto set = (*reopened)->GetSet("data");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(RecordBag(ScanSet(bm_.get(), **set)), want);
}

TEST_P(MutableStoreTest, DeleteMaintainsHeightMaskExactly) {
  // Heights in a small corner of the tree: 4 is the only height-2
  // element, so deleting it must clear that bit of the mask.
  std::vector<ElementRecord> recs;
  uint32_t doc = 1;
  for (Code c : {1, 3, 5, 7, 2, 6, 4}) {
    recs.push_back(ElementRecord{static_cast<Code>(c), 0, doc++});
  }
  BuildSet("data", recs);
  OpenStore();

  auto set = store_->GetSet("data");
  ASSERT_TRUE(set.ok());
  EXPECT_NE((*set)->height_mask & (uint64_t{1} << 2), 0u);

  ASSERT_TRUE(store_->DeleteElement("data", 4).ok());
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_EQ((*set)->height_mask & (uint64_t{1} << 2), 0u);
  EXPECT_EQ((*set)->num_records(), recs.size() - 1);
  EXPECT_EQ(CodeBag(Scan("data")).count(4), 0u);

  EXPECT_EQ(store_->DeleteElement("data", 4).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store_->Rollback().ok());
}

TEST_P(MutableStoreTest, RollbackRestoresBytesMetadataAndEpoch) {
  Random rng(23);
  std::vector<ElementRecord> recs = MakeRandomRecords(&rng, 300);
  BuildSet("data", recs);
  OpenStore();

  auto set = store_->GetSet("data");
  ASSERT_TRUE(set.ok());
  const std::vector<ElementRecord> before = Scan("data");
  const uint64_t mask_before = (*set)->height_mask;
  const uint64_t min_before = (*set)->min_start;
  const uint64_t max_before = (*set)->max_end;
  const bool sorted_before = (*set)->sorted_by_start;
  const uint64_t pages_before = (*set)->num_pages();

  // A pile of uncommitted damage: appends and deletes across pages.
  std::vector<ElementRecord> extra = MakeRandomRecords(&rng, 40, 10001);
  std::multiset<Code> have = CodeBag(before);
  for (const ElementRecord& r : extra) {
    if (have.count(r.code)) continue;
    ASSERT_TRUE(store_->InsertRecord("data", r).ok());
  }
  ASSERT_TRUE(store_->DeleteElement("data", before.front().code).ok());
  ASSERT_TRUE(store_->DeleteElement("data", before.back().code).ok());
  ASSERT_TRUE(store_->InBatch());

  ASSERT_TRUE(store_->Rollback().ok());
  EXPECT_FALSE(store_->InBatch());
  EXPECT_EQ(store_->epoch(), 0u);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);

  const std::vector<ElementRecord> after = Scan("data");
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].code, before[i].code) << i;
    EXPECT_EQ(after[i].doc, before[i].doc) << i;
  }
  EXPECT_EQ((*set)->height_mask, mask_before);
  EXPECT_EQ((*set)->min_start, min_before);
  EXPECT_EQ((*set)->max_end, max_before);
  EXPECT_EQ((*set)->sorted_by_start, sorted_before);
  EXPECT_EQ((*set)->num_pages(), pages_before);
}

TEST_P(MutableStoreTest, ReadPinSnapshotsTheEpoch) {
  Random rng(31);
  BuildSet("data", MakeRandomRecords(&rng, 20));
  OpenStore();
  {
    ElementSetStore::ReadPin pin = store_->PinForRead();
    EXPECT_EQ(pin.epoch(), 0u);
  }
  ASSERT_TRUE(
      store_->InsertRecord("data", ElementRecord{4095, 1, 777}).ok());
  ASSERT_TRUE(store_->Commit().ok());
  {
    ElementSetStore::ReadPin pin = store_->PinForRead();
    EXPECT_EQ(pin.epoch(), 1u);
  }
}

TEST_P(MutableStoreTest, InsertChildAllocatesInsideTheParent) {
  Random rng(59);
  BuildSet("data", MakeRandomRecords(&rng, 50));
  OpenStore();

  const Code parent = PBiTreeSpec{kHeight}.RootCode();
  auto code = store_->InsertChild("data", parent, 4, 8888);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_TRUE(IsAncestor(parent, *code));
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_EQ(CodeBag(Scan("data")).count(*code), 1u);

  EXPECT_EQ(store_->InsertChild("absent", parent, 0, 0).status().code(),
            StatusCode::kNotFound);
}

TEST_P(MutableStoreTest, RebinarizationPreservesCrossSetContainment) {
  // Height-5 tree (codes 1..31, root 16). The eight height-1 children
  // of the root tile all sixteen leaves, so a ninth child has no free
  // slot at any height: the very first InsertChild must re-binarize.
  // Two of those children hold a nested leaf from the *other* set —
  // containment across the sets has to survive the re-embedding.
  constexpr int kSmallHeight = 5;
  const Code root = PBiTreeSpec{kSmallHeight}.RootCode();
  ASSERT_EQ(root, 16u);

  std::vector<ElementRecord> target, other;
  uint32_t doc = 1;
  for (Code c : {2, 6, 10, 14}) {
    target.push_back(ElementRecord{static_cast<Code>(c), 1, doc++});
  }
  for (Code c : {18, 22, 26, 30, 1, 13}) {
    other.push_back(ElementRecord{static_cast<Code>(c), 2, doc++});
  }
  BuildSet("target", target, kSmallHeight);
  // BuildSet reloads + saves the catalog each time, so both entries
  // survive.
  BuildSet("other", other, kSmallHeight);
  OpenStore();

  auto doc_pairs = [&]() {
    std::vector<ElementRecord> all = Scan("target");
    std::vector<ElementRecord> o = Scan("other");
    all.insert(all.end(), o.begin(), o.end());
    std::set<std::pair<uint32_t, uint32_t>> pairs;
    std::set<Code> codes;
    for (const ElementRecord& x : all) {
      EXPECT_TRUE(codes.insert(x.code).second)
          << "duplicate code " << x.code << " after re-binarization";
      EXPECT_TRUE(IsValidCode(x.code, PBiTreeSpec{kSmallHeight}));
      for (const ElementRecord& y : all) {
        if (IsAncestor(x.code, y.code)) pairs.emplace(x.doc, y.doc);
      }
    }
    return pairs;
  };

  const std::set<std::pair<uint32_t, uint32_t>> before = doc_pairs();
  // The nesting this fixture is really about.
  EXPECT_TRUE(before.count({1, 9}));    // 2 contains 1
  EXPECT_TRUE(before.count({4, 10}));   // 14 contains 13

  int inserted = 0;
  std::vector<uint32_t> new_docs;
  Status last = Status::OK();
  for (int i = 0; i < 20; ++i) {
    auto code = store_->InsertChild("target", root, 1, 100 + i);
    if (!code.ok()) {
      last = code.status();
      break;
    }
    EXPECT_TRUE(IsAncestor(root, *code));
    new_docs.push_back(100 + i);
    ++inserted;
    ASSERT_TRUE(store_->Commit().ok());
  }
  // The tree corner genuinely fills up: the typed condition surfaces.
  EXPECT_GE(inserted, 3);
  EXPECT_TRUE(last.IsSlackExhausted()) << last.ToString();
  ASSERT_TRUE(store_->Rollback().ok());  // drop the failed attempt

  const std::set<std::pair<uint32_t, uint32_t>> after = doc_pairs();
  // Every original containment pair survives, none inverted; original
  // elements gain no pair among themselves.
  for (const auto& p : before) {
    EXPECT_TRUE(after.count(p))
        << "lost pair (" << p.first << "," << p.second << ")";
  }
  for (const auto& p : after) {
    if (p.first < 100 && p.second < 100) {
      EXPECT_TRUE(before.count(p))
          << "phantom pair (" << p.first << "," << p.second << ")";
    }
  }
  EXPECT_EQ(store_->epoch(), static_cast<uint64_t>(inserted));
}

TEST_P(MutableStoreTest, RandomizedMutationsMatchRebuiltFromScratch) {
  Random rng(GetParam() == PageCodecKind::kRaw ? 71 : 72);
  std::vector<ElementRecord> initial = MakeRandomRecords(&rng, 400);
  BuildSet("data", initial);
  OpenStore();

  PBiTreeSpec spec{kHeight};
  std::map<Code, ElementRecord> live;
  for (const ElementRecord& r : initial) live.emplace(r.code, r);

  uint32_t next_doc = 10000;
  for (int op = 0; op < 300; ++op) {
    if (live.empty() || rng.Uniform(10) < 6) {
      Code c = rng.UniformRange(1, spec.MaxCode());
      if (live.count(c)) continue;
      ElementRecord rec{c, static_cast<uint32_t>(op % 5), next_doc++};
      ASSERT_TRUE(store_->InsertRecord("data", rec).ok()) << op;
      live.emplace(c, rec);
    } else {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      ASSERT_TRUE(store_->DeleteElement("data", it->first).ok()) << op;
      live.erase(it);
    }
    if (op % 25 == 24) {
      ASSERT_TRUE(store_->Commit().ok()) << op;
    }
  }
  ASSERT_TRUE(store_->Commit().ok());

  auto set = store_->GetSet("data");
  ASSERT_TRUE(set.ok());
  const std::vector<ElementRecord> stored = ScanSet(bm_.get(), **set);

  // The stored records are exactly the tracked live set.
  std::multiset<RecordTuple> want;
  for (const auto& [code, rec] : live) want.emplace(rec.code, rec.tag, rec.doc);
  ASSERT_EQ(RecordBag(stored), want);

  // Incrementally maintained metadata is honest: the height mask and
  // ranges match a recomputation, and a claimed sort order is real.
  uint64_t mask = 0, min_start = UINT64_MAX, max_end = 0;
  bool actually_sorted = true;
  for (size_t i = 0; i < stored.size(); ++i) {
    mask |= uint64_t{1} << HeightOf(stored[i].code);
    min_start = std::min(min_start, StartOf(stored[i].code));
    max_end = std::max(max_end, EndOf(stored[i].code));
    if (i > 0 && StartOf(stored[i - 1].code) > StartOf(stored[i].code)) {
      actually_sorted = false;
    }
  }
  EXPECT_EQ((*set)->height_mask, mask);
  EXPECT_EQ((*set)->min_start, min_start);
  EXPECT_EQ((*set)->max_end, max_end);
  if ((*set)->sorted_by_start) {
    EXPECT_TRUE(actually_sorted);
  }

  // Differential join: every registry algorithm over the mutated handle,
  // the planner's pick, a rebuilt-from-scratch set over the same
  // records, and brute force must agree pairwise. The handle joins
  // itself and, as the larger A side, a rebuilt third of its records,
  // so INLJN builds both its code B+-tree and its interval index over
  // mutated pages (ADB+ builds its Start trees either way). No run may
  // leak a page.
  std::vector<Code> codes, third_codes;
  for (const ElementRecord& r : stored) codes.push_back(r.code);
  auto third_builder = ElementSetBuilder::Create(bm_.get(), spec, GetParam());
  ASSERT_TRUE(third_builder.ok());
  for (size_t i = 0; i < stored.size(); i += 3) {
    ASSERT_TRUE(third_builder->Add(stored[i]).ok());
    third_codes.push_back(stored[i].code);
  }
  auto third = third_builder->Build();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  const std::vector<ResultPair> expect = BruteForceJoin(codes, codes);
  const std::vector<ResultPair> expect_third =
      BruteForceJoin(codes, third_codes);

  RunOptions opts;
  opts.work_pages = 64;
  const uint64_t live_pages = disk_->num_live_pages();
  for (const AlgorithmInfo& info : AllAlgorithms()) {
    // SHCJ joins single-height ancestor sets only.
    if (info.alg == Algorithm::kShcj && !(*set)->SingleHeight()) continue;
    VectorSink self;
    auto run = RunJoin(info.alg, bm_.get(), **set, **set, &self, opts);
    ASSERT_TRUE(run.ok()) << info.name << ": " << run.status().ToString();
    self.Sort();
    EXPECT_EQ(self.pairs(), expect) << info.name;
    VectorSink with_third;
    run = RunJoin(info.alg, bm_.get(), **set, *third, &with_third, opts);
    ASSERT_TRUE(run.ok()) << info.name << ": " << run.status().ToString();
    with_third.Sort();
    EXPECT_EQ(with_third.pairs(), expect_third) << info.name;
    EXPECT_EQ(disk_->num_live_pages(), live_pages) << info.name;
  }
  EXPECT_TRUE(third->file.Drop(bm_.get()).ok());

  VectorSink via_store;
  auto run = RunAuto(bm_.get(), **set, **set, &via_store, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  via_store.Sort();
  EXPECT_EQ(via_store.pairs(), expect);

  auto builder = ElementSetBuilder::Create(bm_.get(), spec, GetParam());
  ASSERT_TRUE(builder.ok());
  for (const ElementRecord& r : stored) ASSERT_TRUE(builder->Add(r).ok());
  auto built = builder->Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ElementSet rebuilt = *built;
  VectorSink via_rebuilt;
  auto run2 = RunAuto(bm_.get(), rebuilt, rebuilt, &via_rebuilt, opts);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  via_rebuilt.Sort();
  EXPECT_EQ(via_rebuilt.pairs(), expect);
  EXPECT_TRUE(rebuilt.file.Drop(bm_.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(Codecs, MutableStoreTest,
                         ::testing::Values(PageCodecKind::kRaw,
                                           PageCodecKind::kFoRDelta),
                         [](const auto& info) {
                           return info.param == PageCodecKind::kRaw
                                      ? "Raw"
                                      : "FoRDelta";
                         });

// ---------------------------------------------------------------------
// Commit failure semantics under injected faults (in-memory backend).

struct FaultStack {
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferManager> bm;
  FaultInjectingBackend* fb = nullptr;  // owned by disk
};

FaultStack MakeFaultStack() {
  auto fault = std::make_unique<FaultInjectingBackend>(
      std::make_unique<MemIoBackend>(), FaultSchedule{});
  FaultStack s;
  s.fb = fault.get();
  auto dm = DiskManager::OpenWithBackend(std::move(fault),
                                         /*restore_frontier=*/false);
  EXPECT_TRUE(dm.ok());
  s.disk.reset(*dm);
  s.bm = std::make_unique<BufferManager>(s.disk.get(), 256);
  return s;
}

void BuildOn(BufferManager* bm, const std::string& name,
             const std::vector<ElementRecord>& recs, int height) {
  auto builder = ElementSetBuilder::Create(bm, PBiTreeSpec{height});
  ASSERT_TRUE(builder.ok());
  for (const ElementRecord& r : recs) ASSERT_TRUE(builder->Add(r).ok());
  auto built = builder->Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ElementSet set = *built;
  auto catalog = Catalog::Load(bm);
  ASSERT_TRUE(catalog.ok());
  ASSERT_TRUE(catalog->Put(name, set).ok());
  ASSERT_TRUE(catalog->Save(bm).ok());
}

TEST(ElementStoreFaultTest, FailedCommitLeavesBatchOpenAndRetrySucceeds) {
  FaultStack s = MakeFaultStack();
  BuildOn(s.bm.get(), "data", {{3, 0, 1}, {12, 0, 2}, {40, 0, 3}}, 10);
  auto store = ElementSetStore::Open(s.bm.get());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  ASSERT_TRUE((*store)->InsertRecord("data", ElementRecord{96, 0, 4}).ok());
  // Every write fails permanently: the commit log can never become
  // durable, so the commit must fail with the batch still open and the
  // epoch unmoved.
  s.fb->Arm(MustParse("write_every=1,transient=0"));
  Status st = (*store)->Commit();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE((*store)->InBatch());
  EXPECT_EQ((*store)->epoch(), 0u);

  // Disarm and simply retry the same batch.
  s.fb->Disarm();
  ASSERT_TRUE((*store)->Commit().ok());
  EXPECT_EQ((*store)->epoch(), 1u);
  auto set = (*store)->GetSet("data");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(CodeBag(ScanSet(s.bm.get(), **set)).count(96), 1u);
  store->reset();
  EXPECT_EQ(s.bm->PinnedFrames(), 0u);
}

TEST(ElementStoreFaultTest, FailedCommitCanRollBackInstead) {
  FaultStack s = MakeFaultStack();
  BuildOn(s.bm.get(), "data", {{3, 0, 1}, {12, 0, 2}}, 10);
  auto store = ElementSetStore::Open(s.bm.get());
  ASSERT_TRUE(store.ok());

  ASSERT_TRUE((*store)->InsertRecord("data", ElementRecord{96, 0, 4}).ok());
  s.fb->Arm(MustParse("write_every=1,transient=0"));
  EXPECT_FALSE((*store)->Commit().ok());
  s.fb->Disarm();
  ASSERT_TRUE((*store)->Rollback().ok());
  EXPECT_EQ((*store)->epoch(), 0u);
  auto set = (*store)->GetSet("data");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(CodeBag(ScanSet(s.bm.get(), **set)).count(96), 0u);
  EXPECT_EQ((*set)->num_records(), 2u);
  store->reset();
  EXPECT_EQ(s.bm->PinnedFrames(), 0u);
}

// ---------------------------------------------------------------------
// Segmented stores: mutation is a typed refusal, never quiet damage.

TEST(SegmentedMutationTest, ElementStoreRefusesSegmentedSets) {
  SegmentStore::Options opts;
  opts.backend = "mem";
  opts.pool_pages = 256;
  opts.create_level = 1;
  auto store = SegmentStore::Open(opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  auto builder = ElementSetBuilder::Create((*store)->main_bm(), PBiTreeSpec{8});
  ASSERT_TRUE(builder.ok());
  for (Code c : {1, 5, 64, 200}) {
    ASSERT_TRUE(builder->AddCode(static_cast<Code>(c), 0, 0).ok());
  }
  auto built = builder->Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ElementSet src = *built;
  ASSERT_TRUE((*store)->StoreSet("sharded", src, (*store)->main_bm()).ok());
  ASSERT_TRUE((*store)->SaveCatalogs().ok());
  ASSERT_TRUE(src.file.Drop((*store)->main_bm()).ok());

  auto estore = ElementSetStore::Open((*store)->main_bm());
  ASSERT_TRUE(estore.ok()) << estore.status().ToString();
  EXPECT_EQ((*estore)->GetSet("sharded").status().code(),
            StatusCode::kInvalidArgument);
  Status ins =
      (*estore)->InsertRecord("sharded", ElementRecord{3, 0, 1});
  EXPECT_TRUE(ins.IsUnimplemented()) << ins.ToString();
  Status del = (*estore)->DeleteElement("sharded", 3);
  EXPECT_TRUE(del.IsUnimplemented()) << del.ToString();
  ASSERT_TRUE((*estore)->Rollback().ok());
}

// ---------------------------------------------------------------------
// Crash consistency: torn-write sweep over the commit write sequence.

struct CrashStack {
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferManager> bm;
  FaultInjectingBackend* fb = nullptr;  // owned by disk
};

CrashStack OpenCrashStack(const std::string& path, bool recover) {
  CrashStack s;
  auto file = FileIoBackend::Open(path, /*truncate=*/false,
                                  /*unlink_on_close=*/false);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  auto fault = std::make_unique<FaultInjectingBackend>(std::move(*file),
                                                       FaultSchedule{});
  s.fb = fault.get();
  auto dm = DiskManager::OpenWithBackend(std::move(fault),
                                         /*restore_frontier=*/true);
  EXPECT_TRUE(dm.ok()) << dm.status().ToString();
  s.disk.reset(*dm);
  if (recover) {
    Status st = ElementSetStore::Recover(s.disk.get());
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  s.bm = std::make_unique<BufferManager>(s.disk.get(), 256);
  return s;
}

TEST(ElementStoreCrashTest, TornWriteSweepReplaysOrIgnoresNeverCorrupts) {
  const std::string path =
      ::testing::TempDir() + "/estore_torn_sweep.db";
  std::remove(path.c_str());
  PBiTreeSpec spec{12};
  Random rng(91);

  // Build the baseline database cleanly.
  std::set<Code> live;
  {
    CrashStack s = OpenCrashStack(path, /*recover=*/false);
    auto builder = ElementSetBuilder::Create(s.bm.get(), spec);
    ASSERT_TRUE(builder.ok());
    uint32_t doc = 1;
    while (live.size() < 200) {
      Code c = rng.UniformRange(1, spec.MaxCode());
      if (live.insert(c).second) {
        ASSERT_TRUE(builder->AddCode(c, 1, doc++).ok());
      }
    }
    auto built = builder->Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ElementSet set = *built;
    auto catalog = Catalog::Load(s.bm.get());
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE(catalog->Put("data", set).ok());
    ASSERT_TRUE(catalog->Save(s.bm.get()).ok());
    ASSERT_TRUE(s.bm->FlushAll().ok());
    ASSERT_TRUE(s.disk->Sync().ok());
  }

  // Each round: reopen + recover, mutate, commit with every k-th write
  // torn (reported as success!), then crash — the pool's state is lost
  // without write-back. The next round's recovery must land on exactly
  // the old or the new committed state.
  uint64_t committed_epoch = 0;
  int commits_ok = 0, commits_failed = 0;
  for (uint32_t k = 1; k <= 7; ++k) {
    SCOPED_TRACE("write_every=" + std::to_string(k));
    CrashStack s = OpenCrashStack(path, /*recover=*/true);
    auto opened = ElementSetStore::Open(s.bm.get());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<ElementSetStore> store = std::move(*opened);
    ASSERT_EQ(store->epoch(), committed_epoch);
    auto set = store->GetSet("data");
    ASSERT_TRUE(set.ok());
    ASSERT_EQ(CodeBag(ScanSet(s.bm.get(), **set)),
              std::multiset<Code>(live.begin(), live.end()));

    // The batch: three inserts, two deletes.
    std::vector<Code> inserts, deletes;
    while (inserts.size() < 3) {
      Code c = rng.UniformRange(1, spec.MaxCode());
      if (!live.count(c) &&
          std::find(inserts.begin(), inserts.end(), c) == inserts.end()) {
        inserts.push_back(c);
      }
    }
    auto it = live.begin();
    deletes.push_back(*it++);
    deletes.push_back(*it);
    for (Code c : inserts) {
      ASSERT_TRUE(store->InsertRecord("data", ElementRecord{c, 1, 0}).ok());
    }
    for (Code c : deletes) {
      ASSERT_TRUE(store->DeleteElement("data", c).ok());
    }

    s.fb->Arm(MustParse("seed=" + std::to_string(k) +
                        ",write_every=" + std::to_string(k) +
                        ",transient=1,torn_writes=1"));
    const bool committed = store->Commit().ok();
    s.fb->Disarm();
    if (committed) {
      // A commit that reported success is durable even though some of
      // its writes were silently torn: recovery replays the log.
      ++commits_ok;
      ++committed_epoch;
      for (Code c : inserts) live.insert(c);
      for (Code c : deletes) live.erase(c);
    } else {
      // The log never became durable; the batch must evaporate.
      ++commits_failed;
    }

    // Crash: drop every frame with no write-back, then tear down.
    s.bm->DiscardAll();
    store.reset();
    s.bm.reset();
    s.disk.reset();
  }
  // The sweep exercised both arms (k=1 tears the first log write; high
  // k lets the log land and tears an in-place flush instead).
  EXPECT_GT(commits_ok, 0);
  EXPECT_GT(commits_failed, 0);

  // Final reopen: the surviving state joins correctly end to end.
  CrashStack s = OpenCrashStack(path, /*recover=*/true);
  auto opened = ElementSetStore::Open(s.bm.get());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->epoch(), committed_epoch);
  auto set = (*opened)->GetSet("data");
  ASSERT_TRUE(set.ok());
  std::vector<ElementRecord> recs = ScanSet(s.bm.get(), **set);
  ASSERT_EQ(CodeBag(recs), std::multiset<Code>(live.begin(), live.end()));

  std::vector<Code> codes(live.begin(), live.end());
  RunOptions run_opts;
  run_opts.work_pages = 64;
  VectorSink sink;
  auto run = RunAuto(s.bm.get(), **set, **set, &sink, run_opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  sink.Sort();
  EXPECT_EQ(sink.pairs(), BruteForceJoin(codes, codes));
  opened->reset();
  EXPECT_EQ(s.bm->PinnedFrames(), 0u);
  std::remove(path.c_str());
}

// Crash *inside* Commit(): a sticky write fault truncates the commit's
// write sequence at position k — writes before the k-th land, the k-th
// and everything after never do, which is exactly the on-disk prefix a
// crash at that point leaves behind. The dangerous window is after the
// log chain is durable but before the new header (whose log pointer
// makes the chain discoverable) lands: the reopened store must see the
// old state whenever Commit never reached its point of no return (the
// batch is still open) and the new state whenever it did (batch
// closed, epoch bumped) — never old catalog metadata over new page
// bytes. The first clean commit seeds a previous log chain, so the
// sweep also covers the old header pointing at a chain the new commit
// is about to retire.
TEST(ElementStoreCrashTest, StickyFaultMidCommitSweepNeverMixesStates) {
  const std::string path =
      ::testing::TempDir() + "/estore_midcommit_sweep.db";
  std::remove(path.c_str());
  PBiTreeSpec spec{12};
  Random rng(137);

  std::set<Code> live;
  {
    CrashStack s = OpenCrashStack(path, /*recover=*/false);
    auto builder = ElementSetBuilder::Create(s.bm.get(), spec);
    ASSERT_TRUE(builder.ok());
    uint32_t doc = 1;
    while (live.size() < 120) {
      Code c = rng.UniformRange(1, spec.MaxCode());
      if (live.insert(c).second) {
        ASSERT_TRUE(builder->AddCode(c, 1, doc++).ok());
      }
    }
    auto built = builder->Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ElementSet set = *built;
    auto catalog = Catalog::Load(s.bm.get());
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE(catalog->Put("data", set).ok());
    ASSERT_TRUE(catalog->Save(s.bm.get()).ok());
    ASSERT_TRUE(s.bm->FlushAll().ok());
    ASSERT_TRUE(s.disk->Sync().ok());
  }

  uint64_t committed_epoch = 0;
  int commits_ok = 0, commits_failed = 0;
  for (uint32_t k = 1; k <= 24; ++k) {
    SCOPED_TRACE("sticky write fault from write #" + std::to_string(k));
    CrashStack s = OpenCrashStack(path, /*recover=*/true);
    auto opened = ElementSetStore::Open(s.bm.get());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<ElementSetStore> store = std::move(*opened);
    ASSERT_EQ(store->epoch(), committed_epoch);
    auto set = store->GetSet("data");
    ASSERT_TRUE(set.ok());
    ASSERT_EQ(CodeBag(ScanSet(s.bm.get(), **set)),
              std::multiset<Code>(live.begin(), live.end()));

    std::vector<Code> inserts, deletes;
    while (inserts.size() < 3) {
      Code c = rng.UniformRange(1, spec.MaxCode());
      if (!live.count(c) &&
          std::find(inserts.begin(), inserts.end(), c) == inserts.end()) {
        inserts.push_back(c);
      }
    }
    auto it = live.begin();
    deletes.push_back(*it++);
    deletes.push_back(*it);
    for (Code c : inserts) {
      ASSERT_TRUE(store->InsertRecord("data", ElementRecord{c, 1, 0}).ok());
    }
    for (Code c : deletes) {
      ASSERT_TRUE(store->DeleteElement("data", c).ok());
    }

    s.fb->Arm(MustParse("write_every=" + std::to_string(k) + ",transient=0"));
    (void)store->Commit();
    s.fb->Disarm();
    // The batch closing is the observable point of no return: once it
    // closed, the commit must be durable no matter how many in-place
    // writes the sticky fault swallowed afterwards.
    if (!store->InBatch()) {
      ++commits_ok;
      ++committed_epoch;
      for (Code c : inserts) live.insert(c);
      for (Code c : deletes) live.erase(c);
    } else {
      ++commits_failed;
    }

    // Crash: drop every frame with no write-back, then tear down.
    s.bm->DiscardAll();
    store.reset();
    s.bm.reset();
    s.disk.reset();
  }
  // The sweep exercised both arms (small k halts inside the log phase;
  // larger k halts between the header publish and the data flushes).
  EXPECT_GT(commits_ok, 0);
  EXPECT_GT(commits_failed, 0);

  CrashStack s = OpenCrashStack(path, /*recover=*/true);
  auto opened = ElementSetStore::Open(s.bm.get());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->epoch(), committed_epoch);
  auto set = (*opened)->GetSet("data");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(CodeBag(ScanSet(s.bm.get(), **set)),
            std::multiset<Code>(live.begin(), live.end()));
  opened->reset();
  EXPECT_EQ(s.bm->PinnedFrames(), 0u);
  std::remove(path.c_str());
}

TEST(ElementStoreCrashTest, UncommittedBatchDiesCleanlyWithTheProcess) {
  const std::string path =
      ::testing::TempDir() + "/estore_uncommitted_crash.db";
  std::remove(path.c_str());
  {
    CrashStack s = OpenCrashStack(path, /*recover=*/false);
    BuildOn(s.bm.get(), "data", {{3, 0, 1}, {12, 0, 2}, {40, 0, 3}}, 10);
    ASSERT_TRUE(s.bm->FlushAll().ok());
    ASSERT_TRUE(s.disk->Sync().ok());

    auto store = ElementSetStore::Open(s.bm.get());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->InsertRecord("data", ElementRecord{96, 0, 4}).ok());
    ASSERT_TRUE((*store)->DeleteElement("data", 3).ok());
    ASSERT_TRUE((*store)->InBatch());
    // Crash with the batch open: nothing was committed, so nothing of
    // it may survive.
    s.bm->DiscardAll();
    store->reset();
  }
  CrashStack s = OpenCrashStack(path, /*recover=*/true);
  auto store = ElementSetStore::Open(s.bm.get());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->epoch(), 0u);
  auto set = (*store)->GetSet("data");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(CodeBag(ScanSet(s.bm.get(), **set)),
            (std::multiset<Code>{3, 12, 40}));
  store->reset();
  EXPECT_EQ(s.bm->PinnedFrames(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pbitree
