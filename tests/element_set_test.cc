// Tests for ElementSet metadata (height masks), the builder's page
// layout, and tag extraction from binarized documents, plus the result
// sinks.

#include "join/element_set.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/random.h"
#include "join/result_sink.h"
#include "pbitree/binarize.h"
#include "xml/parser.h"

namespace pbitree {
namespace {

class ElementSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 32);
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_F(ElementSetTest, HeightMaskTracksHeights) {
  auto b = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{8});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddCode(1).ok());    // height 0
  ASSERT_TRUE(b->AddCode(4).ok());    // height 2
  ASSERT_TRUE(b->AddCode(12).ok());   // height 2
  ASSERT_TRUE(b->AddCode(32).ok());   // height 5
  auto built = b->Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ElementSet s = *built;
  EXPECT_EQ(s.num_records(), 4u);
  EXPECT_FALSE(s.SingleHeight());
  EXPECT_EQ(s.NumHeights(), 3);
  EXPECT_EQ(s.MinHeight(), 0);
  EXPECT_EQ(s.MaxHeight(), 5);
  EXPECT_EQ(s.Heights(), (std::vector<int>{0, 2, 5}));
}

TEST_F(ElementSetTest, SingleHeightDetection) {
  auto b = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{8});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddCode(4).ok());
  ASSERT_TRUE(b->AddCode(12).ok());
  auto built = b->Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ElementSet s = *built;
  EXPECT_TRUE(s.SingleHeight());
  EXPECT_EQ(s.MinHeight(), 2);
  EXPECT_EQ(s.MaxHeight(), 2);
}

TEST_F(ElementSetTest, RejectsInvalidCodes) {
  auto b = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{4});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->AddCode(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b->AddCode(16).code(), StatusCode::kInvalidArgument);  // > 2^4-1
  EXPECT_TRUE(b->AddCode(15).ok());
}

// The builder appends through one Appender that keeps the tail page
// pinned (and staged, on a compressed codec). Its pages must equal,
// byte for byte, those of one fresh Appender per record, as the
// mutable store's per-record append writes them.
class BuilderLayoutTest : public ::testing::TestWithParam<PageCodecKind> {};

TEST_P(BuilderLayoutTest, MatchesPerRecordAppendPageForPage) {
  const PBiTreeSpec spec{20};
  Random rng(17);
  std::vector<ElementRecord> recs;
  Code c = 1;
  for (int i = 0; i < 2500; ++i) {  // dense ascending run: full FoR pages
    c += 1 + rng.Uniform(8);
    recs.push_back(ElementRecord{c, static_cast<uint32_t>(rng.Uniform(5)),
                                 static_cast<uint32_t>(rng.Uniform(3))});
  }
  for (int i = 0; i < 1500; ++i) {  // scattered codes: sparse FoR pages
    recs.push_back(ElementRecord{rng.UniformRange(1, spec.MaxCode()),
                                 static_cast<uint32_t>(rng.Uniform(1u << 20)),
                                 static_cast<uint32_t>(rng.Uniform(7))});
  }

  // Two identical fresh pools, so both paths allocate the same page ids.
  std::unique_ptr<DiskManager> disk_b(DiskManager::OpenInMemory());
  std::unique_ptr<DiskManager> disk_r(DiskManager::OpenInMemory());
  BufferManager bm_b(disk_b.get(), 16);
  BufferManager bm_r(disk_r.get(), 16);

  auto builder = ElementSetBuilder::Create(&bm_b, spec, GetParam());
  ASSERT_TRUE(builder.ok()) << builder.status().ToString();
  for (const ElementRecord& rec : recs) ASSERT_TRUE(builder->Add(rec).ok());
  auto built = builder->Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(bm_b.PinnedFrames(), 0u);

  auto per_record = HeapFile::Create(&bm_r, GetParam());
  ASSERT_TRUE(per_record.ok());
  for (const ElementRecord& rec : recs) {
    HeapFile::Appender app(&bm_r, &per_record.value());
    ASSERT_TRUE(app.AppendElement(rec).ok());
    ASSERT_TRUE(app.Finish().ok());
  }

  const HeapFile& got = built->file;
  ASSERT_EQ(got.num_records(), recs.size());
  ASSERT_EQ(got.num_records(), per_record->num_records());
  ASSERT_EQ(got.pages(), per_record->pages());
  EXPECT_EQ(got.codec(), GetParam());
  for (PageId pid : got.pages()) {
    auto pb = bm_b.FetchPage(pid);
    auto pr = bm_r.FetchPage(pid);
    ASSERT_TRUE(pb.ok() && pr.ok());
    EXPECT_EQ(std::memcmp((*pb)->data(), (*pr)->data(), kPageSize), 0)
        << "page " << pid;
    ASSERT_TRUE(bm_b.UnpinPage(pid, false).ok());
    ASSERT_TRUE(bm_r.UnpinPage(pid, false).ok());
  }
  EXPECT_EQ(bm_b.PinnedFrames(), 0u);
}

TEST_P(BuilderLayoutTest, DroppedBuilderReleasesItsTailPin) {
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 16);
  {
    auto builder = ElementSetBuilder::Create(&bm, PBiTreeSpec{8}, GetParam());
    ASSERT_TRUE(builder.ok());
    ASSERT_TRUE(builder->AddCode(4).ok());
    EXPECT_EQ(bm.PinnedFrames(), 1u);
  }
  EXPECT_EQ(bm.PinnedFrames(), 0u);
}

TEST_P(BuilderLayoutTest, DroppedBuilderFreesEveryPage) {
  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 4);  // small enough to evict full pages
  const uint64_t live = disk->num_live_pages();
  Random rng(5);
  auto fill = [&](ElementSetBuilder* b) {
    for (int i = 0; i < 10000; ++i) {
      ASSERT_TRUE(b->AddCode(rng.UniformRange(1, (uint64_t{1} << 20) - 1)).ok());
    }
  };
  {
    auto abandoned = ElementSetBuilder::Create(&bm, PBiTreeSpec{20}, GetParam());
    ASSERT_TRUE(abandoned.ok());
    fill(&*abandoned);
    ASSERT_GT(disk->num_live_pages(), live + 3);
  }
  EXPECT_EQ(bm.PinnedFrames(), 0u);
  EXPECT_EQ(disk->num_live_pages(), live);

  // Build hands the file out: the builder going away keeps its pages.
  ElementSet built;
  {
    auto builder = ElementSetBuilder::Create(&bm, PBiTreeSpec{20}, GetParam());
    ASSERT_TRUE(builder.ok());
    fill(&*builder);
    auto set = builder->Build();
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    built = *set;
  }
  EXPECT_EQ(disk->num_live_pages(), live + built.num_pages());
  EXPECT_EQ(built.num_records(), 10000u);
  ASSERT_TRUE(built.file.Drop(&bm).ok());
  EXPECT_EQ(disk->num_live_pages(), live);
}

INSTANTIATE_TEST_SUITE_P(Codecs, BuilderLayoutTest,
                         ::testing::Values(PageCodecKind::kRaw,
                                           PageCodecKind::kFoRDelta),
                         [](const auto& info) {
                           return info.param == PageCodecKind::kRaw
                                      ? "Raw"
                                      : "FoRDelta";
                         });

TEST_F(ElementSetTest, ExtractTagSetFromBinarizedDocument) {
  DataTree tree;
  ASSERT_TRUE(ParseXml(
      "<dblp><article><author/><author/></article>"
      "<article><author/></article><book><author/></book></dblp>",
      &tree).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  auto articles = ExtractTagSetByName(bm_.get(), tree, spec, "article");
  auto authors = ExtractTagSetByName(bm_.get(), tree, spec, "author");
  ASSERT_TRUE(articles.ok());
  ASSERT_TRUE(authors.ok());
  EXPECT_EQ(articles->num_records(), 2u);
  EXPECT_EQ(authors->num_records(), 4u);
  EXPECT_EQ(articles->spec, spec);

  auto missing = ExtractTagSetByName(bm_.get(), tree, spec, "nothere");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(ElementSetTest, ExtractRequiresBinarizedTree) {
  DataTree tree;
  ASSERT_TRUE(ParseXml("<a><b/></a>", &tree).ok());
  auto set = ExtractTagSetByName(bm_.get(), tree, PBiTreeSpec{4}, "b");
  EXPECT_EQ(set.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultSinkTest, CountingSinkCounts) {
  CountingSink sink;
  ASSERT_TRUE(sink.OnPair(4, 1).ok());
  ASSERT_TRUE(sink.OnPair(4, 3).ok());
  EXPECT_EQ(sink.count(), 2u);
}

TEST(ResultSinkTest, VectorSinkCollectsAndSorts) {
  VectorSink sink;
  ASSERT_TRUE(sink.OnPair(8, 3).ok());
  ASSERT_TRUE(sink.OnPair(4, 1).ok());
  sink.Sort();
  ASSERT_EQ(sink.pairs().size(), 2u);
  EXPECT_EQ(sink.pairs()[0], (ResultPair{4, 1}));
}

TEST(ResultSinkTest, VerifyingSinkRejectsBadPairs) {
  CountingSink inner;
  VerifyingSink sink(&inner);
  EXPECT_TRUE(sink.OnPair(4, 1).ok());             // 4 is ancestor of 1
  EXPECT_EQ(sink.OnPair(1, 4).code(), StatusCode::kInternal);
  EXPECT_EQ(sink.OnPair(4, 4).code(), StatusCode::kInternal);
  EXPECT_EQ(inner.count(), 1u);
}

TEST_F(ElementSetTest, MaterializeSinkWritesPairs) {
  auto out = HeapFile::Create(bm_.get());
  ASSERT_TRUE(out.ok());
  {
    MaterializeSink sink(bm_.get(), &out.value());
    ASSERT_TRUE(sink.OnPair(4, 1).ok());
    ASSERT_TRUE(sink.OnPair(4, 3).ok());
    ASSERT_TRUE(sink.Finish().ok());
  }
  HeapFile::Scanner scan(bm_.get(), *out);
  ResultPair pair;
  ASSERT_TRUE(scan.NextPair(&pair));
  EXPECT_EQ(pair, (ResultPair{4, 1}));
  ASSERT_TRUE(scan.NextPair(&pair));
  EXPECT_EQ(pair, (ResultPair{4, 3}));
  EXPECT_FALSE(scan.NextPair(&pair));
  EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
}

}  // namespace
}  // namespace pbitree
