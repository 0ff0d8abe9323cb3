// Tests for the pluggable page codecs (storage/page_codec.h): direct
// Encode/Decode round trips over the edge cases the format calls out
// (empty page, single record, max-height codes, the raw16 fallback for
// worst-case data, a delta page filled to the record ceiling), sizer /
// encoder consistency, corruption rejection, a randomized parity fuzz,
// and the full HeapFile + Catalog integration: a kFoRDelta file scans
// back identically, persists its codec flag, and actually shrinks the
// page count on sorted element data.

#include "storage/page_codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "join/element_set.h"
#include "storage/catalog.h"
#include "storage/heap_file.h"

namespace pbitree {
namespace {

/// Opens the database file at `path`, keeping it on close and
/// restoring the allocation frontier from its size.
StatusOr<DiskManager*> OpenDatabaseFile(const std::string& path) {
  PBITREE_ASSIGN_OR_RETURN(std::unique_ptr<IoBackend> backend,
                           FileIoBackend::Open(path, /*truncate=*/false,
                                               /*unlink_on_close=*/false));
  return DiskManager::OpenWithBackend(std::move(backend),
                                      /*restore_frontier=*/true);
}

using Records = std::vector<ElementRecord>;

/// Encode into a fresh payload, decode back, and require equality.
/// Returns the mode byte so callers can assert which layout was picked.
uint8_t RoundTrip(const PageCodec* codec, const Records& recs) {
  std::vector<char> payload(kCodecPayloadSize, char(0xAB));
  EXPECT_TRUE(codec->Encode(recs, payload.data()).ok());
  Records back(recs.size());
  EXPECT_TRUE(codec->Decode(payload.data(), recs.size(), back.data()).ok());
  EXPECT_EQ(back, recs);
  return static_cast<uint8_t>(payload[0]);
}

TEST(PageCodecTest, NamesAndSingletons) {
  EXPECT_STREQ(PageCodecName(PageCodecKind::kRaw), "raw");
  EXPECT_STREQ(PageCodecName(PageCodecKind::kFoRDelta), "for-delta");
  const PageCodec* raw = GetPageCodec(PageCodecKind::kRaw);
  const PageCodec* fd = GetPageCodec(PageCodecKind::kFoRDelta);
  ASSERT_NE(raw, nullptr);
  ASSERT_NE(fd, nullptr);
  EXPECT_EQ(raw->kind(), PageCodecKind::kRaw);
  EXPECT_EQ(fd->kind(), PageCodecKind::kFoRDelta);
  EXPECT_EQ(raw->max_records(), HeapFile::kRecordsPerPage);
  EXPECT_EQ(fd->max_records(), kMaxCodecRecordsPerPage);
}

TEST(PageCodecTest, EmptyPage) {
  for (PageCodecKind kind : {PageCodecKind::kRaw, PageCodecKind::kFoRDelta}) {
    const PageCodec* codec = GetPageCodec(kind);
    std::vector<char> payload(kCodecPayloadSize, char(0xAB));
    ASSERT_TRUE(codec->Encode({}, payload.data()).ok());
    // Decoding zero records reads nothing and succeeds.
    EXPECT_TRUE(codec->Decode(payload.data(), 0, nullptr).ok());
  }
}

TEST(PageCodecTest, SingleRecordPicksDeltaMode) {
  const PageCodec* fd = GetPageCodec(PageCodecKind::kFoRDelta);
  // mode(1) + code(8) + tag(1) + doc(1) = 11 bytes < 1 + 16 raw16 bytes.
  EXPECT_EQ(RoundTrip(fd, {ElementRecord{42, 3, 7}}), 1);
  // A max-height root code round-trips too (full 8-byte first frame).
  EXPECT_EQ(RoundTrip(fd, {ElementRecord{Code{1} << 62, 0, 0}}), 1);
}

TEST(PageCodecTest, MaxHeightCodesRoundTrip) {
  // Codes of a height-63 tree, including the extremes of the code
  // space: deltas span nearly the full 64-bit range, exercising the
  // widest zigzag varints the delta mode can produce.
  PBiTreeSpec spec{kMaxTreeHeight};
  Records recs;
  recs.push_back({1, 0, 0});                    // leftmost leaf
  recs.push_back({spec.RootCode(), 1, 1});      // 2^62
  recs.push_back({spec.MaxCode(), 2, 2});       // 2^63 - 1, rightmost leaf
  recs.push_back({spec.MaxCode() - 1, 3, 3});   // negative delta
  recs.push_back({2, 4, 4});                    // large negative delta
  const PageCodec* fd = GetPageCodec(PageCodecKind::kFoRDelta);
  RoundTrip(fd, recs);  // either mode is fine; equality is what matters
  RoundTrip(GetPageCodec(PageCodecKind::kRaw), recs);
}

TEST(PageCodecTest, DeltaPageHoldsMaxRecords) {
  // Adjacent odd codes (all height 0): every delta is 2 — one varint
  // byte — so a page reaches the theoretical kMaxCodecRecordsPerPage
  // ceiling, ~5.3x the raw capacity of 255.
  Records recs;
  for (size_t i = 0; i < kMaxCodecRecordsPerPage; ++i) {
    recs.push_back({2 * static_cast<Code>(i) + 1, 0, 0});
  }
  const PageCodec* fd = GetPageCodec(PageCodecKind::kFoRDelta);

  FoRDeltaSizer sizer;
  for (size_t i = 0; i + 1 < recs.size(); ++i) sizer.Add(recs[i]);
  EXPECT_TRUE(sizer.CanHold(recs.back()));
  sizer.Add(recs.back());
  EXPECT_EQ(sizer.bytes(), kCodecPayloadSize);  // filled to the last byte

  EXPECT_EQ(RoundTrip(fd, recs), 1);
  EXPECT_GT(kMaxCodecRecordsPerPage, 5 * HeapFile::kRecordsPerPage);
}

TEST(PageCodecTest, WorstCaseUnsortedFallsBackToRaw16) {
  // Alternating extremes of the code space with max tag/doc: each
  // record costs ~10 (zigzag delta) + 5 + 5 varint bytes, beyond the
  // 16-byte raw record, so the encoder must pick the raw16 fallback.
  Records recs;
  for (size_t i = 0; i < 255; ++i) {
    Code c = (i % 2 == 0) ? Code{1} : (Code{1} << 63) - 1;
    recs.push_back({c, UINT32_MAX, UINT32_MAX});
  }
  const PageCodec* fd = GetPageCodec(PageCodecKind::kFoRDelta);
  EXPECT_EQ(RoundTrip(fd, recs), 0);

  // The same shape one record past the raw16 cap cannot be encoded at
  // all — and CanHold refuses it before the appender ever tries.
  FoRDeltaSizer sizer;
  for (const ElementRecord& rec : recs) sizer.Add(rec);
  EXPECT_FALSE(sizer.CanHold(recs[0]));
  recs.push_back(recs[0]);
  std::vector<char> payload(kCodecPayloadSize);
  EXPECT_EQ(fd->Encode(recs, payload.data()).code(),
            StatusCode::kInvalidArgument);
}

TEST(PageCodecTest, EncodeZeroesUnusedTail) {
  // Re-encoding equal content must produce byte-identical pages (the
  // documented determinism contract), so the tail is always zeroed.
  Records recs = {{100, 1, 2}, {104, 3, 4}};
  std::vector<char> a(kCodecPayloadSize, char(0x5C));
  std::vector<char> b(kCodecPayloadSize, char(0xA3));
  const PageCodec* fd = GetPageCodec(PageCodecKind::kFoRDelta);
  ASSERT_TRUE(fd->Encode(recs, a.data()).ok());
  ASSERT_TRUE(fd->Encode(recs, b.data()).ok());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), kCodecPayloadSize), 0);
}

TEST(PageCodecTest, DecodeRejectsCorruptPages) {
  const PageCodec* fd = GetPageCodec(PageCodecKind::kFoRDelta);
  ElementRecord out[4];

  std::vector<char> payload(kCodecPayloadSize, 0);
  payload[0] = 7;  // unknown mode byte
  EXPECT_EQ(fd->Decode(payload.data(), 1, out).code(),
            StatusCode::kCorruption);

  // Delta mode whose varint stream runs off the payload: every byte
  // has the continuation bit set.
  std::fill(payload.begin(), payload.end(), char(0x80));
  payload[0] = 1;
  EXPECT_EQ(fd->Decode(payload.data(), 2, out).code(),
            StatusCode::kCorruption);

  // Counts beyond what any mode can hold.
  EXPECT_EQ(fd->Decode(payload.data(), kMaxCodecRecordsPerPage + 1, nullptr)
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(GetPageCodec(PageCodecKind::kRaw)
                ->Decode(payload.data(), HeapFile::kRecordsPerPage + 1, nullptr)
                .code(),
            StatusCode::kCorruption);
}

TEST(PageCodecTest, FuzzEncodeDecodeParity) {
  // Random pages mimicking the appender's admission loop: records are
  // staged while CanHold says yes, then encoded and decoded back. The
  // record mix covers sorted runs, shuffles and adversarial tag/doc.
  Random rng(20260809);
  const PageCodec* fd = GetPageCodec(PageCodecKind::kFoRDelta);
  for (int iter = 0; iter < 300; ++iter) {
    PBiTreeSpec spec{static_cast<int>(rng.UniformRange(1, kMaxTreeHeight))};
    const bool sorted = rng.Bernoulli(0.5);
    const bool wild_meta = rng.Bernoulli(0.3);
    Records recs;
    FoRDeltaSizer sizer;
    Code prev = 0;
    while (true) {
      Code c = rng.Uniform(spec.MaxCode()) + 1;
      if (sorted && c < prev) c = prev;  // non-decreasing run
      prev = c;
      uint32_t tag = wild_meta ? static_cast<uint32_t>(rng.Next())
                               : static_cast<uint32_t>(rng.Uniform(16));
      uint32_t doc = wild_meta ? static_cast<uint32_t>(rng.Next())
                               : static_cast<uint32_t>(rng.Uniform(4));
      ElementRecord rec{c, tag, doc};
      if (!sizer.CanHold(rec) || recs.size() == fd->max_records()) break;
      sizer.Add(rec);
      recs.push_back(rec);
    }
    ASSERT_FALSE(recs.empty());
    RoundTrip(fd, recs);

    // The sizer's running byte count must equal a from-scratch resize —
    // the O(1) admission is exact, not an estimate.
    FoRDeltaSizer fresh;
    for (const ElementRecord& rec : recs) fresh.Add(rec);
    EXPECT_EQ(fresh.bytes(), sizer.bytes());
    EXPECT_EQ(fresh.count(), recs.size());
  }
}

class CodecFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 64);
  }

  ElementSet BuildSet(const Records& recs, int height, PageCodecKind codec) {
    auto b = ElementSetBuilder::Create(bm_.get(), PBiTreeSpec{height}, codec);
    EXPECT_TRUE(b.ok());
    for (const ElementRecord& rec : recs) EXPECT_TRUE(b->Add(rec).ok());
    auto built = b->Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.value_or(ElementSet{});
  }

  Records ReadBack(const ElementSet& set) {
    Records out;
    HeapFile::Scanner scan(bm_.get(), set.file);
    ElementRecord rec;
    while (scan.NextElement(&rec)) out.push_back(rec);
    EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
    return out;
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_F(CodecFileTest, ForDeltaFileScansBackIdenticallyAndSavesPages) {
  // Document-order codes (sorted by Start): the delta pages pack far
  // more records, so the same data takes materially fewer pages.
  Records recs;
  for (Code c = 1; c <= 4000; ++c) recs.push_back({c, 5, 1});

  ElementSet raw = BuildSet(recs, 13, PageCodecKind::kRaw);
  ElementSet fd = BuildSet(recs, 13, PageCodecKind::kFoRDelta);
  EXPECT_EQ(raw.file.codec(), PageCodecKind::kRaw);
  EXPECT_EQ(fd.file.codec(), PageCodecKind::kFoRDelta);

  EXPECT_EQ(ReadBack(raw), recs);
  EXPECT_EQ(ReadBack(fd), recs);
  EXPECT_EQ(fd.num_records(), raw.num_records());
  // >= 4x page-count reduction on this (ideal) input; the acceptance
  // bar for real document data is lower, but the mechanism is the same.
  EXPECT_LE(fd.num_pages() * 4, raw.num_pages());
  // Set metadata is codec-independent.
  EXPECT_EQ(fd.height_mask, raw.height_mask);
  EXPECT_EQ(fd.min_start, raw.min_start);
  EXPECT_EQ(fd.max_end, raw.max_end);
  EXPECT_EQ(fd.sorted_by_start, raw.sorted_by_start);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
}

TEST_F(CodecFileTest, CatalogPersistsCodecFlagAcrossRestart) {
  std::string path = TempFilePath("page_codec_test");
  Records recs;
  for (Code c = 1; c <= 1500; ++c) {
    recs.push_back({c, static_cast<uint32_t>(c % 7), 0});
  }

  uint64_t fd_pages = 0;
  {
    auto opened = OpenDatabaseFile(path);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<DiskManager> disk(*opened);
    BufferManager bm(disk.get(), 64);
    auto catalog = Catalog::Load(&bm);
    ASSERT_TRUE(catalog.ok());

    auto b = ElementSetBuilder::Create(&bm, PBiTreeSpec{12},
                                       PageCodecKind::kFoRDelta);
    ASSERT_TRUE(b.ok());
    for (const ElementRecord& rec : recs) ASSERT_TRUE(b->Add(rec).ok());
    auto built = b->Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ElementSet set = *built;
    fd_pages = set.num_pages();
    ASSERT_TRUE(catalog->Put("packed", set).ok());
    auto flags = catalog->EntryFlags("packed");
    ASSERT_TRUE(flags.ok());
    EXPECT_TRUE(*flags & Catalog::kFlagCodecFoRDelta);
    ASSERT_TRUE(catalog->Save(&bm).ok());
  }
  {
    auto opened = OpenDatabaseFile(path);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<DiskManager> disk(*opened);
    BufferManager bm(disk.get(), 64);
    auto catalog = Catalog::Load(&bm);
    ASSERT_TRUE(catalog.ok());

    auto back = catalog->Get(&bm, "packed");
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    // Get maps the persisted flag back to the codec, so Attach decodes
    // the pages correctly after a real process restart.
    EXPECT_EQ(back->file.codec(), PageCodecKind::kFoRDelta);
    EXPECT_EQ(back->num_records(), recs.size());
    EXPECT_EQ(back->num_pages(), fd_pages);

    Records out;
    HeapFile::Scanner scan(&bm, back->file);
    ElementRecord rec;
    while (scan.NextElement(&rec)) out.push_back(rec);
    ASSERT_TRUE(scan.status().ok());
    EXPECT_EQ(out, recs);
  }
  RemoveFileIfExists(path);
}

TEST_F(CodecFileTest, ConcatRequiresMatchingCodec) {
  ElementSet a = BuildSet({{1, 0, 0}}, 8, PageCodecKind::kFoRDelta);
  ElementSet b = BuildSet({{3, 0, 0}}, 8, PageCodecKind::kRaw);
  EXPECT_EQ(a.file.Concat(bm_.get(), &b.file).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pbitree
