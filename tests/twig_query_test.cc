// Tests for path and twig (branching) pattern queries: parser shapes,
// linear paths and predicates against a brute-force DataTree matcher,
// join counts, multi-step and nested predicates, borrowed provider
// sets, empty-result paths, and a permanent write fault at every point
// of an evaluation.

#include "query/twig_query.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/xmark_gen.h"
#include "obs/metrics.h"
#include "pbitree/binarize.h"
#include "storage/io_backend.h"
#include "xml/parser.h"

namespace pbitree {
namespace {

// A linear path is a twig pattern without predicates; these keep the
// path-syntax contract: one step per `//tag`, no predicate lists.
TEST(ParsePathQueryTest, ParsesDescendantSteps) {
  auto q = ParseTwigQuery("//site//open_auction//bidder");
  ASSERT_TRUE(q.ok());
  std::vector<std::string> tags;
  for (const TwigStep& step : q->steps) {
    tags.push_back(step.tag);
    EXPECT_TRUE(step.predicates.empty());
  }
  EXPECT_EQ(tags, (std::vector<std::string>{"site", "open_auction", "bidder"}));
}

TEST(ParsePathQueryTest, SingleStep) {
  auto q = ParseTwigQuery("//dblp");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps.size(), 1u);
}

TEST(ParsePathQueryTest, RejectsBadInput) {
  EXPECT_EQ(ParseTwigQuery("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTwigQuery("/a/b").status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(ParseTwigQuery("a//b").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTwigQuery("//a//").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParseTwigQueryTest, LinearPatternsParse) {
  auto q = ParseTwigQuery("//site//open_auction//bidder");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->steps.size(), 3u);
  EXPECT_EQ(q->steps[0].tag, "site");
  EXPECT_EQ(q->steps[1].tag, "open_auction");
  EXPECT_EQ(q->steps[2].tag, "bidder");
  for (const TwigStep& step : q->steps) EXPECT_TRUE(step.predicates.empty());

  auto single = ParseTwigQuery("//dblp");
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single->steps.size(), 1u);
  EXPECT_EQ(single->steps[0].tag, "dblp");
}

TEST(ParseTwigQueryTest, PredicatesParse) {
  auto q = ParseTwigQuery("//a[//b][//c//d]//e[//f]");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->steps.size(), 2u);
  ASSERT_EQ(q->steps[0].predicates.size(), 2u);
  EXPECT_EQ(q->steps[0].predicates[0].steps[0].tag, "b");
  ASSERT_EQ(q->steps[0].predicates[1].steps.size(), 2u);
  EXPECT_EQ(q->steps[0].predicates[1].steps[1].tag, "d");
  ASSERT_EQ(q->steps[1].predicates.size(), 1u);
  EXPECT_EQ(q->steps[1].predicates[0].steps[0].tag, "f");
}

TEST(ParseTwigQueryTest, NestedPredicatesParse) {
  auto q = ParseTwigQuery("//a[//b[//c]]//d");
  ASSERT_TRUE(q.ok());
  const TwigQuery& pred = q->steps[0].predicates[0];
  ASSERT_EQ(pred.steps.size(), 1u);
  ASSERT_EQ(pred.steps[0].predicates.size(), 1u);
  EXPECT_EQ(pred.steps[0].predicates[0].steps[0].tag, "c");
}

TEST(ParseTwigQueryTest, RejectsMalformedPatterns) {
  auto code = [](std::string_view text) {
    return ParseTwigQuery(text).status().code();
  };
  EXPECT_EQ(code(""), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("/a"), StatusCode::kUnimplemented);
  EXPECT_EQ(code("/a/b"), StatusCode::kUnimplemented);
  EXPECT_EQ(code("a//b"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("//a//"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("//a["), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("//a[//b"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("//a]"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("//a[]"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("//a[1]"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("//a//[//b]"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("//a[@id]"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("//a@id"), StatusCode::kUnimplemented);
}

class TwigQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_.reset(DiskManager::OpenInMemory());
    bm_ = std::make_unique<BufferManager>(disk_.get(), 128);
  }

  /// Brute force: does data-tree node `n` match pattern step `i` of
  /// `q`'s spine (including predicates and the rest of the spine)? A
  /// pattern node maps to a proper descendant of its parent's image.
  bool Matches(const DataTree& tree, NodeId n, const TwigQuery& q, size_t i) {
    const TwigStep& step = q.steps[i];
    TagId want;
    if (!tree.FindTag(step.tag, &want) || tree.node(n).tag != want) {
      return false;
    }
    for (const TwigQuery& pred : step.predicates) {
      if (!HasDescendantMatching(tree, n, pred, 0)) return false;
    }
    if (i + 1 == q.steps.size()) return true;
    return HasDescendantMatching(tree, n, q, i + 1);
  }

  bool HasDescendantMatching(const DataTree& tree, NodeId anc,
                             const TwigQuery& q, size_t i) {
    for (size_t n = 0; n < tree.size(); ++n) {
      NodeId id = static_cast<NodeId>(n);
      if (tree.IsAncestorNode(anc, id) && Matches(tree, id, q, i)) return true;
    }
    return false;
  }

  /// True iff `id` matches spine step `i` of `q` on its own (tag and
  /// predicates, not the rest of the spine).
  bool MatchesStep(const DataTree& tree, NodeId id, const TwigQuery& q,
                   size_t i) {
    TwigQuery single;
    single.steps.push_back(q.steps[i]);
    return Matches(tree, id, single, 0);
  }

  /// True iff a chain matching steps [0, upto) of q's spine, properly
  /// nested, lies on the ancestor path of `below`.
  bool ChainAbove(const DataTree& tree, NodeId below, const TwigQuery& q,
                  size_t upto) {
    if (upto == 0) return true;
    for (NodeId p = tree.node(below).parent; p != kInvalidNodeId;
         p = tree.node(p).parent) {
      if (MatchesStep(tree, p, q, upto - 1) &&
          ChainAbove(tree, p, q, upto - 1)) {
        return true;
      }
    }
    return false;
  }

  /// Brute-force answer: codes of nodes matching the LAST spine step
  /// under a full-pattern match chain.
  std::set<Code> BruteForce(const DataTree& tree, const TwigQuery& q) {
    std::set<Code> out;
    const size_t last = q.steps.size() - 1;
    for (size_t n = 0; n < tree.size(); ++n) {
      NodeId id = static_cast<NodeId>(n);
      if (MatchesStep(tree, id, q, last) && ChainAbove(tree, id, q, last)) {
        out.insert(tree.node(id).code);
      }
    }
    return out;
  }

  std::set<Code> ReadCodes(const ElementSet& set) {
    std::set<Code> codes;
    HeapFile::Scanner scan(bm_.get(), set.file);
    ElementRecord rec;
    while (scan.NextElement(&rec)) codes.insert(rec.code);
    EXPECT_TRUE(scan.status().ok()) << scan.status().ToString();
    return codes;
  }

  /// Evaluates `text` and compares it with the brute-force answer. A
  /// predicate-free pattern of n steps must run n-1 joins and no
  /// semijoin.
  void CheckQuery(const DataTree& tree, const PBiTreeSpec& spec,
                  const std::string& text) {
    auto q = ParseTwigQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    RunOptions opts;
    opts.work_pages = 32;
    TwigQueryStats stats;
    auto result = EvaluateTwigQuery(bm_.get(), tree, spec, *q, opts, &stats);
    ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    std::set<Code> got = ReadCodes(*result);
    EXPECT_EQ(got, BruteForce(tree, *q)) << text;
    EXPECT_EQ(stats.final_count, got.size());
    bool linear = true;
    for (const TwigStep& step : q->steps) linear &= step.predicates.empty();
    if (linear) {
      EXPECT_EQ(stats.joins.size(), q->steps.size() - 1) << text;
      EXPECT_EQ(stats.semijoins, 0u) << text;
    }
    ASSERT_TRUE(result->file.Drop(bm_.get()).ok());
    EXPECT_EQ(bm_->PinnedFrames(), 0u);
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferManager> bm_;
};

/// Linear (predicate-free) paths: the special case of a twig.
class PathQueryTest : public TwigQueryTest {};

TEST_F(PathQueryTest, HandWrittenDocument) {
  DataTree tree;
  ASSERT_TRUE(ParseXml(
      "<lib>"
      "<section><title/><section><figure/><figure/></section></section>"
      "<section><figure/></section>"
      "<appendix><figure/></appendix>"
      "</lib>",
      &tree).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  CheckQuery(tree, spec, "//section//figure");
  CheckQuery(tree, spec, "//lib//section");
  CheckQuery(tree, spec, "//section//section//figure");
  CheckQuery(tree, spec, "//lib//section//figure");
}

TEST_F(PathQueryTest, SingleStepIsJustExtraction) {
  DataTree tree;
  ASSERT_TRUE(ParseXml("<a><b/><b/><c/></a>", &tree).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());
  CheckQuery(tree, spec, "//b");
}

TEST_F(PathQueryTest, MissingTagIsNotFound) {
  DataTree tree;
  ASSERT_TRUE(ParseXml("<a><b/></a>", &tree).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());
  auto q = ParseTwigQuery("//a//nope");
  ASSERT_TRUE(q.ok());
  RunOptions opts;
  opts.work_pages = 16;
  const uint64_t live = disk_->num_live_pages();
  auto result = EvaluateTwigQuery(bm_.get(), tree, spec, *q, opts);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  EXPECT_EQ(disk_->num_live_pages(), live);
}

TEST_F(PathQueryTest, DeepPathOnXmarkDocument) {
  DataTree tree;
  XmarkOptions gen;
  gen.scale_factor = 0.02;
  ASSERT_TRUE(GenerateXmark(&tree, gen).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  CheckQuery(tree, spec, "//open_auction//annotation//keyword");
  CheckQuery(tree, spec, "//site//item//keyword");
  CheckQuery(tree, spec, "//regions//item//mail//text");
}

TEST_F(PathQueryTest, RepeatedTagSelfNesting) {
  // //text//text over XMark's recursive text blocks: distinctness of
  // intermediate results matters here (a text under two open_auctions
  // must not be counted twice).
  DataTree tree;
  XmarkOptions gen;
  gen.scale_factor = 0.02;
  ASSERT_TRUE(GenerateXmark(&tree, gen).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());
  CheckQuery(tree, spec, "//description//text//keyword");
}

TEST_F(TwigQueryTest, PredicatesFilterAncestors) {
  DataTree tree;
  ASSERT_TRUE(ParseXml(
      "<lib>"
      "<section><title/><figure/><figure/></section>"   // has title
      "<section><figure/></section>"                    // no title
      "<section><title/><note/></section>"              // title, no figure
      "</lib>",
      &tree).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  CheckQuery(tree, spec, "//section[//title]//figure");   // 2 figures
  CheckQuery(tree, spec, "//section//figure");            // 3 figures
  CheckQuery(tree, spec, "//section[//figure]//title");   // 1 title
  CheckQuery(tree, spec, "//lib[//note]//figure");        // all 3
}

TEST_F(TwigQueryTest, MultipleAndNestedPredicates) {
  DataTree tree;
  ASSERT_TRUE(ParseXml(
      "<db>"
      "<rec><name/><addr><zip/></addr><mail/></rec>"
      "<rec><name/><addr/></rec>"
      "<rec><addr><zip/></addr><mail/></rec>"
      "</db>",
      &tree).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  CheckQuery(tree, spec, "//rec[//name][//mail]//addr");     // rec 1 only
  CheckQuery(tree, spec, "//rec[//addr[//zip]]//mail");      // recs 1 and 3
  CheckQuery(tree, spec, "//db//rec[//addr[//zip]][//name]//mail");
}

TEST_F(TwigQueryTest, EmptyResultsAndMissingTags) {
  DataTree tree;
  ASSERT_TRUE(ParseXml("<a><b/><c/></a>", &tree).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  CheckQuery(tree, spec, "//b//c");      // b has no c below: empty
  auto q = ParseTwigQuery("//a[//zzz]//b");
  ASSERT_TRUE(q.ok());
  RunOptions opts;
  opts.work_pages = 16;
  const uint64_t live = disk_->num_live_pages();
  auto result = EvaluateTwigQuery(bm_.get(), tree, spec, *q, opts);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bm_->PinnedFrames(), 0u);
  EXPECT_EQ(disk_->num_live_pages(), live);
}

TEST_F(TwigQueryTest, MultiStepPredicatesMatchFromTheirFirstStep) {
  // The first s sits below an x and the second s above one: only the
  // second heads an s//x//y chain, though both have a y below them.
  DataTree tree;
  ASSERT_TRUE(
      ParseXml("<r><x><s><y/></s></x><s><x><y/></x></s></r>", &tree).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  CheckQuery(tree, spec, "//s[//x//y]");        // the second s
  CheckQuery(tree, spec, "//x[//s//y]");        // the first x
  CheckQuery(tree, spec, "//r//s[//x//y]//y");  // the second y
  CheckQuery(tree, spec, "//r[//s//x//y]//s");  // both s
}

TEST_F(TwigQueryTest, XmarkMultiStepPredicates) {
  DataTree tree;
  XmarkOptions gen;
  gen.scale_factor = 0.01;
  ASSERT_TRUE(GenerateXmark(&tree, gen).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  CheckQuery(tree, spec, "//open_auction[//bidder//increase]//seller");
  CheckQuery(tree, spec, "//item[//parlist//keyword]//mail");
  // Every keyword-bearing text lies below a description, but no text
  // has a description below it: the answer is empty.
  CheckQuery(tree, spec, "//text[//description//keyword]");
  CheckQuery(tree, spec, "//item[//mailbox//text[//keyword]]//description");
}

TEST_F(TwigQueryTest, BorrowedProviderSetsStayIntact) {
  DataTree tree;
  ASSERT_TRUE(ParseXml(
      "<lib>"
      "<section><title/><section><figure/><figure/></section></section>"
      "<section><figure/></section>"
      "<appendix><figure/></appendix>"
      "</lib>",
      &tree).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  // Stored sets, extracted once and handed out on every provider call.
  std::map<std::string, ElementSet> stored;
  std::map<std::string, std::set<Code>> stored_codes;
  for (const char* tag : {"section", "figure", "title"}) {
    auto set = ExtractTagSetByName(bm_.get(), tree, spec, tag);
    ASSERT_TRUE(set.ok());
    stored[tag] = *set;
    stored_codes[tag] = ReadCodes(*set);
  }
  ElementSetProvider provider =
      [&](const std::string& tag) -> StatusOr<ElementSet> {
    auto it = stored.find(tag);
    if (it == stored.end()) return Status::NotFound(tag);
    return it->second;
  };

  RunOptions opts;
  opts.work_pages = 16;
  const uint64_t live = disk_->num_live_pages();
  for (const char* text : {"//section[//title]//section//figure",
                           "//section//figure", "//figure"}) {
    auto q = ParseTwigQuery(text);
    ASSERT_TRUE(q.ok());
    std::vector<std::set<Code>> answers;
    for (int run = 0; run < 2; ++run) {
      auto result = EvaluateTwigQuery(bm_.get(), provider, spec, *q, opts);
      ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
      answers.push_back(ReadCodes(*result));
      ASSERT_TRUE(result->file.Drop(bm_.get()).ok());
      EXPECT_EQ(disk_->num_live_pages(), live) << text;
      EXPECT_EQ(bm_->PinnedFrames(), 0u) << text;
    }
    EXPECT_EQ(answers[0], BruteForce(tree, *q)) << text;
    EXPECT_EQ(answers[1], answers[0]) << text;
  }
  for (auto& [tag, set] : stored) {
    EXPECT_EQ(ReadCodes(set), stored_codes[tag]) << tag;
    ASSERT_TRUE(set.file.Drop(bm_.get()).ok());
  }
}

TEST_F(TwigQueryTest, XmarkTwigPatterns) {
  DataTree tree;
  XmarkOptions gen;
  gen.scale_factor = 0.01;
  ASSERT_TRUE(GenerateXmark(&tree, gen).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  CheckQuery(tree, spec, "//item[//mailbox]//keyword");
  CheckQuery(tree, spec, "//open_auction[//reserve]//bidder//increase");
  CheckQuery(tree, spec, "//person[//creditcard][//homepage]//emailaddress");
}

// A sticky write fault at every write position of an evaluation:
// wherever it dies (tag extraction, a join, a distinct column, its
// sort), it must unpin every frame and free every page it made, the
// half-built sets included. The pool is small enough to evict, so the
// scratch files really reach the device. The suite name carries
// "FaultInjection" so the ambient fault-schedule CI job skips it (it
// arms its own schedule).
TEST(TwigQueryFaultInjectionTest, PermanentWriteFaultSweepLeavesNoPinsOrPages) {
  DataTree tree;
  XmarkOptions gen;
  gen.scale_factor = 0.1;
  ASSERT_TRUE(GenerateXmark(&tree, gen).ok());
  PBiTreeSpec spec;
  ASSERT_TRUE(BinarizeTree(&tree, &spec).ok());

  auto fault = std::make_unique<FaultInjectingBackend>(
      std::make_unique<MemIoBackend>(), FaultSchedule{});
  FaultInjectingBackend* fb = fault.get();
  auto opened = DiskManager::OpenWithBackend(std::move(fault),
                                             /*restore_frontier=*/false);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<DiskManager> disk(*opened);
  BufferManager bm(disk.get(), 16);
  RunOptions opts;
  opts.work_pages = 8;

  for (const char* text : {"//open_auction[//bidder//increase]//seller",
                           "//description//text//keyword"}) {
    auto q = ParseTwigQuery(text);
    ASSERT_TRUE(q.ok());
    const uint64_t live = disk->num_live_pages();
    uint64_t writes = 0;
    {
      obs::MetricRegistry reg;
      obs::MetricScope scope(&reg);
      auto clean = EvaluateTwigQuery(&bm, tree, spec, *q, opts);
      ASSERT_TRUE(clean.ok()) << text << ": " << clean.status().ToString();
      writes = reg.Snapshot().counter(obs::Counter::kPageWrites);
      ASSERT_TRUE(clean->file.Drop(&bm).ok());
    }
    ASSERT_GT(writes, 0u) << text;
    for (uint64_t at = 1; at <= writes; ++at) {
      // A cold pool makes every run issue the same write sequence.
      ASSERT_TRUE(bm.PurgeAll().ok());
      fb->Arm(FaultSchedule::Parse("write_every=" + std::to_string(at) +
                                   ",transient=0")
                  .value());
      auto run = EvaluateTwigQuery(&bm, tree, spec, *q, opts);
      fb->Disarm();
      ASSERT_FALSE(run.ok()) << text << " write " << at;
      EXPECT_EQ(run.status().code(), StatusCode::kRetryExhausted)
          << text << " write " << at << ": " << run.status().ToString();
      ASSERT_EQ(bm.PinnedFrames(), 0u) << text << " write " << at;
      ASSERT_EQ(disk->num_live_pages(), live) << text << " write " << at;
    }
  }
}

}  // namespace
}  // namespace pbitree
