// Tests for dynamic code allocation (Section 2.3.2: virtual nodes as
// update placeholders): inserted elements get valid codes preserving
// the embedding, slack levels absorb inserts, and exhaustion is
// reported instead of corrupting the coding.

#include "pbitree/update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "framework/runner.h"
#include "join/element_set.h"
#include "join/result_sink.h"
#include "pbitree/binarize.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "xml/parser.h"

namespace pbitree {
namespace {

/// Re-checks the embedding invariants after updates.
void CheckEmbedding(const DataTree& tree, const PBiTreeSpec& spec) {
  std::set<Code> codes;
  for (size_t i = 0; i < tree.size(); ++i) {
    Code c = tree.node(static_cast<NodeId>(i)).code;
    ASSERT_TRUE(IsValidCode(c, spec));
    ASSERT_TRUE(codes.insert(c).second) << "duplicate code " << c;
  }
  for (size_t i = 0; i < tree.size(); ++i) {
    for (size_t j = 0; j < tree.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(tree.IsAncestorNode(static_cast<NodeId>(i),
                                    static_cast<NodeId>(j)),
                IsAncestor(tree.node(static_cast<NodeId>(i)).code,
                           tree.node(static_cast<NodeId>(j)).code))
          << i << " vs " << j;
    }
  }
}

TEST(AllocateChildCodeTest, FirstChildOfEmptyParent) {
  PBiTreeSpec spec{6};
  Code parent = spec.RootCode();  // 32
  auto code = AllocateChildCode(parent, {}, spec);
  ASSERT_TRUE(code.ok());
  EXPECT_TRUE(IsAncestor(parent, *code));
}

TEST(AllocateChildCodeTest, AvoidsSiblingSubtrees) {
  PBiTreeSpec spec{6};
  Code parent = spec.RootCode();
  std::vector<Code> siblings = {16};  // left child, spans [1, 31]
  auto code = AllocateChildCode(parent, siblings, spec);
  ASSERT_TRUE(code.ok());
  EXPECT_TRUE(IsAncestor(parent, *code));
  // Must not nest with the existing sibling.
  EXPECT_FALSE(IsAncestorOrSelf(16, *code));
  EXPECT_FALSE(IsAncestor(*code, 16));
}

TEST(AllocateChildCodeTest, ManySequentialInsertsStayConsistent) {
  // Root of a height-13 tree: the balanced allocator places children
  // at height 6, giving 64 direct slots — enough for the 60 inserts.
  PBiTreeSpec spec{13};
  Code parent = spec.RootCode();
  std::vector<Code> siblings;
  for (int i = 0; i < 60; ++i) {
    auto code = AllocateChildCode(parent, siblings, spec);
    ASSERT_TRUE(code.ok()) << "insert " << i << ": "
                           << code.status().ToString();
    for (Code s : siblings) {
      EXPECT_FALSE(IsAncestorOrSelf(s, *code));
      EXPECT_FALSE(IsAncestor(*code, s));
    }
    EXPECT_TRUE(IsAncestor(parent, *code));
    siblings.push_back(*code);
  }
}

TEST(AllocateChildCodeTest, ReportsExhaustion) {
  PBiTreeSpec spec{3};          // 7 nodes total
  Code parent = spec.RootCode();  // 4; subtree = {1..7}
  std::vector<Code> siblings;
  // Keep inserting until the subtree is full; must end with
  // ResourceExhausted, never a duplicate or nested code.
  while (true) {
    auto code = AllocateChildCode(parent, siblings, spec);
    if (!code.ok()) {
      EXPECT_TRUE(code.status().IsSlackExhausted())
          << code.status().ToString();
      break;
    }
    siblings.push_back(*code);
    ASSERT_LE(siblings.size(), 7u) << "allocator ran past the code space";
  }
  EXPECT_GE(siblings.size(), 2u);
}

TEST(AllocateChildCodeTest, LeafParentIsExhaustedImmediately) {
  PBiTreeSpec spec{5};
  auto code = AllocateChildCode(1, {}, spec);  // 1 is a leaf
  EXPECT_EQ(code.status().code(), StatusCode::kSlackExhausted);
  EXPECT_TRUE(code.status().IsSlackExhausted());
}

TEST(AllocateChildCodeTest, RejectsForeignSiblings) {
  PBiTreeSpec spec{6};
  // 48 is not under 16.
  auto code = AllocateChildCode(16, {48}, spec);
  EXPECT_EQ(code.status().code(), StatusCode::kInvalidArgument);
}

TEST(AllocateChildCodeTest, DuplicateSiblingsAreTolerated) {
  // Sibling lists scanned out of a stored element set can repeat a
  // code; the allocator must treat {2, 2, 6} exactly like {2, 6}.
  PBiTreeSpec spec{4};
  Code parent = spec.RootCode();  // 8, spans [1, 15]
  std::vector<Code> siblings = {2, 2, 6};
  auto code = AllocateChildCode(parent, siblings, spec);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_TRUE(IsAncestor(parent, *code));
  for (Code s : {Code{2}, Code{6}}) {
    EXPECT_FALSE(IsAncestorOrSelf(s, *code));
    EXPECT_FALSE(IsAncestor(*code, s));
  }
}

TEST(AllocateChildCodeTest, FullyOccupiedParentSpanIsExhausted) {
  // Parent 4 in a height-3 tree spans {1..7}; siblings 2 and 6 cover
  // both halves ({1,2,3} and {5,6,7}), leaving no free slot at any
  // height — the typed SlackExhausted condition, not a bogus code.
  PBiTreeSpec spec{3};
  auto code = AllocateChildCode(4, {2, 6}, spec);
  EXPECT_EQ(code.status().code(), StatusCode::kSlackExhausted);
  EXPECT_TRUE(code.status().IsSlackExhausted());
}

TEST(AllocateChildCodeTest, FirstDynamicChildAtMaxTreeHeight) {
  // The widest representable tree: height 63, root 2^62 at height 62.
  // The balanced first-child rule must hold without shift overflow.
  PBiTreeSpec spec{kMaxTreeHeight};
  Code parent = spec.RootCode();
  ASSERT_EQ(HeightOf(parent), kMaxTreeHeight - 1);
  auto code = AllocateChildCode(parent, {}, spec);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_TRUE(IsValidCode(*code, spec));
  EXPECT_TRUE(IsAncestor(parent, *code));
  EXPECT_EQ(HeightOf(*code), (HeightOf(parent) - 1) / 2);
}

TEST(AllocateChildCodeTest, RandomizedInsertThenJoinDifferential) {
  // Grow a code set purely through the dynamic allocator, then check
  // that a stored self-join over the grown set matches the brute-force
  // ancestor relation — allocation never fabricates or loses
  // containment.
  Random rng(2026);
  PBiTreeSpec spec{10};
  std::vector<Code> codes = {spec.RootCode()};
  for (int i = 0; i < 150; ++i) {
    Code parent = codes[rng.Uniform(codes.size())];
    // Every existing descendant of the parent acts as a sibling
    // constraint, exactly as ElementSetStore::InsertChild scans them.
    std::vector<Code> siblings;
    for (Code c : codes) {
      if (IsAncestor(parent, c)) siblings.push_back(c);
    }
    auto code = AllocateChildCode(parent, siblings, spec);
    if (!code.ok()) {
      ASSERT_TRUE(code.status().IsSlackExhausted())
          << code.status().ToString();
      continue;  // that subtree is full; pick another parent next round
    }
    for (Code c : codes) EXPECT_NE(*code, c);
    codes.push_back(*code);
  }
  ASSERT_GT(codes.size(), 40u);

  std::vector<ResultPair> expected;
  for (Code a : codes) {
    for (Code d : codes) {
      if (IsAncestor(a, d)) expected.push_back(ResultPair{a, d});
    }
  }
  std::sort(expected.begin(), expected.end());

  std::unique_ptr<DiskManager> disk(DiskManager::OpenInMemory());
  BufferManager bm(disk.get(), 256);
  auto builder = ElementSetBuilder::Create(&bm, spec);
  ASSERT_TRUE(builder.ok());
  uint32_t doc = 1;
  for (Code c : codes) ASSERT_TRUE(builder->AddCode(c, 0, doc++).ok());
  auto built = builder->Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ElementSet set = *built;

  VectorSink sink;
  RunOptions opts;
  opts.work_pages = 64;
  auto run = RunAuto(&bm, set, set, &sink, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  sink.Sort();
  EXPECT_EQ(sink.pairs(), expected);
}

TEST(InsertElementTest, InsertIntoSlackBinarizedDocument) {
  DataTree tree;
  ASSERT_TRUE(
      ParseXml("<dblp><article><title/></article><book/></dblp>", &tree).ok());
  PBiTreeSpec spec;
  BinarizeOptions opts;
  opts.slack_levels = 4;  // depth headroom for new descendants
  opts.fanout_slack = 3;  // sibling headroom: 7/8 of each level free
  ASSERT_TRUE(BinarizeTree(&tree, &spec, opts).ok());

  TagId article_tag;
  ASSERT_TRUE(tree.FindTag("article", &article_tag));
  NodeId article = tree.NodesWithTag(article_tag)[0];

  // Grow the document: new fields under the article, new records under
  // the root — no re-encoding of existing nodes.
  std::vector<Code> before;
  for (size_t i = 0; i < tree.size(); ++i) {
    before.push_back(tree.node(static_cast<NodeId>(i)).code);
  }
  for (int i = 0; i < 5; ++i) {
    auto field = InsertElement(&tree, article, "author", spec);
    ASSERT_TRUE(field.ok()) << field.status().ToString();
  }
  for (int i = 0; i < 8; ++i) {
    auto rec = InsertElement(&tree, tree.root(), "article", spec);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  }
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(tree.node(static_cast<NodeId>(i)).code, before[i])
        << "existing code changed by an insert";
  }
  CheckEmbedding(tree, spec);
}

TEST(InsertElementTest, FullyPackedParentSurfacesSlackExhausted) {
  // A parent whose subtree is completely packed: InsertElement must
  // surface the typed SlackExhausted condition (not a generic error),
  // leave the tree untouched, and keep the embedding intact.
  DataTree tree;
  tree.CreateRoot("r");
  PBiTreeSpec spec;
  BinarizeOptions opts;
  opts.forced_height = 4;  // tiny code space: root subtree packs quickly
  ASSERT_TRUE(BinarizeTree(&tree, &spec, opts).ok());

  size_t inserted = 0;
  Status exhausted;
  while (true) {
    auto id = InsertElement(&tree, tree.root(), "n", spec);
    if (!id.ok()) {
      exhausted = id.status();
      break;
    }
    ++inserted;
    ASSERT_LE(inserted, size_t{1} << spec.height)
        << "allocator ran past the code space";
  }
  EXPECT_GT(inserted, 0u);
  EXPECT_TRUE(exhausted.IsSlackExhausted()) << exhausted.ToString();
  EXPECT_EQ(exhausted.code(), StatusCode::kSlackExhausted);

  // The failed insert must not have added a node.
  const size_t size_at_failure = tree.size();
  auto again = InsertElement(&tree, tree.root(), "n", spec);
  EXPECT_TRUE(again.status().IsSlackExhausted());
  EXPECT_EQ(tree.size(), size_at_failure);
  CheckEmbedding(tree, spec);
}

TEST(InsertElementTest, RandomisedInsertsPreserveEmbedding) {
  Random rng(77);
  DataTree tree;
  tree.CreateRoot("r");
  PBiTreeSpec spec;
  BinarizeOptions opts;
  opts.forced_height = 16;
  ASSERT_TRUE(BinarizeTree(&tree, &spec, opts).ok());

  for (int i = 0; i < 120; ++i) {
    NodeId parent = static_cast<NodeId>(rng.Uniform(tree.size()));
    auto inserted = InsertElement(&tree, parent, "n", spec);
    if (!inserted.ok()) {
      EXPECT_TRUE(inserted.status().IsSlackExhausted())
          << inserted.status().ToString();
      continue;  // that subtree is full; try elsewhere next round
    }
  }
  EXPECT_GT(tree.size(), 50u);
  CheckEmbedding(tree, spec);
}

}  // namespace
}  // namespace pbitree
