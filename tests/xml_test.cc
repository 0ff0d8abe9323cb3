// Tests for the XML layer: parser (elements, attributes, text, CDATA,
// comments, entities, error reporting) and serializer round-trips.

#include <gtest/gtest.h>

#include <string>

#include "xml/data_tree.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace pbitree {
namespace {

TEST(XmlParserTest, MinimalDocument) {
  DataTree tree;
  ASSERT_TRUE(ParseXml("<a/>", &tree).ok());
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.tag_name(tree.node(0).tag), "a");
}

TEST(XmlParserTest, NestedElementsAndText) {
  DataTree tree;
  ASSERT_TRUE(
      ParseXml("<allusers><user><name>fervvac</name></user></allusers>", &tree)
          .ok());
  ASSERT_EQ(tree.size(), 3u);
  const auto& name = tree.node(2);
  EXPECT_EQ(tree.tag_name(name.tag), "name");
  EXPECT_EQ(name.text, "fervvac");
  EXPECT_EQ(tree.node(1).parent, 0);
}

TEST(XmlParserTest, AttributesBecomeNodes) {
  DataTree tree;
  ASSERT_TRUE(ParseXml(R"(<user id="9" role='admin'/>)", &tree).ok());
  ASSERT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.tag_name(tree.node(1).tag), "@id");
  EXPECT_EQ(tree.node(1).text, "9");
  EXPECT_EQ(tree.tag_name(tree.node(2).tag), "@role");
  EXPECT_EQ(tree.node(2).text, "admin");
}

TEST(XmlParserTest, AttributesCanBeSkipped) {
  DataTree tree;
  ParseOptions opts;
  opts.attributes_as_nodes = false;
  ASSERT_TRUE(ParseXml(R"(<user id="9"><x/></user>)", &tree, opts).ok());
  EXPECT_EQ(tree.size(), 2u);
}

TEST(XmlParserTest, EntityDecoding) {
  DataTree tree;
  ASSERT_TRUE(ParseXml("<t>a &lt;&amp;&gt; b &#65;&quot;</t>", &tree).ok());
  EXPECT_EQ(tree.node(0).text, "a <&> b A\"");
}

TEST(XmlParserTest, CdataCommentsAndPi) {
  DataTree tree;
  ASSERT_TRUE(ParseXml("<?xml version=\"1.0\"?><!-- c --><t><![CDATA[<raw>]]>"
                       "<!-- inner --></t>",
                       &tree)
                  .ok());
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.node(0).text, "<raw>");
}

TEST(XmlParserTest, DoctypeSkippedIncludingInternalSubset) {
  DataTree tree;
  ASSERT_TRUE(
      ParseXml("<!DOCTYPE dblp [ <!ELEMENT dblp (a)*> ]><dblp/>", &tree).ok());
  EXPECT_EQ(tree.size(), 1u);
}

TEST(XmlParserTest, WhitespaceBetweenElementsIsDropped) {
  DataTree tree;
  ASSERT_TRUE(ParseXml("<a>\n  <b/>\n  <c/>\n</a>", &tree).ok());
  EXPECT_EQ(tree.node(0).text, "");
  EXPECT_EQ(tree.size(), 3u);
}

TEST(XmlParserTest, ErrorsCarryByteOffsets) {
  DataTree tree;
  Status st = ParseXml("<a><b></a>", &tree);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("byte"), std::string::npos);
  EXPECT_NE(st.message().find("mismatched end tag"), std::string::npos);
}

TEST(XmlParserTest, RejectsMalformedDocuments) {
  DataTree t1, t2, t3, t4, t5;
  EXPECT_FALSE(ParseXml("", &t1).ok());                    // no root
  EXPECT_FALSE(ParseXml("<a>", &t2).ok());                 // unclosed
  EXPECT_FALSE(ParseXml("<a/><b/>", &t3).ok());            // two roots
  EXPECT_FALSE(ParseXml("<a attr=x/>", &t4).ok());         // unquoted attr
  EXPECT_FALSE(ParseXml("<a><!-- nope </a>", &t5).ok());   // open comment
}

TEST(XmlSerializerTest, RoundTripPreservesStructure) {
  const std::string doc =
      R"(<site id="1"><regions><item name="n&amp;m">text</item><item/></regions></site>)";
  DataTree tree;
  ASSERT_TRUE(ParseXml(doc, &tree).ok());
  std::string out = SerializeXml(tree);
  DataTree again;
  ASSERT_TRUE(ParseXml(out, &again).ok());
  ASSERT_EQ(tree.size(), again.size());
  for (size_t i = 0; i < tree.size(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    EXPECT_EQ(tree.tag_name(tree.node(id).tag),
              again.tag_name(again.node(id).tag));
    EXPECT_EQ(tree.node(id).parent, again.node(id).parent);
    EXPECT_EQ(tree.node(id).text, again.node(id).text);
  }
}

TEST(XmlSerializerTest, EscapesSpecialCharacters) {
  DataTree tree;
  NodeId r = tree.CreateRoot("t");
  tree.AppendText(r, "a<b>&\"c");
  std::string out = SerializeXml(tree);
  EXPECT_EQ(out, "<t>a&lt;b&gt;&amp;&quot;c</t>");
}

TEST(DataTreeTest, TagInterningAndLookup) {
  DataTree tree;
  NodeId r = tree.CreateRoot("a");
  tree.AddChild(r, "b");
  tree.AddChild(r, "b");
  tree.AddChild(r, "c");
  TagId b;
  ASSERT_TRUE(tree.FindTag("b", &b));
  EXPECT_EQ(tree.NodesWithTag(b).size(), 2u);
  TagId missing;
  EXPECT_FALSE(tree.FindTag("zzz", &missing));
  EXPECT_EQ(tree.num_tags(), 3u);
}

TEST(DataTreeTest, DepthAndAncestry) {
  DataTree tree;
  NodeId r = tree.CreateRoot("a");
  NodeId c = tree.AddChild(r, "b");
  NodeId g = tree.AddChild(c, "c");
  EXPECT_EQ(tree.Depth(r), 0);
  EXPECT_EQ(tree.Depth(g), 2);
  EXPECT_TRUE(tree.IsAncestorNode(r, g));
  EXPECT_FALSE(tree.IsAncestorNode(g, r));
  EXPECT_FALSE(tree.IsAncestorNode(g, g));
  EXPECT_EQ(tree.MaxDepth(), 2);
  EXPECT_EQ(tree.MaxFanout(), 1u);
}

}  // namespace
}  // namespace pbitree
