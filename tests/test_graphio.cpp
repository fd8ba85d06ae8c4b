#include "graph/graphio.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/topology.hpp"

namespace spider::graph {
namespace {

TEST(GraphIo, DotOutput) {
  Graph g(3, {{0, 1}, {1, 2}});
  std::ostringstream os;
  write_dot(os, g, "test");
  const std::string dot = os.str();
  EXPECT_NE(dot.find("graph test {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2;"), std::string::npos);
}

TEST(GraphIo, CsvRoundTrip) {
  const Graph g = topology::make_isp32();
  std::stringstream ss;
  write_edge_list_csv(ss, g);
  const Graph h = read_edge_list_csv(ss);
  ASSERT_EQ(h.node_count(), g.node_count());
  ASSERT_EQ(h.edge_count(), g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(h.edge_u(e), g.edge_u(e));
    EXPECT_EQ(h.edge_v(e), g.edge_v(e));
  }
}

TEST(GraphIo, CommentsAndBlanksSkipped) {
  std::istringstream is("# a comment\n\n0,1\n1,2\n");
  const Graph g = read_edge_list_csv(is);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(GraphIo, MalformedLineThrows) {
  std::istringstream is("0,1\nnot-a-line\n");
  EXPECT_THROW((void)read_edge_list_csv(is), std::runtime_error);
}

TEST(GraphIo, NonNumericThrows) {
  std::istringstream is("a,b\n");
  EXPECT_THROW((void)read_edge_list_csv(is), std::runtime_error);
}

TEST(GraphIo, IdsParseWholeFieldOnly) {
  // Ids are whole decimal fields below kInvalidNode: no trailing text
  // ("12abc" is not 12), no wrap past 32 bits (2^32 + 1 is not 1), no
  // sign ("-1" is not 2^32 - 1) and no blanks.
  for (const char* row : {"0,12abc\n", "12abc,0\n", "0,4294967296\n",
                          "0,4294967297\n", "0,-1\n", "0,4294967295\n",
                          "0,+1\n", "0, 1\n", "0,\n", "0,1x\n"}) {
    std::istringstream is(row);
    EXPECT_THROW((void)read_edge_list_csv(is), std::runtime_error) << row;
  }
  std::istringstream good("0,4\n");
  EXPECT_EQ(read_edge_list_csv(good).node_count(), 5u);
}

TEST(GraphIo, SparseIdThrowsNamingTheLine) {
  // One legal row must not size a ~4e9-node arena: the node count is
  // bounded by 2 x rows + CsvNodeCount::kSpareIds.
  std::istringstream is("u,v\n0,1\n# comment\n0,4000000000\n");
  try {
    (void)read_edge_list_csv(is);
    FAIL() << "sparse id accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
  // The bound is inclusive: 1 row names up to 2 + kSpareIds nodes.
  const std::size_t last = 1 + CsvNodeCount::kSpareIds;
  std::istringstream at_bound("0," + std::to_string(last) + "\n");
  EXPECT_EQ(read_edge_list_csv(at_bound).node_count(), last + 1);
  std::istringstream past("0," + std::to_string(last + 1) + "\n");
  EXPECT_THROW((void)read_edge_list_csv(past), std::runtime_error);
}

TEST(GraphIo, ParseNodeId) {
  EXPECT_EQ(parse_node_id("0"), NodeId{0});
  EXPECT_EQ(parse_node_id("4294967294"), NodeId{4294967294u});
  EXPECT_FALSE(parse_node_id("4294967295").has_value());  // kInvalidNode
  EXPECT_FALSE(parse_node_id("99999999999999999999999").has_value());
  EXPECT_FALSE(parse_node_id("").has_value());
  EXPECT_FALSE(parse_node_id("7 ").has_value());
}

TEST(GraphIo, EmptyInputGivesEmptyGraph) {
  std::istringstream is("");
  const Graph g = read_edge_list_csv(is);
  EXPECT_EQ(g.node_count(), 0u);
}

TEST(GraphIo, FileRoundTrip) {
  const Graph g = topology::make_ring(8);
  const std::string path = ::testing::TempDir() + "/spider_graph_rt.csv";
  save_edge_list_csv(path, g);
  const Graph h = load_edge_list_csv(path);
  EXPECT_EQ(h.edge_count(), g.edge_count());
  EXPECT_THROW((void)load_edge_list_csv("/nonexistent/nope.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace spider::graph
