#include "core/network_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/network.hpp"
#include "graph/topology.hpp"

namespace spider::core {
namespace {

TEST(NetworkIo, RoundTrip) {
  const graph::Graph g = graph::topology::make_ring(4);
  std::vector<std::pair<Amount, Amount>> deps;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    deps.emplace_back(1000 * (e + 1), 500 * (e + 1));
  }
  std::stringstream ss;
  write_channels_csv(ss, g, deps);
  const NetworkSnapshot snap = read_channels_csv(ss);
  ASSERT_EQ(snap.graph.node_count(), g.node_count());
  ASSERT_EQ(snap.graph.edge_count(), g.edge_count());
  EXPECT_EQ(snap.deposits, deps);
  // The snapshot can open a ChannelNetwork with asymmetric balances.
  const ChannelNetwork net(snap.graph, snap.deposits);
  EXPECT_EQ(net.available(graph::forward_arc(0)), 1000);
  EXPECT_EQ(net.available(graph::backward_arc(0)), 500);
}

TEST(NetworkIo, CommentsAndHeaderTolerated) {
  std::istringstream is(
      "u,v,balance_u_milli,balance_v_milli\n# comment\n\n0,1,100,200\n");
  const NetworkSnapshot snap = read_channels_csv(is);
  EXPECT_EQ(snap.graph.edge_count(), 1u);
  const std::pair<Amount, Amount> expected{100, 200};
  EXPECT_EQ(snap.deposits[0], expected);
}

TEST(NetworkIo, RejectsBadRows) {
  std::istringstream short_row("0,1,100\n");
  EXPECT_THROW((void)read_channels_csv(short_row), std::runtime_error);
  std::istringstream negative("0,1,-5,10\n");
  EXPECT_THROW((void)read_channels_csv(negative), std::runtime_error);
  std::istringstream empty_channel("0,1,0,0\n");
  EXPECT_THROW((void)read_channels_csv(empty_channel), std::runtime_error);
  std::istringstream garbage("0,1,abc,10\n");
  EXPECT_THROW((void)read_channels_csv(garbage), std::runtime_error);
}

TEST(NetworkIo, FieldsParseWholeFieldOnly) {
  // Every field is parsed whole: no trailing text ("12abc" is not 12),
  // no wrap of ids past 32 bits, no blanks, no overflowing amounts.
  for (const char* row :
       {"0,1,12abc,5\n", "0,1,5,12abc\n", "0,12abc,5,5\n",
        "0,4294967296,5,5\n", "1,4294967297,5,5\n", "-1,0,5,5\n",
        "0,1, 5,5\n", "0,1,5,\n", "0,1,99999999999999999999,5\n"}) {
    std::istringstream is(row);
    EXPECT_THROW((void)read_channels_csv(is), std::runtime_error) << row;
  }
  std::istringstream huge("0,1,9223372036854775807,1\n");
  EXPECT_EQ(read_channels_csv(huge).deposits[0].first,
            Amount{9223372036854775807});
}

TEST(NetworkIo, SparseIdThrowsNamingTheLine) {
  // One legal row must not size a ~4e9-node arena (graph::CsvNodeCount).
  std::istringstream is("0,1,5,5\n0,4000000000,5,5\n");
  try {
    (void)read_channels_csv(is);
    FAIL() << "sparse id accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(NetworkIo, SizeMismatchThrows) {
  const graph::Graph g = graph::topology::make_ring(4);
  std::ostringstream os;
  EXPECT_THROW(write_channels_csv(os, g, {{1, 1}}), std::invalid_argument);
}

TEST(NetworkIo, FileRoundTrip) {
  const graph::Graph g = graph::topology::make_line(3);
  const std::vector<std::pair<Amount, Amount>> deps{{10, 20}, {30, 40}};
  const std::string path = ::testing::TempDir() + "/spider_channels.csv";
  save_channels_csv(path, g, deps);
  const NetworkSnapshot snap = load_channels_csv(path);
  EXPECT_EQ(snap.deposits, deps);
  EXPECT_THROW((void)load_channels_csv("/nonexistent/x.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace spider::core
