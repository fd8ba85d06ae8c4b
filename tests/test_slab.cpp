#include "core/slab.hpp"

#include "core/network.hpp"
#include "graph/topology.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace spider::core {
namespace {

TEST(Slab, AcquireGetRelease) {
  Slab<int> slab;
  const SlabHandle h = slab.acquire();
  ASSERT_NE(slab.get(h), nullptr);
  *slab.get(h) = 42;
  EXPECT_EQ(*slab.get(h), 42);
  EXPECT_EQ(slab.live(), 1u);
  slab.release(h);
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(slab.get(h), nullptr);  // stale after release
}

TEST(Slab, GenerationCheckCatchesRecycledSlot) {
  Slab<int> slab;
  const SlabHandle h1 = slab.acquire();
  slab.release(h1);
  const SlabHandle h2 = slab.acquire();  // recycles the same index
  EXPECT_EQ(h2.index, h1.index);
  EXPECT_NE(h2.gen, h1.gen);
  EXPECT_EQ(slab.get(h1), nullptr);  // old handle stays dead
  EXPECT_NE(slab.get(h2), nullptr);
  EXPECT_EQ(slab.capacity(), 1u);  // no new slot was created
}

TEST(Slab, ReleaseIsIdempotentOnStaleHandles) {
  Slab<int> slab;
  const SlabHandle h = slab.acquire();
  slab.release(h);
  slab.release(h);  // no-op, must not double-free
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(slab.get(SlabHandle{}), nullptr);  // default handle never live
}

TEST(Slab, PackedHandleRoundTrips) {
  Slab<int> slab;
  slab.release(slab.acquire());  // bump the generation past 1
  const SlabHandle h = slab.acquire();
  const SlabHandle back = SlabHandle::unpack(h.packed());
  EXPECT_EQ(back, h);
  EXPECT_NE(h.packed(), 0u);  // 0 is reserved for "no handle"
  EXPECT_EQ(slab.get(SlabHandle::unpack(0)), nullptr);
}

TEST(Slab, RecycledSlotKeepsValueCapacity) {
  Slab<std::vector<int>> slab;
  const SlabHandle h1 = slab.acquire();
  slab.get(h1)->assign(100, 7);
  slab.release(h1);
  const SlabHandle h2 = slab.acquire();
  // The previous tenant's vector (and its heap buffer) is still there;
  // callers reset what they use.
  EXPECT_GE(slab.get(h2)->capacity(), 100u);
  slab.get(h2)->clear();
  EXPECT_TRUE(slab.get(h2)->empty());
}

TEST(Slab, AddressesStableAcrossGrowth) {
  Slab<std::string> slab;
  std::vector<SlabHandle> handles;
  std::vector<std::string*> addrs;
  // Cross several chunk boundaries (chunks hold 16, 32, ... slots).
  for (int i = 0; i < 5000; ++i) {
    const SlabHandle h = slab.acquire();
    *slab.get(h) = std::to_string(i);
    handles.push_back(h);
    addrs.push_back(slab.get(h));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(slab.get(handles[i]), addrs[i]);  // growth never moved it
    EXPECT_EQ(*slab.get(handles[i]), std::to_string(i));
  }
  EXPECT_EQ(slab.live(), 5000u);
}

/// First index of every chunk below 2^20 slots: chunks hold 16, 32,
/// 64, ... slots, so chunk c starts at 16 * (2^c - 1).
std::vector<std::uint32_t> chunk_starts() {
  std::vector<std::uint32_t> starts;
  for (std::uint32_t c = 1; 16u * ((1u << c) - 1) < (1u << 20); ++c) {
    starts.push_back(16u * ((1u << c) - 1));
  }
  return starts;
}

TEST(Slab, IndicesSequentialAndRecyclingLifoAcrossChunkBoundaries) {
  Slab<int> slab;
  std::vector<SlabHandle> handles;
  handles.reserve(std::size_t{1} << 20);
  for (std::uint32_t i = 0; i < (1u << 20); ++i) {
    handles.push_back(slab.acquire());
    ASSERT_EQ(handles.back().index, i);  // fresh slots are sequential
    *slab.get(handles.back()) = static_cast<int>(i);
  }
  const std::vector<std::uint32_t> starts = chunk_starts();
  ASSERT_EQ(starts.front(), 16u);
  ASSERT_EQ(starts[1], 48u);
  for (const std::uint32_t b : starts) {
    // Free the last slot of one chunk, then the first of the next: the
    // free list hands them back last-in first-out.
    slab.release(handles[b - 1]);
    slab.release(handles[b]);
    const SlabHandle first = slab.acquire();
    const SlabHandle second = slab.acquire();
    EXPECT_EQ(first.index, b);
    EXPECT_EQ(second.index, b - 1);
    EXPECT_EQ(first.gen, 2u);
    EXPECT_EQ(second.gen, 2u);
    EXPECT_EQ(*slab.get(first), static_cast<int>(b));  // previous tenant
    handles[b] = first;
    handles[b - 1] = second;
  }
  EXPECT_EQ(slab.capacity(), std::size_t{1} << 20);  // nothing new created
  EXPECT_EQ(slab.acquire().index, 1u << 20);  // growth resumes in order
  for (std::uint32_t i = 0; i < (1u << 20); ++i) {
    ASSERT_EQ(*slab.get(handles[i]), static_cast<int>(i));
  }
}

TEST(Slab, ForEachVisitsAscendingIndexAfterMixedAcquireRelease) {
  Slab<int> slab;
  std::vector<SlabHandle> handles;
  for (int i = 0; i < 200; ++i) handles.push_back(slab.acquire());
  // Release a scattered set (crossing the 16- and 48-slot boundaries),
  // then recycle some of it in a different order.
  std::vector<bool> live(200, true);
  for (const int i : {150, 3, 47, 16, 15, 199, 48, 90, 0}) {
    slab.release(handles[i]);
    live[i] = false;
  }
  for (int k = 0; k < 4; ++k) live[slab.acquire().index] = true;
  std::vector<std::uint32_t> expected;
  for (std::uint32_t i = 0; i < 200; ++i) {
    if (live[i]) expected.push_back(i);
  }
  std::vector<std::uint32_t> visited;
  slab.for_each([&](SlabHandle h, int&) { visited.push_back(h.index); });
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(slab.live(), expected.size());
}

TEST(Slab, ChannelHtlcIdSequenceGolden) {
  // HtlcId == packed (generation << 32 | index) into the network's HTLC
  // book: pins that the chunk layout does not leak into ids (and so into
  // any checksum). One book on one edge gives the sequence a
  // per-channel slab gave.
  const graph::Graph g = graph::topology::make_line(2);
  ChannelNetwork net(g, std::vector<Amount>{2000000});
  const ArcId a = graph::forward_arc(0);
  const ArcId b = graph::backward_arc(0);
  std::vector<HtlcId> ids;
  for (int i = 0; i < 18; ++i) {
    ids.push_back(*net.offer_htlc(a, 10, hash_preimage(i)));
  }
  ASSERT_TRUE(net.settle_htlc(a, ids[15], 15));
  ASSERT_TRUE(net.fail_htlc(a, ids[16]));
  ASSERT_TRUE(net.settle_htlc(a, ids[2], 2));
  ids.push_back(*net.offer_htlc(b, 10, hash_preimage(100)));
  ids.push_back(*net.offer_htlc(b, 10, hash_preimage(101)));
  ids.push_back(*net.offer_htlc(b, 10, hash_preimage(102)));
  ids.push_back(*net.offer_htlc(b, 10, hash_preimage(103)));
  const std::vector<HtlcId> tail(ids.begin() + 14, ids.end());
  const std::vector<HtlcId> golden = {
      0x1'0000000Eull, 0x1'0000000Full, 0x1'00000010ull, 0x1'00000011ull,
      0x2'00000002ull, 0x2'00000010ull, 0x2'0000000Full, 0x1'00000012ull};
  EXPECT_EQ(tail, golden);
  EXPECT_EQ(ids[0], 0x1'00000000ull);
  const Channel& c = net.channel(0);
  EXPECT_EQ(c.inflight_count(), 19u);
  EXPECT_EQ(net.htlc_book().live(), 19u);
  EXPECT_TRUE(c.conserves_funds());
}

}  // namespace
}  // namespace spider::core
