// Property tests for the SoA connection arena: slot reuse, generation-tag
// use-after-free protection, chunk growth, live-set iteration, and ids
// that encode the slab handle.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "netsim/conn_slab.h"

namespace hermes::netsim {
namespace {

FourTuple tuple_of(uint32_t saddr, uint16_t sport) {
  FourTuple t;
  t.saddr = saddr;
  t.daddr = 0x0a000001;
  t.sport = sport;
  t.dport = 80;
  return t;
}

TEST(ConnSlabTest, CreateInitializesRow) {
  ConnSlab slab;
  const Connection c =
      slab.create(tuple_of(7, 1234), 80, 3, SimTime::millis(5));
  ASSERT_TRUE(c.valid());
  // The id is the handle: (generation << 32) | (slot + 1). A fresh slab's
  // first row is slot 0 at generation 0, so its id is 1.
  EXPECT_EQ(c.slot(), 0u);
  EXPECT_EQ(c.id(), 1u);
  EXPECT_EQ(slot_of(c.id()), c.slot());
  EXPECT_EQ(c.tuple().saddr, 7u);
  EXPECT_EQ(c.port(), 80);
  EXPECT_EQ(c.tenant(), 3u);
  EXPECT_EQ(c.state(), ConnState::Queued);
  EXPECT_EQ(c.owner(), kInvalidWorker);
  EXPECT_EQ(c.created_at(), SimTime::millis(5));
  EXPECT_EQ(slab.live(), 1u);
}

TEST(ConnSlabTest, DefaultViewIsInvalid) {
  const Connection c;
  EXPECT_FALSE(c.valid());
  EXPECT_FALSE(static_cast<bool>(c));
}

TEST(ConnSlabTest, DestroyInvalidatesEveryOutstandingView) {
  ConnSlab slab;
  const Connection c = slab.create(tuple_of(1, 1), 80, 0, SimTime::zero());
  const Connection copy = c;  // views are values; copies alias the same row
  slab.destroy(c);
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_FALSE(c.valid());
  EXPECT_FALSE(copy.valid());
}

TEST(ConnSlabTest, SlotReuseBumpsGenerationAndKillsStaleViews) {
  ConnSlab slab;
  const Connection old_conn =
      slab.create(tuple_of(1, 1), 80, 0, SimTime::zero());
  const uint32_t slot = old_conn.slot();
  const ConnId old_id = old_conn.id();
  slab.destroy(old_conn);

  // LIFO free list: the next create reuses the same row.
  const Connection new_conn =
      slab.create(tuple_of(2, 2), 81, 1, SimTime::millis(1));
  ASSERT_EQ(new_conn.slot(), slot);
  EXPECT_TRUE(new_conn.valid());
  EXPECT_FALSE(old_conn.valid());       // stale view cannot see the new row
  EXPECT_NE(old_conn, new_conn);        // gen differs even with equal slot
  // Same slot, next generation: a new id that still names the slot.
  EXPECT_EQ(old_id, 1u);
  EXPECT_EQ(new_conn.id(), (ConnId{1} << 32) | 1u);
  EXPECT_EQ(slot_of(new_conn.id()), slot);
}

#ifndef NDEBUG
TEST(ConnSlabDeathTest, StaleViewAccessAborts) {
  // The generation check is the use-after-free guard: reading through a
  // view of a destroyed connection aborts in debug/sanitizer builds.
  ConnSlab slab;
  const Connection c = slab.create(tuple_of(1, 1), 80, 0, SimTime::zero());
  slab.destroy(c);
  slab.create(tuple_of(2, 2), 80, 0, SimTime::zero());  // reuses the slot
  EXPECT_DEATH({ (void)c.id(); }, "valid");
  EXPECT_DEATH({ c.set_owner(3); }, "valid");
}
#endif

TEST(ConnSlabDeathTest, DoubleDestroyAborts) {
  ConnSlab slab;
  const Connection c = slab.create(tuple_of(1, 1), 80, 0, SimTime::zero());
  slab.destroy(c);
  EXPECT_DEATH(slab.destroy(c), "stale");
}

TEST(ConnSlabTest, GrowsAcrossChunksWithoutInvalidatingViews) {
  ConnSlab slab;
  const uint32_t n = ConnSlab::kChunkSlots + 100;  // forces a second chunk
  std::vector<Connection> conns;
  conns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    conns.push_back(
        slab.create(tuple_of(i, static_cast<uint16_t>(i)), 80, i % 7,
                    SimTime::zero()));
  }
  EXPECT_EQ(slab.live(), n);
  EXPECT_EQ(slab.chunk_count(), 2u);
  // Chunk growth must not move rows: early views still read their data.
  for (uint32_t i = 0; i < n; i += 4097) {
    ASSERT_TRUE(conns[i].valid());
    EXPECT_EQ(conns[i].id(), i + 1);
    EXPECT_EQ(conns[i].tuple().saddr, i);
  }
}

TEST(ConnSlabTest, ForEachLiveSkipsFreedRows) {
  ConnSlab slab;
  std::vector<Connection> conns;
  for (uint32_t i = 0; i < 100; ++i) {
    conns.push_back(slab.create(tuple_of(i, 1), 80, 0, SimTime::zero()));
  }
  for (uint32_t i = 0; i < 100; i += 2) slab.destroy(conns[i]);

  std::set<ConnId> seen;
  slab.for_each_live([&](Connection c) {
    EXPECT_TRUE(c.valid());
    seen.insert(c.id());
  });
  EXPECT_EQ(seen.size(), 50u);
  // conns[i] sits in slot i at generation 0, so its id is i + 1.
  for (uint32_t i = 1; i < 100; i += 2) EXPECT_TRUE(seen.count(i + 1));
  EXPECT_EQ(slab.live(), 50u);
}

TEST(ConnSlabTest, ChurnKeepsFootprintBounded) {
  // Open/close churn with a small steady-state live set must recycle rows
  // instead of growing the arena: used() stays at the high-water mark.
  ConnSlab slab;
  std::vector<Connection> live;
  uint64_t rng = 12345;
  for (int round = 0; round < 20000; ++round) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    if ((rng >> 33) % 2 == 0 || live.size() < 8) {
      live.push_back(slab.create(tuple_of(1, 1), 80, 0, SimTime::zero()));
    } else {
      const size_t pick = (rng >> 40) % live.size();
      slab.destroy(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(slab.live(), live.size());
  EXPECT_LT(slab.used(), 200u);  // bounded by peak live count, not churn
  EXPECT_EQ(slab.chunk_count(), 1u);
}

TEST(ConnSlabTest, IdsStayUniqueAcrossCreateDestroyCycles) {
  // Churn that reuses a few slots thousands of times each: every id ever
  // handed out is distinct, nonzero, and names the slot its view holds.
  ConnSlab slab;
  std::vector<Connection> live;
  std::set<ConnId> ids;
  uint64_t created = 0;
  uint64_t rng = 777;
  for (int round = 0; round < 50000; ++round) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    if ((rng >> 33) % 2 == 0 || live.empty()) {
      const Connection c = slab.create(tuple_of(1, 1), 80, 0, SimTime::zero());
      ASSERT_NE(c.id(), 0u);
      ASSERT_EQ(slot_of(c.id()), c.slot());
      ASSERT_TRUE(ids.insert(c.id()).second) << "id reused: " << c.id();
      ++created;
      live.push_back(c);
    } else {
      const size_t pick = (rng >> 40) % live.size();
      slab.destroy(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(ids.size(), created);
  EXPECT_LT(slab.used(), 1000u);  // the slots really were reused
  EXPECT_GT(created, 10 * uint64_t{slab.used()});
}

}  // namespace
}  // namespace hermes::netsim
