// ConnTable: per-connection rows indexed by the slot a ConnId encodes.
// Lookups match the full id, so ids from before a slot reuse and ids that
// name no slab row miss; rows keep their address and visit in slot order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netsim/conn_slab.h"
#include "netsim/conn_table.h"

namespace hermes::netsim {
namespace {

// Not movable, like http::ConnState: rows must construct in place.
struct Pinned {
  explicit Pinned(int v) : value(v) {}
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;
  int value;
};

TEST(ConnTableTest, FindEmplaceErase) {
  ConnTable<std::string> t;
  const ConnId a = conn_id_of(0, 0);
  const ConnId b = conn_id_of(5, 2);
  EXPECT_EQ(t.find(a), nullptr);  // nothing allocated yet
  t.emplace(a, "alpha");
  t.emplace(b, "beta");
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(a), nullptr);
  EXPECT_EQ(*t.find(a), "alpha");
  EXPECT_EQ(*t.find(b), "beta");
  EXPECT_EQ(t.find(conn_id_of(1, 0)), nullptr);  // allocated, empty row

  EXPECT_TRUE(t.erase(a));
  EXPECT_FALSE(t.erase(a));
  EXPECT_EQ(t.find(a), nullptr);
  EXPECT_EQ(t.size(), 1u);
  t.emplace(a, "again");  // an erased row can be filled again
  EXPECT_EQ(*t.find(a), "again");
}

TEST(ConnTableTest, StaleIdMissesAfterSlotReuse) {
  ConnTable<int> t;
  const ConnId old_id = conn_id_of(3, 0);
  const ConnId new_id = conn_id_of(3, 1);  // slot 3, next generation
  t.emplace(old_id, 1);
  EXPECT_EQ(t.find(new_id), nullptr);
  EXPECT_FALSE(t.erase(new_id));  // must not empty the live row
  ASSERT_TRUE(t.erase(old_id));
  t.emplace(new_id, 2);
  EXPECT_EQ(t.find(old_id), nullptr);
  EXPECT_FALSE(t.erase(old_id));
  EXPECT_EQ(*t.find(new_id), 2);
}

TEST(ConnTableTest, IdsOutsideTheSlabMiss) {
  ConnTable<int> t;
  t.emplace(conn_id_of(0, 0), 10);
  t.emplace(conn_id_of(1, 0), 11);
  EXPECT_EQ(t.find(0), nullptr);  // 0 is "no connection"
  // LbDevice's synthetic probe ids start at 2^62; their low halves land
  // on real slots, but the stored id never matches.
  const ConnId probe_base = ConnId{1} << 62;
  for (ConnId id = probe_base; id < probe_base + 4; ++id) {
    EXPECT_EQ(t.find(id), nullptr) << id;
    EXPECT_FALSE(t.erase(id)) << id;
  }
  EXPECT_EQ(t.size(), 2u);
}

TEST(ConnTableTest, ForEachVisitsRowsInSlotOrder) {
  ConnTable<int> t;
  const uint32_t slots[] = {2500, 7, 0, 1024, 1023, 3};
  for (const uint32_t s : slots) t.emplace(conn_id_of(s, s % 3), int(s));
  t.erase(conn_id_of(3, 0));
  std::vector<uint32_t> seen;
  t.for_each([&](ConnId id, int& v) {
    EXPECT_EQ(uint32_t(v), slot_of(id));
    seen.push_back(slot_of(id));
  });
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 7, 1023, 1024, 2500}));
}

TEST(ConnTableTest, RowsKeepTheirAddressAsTheTableGrows) {
  ConnTable<Pinned> t;
  Pinned* first = &t.emplace(conn_id_of(0, 0), 42);
  for (uint32_t s = 1; s < 5 * ConnTable<Pinned>::kChunkRows; ++s) {
    t.emplace(conn_id_of(s, 0), int(s));
  }
  EXPECT_EQ(t.find(conn_id_of(0, 0)), first);
  EXPECT_EQ(first->value, 42);
  EXPECT_EQ(t.size(), 5 * ConnTable<Pinned>::kChunkRows);
}

TEST(ConnTableTest, TracksSlabIdsThroughChurn) {
  // Mirrors the slab: every live connection's id finds its own row, and
  // every closed one misses even after its slot is reused.
  ConnSlab slab;
  ConnTable<ConnId> t;
  std::vector<Connection> live;
  std::vector<ConnId> closed;
  uint64_t rng = 99;
  for (int round = 0; round < 5000; ++round) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    if ((rng >> 33) % 3 != 0 || live.empty()) {
      const Connection c = slab.create(FourTuple{}, 80, 0, SimTime::zero());
      t.emplace(c.id(), c.id());
      live.push_back(c);
    } else {
      const size_t pick = (rng >> 40) % live.size();
      closed.push_back(live[pick].id());
      ASSERT_TRUE(t.erase(live[pick].id()));
      slab.destroy(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(t.size(), live.size());
  for (const Connection& c : live) {
    ASSERT_NE(t.find(c.id()), nullptr);
    EXPECT_EQ(*t.find(c.id()), c.id());
  }
  for (const ConnId id : closed) EXPECT_EQ(t.find(id), nullptr);
}

TEST(ConnTableDeathTest, EmplaceOnOccupiedRowAborts) {
  ConnTable<int> t;
  t.emplace(conn_id_of(4, 0), 1);
  EXPECT_DEATH(t.emplace(conn_id_of(4, 0), 2), "occupied");
  // A newer generation of the same slot is refused too: the slot's old
  // occupant was never erased.
  EXPECT_DEATH(t.emplace(conn_id_of(4, 1), 2), "occupied");
}

}  // namespace
}  // namespace hermes::netsim
