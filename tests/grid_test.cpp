#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <stdexcept>

#include "env/grid.h"
#include "sim/rng.h"

namespace ebs::env {
namespace {

TEST(GridMap, DefaultAllWalkableSingleRoom)
{
    GridMap g(4, 3);
    EXPECT_EQ(g.width(), 4);
    EXPECT_EQ(g.height(), 3);
    EXPECT_EQ(g.roomCount(), 1);
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 4; ++x) {
            EXPECT_TRUE(g.walkable({x, y}));
            EXPECT_EQ(g.room({x, y}), 0);
        }
}

TEST(GridMap, BoundsChecks)
{
    GridMap g(4, 3);
    EXPECT_FALSE(g.inBounds({-1, 0}));
    EXPECT_FALSE(g.inBounds({4, 0}));
    EXPECT_FALSE(g.inBounds({0, 3}));
    EXPECT_FALSE(g.walkable({9, 9}));
    EXPECT_EQ(g.room({9, 9}), -1);
}

TEST(GridMap, WallsBlockAndClearRoom)
{
    GridMap g(4, 4);
    g.setWalkable({1, 1}, false);
    EXPECT_FALSE(g.walkable({1, 1}));
    EXPECT_EQ(g.room({1, 1}), -1);
}

TEST(GridMap, NeighborsExcludeWallsAndBounds)
{
    GridMap g(3, 3);
    g.setWalkable({1, 0}, false);
    const auto n = g.neighbors({0, 0});
    // (1,0) is a wall; (0,1) remains; out-of-bounds excluded.
    ASSERT_EQ(n.size(), 1u);
    EXPECT_EQ(n[0], (Vec2i{0, 1}));
}

TEST(GridMap, RejectsNonPositiveSize)
{
    EXPECT_THROW(GridMap(0, 3), std::invalid_argument);
    EXPECT_THROW(GridMap(4, 0), std::invalid_argument);
    EXPECT_THROW(GridMap(-2, 5), std::invalid_argument);
    EXPECT_THROW(GridMap(5, -1), std::invalid_argument);
}

TEST(GridMap, OutOfBoundsWritesThrowAndChangeNothing)
{
    GridMap g(4, 3);
    for (const Vec2i p : {Vec2i{4, 0}, Vec2i{-1, 0}, Vec2i{0, 3},
                          Vec2i{0, -1}, Vec2i{9, 9}}) {
        EXPECT_THROW(g.setWalkable(p, false), std::out_of_range);
        EXPECT_THROW(g.setRoom(p, 1), std::out_of_range);
    }
    EXPECT_EQ(g.revision(), 0u);
    EXPECT_EQ(g.roomCount(), 1);
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 4; ++x)
            EXPECT_TRUE(g.walkable({x, y}));
}

TEST(GridMap, RoomIdMustFitSixteenBits)
{
    GridMap g(4, 3);
    g.setRoom({0, 0}, 32767);
    EXPECT_EQ(g.room({0, 0}), 32767);
    EXPECT_EQ(g.roomCount(), 32768);
    EXPECT_THROW(g.setRoom({1, 0}, 32768), std::out_of_range);
    EXPECT_THROW(g.setRoom({1, 0}, -32769), std::out_of_range);
    EXPECT_EQ(g.room({1, 0}), 0); // the rejected label was not truncated in
}

TEST(GridMap, RevisionCountsMutations)
{
    GridMap g(4, 3);
    g.setWalkable({1, 1}, false);
    g.setRoom({2, 2}, 1);
    EXPECT_EQ(g.revision(), 2u);
    const GridMap copy = g;
    EXPECT_EQ(copy.revision(), 2u);
}

/** Every bit of every row mask equals walkable() of its cell, and bits
 * at and above the width are clear. */
void
expectRowMasksMatch(const GridMap &g)
{
    ASSERT_TRUE(g.hasRowMasks());
    for (int y = 0; y < g.height(); ++y)
        for (int x = 0; x < GridMap::kMaxMaskWidth; ++x)
            ASSERT_EQ((g.rowMask(y) >> x) & 1u,
                      g.walkable({x, y}) ? 1u : 0u)
                << "cell (" << x << "," << y << ")";
}

/** Random setWalkable writes, each followed by a full mask check. */
void
mutateAndCheck(GridMap &g, sim::Rng &rng, int writes)
{
    for (int k = 0; k < writes; ++k) {
        g.setWalkable({rng.uniformInt(0, g.width() - 1),
                       rng.uniformInt(0, g.height() - 1)},
                      rng.bernoulli(0.5));
        expectRowMasksMatch(g);
    }
}

TEST(GridMap, RowMasksTrackRandomWrites)
{
    sim::Rng rng(77);
    for (const int width : {1, 7, 63, 64}) {
        SCOPED_TRACE("width " + std::to_string(width));
        GridMap g(width, 9);
        expectRowMasksMatch(g);
        mutateAndCheck(g, rng, 300);
        const GridMap copy = g;
        expectRowMasksMatch(copy);
    }
    for (int trial = 0; trial < 20; ++trial) {
        GridMap g = GridMap::apartment(
            rng.uniformInt(1, 4), rng.uniformInt(1, 3), rng.uniformInt(3, 12),
            rng.uniformInt(3, 7));
        SCOPED_TRACE("apartment " + std::to_string(g.width()) + "x" +
                     std::to_string(g.height()));
        expectRowMasksMatch(g);
        mutateAndCheck(g, rng, 50);
    }
}

TEST(GridMap, NoRowMasksPastSixtyFourColumns)
{
    EXPECT_TRUE(GridMap(64, 3).hasRowMasks());
    EXPECT_FALSE(GridMap(65, 3).hasRowMasks());
    EXPECT_FALSE(GridMap::apartment(4, 1, 16, 3).hasRowMasks()); // 65 wide
}

TEST(GridApartment, RejectsDegenerateLayouts)
{
    EXPECT_THROW(GridMap::apartment(0, 1, 3, 3), std::invalid_argument);
    EXPECT_THROW(GridMap::apartment(1, 0, 3, 3), std::invalid_argument);
    EXPECT_THROW(GridMap::apartment(1, 1, 2, 3), std::invalid_argument);
    EXPECT_THROW(GridMap::apartment(1, 1, 3, 2), std::invalid_argument);
    EXPECT_NO_THROW(GridMap::apartment(1, 1, 3, 3));
}

TEST(GridApartment, RejectsMoreRoomsThanLabelsHold)
{
    // 200 x 200 rooms need ids up to 39999, past the 16-bit label store.
    EXPECT_THROW(GridMap::apartment(200, 200, 3, 3), std::out_of_range);
}

TEST(GridApartment, DimensionsAndRoomCount)
{
    const GridMap g = GridMap::apartment(3, 2, 5, 4);
    EXPECT_EQ(g.width(), 3 * 6 + 1);
    EXPECT_EQ(g.height(), 2 * 5 + 1);
    EXPECT_EQ(g.roomCount(), 6);
}

TEST(GridApartment, BorderIsWall)
{
    const GridMap g = GridMap::apartment(2, 2, 4, 4);
    for (int x = 0; x < g.width(); ++x) {
        EXPECT_FALSE(g.walkable({x, 0}));
        EXPECT_FALSE(g.walkable({x, g.height() - 1}));
    }
    for (int y = 0; y < g.height(); ++y) {
        EXPECT_FALSE(g.walkable({0, y}));
        EXPECT_FALSE(g.walkable({g.width() - 1, y}));
    }
}

TEST(GridApartment, RoomInteriorsLabeledRowMajor)
{
    const GridMap g = GridMap::apartment(2, 2, 4, 4);
    EXPECT_EQ(g.room({1, 1}), 0);
    EXPECT_EQ(g.room({6, 1}), 1);
    EXPECT_EQ(g.room({1, 6}), 2);
    EXPECT_EQ(g.room({6, 6}), 3);
}

/** Flood fill over walkable cells. */
std::size_t
reachableFrom(const GridMap &g, const Vec2i &start)
{
    std::set<std::pair<int, int>> seen;
    std::queue<Vec2i> queue;
    queue.push(start);
    seen.insert({start.x, start.y});
    while (!queue.empty()) {
        const Vec2i p = queue.front();
        queue.pop();
        for (const auto &q : g.neighbors(p))
            if (seen.insert({q.x, q.y}).second)
                queue.push(q);
    }
    return seen.size();
}

/** Property: every walkable cell of an apartment is mutually reachable —
 * doorways connect all rooms. */
class ApartmentConnectivity
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ApartmentConnectivity, AllRoomsConnected)
{
    const auto [rx, ry] = GetParam();
    const GridMap g = GridMap::apartment(rx, ry, 5, 5);

    std::size_t walkable = 0;
    Vec2i start{-1, -1};
    for (int y = 0; y < g.height(); ++y)
        for (int x = 0; x < g.width(); ++x)
            if (g.walkable({x, y})) {
                ++walkable;
                if (start.x < 0)
                    start = {x, y};
            }
    ASSERT_GT(walkable, 0u);
    EXPECT_EQ(reachableFrom(g, start), walkable);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ApartmentConnectivity,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(1, 2, 3)));

} // namespace
} // namespace ebs::env
