#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>

#include "env/grid.h"
#include "plan/astar.h"
#include "sim/rng.h"

namespace ebs::plan {
namespace {

using env::GridMap;
using env::Vec2i;

TEST(AStar, TrivialSameCell)
{
    GridMap g(5, 5);
    const auto path = aStar(g, {2, 2}, {2, 2});
    ASSERT_TRUE(path.has_value());
    EXPECT_DOUBLE_EQ(path->cost, 0.0);
    EXPECT_EQ(path->cells.size(), 1u);
}

TEST(AStar, StraightLineIsManhattan)
{
    GridMap g(10, 10);
    const auto path = aStar(g, {1, 1}, {6, 1});
    ASSERT_TRUE(path.has_value());
    EXPECT_DOUBLE_EQ(path->cost, 5.0);
    EXPECT_EQ(path->cells.front(), (Vec2i{1, 1}));
    EXPECT_EQ(path->cells.back(), (Vec2i{6, 1}));
}

TEST(AStar, OptimalOnOpenGrid)
{
    GridMap g(20, 20);
    const auto path = aStar(g, {0, 0}, {7, 9});
    ASSERT_TRUE(path.has_value());
    EXPECT_DOUBLE_EQ(path->cost, 16.0); // Manhattan distance, no obstacles
}

TEST(AStar, RoutesAroundWall)
{
    GridMap g(7, 7);
    for (int y = 0; y < 6; ++y)
        g.setWalkable({3, y}, false); // wall with a gap at y=6
    const auto path = aStar(g, {1, 0}, {5, 0});
    ASSERT_TRUE(path.has_value());
    EXPECT_GT(path->cost, 4.0);
    // Every step is unit-length and walkable.
    for (std::size_t i = 1; i < path->cells.size(); ++i) {
        EXPECT_EQ(env::manhattan(path->cells[i - 1], path->cells[i]), 1);
        EXPECT_TRUE(g.walkable(path->cells[i]));
    }
}

TEST(AStar, UnreachableReturnsNullopt)
{
    GridMap g(7, 7);
    for (int y = 0; y < 7; ++y)
        g.setWalkable({3, y}, false); // full wall
    EXPECT_FALSE(aStar(g, {1, 1}, {5, 1}).has_value());
}

TEST(AStar, StartOnWallFails)
{
    GridMap g(5, 5);
    g.setWalkable({1, 1}, false);
    EXPECT_FALSE(aStar(g, {1, 1}, {3, 3}).has_value());
}

TEST(AStar, OutOfBoundsFails)
{
    GridMap g(5, 5);
    EXPECT_FALSE(aStar(g, {0, 0}, {9, 9}).has_value());
    EXPECT_FALSE(aStar(g, {-1, 0}, {2, 2}).has_value());
}

TEST(AStar, AdjacentOkStopsNextToGoal)
{
    GridMap g(8, 8);
    const auto path = aStar(g, {0, 0}, {5, 5}, /*adjacent_ok=*/true);
    ASSERT_TRUE(path.has_value());
    EXPECT_LE(env::chebyshev(path->cells.back(), {5, 5}), 1);
    EXPECT_LT(path->cost, 10.0);
}

TEST(AStar, AdjacentOkReachesUnwalkableGoal)
{
    GridMap g(8, 8);
    g.setWalkable({5, 5}, false); // object on furniture
    EXPECT_FALSE(aStar(g, {0, 0}, {5, 5}).has_value());
    const auto path = aStar(g, {0, 0}, {5, 5}, /*adjacent_ok=*/true);
    ASSERT_TRUE(path.has_value());
    EXPECT_LE(env::chebyshev(path->cells.back(), {5, 5}), 1);
}

TEST(AStar, BlockedCellsAvoided)
{
    GridMap g(5, 3);
    // Corridor at y=1 only.
    for (int x = 0; x < 5; ++x) {
        g.setWalkable({x, 0}, false);
        g.setWalkable({x, 2}, false);
    }
    const std::vector<Vec2i> blocked = {{2, 1}};
    EXPECT_TRUE(aStar(g, {0, 1}, {4, 1}).has_value());
    EXPECT_FALSE(aStar(g, {0, 1}, {4, 1}, false, &blocked).has_value());
}

TEST(AStar, BlockedDetourTaken)
{
    GridMap g(5, 5);
    const std::vector<Vec2i> blocked = {{2, 2}};
    const auto direct = aStar(g, {0, 2}, {4, 2});
    const auto detour = aStar(g, {0, 2}, {4, 2}, false, &blocked);
    ASSERT_TRUE(direct.has_value());
    ASSERT_TRUE(detour.has_value());
    EXPECT_GE(detour->cost, direct->cost);
    for (const auto &cell : detour->cells)
        EXPECT_FALSE(cell == (Vec2i{2, 2}));
}

TEST(AStar, BodyCutFailureSkipsSearch)
{
    GridMap g(5, 3);
    for (int x = 0; x < 5; ++x) {
        g.setWalkable({x, 0}, false);
        g.setWalkable({x, 2}, false);
    }
    const std::vector<Vec2i> blocked = {{2, 1}};
    EXPECT_FALSE(aStar(g, {0, 1}, {4, 1}, false, &blocked).has_value());
    EXPECT_EQ(aStarLastExpanded(), 0u);
    // A query that logs its reads keeps the full search and its read set.
    std::vector<Vec2i> reads;
    EXPECT_FALSE(
        aStar(g, {0, 1}, {4, 1}, false, &blocked, &reads).has_value());
    EXPECT_EQ(aStarLastExpanded(), 2u);
    EXPECT_EQ(reads, (std::vector<Vec2i>{{1, 1}, {2, 1}, {0, 1}}));
}

TEST(AStar, ExpansionCounterPopulated)
{
    GridMap g(30, 30);
    ASSERT_TRUE(aStar(g, {0, 0}, {29, 29}).has_value());
    EXPECT_GT(aStarLastExpanded(), 0u);
}

TEST(AStar, ApartmentCrossRoomPath)
{
    const GridMap g = GridMap::apartment(3, 3, 6, 6);
    const auto path = aStar(g, {1, 1}, {g.width() - 2, g.height() - 2});
    ASSERT_TRUE(path.has_value());
    EXPECT_GT(path->cost, 0.0);
}

/** Property: A* cost equals Manhattan distance on an empty grid, for a
 * sweep of endpoints. */
class AStarManhattanSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(AStarManhattanSweep, CostIsManhattan)
{
    const auto [gx, gy] = GetParam();
    GridMap g(25, 25);
    const auto path = aStar(g, {3, 4}, {gx, gy});
    ASSERT_TRUE(path.has_value());
    EXPECT_DOUBLE_EQ(path->cost, env::manhattan({3, 4}, {gx, gy}));
}

INSTANTIATE_TEST_SUITE_P(Endpoints, AStarManhattanSweep,
                         ::testing::Combine(::testing::Values(0, 7, 12, 24),
                                            ::testing::Values(0, 9, 24)));

// ---------------------------------------------------------------------------
// Differential check against the straightforward implementation: fresh
// g/parent arrays per call, a std::priority_queue, and GridMap::neighbors.
// The production search must match it cell for cell, including the order
// in which it consults `blocked` (speculation's occupancy read set).

struct RefNode
{
    int f;
    int g;
    int idx;

    bool
    operator>(const RefNode &o) const
    {
        return f != o.f ? f > o.f : g < o.g;
    }
};

std::optional<GridPath>
referenceAStar(const GridMap &grid, const Vec2i &start, const Vec2i &goal,
               bool adjacent_ok, const std::vector<Vec2i> *blocked,
               std::vector<Vec2i> *queried, std::size_t &expanded)
{
    expanded = 0;
    if (!grid.inBounds(start) || !grid.inBounds(goal))
        return std::nullopt;
    if (!grid.walkable(start))
        return std::nullopt;

    auto is_blocked = [&](const Vec2i &p) {
        if (queried != nullptr)
            queried->push_back(p);
        if (blocked == nullptr)
            return false;
        for (const auto &b : *blocked)
            if (b == p)
                return true;
        return false;
    };
    auto at_goal = [&](const Vec2i &p) {
        return adjacent_ok ? env::chebyshev(p, goal) <= 1 : p == goal;
    };
    if (at_goal(start))
        return GridPath{{start}, 0.0};

    const int w = grid.width();
    const std::size_t n = static_cast<std::size_t>(w) * grid.height();
    std::vector<std::int32_t> g_score(n, -1);
    std::vector<std::int32_t> parent(n, -1);
    auto index = [&](const Vec2i &p) { return p.y * w + p.x; };
    auto heuristic = [&](const Vec2i &p) {
        const int d = env::manhattan(p, goal);
        return adjacent_ok ? std::max(0, d - 1) : d;
    };

    std::priority_queue<RefNode, std::vector<RefNode>, std::greater<RefNode>>
        open;
    g_score[static_cast<std::size_t>(index(start))] = 0;
    open.push({heuristic(start), 0, index(start)});
    while (!open.empty()) {
        const RefNode cur = open.top();
        open.pop();
        const Vec2i p{cur.idx % w, cur.idx / w};
        if (cur.g > g_score[static_cast<std::size_t>(cur.idx)])
            continue;
        ++expanded;
        if (at_goal(p)) {
            GridPath path;
            path.cost = cur.g;
            for (int idx = cur.idx; idx >= 0;
                 idx = parent[static_cast<std::size_t>(idx)])
                path.cells.push_back({idx % w, idx / w});
            std::reverse(path.cells.begin(), path.cells.end());
            return path;
        }
        for (const auto &q : grid.neighbors(p)) {
            if (is_blocked(q))
                continue;
            const auto qi = static_cast<std::size_t>(index(q));
            const int ng = cur.g + 1;
            if (g_score[qi] < 0 || ng < g_score[qi]) {
                g_score[qi] = ng;
                parent[qi] = cur.idx;
                open.push({ng + heuristic(q), ng, static_cast<int>(qi)});
            }
        }
    }
    return std::nullopt;
}

/** A random cell, occasionally just outside the grid. */
Vec2i
randomCell(sim::Rng &rng, const GridMap &g)
{
    return {rng.uniformInt(-1, g.width()), rng.uniformInt(-1, g.height())};
}

GridMap
randomGrid(sim::Rng &rng)
{
    if (rng.bernoulli(0.3))
        return GridMap::apartment(rng.uniformInt(1, 3), rng.uniformInt(1, 3),
                                  rng.uniformInt(3, 7), rng.uniformInt(3, 7));
    GridMap g(rng.uniformInt(1, 24), rng.uniformInt(1, 24));
    const double density = rng.uniform(0.0, 0.4);
    for (int y = 0; y < g.height(); ++y)
        for (int x = 0; x < g.width(); ++x)
            if (rng.bernoulli(density))
                g.setWalkable({x, y}, false);
    return g;
}

/**
 * Runs one query through aStar and the reference and expects the same
 * answer, path, cost and read set. The expansion counts match too, except
 * that a failed query with bodies, no read log and a map at most
 * GridMap::kMaxMaskWidth wide is answered by aStar's reachability check
 * without searching, so it expands nothing. Returns whether the reference
 * found a path.
 */
bool
matchesReference(const GridMap &g, const Vec2i &start, const Vec2i &goal,
                 bool adjacent_ok, const std::vector<Vec2i> *blocked,
                 bool log_reads)
{
    std::vector<Vec2i> want_reads, got_reads;
    std::size_t want_expanded = 0;
    const auto want =
        referenceAStar(g, start, goal, adjacent_ok, blocked,
                       log_reads ? &want_reads : nullptr, want_expanded);
    const auto got = aStar(g, start, goal, adjacent_ok, blocked,
                           log_reads ? &got_reads : nullptr);

    EXPECT_EQ(got.has_value(), want.has_value());
    if (got.has_value() && want.has_value()) {
        EXPECT_EQ(got->cells, want->cells);
        EXPECT_EQ(got->cost, want->cost);
    }
    const bool short_circuit = !want.has_value() && blocked != nullptr &&
                               !blocked->empty() && !log_reads &&
                               g.width() <= GridMap::kMaxMaskWidth;
    EXPECT_EQ(aStarLastExpanded(), short_circuit ? 0 : want_expanded);
    EXPECT_EQ(got_reads, want_reads);
    return want.has_value();
}

/** The doorway cells of GridMap::apartment(rooms_x, rooms_y, room_w,
 * room_h): the walkable cells on its wall lines. */
std::vector<Vec2i>
doorways(const GridMap &g, int room_w, int room_h)
{
    std::vector<Vec2i> out;
    for (int y = 0; y < g.height(); ++y)
        for (int x = 0; x < g.width(); ++x)
            if (g.walkable({x, y}) &&
                (x % (room_w + 1) == 0 || y % (room_h + 1) == 0))
                out.push_back({x, y});
    return out;
}

/** A uniformly random walkable cell (the map must have one). */
Vec2i
randomWalkable(sim::Rng &rng, const GridMap &g)
{
    for (;;) {
        const Vec2i p{rng.uniformInt(0, g.width() - 1),
                      rng.uniformInt(0, g.height() - 1)};
        if (g.walkable(p))
            return p;
    }
}

/** Bodies on a random half of the doorways plus up to two anywhere, as
 * agents crowd a multi-room apartment: routes are cut often. */
std::vector<Vec2i>
doorwayBodies(sim::Rng &rng, const GridMap &g, int room_w, int room_h)
{
    std::vector<Vec2i> bodies;
    for (const Vec2i &door : doorways(g, room_w, room_h))
        if (rng.bernoulli(0.5))
            bodies.push_back(door);
    const int extra = rng.uniformInt(0, 2);
    for (int k = 0; k < extra; ++k)
        bodies.push_back(randomWalkable(rng, g));
    return bodies;
}

TEST(AStarDifferential, MatchesReferenceOnSeededRandomGrids)
{
    sim::Rng rng(20240613);
    int found = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        // Grids of varying size on one thread also exercise the reused
        // per-thread workspace growing and being re-stamped.
        const GridMap g = randomGrid(rng);
        const Vec2i start = randomCell(rng, g);
        const Vec2i goal = randomCell(rng, g);
        const bool adjacent_ok = rng.bernoulli(0.5);
        std::vector<Vec2i> blocked;
        const int n_blocked = rng.uniformInt(0, 6);
        for (int k = 0; k < n_blocked; ++k)
            blocked.push_back(randomCell(rng, g));
        const bool use_blocked = rng.bernoulli(0.7);
        const bool log_reads = rng.bernoulli(0.7);

        SCOPED_TRACE("trial " + std::to_string(trial));
        if (matchesReference(g, start, goal, adjacent_ok,
                             use_blocked ? &blocked : nullptr, log_reads))
            ++found;
    }
    // The sweep must cover both outcomes, not just trivial failures.
    EXPECT_GT(found, 500);
    EXPECT_LT(found, 3000);

    // Apartments with bodies on doorways: failures are mostly body-cut
    // routes between walkable cells, the case the reachability check
    // answers without searching.
    int door_found = 0;
    for (int trial = 0; trial < 1500; ++trial) {
        const int room_w = rng.uniformInt(3, 7);
        const int room_h = rng.uniformInt(3, 7);
        const GridMap g =
            GridMap::apartment(rng.uniformInt(1, 4), rng.uniformInt(2, 3),
                               room_w, room_h);
        const std::vector<Vec2i> blocked =
            doorwayBodies(rng, g, room_w, room_h);
        const Vec2i start = rng.bernoulli(0.1) && !blocked.empty()
                                ? blocked.front() // start under a body
                                : randomWalkable(rng, g);
        const Vec2i goal = randomWalkable(rng, g);
        SCOPED_TRACE("doorway trial " + std::to_string(trial));
        if (matchesReference(g, start, goal, rng.bernoulli(0.5), &blocked,
                             rng.bernoulli(0.3)))
            ++door_found;
    }
    EXPECT_GT(door_found, 300);
    EXPECT_LT(door_found, 1200);

    // Maps 65-80 cells wide keep no row masks: the check is skipped and
    // every failure still searches.
    int wide_found = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const bool apartment = rng.bernoulli(0.5);
        const int room_w = rng.uniformInt(15, 18);
        const int room_h = rng.uniformInt(3, 5);
        GridMap g = apartment ? GridMap::apartment(4, rng.uniformInt(1, 2),
                                                   room_w, room_h)
                              : GridMap(rng.uniformInt(65, 80),
                                        rng.uniformInt(1, 12));
        std::vector<Vec2i> blocked;
        if (apartment) {
            blocked = doorwayBodies(rng, g, room_w, room_h);
        } else {
            const double density = rng.uniform(0.0, 0.4);
            for (int y = 0; y < g.height(); ++y)
                for (int x = 0; x < g.width(); ++x)
                    if (rng.bernoulli(density))
                        g.setWalkable({x, y}, false);
            const int n_blocked = rng.uniformInt(1, 6);
            for (int k = 0; k < n_blocked; ++k)
                blocked.push_back(randomCell(rng, g));
        }
        ASSERT_FALSE(g.hasRowMasks());
        const Vec2i start = randomCell(rng, g);
        const Vec2i goal = randomCell(rng, g);
        SCOPED_TRACE("wide trial " + std::to_string(trial));
        if (matchesReference(g, start, goal, rng.bernoulli(0.5), &blocked,
                             rng.bernoulli(0.3)))
            ++wide_found;
    }
    EXPECT_GT(wide_found, 50);
    EXPECT_LT(wide_found, 400);
}
} // namespace
} // namespace ebs::plan
