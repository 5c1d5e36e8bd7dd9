#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "envs/grid_env.h"
#include "envs/predicate_task.h"
#include "workloads/workload.h"

namespace ebs::env {
namespace {

/**
 * The anchor by definition, one full-grid scan per room: the interior cell
 * (walkable, labelled `room`, no 4-neighbour in another room) nearest the
 * grid centre, first in row-major order on ties; otherwise the room's
 * first walkable cell.
 */
Vec2i
bruteForceAnchor(const GridMap &grid, int room)
{
    Vec2i best{-1, -1};
    long best_score = -1;
    static const Vec2i kDirs[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    for (int y = 0; y < grid.height(); ++y) {
        for (int x = 0; x < grid.width(); ++x) {
            const Vec2i p{x, y};
            if (!grid.walkable(p) || grid.room(p) != room)
                continue;
            bool interior = true;
            for (const auto &d : kDirs) {
                const int neighbor_room = grid.room(p + d);
                if (neighbor_room >= 0 && neighbor_room != room)
                    interior = false;
            }
            if (!interior)
                continue;
            const long score = -(std::abs(2 * x - grid.width()) +
                                 std::abs(2 * y - grid.height()));
            if (best.x < 0 || score > best_score) {
                best = p;
                best_score = score;
            }
        }
    }
    for (int y = 0; y < grid.height() && best.x < 0; ++y)
        for (int x = 0; x < grid.width() && best.x < 0; ++x)
            if (grid.walkable({x, y}) && grid.room({x, y}) == room)
                best = {x, y};
    return best;
}

TEST(RoomAnchors, TableMatchesBruteForceForEveryWorkloadEnvironment)
{
    int checked = 0;
    for (const auto &spec : workloads::suite()) {
        for (const Difficulty d :
             {Difficulty::Easy, Difficulty::Medium, Difficulty::Hard}) {
            for (const std::uint64_t seed : {1u, 7u, 2024u}) {
                const auto environment =
                    spec.make_env(d, spec.default_agents, sim::Rng(seed));
                const GridMap &grid = environment->world().grid();
                // One id past each end: outside [0, roomCount) has no anchor.
                for (int room = -1; room <= grid.roomCount(); ++room) {
                    EXPECT_EQ(environment->roomAnchor(room),
                              bruteForceAnchor(grid, room))
                        << spec.name << " " << difficultyName(d) << " seed "
                        << seed << " room " << room;
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 14 * 3 * 3 * 2);
}

TEST(RoomAnchors, GridMutationAfterSetTaskMakesTheTableFailLoudly)
{
    const auto environment = workloads::workload("CoELA").make_env(
        Difficulty::Easy, 2, sim::Rng(3));
    ASSERT_NO_THROW(environment->roomAnchor(0));
    environment->world().grid().setWalkable({0, 0}, false);
    EXPECT_THROW(environment->roomAnchor(0), std::logic_error);
}

/** A bare grid environment; installs a task (and so builds its anchor
 * table) only when asked. */
class BareEnv : public envs::GridEnvironment
{
  public:
    BareEnv(GridMap grid, bool install_task)
        : GridEnvironment(std::move(grid))
    {
        if (install_task)
            setTask(std::make_unique<envs::PredicateTask>(
                "nothing", Difficulty::Easy, 1,
                [](const World &) { return 0.0; }));
    }

    std::string domainName() const override { return "bare"; }

    std::vector<Subgoal>
    usefulSubgoals(int) const override
    {
        return {};
    }

    std::vector<Subgoal>
    validSubgoals(int) const override
    {
        return {};
    }
};

TEST(RoomAnchors, RoomWithoutInteriorFallsBackToItsFirstCell)
{
    // Room 1 is a one-cell-wide column between rooms 0 and 2: each of its
    // cells borders another room, so it has no interior cell.
    GridMap grid(5, 4);
    for (int y = 0; y < 4; ++y) {
        grid.setRoom({2, y}, 1);
        grid.setRoom({3, y}, 2);
        grid.setRoom({4, y}, 2);
    }
    grid.setWalkable({2, 0}, false);
    const BareEnv environment(grid, /*install_task=*/true);
    EXPECT_EQ(environment.roomAnchor(1), (Vec2i{2, 1}));
    for (int room = -1; room <= 3; ++room)
        EXPECT_EQ(environment.roomAnchor(room), bruteForceAnchor(grid, room))
            << "room " << room;
}

TEST(RoomAnchors, MissingTableFailsLoudly)
{
    const BareEnv environment(GridMap(5, 5), /*install_task=*/false);
    EXPECT_THROW(environment.roomAnchor(0), std::logic_error);
}

} // namespace
} // namespace ebs::env
