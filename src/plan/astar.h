#ifndef EBS_PLAN_ASTAR_H
#define EBS_PLAN_ASTAR_H

#include <optional>
#include <vector>

#include "env/geom.h"
#include "env/grid.h"

namespace ebs::plan {

/** Result of a grid path query. */
struct GridPath
{
    std::vector<env::Vec2i> cells; ///< start..goal inclusive
    double cost = 0.0;             ///< number of unit moves
};

/**
 * A* shortest path on a GridMap (4-connected, unit edge cost, Manhattan
 * heuristic — admissible and consistent, so the first expansion of the goal
 * is optimal).
 *
 * This is the real low-level planner used by the execution module
 * (substituting the A-star controllers of CoELA / COHERENT / DaDu-E); its
 * compute cost is part of the execution-module latency story.
 *
 * Search state lives in a per-thread workspace reused across calls, so a
 * query allocates only the returned path (and any growth of `queried`).
 * Among open nodes of equal f the deeper one (larger g) pops first, and
 * neighbours are tried in +x, -x, +y, -y order.
 *
 * Bodies are stamped into a per-thread cell mask before the search, so
 * testing a neighbour against `blocked` is O(1) whatever the team size;
 * with `queried` set, each test is still logged in the search's order.
 *
 * Reachability check: when `blocked` is non-empty, `queried` is null and
 * the map keeps row masks (width <= GridMap::kMaxMaskWidth), a bitset
 * flood fill from `start` over the row masks with the body cells cleared
 * runs first. If it reaches no goal cell the query returns nullopt
 * without searching. Otherwise the search runs as it would without the
 * check, so every result and path is the same either way; only
 * aStarLastExpanded() tells the two apart. Queries without bodies skip
 * the check (their failures are rare static ones), and queries that log
 * reads skip it so their read set stays the full search's.
 *
 * @param adjacent_ok when true, reaching any cell adjacent (chebyshev <= 1)
 *                    to the goal counts as arrival — the common case for
 *                    interacting with objects that sit on furniture.
 * @param blocked     extra temporarily-untraversable cells (other agents'
 *                    positions); may be null.
 * @param queried     when non-null, collects every cell whose blocked
 *                    status the search consulted (speculative execution
 *                    logs these as occupancy reads: the search result can
 *                    only change if one of *these* cells changes, so they
 *                    are exactly the path query's occupancy read set).
 * @return nullopt when no path exists.
 */
std::optional<GridPath> aStar(const env::GridMap &grid,
                              const env::Vec2i &start,
                              const env::Vec2i &goal,
                              bool adjacent_ok = false,
                              const std::vector<env::Vec2i> *blocked =
                                  nullptr,
                              std::vector<env::Vec2i> *queried = nullptr);

/** Cells expanded by the most recent aStar call on this thread (for perf
 * tests and hostbench's A* probe). 0 when the reachability check answered the
 * call without searching. */
std::size_t aStarLastExpanded();

} // namespace ebs::plan

#endif // EBS_PLAN_ASTAR_H
