#include "plan/astar.h"

#include <algorithm>
#include <cstdint>
#include <functional>

namespace ebs::plan {

namespace {

thread_local std::size_t last_expanded = 0;

struct Node
{
    int f;
    int g;
    int idx;

    bool
    operator>(const Node &o) const
    {
        // Tie-break on larger g (deeper nodes first) for faster goal pops.
        return f != o.f ? f > o.f : g < o.g;
    }
};

/**
 * Per-thread search state reused across calls. A cell's g_score and parent
 * are valid only while its stamp equals the current generation, so a new
 * search invalidates every cell by bumping the generation instead of
 * clearing the arrays. The open list keeps its capacity between calls.
 */
struct Workspace
{
    std::vector<std::uint32_t> stamp;
    std::vector<std::int32_t> g_score;
    std::vector<std::int32_t> parent;
    std::vector<Node> open;
    std::uint32_t generation = 0;

    /** Start a search over `cells` cells: every cell reads as unvisited. */
    void
    begin(std::size_t cells)
    {
        if (stamp.size() < cells) {
            stamp.resize(cells, 0);
            g_score.resize(cells);
            parent.resize(cells);
        }
        if (++generation == 0) {
            std::fill(stamp.begin(), stamp.end(), 0);
            generation = 1;
        }
        open.clear();
    }
};

thread_local Workspace workspace;

} // namespace

std::size_t
aStarLastExpanded()
{
    return last_expanded;
}

std::optional<GridPath>
aStar(const env::GridMap &grid, const env::Vec2i &start,
      const env::Vec2i &goal, bool adjacent_ok,
      const std::vector<env::Vec2i> *blocked,
      std::vector<env::Vec2i> *queried)
{
    last_expanded = 0;
    if (!grid.inBounds(start) || !grid.inBounds(goal))
        return std::nullopt;
    if (!grid.walkable(start))
        return std::nullopt;

    auto is_blocked = [&](const env::Vec2i &p) {
        if (queried != nullptr)
            queried->push_back(p);
        if (blocked == nullptr)
            return false;
        for (const auto &b : *blocked)
            if (b == p)
                return true;
        return false;
    };

    auto at_goal = [&](const env::Vec2i &p) {
        return adjacent_ok ? env::chebyshev(p, goal) <= 1 : p == goal;
    };
    if (at_goal(start))
        return GridPath{{start}, 0.0};

    const int w = grid.width();
    const int h = grid.height();
    Workspace &ws = workspace;
    ws.begin(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
    const std::uint32_t gen = ws.generation;
    std::uint32_t *const stamp = ws.stamp.data();
    std::int32_t *const g_score = ws.g_score.data();
    std::int32_t *const parent = ws.parent.data();

    auto index = [&](const env::Vec2i &p) { return p.y * w + p.x; };
    auto heuristic = [&](const env::Vec2i &p) {
        const int d = env::manhattan(p, goal);
        return adjacent_ok ? std::max(0, d - 1) : d;
    };

    // A binary heap under std::greater, driven by push_heap/pop_heap
    // exactly as std::priority_queue drives its container, so equal-key
    // nodes pop in the same order.
    std::vector<Node> &open = ws.open;
    const std::greater<Node> later;
    const int start_idx = index(start);
    stamp[start_idx] = gen;
    g_score[start_idx] = 0;
    parent[start_idx] = -1;
    open.push_back({heuristic(start), 0, start_idx});

    static constexpr env::Vec2i kDirs[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    while (!open.empty()) {
        std::pop_heap(open.begin(), open.end(), later);
        const Node cur = open.back();
        open.pop_back();
        const env::Vec2i p{cur.idx % w, cur.idx / w};
        if (cur.g > g_score[cur.idx])
            continue; // stale heap entry
        ++last_expanded;

        if (at_goal(p)) {
            GridPath path;
            path.cost = cur.g;
            for (int idx = cur.idx; idx >= 0; idx = parent[idx])
                path.cells.push_back({idx % w, idx / w});
            std::reverse(path.cells.begin(), path.cells.end());
            return path;
        }

        for (const auto &d : kDirs) {
            const env::Vec2i q = p + d;
            if (!grid.walkable(q) || is_blocked(q))
                continue;
            const int qi = index(q);
            const int ng = cur.g + 1;
            if (stamp[qi] != gen || ng < g_score[qi]) {
                stamp[qi] = gen;
                g_score[qi] = ng;
                parent[qi] = cur.idx;
                open.push_back({ng + heuristic(q), ng, qi});
                std::push_heap(open.begin(), open.end(), later);
            }
        }
    }
    return std::nullopt;
}

} // namespace ebs::plan
