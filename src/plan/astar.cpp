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
 * are valid only while its stamp equals the current generation, and a cell
 * holds a body only while its body stamp does, so a new search invalidates
 * every cell by bumping the generation instead of clearing the arrays. The
 * open list and the reachability rows keep their capacity between calls.
 */
struct Workspace
{
    std::vector<std::uint32_t> stamp;
    std::vector<std::uint32_t> body;
    std::vector<std::int32_t> g_score;
    std::vector<std::int32_t> parent;
    std::vector<Node> open;
    std::vector<std::uint64_t> open_rows;
    std::vector<std::uint64_t> reach_rows;
    std::uint32_t generation = 0;

    /** Start a search over `cells` cells: every cell reads as unvisited
     * and body-free. */
    void
    begin(std::size_t cells)
    {
        if (stamp.size() < cells) {
            stamp.resize(cells, 0);
            body.resize(cells, 0);
            g_score.resize(cells);
            parent.resize(cells);
        }
        if (++generation == 0) {
            std::fill(stamp.begin(), stamp.end(), 0);
            std::fill(body.begin(), body.end(), 0);
            generation = 1;
        }
        open.clear();
    }
};

thread_local Workspace workspace;

/**
 * Every bit of `open` joined to a bit of `seed` by a run of set bits of
 * `open`; `seed` must be a subset of `open`. A Kogge-Stone occluded fill
 * towards higher and towards lower bits, six doubling steps each.
 */
std::uint64_t
rowFill(std::uint64_t seed, std::uint64_t open)
{
    std::uint64_t hi = seed;
    std::uint64_t lo = seed;
    std::uint64_t hi_open = open;
    std::uint64_t lo_open = open;
    for (int shift = 1; shift < 64; shift *= 2) {
        hi |= hi_open & (hi << shift);
        lo |= lo_open & (lo >> shift);
        hi_open &= hi_open << shift;
        lo_open &= lo_open >> shift;
    }
    return hi | lo;
}

/**
 * Whether the search can reach a goal cell: a 4-connected flood fill from
 * `start` over the grid's row masks with the body cells cleared. `start`
 * counts as free even under a body (the search never tests it). Goal
 * cells are `goal`, or with `adjacent_ok` every cell within chebyshev
 * distance 1 of it. Rows are filled whole with rowFill, and downward and
 * upward sweeps alternate until a goal cell is reached or a sweep adds
 * nothing. Requires grid.hasRowMasks() and in-bounds, distinct start and
 * goal cells.
 */
bool
goalReachable(const env::GridMap &grid, const env::Vec2i &start,
              const env::Vec2i &goal, bool adjacent_ok,
              const std::vector<env::Vec2i> &blocked, Workspace &ws)
{
    const int w = grid.width();
    const int h = grid.height();
    const auto rows = static_cast<std::size_t>(h);
    ws.open_rows.resize(rows);
    ws.reach_rows.assign(rows, 0);
    std::uint64_t *const open = ws.open_rows.data();
    std::uint64_t *const reach = ws.reach_rows.data();
    auto bit = [](int x) { return std::uint64_t{1} << x; };

    for (int y = 0; y < h; ++y)
        open[y] = grid.rowMask(y);
    for (const env::Vec2i &b : blocked)
        if (grid.inBounds(b))
            open[b.y] &= ~bit(b.x);
    open[start.y] |= bit(start.x);

    int goal_y0 = goal.y;
    int goal_y1 = goal.y;
    std::uint64_t goal_bits = bit(goal.x);
    if (adjacent_ok) {
        goal_y0 = std::max(0, goal.y - 1);
        goal_y1 = std::min(h - 1, goal.y + 1);
        const int x_hi = std::min(w - 1, goal.x + 1);
        const int x_lo = std::max(0, goal.x - 1);
        goal_bits = ((bit(x_hi) - 1) | bit(x_hi)) & ~(bit(x_lo) - 1);
    }
    auto reaches_goal = [&](int y) {
        return y >= goal_y0 && y <= goal_y1 && (reach[y] & goal_bits) != 0;
    };
    // Grow row y from its neighbour row `from`; true when it gained cells.
    auto grow = [&](int y, int from) {
        const std::uint64_t seed = reach[from] & open[y] & ~reach[y];
        if (seed == 0)
            return false;
        reach[y] |= rowFill(seed, open[y]);
        return true;
    };

    reach[start.y] = rowFill(bit(start.x), open[start.y]);
    if (reaches_goal(start.y))
        return true;
    // After a sweep every row is closed under growth from its neighbour
    // on the sweep's side, so a later sweep that adds nothing means the
    // fill is complete.
    for (bool down = true, first = true;; down = !down, first = false) {
        bool grew = false;
        if (down) {
            for (int y = 1; y < h; ++y)
                if (grow(y, y - 1)) {
                    if (reaches_goal(y))
                        return true;
                    grew = true;
                }
        } else {
            for (int y = h - 2; y >= 0; --y)
                if (grow(y, y + 1)) {
                    if (reaches_goal(y))
                        return true;
                    grew = true;
                }
        }
        if (!grew && !first)
            return false;
    }
}

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

    auto at_goal = [&](const env::Vec2i &p) {
        return adjacent_ok ? env::chebyshev(p, goal) <= 1 : p == goal;
    };
    if (at_goal(start))
        return GridPath{{start}, 0.0};

    Workspace &ws = workspace;
    const bool has_bodies = blocked != nullptr && !blocked->empty();
    if (has_bodies && queried == nullptr && grid.hasRowMasks() &&
        !goalReachable(grid, start, goal, adjacent_ok, *blocked, ws))
        return std::nullopt;

    const int w = grid.width();
    const int h = grid.height();
    ws.begin(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
    const std::uint32_t gen = ws.generation;
    std::uint32_t *const stamp = ws.stamp.data();
    std::uint32_t *const body = ws.body.data();
    std::int32_t *const g_score = ws.g_score.data();
    std::int32_t *const parent = ws.parent.data();

    auto index = [&](const env::Vec2i &p) { return p.y * w + p.x; };
    if (has_bodies)
        for (const env::Vec2i &b : *blocked)
            if (grid.inBounds(b))
                body[index(b)] = gen;
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
            if (!grid.walkable(q))
                continue;
            if (queried != nullptr)
                queried->push_back(q);
            const int qi = index(q);
            if (has_bodies && body[qi] == gen)
                continue;
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
