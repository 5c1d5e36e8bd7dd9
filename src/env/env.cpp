#include "env/env.h"

#include <cassert>
#include <cstdlib>
#include <stdexcept>

namespace ebs::env {

namespace {

/** The anchor of every room id in [0, roomCount), in one row-major pass
 * (see Environment::roomAnchor for the definition). */
std::vector<Vec2i>
computeRoomAnchors(const GridMap &grid)
{
    const int rooms = grid.roomCount();
    std::vector<Vec2i> best(static_cast<std::size_t>(rooms), Vec2i{-1, -1});
    std::vector<long> best_score(static_cast<std::size_t>(rooms), -1);
    std::vector<Vec2i> fallback(static_cast<std::size_t>(rooms),
                                Vec2i{-1, -1});
    static const Vec2i kDirs[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    for (int y = 0; y < grid.height(); ++y) {
        for (int x = 0; x < grid.width(); ++x) {
            const Vec2i p{x, y};
            const int room = grid.room(p);
            if (room < 0 || room >= rooms || !grid.walkable(p))
                continue;
            const auto r = static_cast<std::size_t>(room);
            if (fallback[r].x < 0)
                fallback[r] = p;
            bool interior = true;
            for (const auto &d : kDirs) {
                const int neighbor_room = grid.room(p + d);
                if (neighbor_room >= 0 && neighbor_room != room)
                    interior = false;
            }
            if (!interior)
                continue;
            // Nearest the grid centre (doubled to stay integral); strict
            // comparison keeps the first cell in row-major order on ties.
            const long score = -(std::abs(2 * x - grid.width()) +
                                 std::abs(2 * y - grid.height()));
            if (best[r].x < 0 || score > best_score[r]) {
                best[r] = p;
                best_score[r] = score;
            }
        }
    }
    for (std::size_t r = 0; r < best.size(); ++r)
        if (best[r].x < 0)
            best[r] = fallback[r];
    return best;
}

} // namespace

const char *
difficultyName(Difficulty d)
{
    switch (d) {
      case Difficulty::Easy:
        return "easy";
      case Difficulty::Medium:
        return "medium";
      case Difficulty::Hard:
        return "hard";
    }
    return "?";
}

Environment::Environment(GridMap grid)
    : world_(std::move(grid))
{
}

World &
Environment::world()
{
    if (World *snapshot = spec::activeSnapshot(this))
        return *snapshot;
    return world_;
}

const World &
Environment::world() const
{
    if (World *snapshot = spec::activeSnapshot(this))
        return *snapshot;
    return world_;
}

void
Environment::setTask(std::unique_ptr<Task> task)
{
    assert(task != nullptr);
    assert(task_ == nullptr && "task installed twice");
    task_ = std::move(task);
    room_anchors_ = computeRoomAnchors(world_.grid());
    anchors_revision_ = world_.grid().revision();
}

const Task &
Environment::task() const
{
    assert(task_ != nullptr && "environment has no task installed");
    return *task_;
}

Observation
Environment::observe(int agent_id, int step) const
{
    const AgentBody &body = world_.agent(agent_id);
    Observation obs;
    obs.agent_id = agent_id;
    obs.step = step;
    obs.self_pos = body.pos;
    obs.room = world_.grid().room(body.pos);
    obs.carrying = body.carrying != kNoObject;
    obs.carried = body.carrying;

    for (const auto &obj : world_.objects()) {
        // Visible if in the agent's room; contents of closed containers
        // stay hidden (the agent must open them to look inside).
        const Vec2i pos = world_.effectivePos(obj.id);
        if (world_.grid().room(pos) != obs.room)
            continue;
        if (obj.inside != kNoObject) {
            const Object &container = world_.object(obj.inside);
            if (container.openable && !container.open)
                continue;
        }
        ObservedObject seen;
        seen.id = obj.id;
        seen.cls = obj.cls;
        seen.kind = obj.kind;
        seen.state = obj.state;
        seen.pos = pos;
        seen.room = obs.room;
        seen.inside = obj.inside;
        seen.held_by = obj.held_by;
        seen.openable = obj.openable;
        seen.open = obj.open;
        obs.objects.push_back(seen);
    }
    return obs;
}

ActionResult
Environment::applyPrimitive(int agent_id, const Primitive &prim)
{
    switch (prim.op) {
      case PrimOp::Chop:
      case PrimOp::Cook:
      case PrimOp::Craft:
      case PrimOp::Mine:
      case PrimOp::Lift: {
        World *snapshot = spec::activeSnapshot(this);
        if (snapshot != nullptr && !domainOpsSpeculationSafe()) {
            // Domain rules of this environment read/write env-local state
            // the snapshot cannot isolate — discard the speculative run;
            // the coordinator re-executes this agent serially, where
            // applyDomain acts on the live world as usual.
            if (spec::AccessLog *log = snapshot->accessLog())
                log->abort("domain primitive in non-speculable environment");
            return ActionResult::failure(
                "domain primitive deferred to serial re-execution");
        }
        return applyDomain(agent_id, prim);
      }
      default:
        return world().applySpatial(agent_id, prim);
    }
}

int
Environment::actionSpaceSize(int agent_id) const
{
    return static_cast<int>(validSubgoals(agent_id).size());
}

Vec2i
Environment::roomAnchor(int room) const
{
    if (task_ == nullptr)
        throw std::logic_error(
            "Environment::roomAnchor: no anchor table (setTask not called)");
    if (anchors_revision_ != world_.grid().revision())
        throw std::logic_error(
            "Environment::roomAnchor: grid mutated after setTask, anchor "
            "table is stale");
    if (room < 0 || static_cast<std::size_t>(room) >= room_anchors_.size())
        return {-1, -1};
    return room_anchors_[static_cast<std::size_t>(room)];
}

} // namespace ebs::env
