#ifndef EBS_ENV_GRID_H
#define EBS_ENV_GRID_H

#include <cstdint>
#include <vector>

#include "env/geom.h"

namespace ebs::env {

/**
 * 2-D occupancy grid with room labels.
 *
 * Rooms drive partial observability: an agent sees objects in its current
 * room only, mirroring the egocentric views of TDW / VirtualHome. Walls are
 * non-walkable cells; doorways connect rooms.
 *
 * Arguments are checked in every build type: a non-positive size, an
 * out-of-bounds write, a room id that does not fit the 16-bit label store,
 * or a degenerate apartment throws (std::invalid_argument /
 * std::out_of_range) instead of corrupting the map.
 *
 * Walkability is stored twice: a byte per cell, which walkable() reads,
 * and — on maps at most kMaxMaskWidth cells wide — one 64-bit mask per
 * row (bit x of rowMask(y) is walkable({x, y})), which lets whole-row
 * bitset sweeps such as A*'s reachability check run without touching
 * the byte array. setWalkable keeps both in step.
 */
class GridMap
{
  public:
    /** An all-walkable map of the given size, single room 0. */
    GridMap(int width, int height);

    int width() const { return width_; }
    int height() const { return height_; }

    bool
    inBounds(const Vec2i &p) const
    {
        return p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_;
    }

    bool
    walkable(const Vec2i &p) const
    {
        return inBounds(p) && walkable_[idx(p)] != 0;
    }

    void setWalkable(const Vec2i &p, bool w);

    /** Widest map that keeps per-row walkable masks. */
    static constexpr int kMaxMaskWidth = 64;

    /** True when the map keeps row masks (width() <= kMaxMaskWidth). */
    bool hasRowMasks() const { return !row_mask_.empty(); }

    /**
     * Walkable mask of row y: bit x is set iff walkable({x, y}); bits at
     * and above width() are clear. Requires hasRowMasks() and
     * 0 <= y < height().
     */
    std::uint64_t
    rowMask(int y) const
    {
        return row_mask_[static_cast<std::size_t>(y)];
    }

    /** Room id of a cell (-1 for walls / out of bounds). */
    int
    room(const Vec2i &p) const
    {
        return inBounds(p) ? room_[idx(p)] : -1;
    }

    void setRoom(const Vec2i &p, int room);

    /** Number of distinct room labels assigned so far. */
    int roomCount() const { return room_count_; }

    /**
     * Count of mutations (setWalkable / setRoom) applied so far. Tables
     * derived from the map record the revision they were built at, so a
     * later mutation makes them detectably stale.
     */
    std::uint64_t revision() const { return revision_; }

    /** 4-connected walkable neighbors of a cell. */
    std::vector<Vec2i> neighbors(const Vec2i &p) const;

    /**
     * Build a rooms_x by rooms_y apartment: each room is room_w x room_h
     * cells, separated by one-cell walls with a centered doorway between
     * horizontally and vertically adjacent rooms. Room ids are assigned in
     * row-major order. Requires rooms_x, rooms_y >= 1 and room_w, room_h
     * >= 3.
     */
    static GridMap apartment(int rooms_x, int rooms_y, int room_w,
                             int room_h);

  private:
    std::size_t
    idx(const Vec2i &p) const
    {
        return static_cast<std::size_t>(p.y) *
                   static_cast<std::size_t>(width_) +
               static_cast<std::size_t>(p.x);
    }

    /** Throws std::out_of_range naming `what` unless `p` is in bounds. */
    void requireInBounds(const Vec2i &p, const char *what) const;

    int width_;
    int height_;
    int room_count_ = 1;
    std::uint64_t revision_ = 0;
    std::vector<std::uint8_t> walkable_;
    /** One mask per row when width_ <= kMaxMaskWidth, else empty. */
    std::vector<std::uint64_t> row_mask_;
    std::vector<std::int16_t> room_;
};

} // namespace ebs::env

#endif // EBS_ENV_GRID_H
