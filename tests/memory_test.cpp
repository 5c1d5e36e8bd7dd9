#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <stdexcept>
#include <tuple>

#include "memory/memory.h"

namespace ebs::memory {
namespace {

env::Observation
makeObs(int step, int room, std::vector<std::pair<env::ObjectId, env::Vec2i>>
                                sightings)
{
    env::Observation obs;
    obs.agent_id = 0;
    obs.step = step;
    obs.room = room;
    for (const auto &[id, pos] : sightings) {
        env::ObservedObject seen;
        seen.id = id;
        seen.pos = pos;
        seen.room = room;
        obs.objects.push_back(seen);
    }
    return obs;
}

MemoryModule
makeMemory(int capacity, bool enabled = true)
{
    MemoryModule::Config cfg;
    cfg.enabled = enabled;
    cfg.capacity_steps = capacity;
    return MemoryModule(cfg, sim::Rng(5));
}

TEST(Memory, RemembersObservedObjects)
{
    auto mem = makeMemory(10);
    mem.recordObservation(makeObs(0, 2, {{7, {3, 4}}}));
    EXPECT_TRUE(mem.knowsObject(7));
    const auto belief = mem.belief(7);
    ASSERT_TRUE(belief.has_value());
    EXPECT_EQ(belief->pos, (env::Vec2i{3, 4}));
    EXPECT_EQ(belief->room, 2);
}

TEST(Memory, LatestBeliefWins)
{
    auto mem = makeMemory(10);
    mem.recordObservation(makeObs(0, 1, {{7, {1, 1}}}));
    mem.recordObservation(makeObs(1, 1, {{7, {5, 5}}}));
    EXPECT_EQ(mem.belief(7)->pos, (env::Vec2i{5, 5}));
}

TEST(Memory, CapacityWindowPrunes)
{
    auto mem = makeMemory(5);
    mem.recordObservation(makeObs(0, 1, {{7, {1, 1}}}));
    mem.advanceStep(4);
    EXPECT_TRUE(mem.knowsObject(7));
    mem.advanceStep(6); // record at step 0 falls outside a 5-step window
    EXPECT_FALSE(mem.knowsObject(7));
}

TEST(Memory, UnlimitedCapacityNeverPrunes)
{
    auto mem = makeMemory(0);
    mem.recordObservation(makeObs(0, 1, {{7, {1, 1}}}));
    mem.advanceStep(10000);
    EXPECT_TRUE(mem.knowsObject(7));
}

TEST(Memory, DisabledStoresNothing)
{
    auto mem = makeMemory(10, /*enabled=*/false);
    mem.recordObservation(makeObs(0, 1, {{7, {1, 1}}}));
    mem.recordAction(0, "PickUp", true);
    EXPECT_FALSE(mem.knowsObject(7));
    EXPECT_EQ(mem.liveRecords(), 0u);
    EXPECT_DOUBLE_EQ(mem.retrievalLatency(), 0.0);
    EXPECT_EQ(mem.retrieve(0).totalTokens(), 0);
}

TEST(Memory, KnownObjectsDeduplicated)
{
    auto mem = makeMemory(10);
    mem.recordObservation(makeObs(0, 1, {{7, {1, 1}}, {8, {2, 2}}}));
    mem.recordObservation(makeObs(1, 1, {{7, {3, 3}}}));
    const auto known = mem.knownObjects();
    EXPECT_EQ(known.size(), 2u);
    // Newest sighting of 7 is the belief.
    for (const auto &rec : known)
        if (rec.id == 7) {
            EXPECT_EQ(rec.pos, (env::Vec2i{3, 3}));
        }
}

TEST(Memory, VisitedRoomsTracked)
{
    auto mem = makeMemory(10);
    mem.recordObservation(makeObs(0, 2, {}));
    mem.recordObservation(makeObs(1, 3, {}));
    const auto rooms = mem.visitedRooms();
    EXPECT_EQ(rooms.size(), 2u);
    EXPECT_TRUE(rooms.count(2) > 0);
    EXPECT_EQ(mem.lastVisit(3), 1);
    EXPECT_EQ(mem.lastVisit(9), -1);
}

TEST(Memory, RoomVisitsForgottenOutsideWindow)
{
    auto mem = makeMemory(5);
    mem.recordObservation(makeObs(0, 2, {}));
    mem.advanceStep(10);
    EXPECT_EQ(mem.lastVisit(2), -1);
}

TEST(Memory, SharedBeliefsIntegrate)
{
    auto mem = makeMemory(10);
    ObservationRecord rec;
    rec.id = 9;
    rec.pos = {4, 4};
    rec.room = 1;
    mem.recordSharedBelief(3, rec);
    EXPECT_TRUE(mem.knowsObject(9));
    EXPECT_EQ(mem.belief(9)->step, 3);
}

TEST(Memory, RetrievalTokensGrowWithContent)
{
    auto mem = makeMemory(50);
    const auto empty = mem.retrieve(0);
    EXPECT_EQ(empty.totalTokens(), 0);

    mem.recordObservation(makeObs(0, 1, {{1, {1, 1}}, {2, {2, 2}}}));
    mem.recordAction(0, "PickUp(obj 1)", true);
    mem.recordDialogue({0, 1, 0, 40, true});
    const auto ctx = mem.retrieve(1);
    EXPECT_GT(ctx.observation_tokens, 0);
    EXPECT_GT(ctx.action_tokens, 0);
    EXPECT_EQ(ctx.dialogue_tokens, 40);
    EXPECT_EQ(ctx.known_objects, 2);
}

TEST(Memory, RetrievalLatencyGrowsWithRecords)
{
    auto mem = makeMemory(0);
    const double before = mem.retrievalLatency();
    for (int step = 0; step < 50; ++step)
        mem.recordObservation(makeObs(step, 1, {{1, {1, 1}}, {2, {2, 2}}}));
    EXPECT_GT(mem.retrievalLatency(), before);
}

TEST(Memory, InconsistencyAppearsAtScale)
{
    MemoryModule::Config cfg;
    cfg.capacity_steps = 0; // unlimited
    cfg.inconsistency_onset = 100;
    cfg.inconsistency_rate = 5e-4;
    MemoryModule mem(cfg, sim::Rng(11));
    for (int step = 0; step < 400; ++step)
        mem.recordObservation(
            makeObs(step, 1, {{step % 20, {step % 7, step % 5}}}));
    int stale = 0;
    for (int i = 0; i < 50; ++i)
        stale += mem.retrieve(400).stale_beliefs;
    EXPECT_GT(stale, 0);
}

TEST(Memory, SmallStoreHasNoInconsistency)
{
    auto mem = makeMemory(10);
    mem.recordObservation(makeObs(0, 1, {{1, {1, 1}}}));
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(mem.retrieve(1).stale_beliefs, 0);
}

TEST(Memory, DualMemoryKeepsFixturesForever)
{
    MemoryModule::Config cfg;
    cfg.capacity_steps = 5;
    cfg.dual_memory = true;
    MemoryModule mem(cfg, sim::Rng(13));

    env::Observation obs = makeObs(0, 1, {});
    env::ObservedObject station;
    station.id = 3;
    station.cls = env::ObjectClass::Station;
    station.pos = {2, 2};
    station.room = 1;
    obs.objects.push_back(station);
    env::ObservedObject item;
    item.id = 4;
    item.cls = env::ObjectClass::Item;
    item.pos = {3, 3};
    item.room = 1;
    obs.objects.push_back(item);
    mem.recordObservation(obs);

    mem.advanceStep(50); // both fall outside the short-term window
    EXPECT_TRUE(mem.knowsObject(3));  // fixture survives in long-term
    EXPECT_FALSE(mem.knowsObject(4)); // item is forgotten
}

TEST(Memory, DualMemoryCompressesRetrieval)
{
    MemoryModule::Config base_cfg;
    base_cfg.capacity_steps = 0;
    MemoryModule plain(base_cfg, sim::Rng(17));
    base_cfg.dual_memory = true;
    MemoryModule dual(base_cfg, sim::Rng(17));

    for (int step = 0; step < 30; ++step) {
        const auto obs = makeObs(step, 1, {{step % 6, {1, 1}}});
        plain.recordObservation(obs);
        dual.recordObservation(obs);
    }
    EXPECT_LE(dual.retrieve(30).observation_tokens,
              plain.retrieve(30).observation_tokens);
}

TEST(Memory, ConsecutiveFailuresCounted)
{
    auto mem = makeMemory(20);
    mem.recordAction(0, "a", true);
    mem.recordAction(1, "b", false);
    mem.recordAction(2, "c", false);
    EXPECT_EQ(mem.recentConsecutiveFailures(), 2);
    mem.recordAction(3, "d", true);
    EXPECT_EQ(mem.recentConsecutiveFailures(), 0);
}

TEST(Memory, ClearEmptiesEverything)
{
    auto mem = makeMemory(20);
    mem.recordObservation(makeObs(0, 1, {{1, {1, 1}}}));
    mem.recordAction(0, "a", true);
    mem.clear();
    EXPECT_EQ(mem.liveRecords(), 0u);
    EXPECT_FALSE(mem.knowsObject(1));
    EXPECT_TRUE(mem.visitedRooms().empty());
}

/** Property sweep: live records never exceed what the window admits. */
class MemoryCapacitySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MemoryCapacitySweep, WindowBoundsRecords)
{
    const int capacity = GetParam();
    auto mem = makeMemory(capacity);
    for (int step = 0; step < 200; ++step) {
        mem.recordObservation(makeObs(step, 1, {{1, {1, 1}}}));
        mem.recordAction(step, "x", true);
        mem.advanceStep(step);
    }
    // One observation + one action per step inside the window.
    EXPECT_LE(mem.liveRecords(), static_cast<std::size_t>(2 * capacity));
}

INSTANTIATE_TEST_SUITE_P(Windows, MemoryCapacitySweep,
                         ::testing::Values(1, 5, 10, 30, 60));

TEST(Memory, RejectsNegativeObjectIds)
{
    auto mem = makeMemory(10);
    EXPECT_THROW(mem.recordObservation(makeObs(0, 1, {{-1, {1, 1}}})),
                 std::invalid_argument);
    ObservationRecord rec;
    rec.id = env::kNoObject;
    EXPECT_THROW(mem.recordSharedBelief(0, rec), std::invalid_argument);
    EXPECT_EQ(mem.liveRecords(), 0u);
}

// ---------------------------------------------------------------------------
// Differential check: the indexed MemoryModule against a brute-force model
// that rescans its stores on every read (a std::set of seen ids, a token
// sum over the dialogue window). Both draw from equally seeded streams, so
// the same number of inconsistency draws yields the same stale_beliefs.

class BruteForceMemory
{
  public:
    BruteForceMemory(MemoryModule::Config config, sim::Rng rng)
        : config_(config), rng_(rng)
    {
    }

    void
    recordObservation(const env::Observation &obs)
    {
        if (!config_.enabled)
            return;
        current_step_ = std::max(current_step_, obs.step);
        for (const auto &seen : obs.objects) {
            ObservationRecord rec;
            rec.step = obs.step;
            rec.id = seen.id;
            rec.cls = seen.cls;
            rec.kind = seen.kind;
            rec.pos = seen.pos;
            rec.room = seen.room;
            observations_.push_back(rec);
            if (config_.dual_memory && seen.cls != env::ObjectClass::Item) {
                auto it = std::find_if(
                    long_term_.begin(), long_term_.end(),
                    [&](const ObservationRecord &r) { return r.id == rec.id; });
                if (it == long_term_.end())
                    long_term_.push_back(rec);
                else
                    *it = rec;
            }
        }
    }

    void
    recordSharedBelief(int step, ObservationRecord rec)
    {
        if (!config_.enabled)
            return;
        rec.step = step;
        observations_.push_back(rec);
    }

    void
    recordAction(int step)
    {
        if (config_.enabled)
            action_steps_.push_back(step);
    }

    void
    recordDialogue(const DialogueRecord &record)
    {
        if (config_.enabled)
            dialogue_.push_back(record);
    }

    void
    advanceStep(int step)
    {
        current_step_ = std::max(current_step_, step);
        if (!config_.enabled || config_.capacity_steps <= 0)
            return;
        const auto outside = [&](int s) {
            return s <= current_step_ - config_.capacity_steps;
        };
        while (!observations_.empty() && outside(observations_.front().step))
            observations_.pop_front();
        while (!action_steps_.empty() && outside(action_steps_.front()))
            action_steps_.pop_front();
        while (!dialogue_.empty() && outside(dialogue_.front().step))
            dialogue_.pop_front();
    }

    void
    invalidate(env::ObjectId id)
    {
        std::erase_if(observations_,
                      [&](const ObservationRecord &r) { return r.id == id; });
        std::erase_if(long_term_,
                      [&](const ObservationRecord &r) { return r.id == id; });
    }

    void
    clear()
    {
        observations_.clear();
        action_steps_.clear();
        dialogue_.clear();
        long_term_.clear();
        current_step_ = 0;
    }

    std::vector<ObservationRecord>
    knownObjects() const
    {
        std::vector<ObservationRecord> out;
        if (!config_.enabled)
            return out;
        std::set<env::ObjectId> seen;
        for (auto it = observations_.rbegin(); it != observations_.rend();
             ++it)
            if (seen.insert(it->id).second)
                out.push_back(*it);
        for (const auto &rec : long_term_)
            if (seen.insert(rec.id).second)
                out.push_back(rec);
        return out;
    }

    RetrievedContext
    retrieve(int step)
    {
        RetrievedContext ctx;
        if (!config_.enabled)
            return ctx;
        current_step_ = std::max(current_step_, step);
        const auto known = knownObjects();
        const int n = static_cast<int>(known.size());
        ctx.known_objects = n;
        ctx.observation_tokens =
            config_.dual_memory
                ? n * 5 + static_cast<int>(long_term_.size()) * 2
                : n * 9;
        ctx.action_tokens = static_cast<int>(action_steps_.size()) * 7;
        for (const auto &d : dialogue_)
            ctx.dialogue_tokens += d.tokens;
        const std::size_t live = liveRecords();
        if (live > static_cast<std::size_t>(config_.inconsistency_onset)) {
            double p = (static_cast<double>(live) -
                        config_.inconsistency_onset) *
                       config_.inconsistency_rate;
            if (!config_.multimodal_retrieval)
                p *= 2.0;
            if (config_.dual_memory)
                p *= 0.3;
            for (int k = 0; k < n; ++k)
                if (rng_.bernoulli(std::min(0.5, p)))
                    ++ctx.stale_beliefs;
        }
        return ctx;
    }

    std::size_t
    liveRecords() const
    {
        return observations_.size() + action_steps_.size() +
               dialogue_.size() + long_term_.size();
    }

  private:
    MemoryModule::Config config_;
    sim::Rng rng_;
    int current_step_ = 0;
    std::deque<ObservationRecord> observations_;
    std::deque<int> action_steps_;
    std::deque<DialogueRecord> dialogue_;
    std::vector<ObservationRecord> long_term_;
};

class MemoryDifferential
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(MemoryDifferential, RetrieveMatchesBruteForce)
{
    const auto [window, dual] = GetParam();
    MemoryModule::Config cfg;
    cfg.capacity_steps = window;
    cfg.dual_memory = dual;
    // A low onset and a high rate make the inconsistency draws frequent.
    cfg.inconsistency_onset = 30;
    cfg.inconsistency_rate = 5e-3;
    const std::uint64_t seed = 977 + static_cast<std::uint64_t>(window);
    MemoryModule mem(cfg, sim::Rng(seed));
    BruteForceMemory ref(cfg, sim::Rng(seed));

    sim::Rng ops(4242 + static_cast<std::uint64_t>(window) * 2 + dual);
    const auto randomRecord = [&] {
        ObservationRecord rec;
        rec.id = ops.uniformInt(0, 39);
        rec.cls = static_cast<env::ObjectClass>(ops.uniformInt(0, 4));
        rec.kind = ops.uniformInt(0, 5);
        rec.pos = {ops.uniformInt(0, 20), ops.uniformInt(0, 20)};
        rec.room = ops.uniformInt(0, 5);
        return rec;
    };
    // Retrieves from both at `step`, compares field by field, and returns
    // the stale-belief count.
    const auto expectSame = [&](int step) {
        const RetrievedContext got = mem.retrieve(step);
        const RetrievedContext want = ref.retrieve(step);
        EXPECT_EQ(got.known_objects, want.known_objects);
        EXPECT_EQ(got.observation_tokens, want.observation_tokens);
        EXPECT_EQ(got.action_tokens, want.action_tokens);
        EXPECT_EQ(got.dialogue_tokens, want.dialogue_tokens);
        EXPECT_EQ(got.stale_beliefs, want.stale_beliefs);
        const auto got_known = mem.knownObjects();
        const auto want_known = ref.knownObjects();
        EXPECT_EQ(got_known.size(), want_known.size());
        for (std::size_t i = 0;
             i < std::min(got_known.size(), want_known.size()); ++i) {
            EXPECT_EQ(got_known[i].id, want_known[i].id);
            EXPECT_EQ(got_known[i].step, want_known[i].step);
            EXPECT_EQ(got_known[i].cls, want_known[i].cls);
            EXPECT_EQ(got_known[i].pos, want_known[i].pos);
        }
        return want.stale_beliefs;
    };

    int step = 0;
    int stale_total = 0;
    for (int op = 0; op < 4000; ++op) {
        const double r = ops.uniform();
        if (r < 0.35) {
            env::Observation obs;
            obs.step = step;
            obs.room = ops.uniformInt(0, 5);
            const int seen = ops.uniformInt(0, 6);
            for (int k = 0; k < seen; ++k) {
                const ObservationRecord rec = randomRecord();
                env::ObservedObject o;
                o.id = rec.id;
                o.cls = rec.cls;
                o.kind = rec.kind;
                o.pos = rec.pos;
                o.room = obs.room;
                obs.objects.push_back(o);
            }
            mem.recordObservation(obs);
            ref.recordObservation(obs);
        } else if (r < 0.45) {
            const ObservationRecord rec = randomRecord();
            mem.recordSharedBelief(step, rec);
            ref.recordSharedBelief(step, rec);
        } else if (r < 0.55) {
            mem.recordAction(step, "subgoal", ops.bernoulli(0.5));
            ref.recordAction(step);
        } else if (r < 0.65) {
            DialogueRecord d;
            d.step = step;
            d.tokens = ops.uniformInt(0, 120);
            mem.recordDialogue(d);
            ref.recordDialogue(d);
        } else if (r < 0.80) {
            step += ops.uniformInt(0, 4);
            mem.advanceStep(step);
            ref.advanceStep(step);
        } else if (r < 0.84) {
            const env::ObjectId id = ops.uniformInt(-1, 45);
            mem.invalidate(id);
            ref.invalidate(id);
        } else if (r < 0.845) {
            mem.clear();
            ref.clear();
            step = 0;
        } else {
            SCOPED_TRACE("op " + std::to_string(op));
            stale_total += expectSame(step);
            if (HasFailure())
                return;
        }
        ASSERT_EQ(mem.liveRecords(), ref.liveRecords()) << "op " << op;
    }
    // The inconsistency path must actually have drawn.
    EXPECT_GT(stale_total, 0);
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndDualMemory, MemoryDifferential,
    ::testing::Combine(::testing::Values(0, 40, 512), ::testing::Bool()));

} // namespace
} // namespace ebs::memory
