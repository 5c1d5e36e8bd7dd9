#include "fleet_plan.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

namespace ebs::bench {

std::map<std::string, double>
readTimelineDurations(const std::string &path)
{
    std::map<std::string, double> durations;
    // Only a regular file can hold a previous timeline: reading a device
    // such as /dev/full or /dev/zero as one would never end.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec))
        return durations;
    std::ifstream in(path);
    if (!in)
        return durations;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    static const std::string kName = "\"name\": \"";
    static const std::string kWall = "\"wall_seconds\": ";
    std::size_t pos = 0;
    while ((pos = text.find(kName, pos)) != std::string::npos) {
        pos += kName.size();
        const std::size_t name_end = text.find('"', pos);
        if (name_end == std::string::npos)
            break;
        const std::string name = text.substr(pos, name_end - pos);
        const std::size_t wall_at = text.find(kWall, name_end);
        const std::size_t next_name = text.find(kName, name_end);
        // The wall_seconds must belong to this entry, not a later one.
        if (wall_at == std::string::npos ||
            (next_name != std::string::npos && wall_at > next_name)) {
            pos = name_end;
            continue;
        }
        // Skip entries whose wall_seconds doesn't parse as a clean
        // number (strtod consuming nothing, or a non-JSON tail): a
        // corrupt timeline entry should fall back to "unknown duration"
        // rather than feed garbage into the schedule.
        const char *wall_start = text.c_str() + wall_at + kWall.size();
        char *wall_end = nullptr;
        const double wall = std::strtod(wall_start, &wall_end);
        const bool clean_tail =
            wall_end != wall_start &&
            (*wall_end == ',' || *wall_end == '}' || *wall_end == '\n' ||
             *wall_end == '\r' || *wall_end == ' ' || *wall_end == '\0');
        if (clean_tail && wall > 0.0)
            durations[name] = wall;
        pos = name_end;
    }
    return durations;
}

std::vector<std::size_t>
scheduleOrder(const std::vector<std::string> &names,
              const std::map<std::string, double> &durations)
{
    std::vector<std::size_t> order(names.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    if (durations.empty())
        return order;
    const auto duration_of = [&](std::size_t i) {
        const auto it = durations.find(names[i]);
        return it == durations.end()
                   ? std::numeric_limits<double>::infinity()
                   : it->second;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return duration_of(a) > duration_of(b);
                     });
    return order;
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (begin <= list.size()) {
        const std::size_t comma = list.find(',', begin);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > begin)
            out.push_back(list.substr(begin, end - begin));
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return out;
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    // Single-row Levenshtein: row[j] holds the distance between the
    // first i characters of `a` and the first j of `b`.
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diagonal = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t substitute =
                diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
            diagonal = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
        }
    }
    return row[b.size()];
}

std::vector<std::string>
nearMissCandidates(const std::string &entry,
                   const std::vector<std::string> &names,
                   std::size_t limit)
{
    static const std::string kPrefix = "bench_";
    const std::size_t budget =
        std::max<std::size_t>(2, entry.size() / 3);

    struct Scored
    {
        std::size_t distance;
        std::size_t position; ///< list order tie-break
    };
    std::vector<std::pair<Scored, std::string>> scored;
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::size_t distance = editDistance(entry, names[i]);
        if (names[i].rfind(kPrefix, 0) == 0)
            distance = std::min(
                distance,
                editDistance(entry, names[i].substr(kPrefix.size())));
        if (distance <= budget)
            scored.push_back({{distance, i}, names[i]});
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto &a, const auto &b) {
                  if (a.first.distance != b.first.distance)
                      return a.first.distance < b.first.distance;
                  return a.first.position < b.first.position;
              });
    std::vector<std::string> out;
    for (const auto &[score, name] : scored) {
        if (out.size() >= limit)
            break;
        out.push_back(name);
    }
    return out;
}

SuiteResolution
resolveSuite(const std::string &entry,
             const std::vector<std::string> &names)
{
    SuiteResolution resolution;
    std::vector<std::size_t> substring_hits;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == entry || names[i] == "bench_" + entry) {
            resolution.index = i;
            return resolution;
        }
        if (names[i].find(entry) != std::string::npos)
            substring_hits.push_back(i);
    }
    if (substring_hits.size() == 1) {
        resolution.index = substring_hits[0];
        return resolution;
    }
    if (!substring_hits.empty()) {
        resolution.ambiguous = true;
        for (const std::size_t i : substring_hits)
            resolution.candidates.push_back(names[i]);
        return resolution;
    }
    resolution.candidates = nearMissCandidates(entry, names);
    return resolution;
}

} // namespace ebs::bench
