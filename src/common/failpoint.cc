#include "common/failpoint.h"

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

namespace mgx::failpoint {

namespace {

enum class Mode { Off, Times, EveryN, Prob, Always };

/** xorshift-free minimal LCG: deterministic, per-point stream. */
u32
lcgNext(u64 *state)
{
    *state = *state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<u32>(*state >> 33);
}

u64
fnv1a(std::string_view s)
{
    u64 h = 14695981039346656037ull;
    for (char c : s)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return h;
}

} // namespace

struct Point::State {
    mutable std::mutex mu;
    Mode mode = Mode::Off;
    u64 n = 0;           // Times / EveryN parameter
    u32 probPermille = 0; // Prob threshold out of 1000000
    u64 rng = 0;
    u64 evaluations = 0;
    u64 hits = 0;
    std::string spec = "off";
};

class Registry
{
  public:
    static Registry &instance()
    {
        static Registry reg;
        return reg;
    }

    Point &get(std::string_view name)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = points_.find(std::string(name));
        if (it != points_.end())
            return *it->second;
        auto point =
            std::unique_ptr<Point>(new Point(std::string(name)));
        Point &ref = *point;
        points_.emplace(ref.name(), std::move(point));
        auto pending = pending_.find(ref.name());
        if (pending != pending_.end()) {
            ref.arm(pending->second);
            pending_.erase(pending);
        }
        return ref;
    }

    bool armSpec(const std::string &name, const std::string &spec,
                 std::string *error)
    {
        std::unique_lock<std::mutex> lk(mu_);
        auto it = points_.find(name);
        if (it == points_.end()) {
            // Hold until the point registers (env arming can run
            // before the owning translation unit's statics).
            pending_[name] = spec;
            return true;
        }
        Point &point = *it->second;
        lk.unlock();
        if (!point.arm(spec)) {
            if (error != nullptr)
                *error = "bad failpoint spec '" + spec + "' for '" +
                         name + "'";
            return false;
        }
        return true;
    }

    void disarmAll()
    {
        std::lock_guard<std::mutex> lk(mu_);
        pending_.clear();
        for (auto &entry : points_)
            entry.second->disarm();
    }

    void resetCounters()
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto &entry : points_) {
            std::lock_guard<std::mutex> plk(entry.second->state_->mu);
            entry.second->state_->evaluations = 0;
            entry.second->state_->hits = 0;
        }
    }

    std::vector<PointInfo> all()
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::vector<PointInfo> out;
        out.reserve(points_.size());
        for (const auto &entry : points_) {
            const Point &point = *entry.second;
            out.push_back({point.name(), point.spec(),
                           point.evaluations(), point.hits()});
        }
        return out;
    }

  private:
    Registry()
    {
        if (const char *env = std::getenv("MGX_FAILPOINTS"))
            parseListLocked(env);
    }

    /** Ctor-only: no registered points yet, everything is pending. */
    void parseListLocked(const std::string &list)
    {
        std::size_t pos = 0;
        while (pos < list.size()) {
            std::size_t end = list.find(',', pos);
            if (end == std::string::npos)
                end = list.size();
            const std::string entry = list.substr(pos, end - pos);
            const std::size_t eq = entry.find('=');
            if (eq != std::string::npos && eq > 0)
                pending_[entry.substr(0, eq)] = entry.substr(eq + 1);
            pos = end + 1;
        }
    }

    std::mutex mu_;
    // Points are heap-owned and never destroyed while the process
    // lives; &*value stays stable across rehashes.
    std::map<std::string, std::unique_ptr<Point>> points_;
    std::map<std::string, std::string> pending_;
};

Point::Point(std::string name)
    : state_(std::make_unique<State>()), name_(std::move(name))
{
}

Point::~Point() = default;

Point &
Point::get(std::string_view name)
{
    return Registry::instance().get(name);
}

bool
Point::fire()
{
    std::lock_guard<std::mutex> lk(state_->mu);
    ++state_->evaluations;
    bool hit = false;
    switch (state_->mode) {
    case Mode::Off:
        break;
    case Mode::Times:
        if (state_->n > 0) {
            --state_->n;
            hit = true;
        }
        break;
    case Mode::EveryN:
        hit = state_->evaluations % state_->n == 0;
        break;
    case Mode::Prob:
        hit = lcgNext(&state_->rng) % 1000000u < state_->probPermille;
        break;
    case Mode::Always:
        hit = true;
        break;
    }
    if (hit)
        ++state_->hits;
    return hit;
}

bool
Point::arm(const std::string &spec)
{
    Mode mode;
    u64 n = 0;
    u32 prob = 0;
    u64 seed = fnv1a(name_);
    if (spec == "off") {
        mode = Mode::Off;
    } else if (spec == "once") {
        mode = Mode::Times;
        n = 1;
    } else if (spec == "always") {
        mode = Mode::Always;
    } else if (spec.rfind("times:", 0) == 0) {
        mode = Mode::Times;
        char *end = nullptr;
        n = std::strtoull(spec.c_str() + 6, &end, 10);
        if (end == nullptr || *end != '\0' || n == 0)
            return false;
    } else if (spec.rfind("every:", 0) == 0) {
        mode = Mode::EveryN;
        char *end = nullptr;
        n = std::strtoull(spec.c_str() + 6, &end, 10);
        if (end == nullptr || *end != '\0' || n == 0)
            return false;
    } else if (spec.rfind("prob:", 0) == 0) {
        mode = Mode::Prob;
        char *end = nullptr;
        const double p = std::strtod(spec.c_str() + 5, &end);
        if (end == nullptr || p < 0.0 || p > 1.0)
            return false;
        if (*end == ':') {
            char *seedEnd = nullptr;
            seed = std::strtoull(end + 1, &seedEnd, 10);
            if (seedEnd == nullptr || *seedEnd != '\0')
                return false;
        } else if (*end != '\0') {
            return false;
        }
        prob = static_cast<u32>(p * 1000000.0);
    } else {
        return false;
    }
    std::lock_guard<std::mutex> lk(state_->mu);
    state_->mode = mode;
    state_->n = n;
    state_->probPermille = prob;
    state_->rng = seed;
    state_->spec = spec;
    return true;
}

void
Point::disarm()
{
    std::lock_guard<std::mutex> lk(state_->mu);
    state_->mode = Mode::Off;
    state_->n = 0;
    state_->spec = "off";
}

std::string
Point::spec() const
{
    std::lock_guard<std::mutex> lk(state_->mu);
    return state_->spec;
}

u64
Point::evaluations() const
{
    std::lock_guard<std::mutex> lk(state_->mu);
    return state_->evaluations;
}

u64
Point::hits() const
{
    std::lock_guard<std::mutex> lk(state_->mu);
    return state_->hits;
}

bool
armSpecList(const std::string &list, std::string *error)
{
    std::size_t pos = 0;
    while (pos < list.size()) {
        std::size_t end = list.find(',', pos);
        if (end == std::string::npos)
            end = list.size();
        const std::string entry = list.substr(pos, end - pos);
        pos = end + 1;
        if (entry.empty())
            continue;
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0) {
            if (error != nullptr)
                *error = "bad failpoint entry '" + entry +
                         "' (want name=spec)";
            return false;
        }
        if (!Registry::instance().armSpec(
                entry.substr(0, eq), entry.substr(eq + 1), error))
            return false;
    }
    return true;
}

void
disarmAll()
{
    Registry::instance().disarmAll();
}

void
resetCounters()
{
    Registry::instance().resetCounters();
}

std::vector<PointInfo>
all()
{
    return Registry::instance().all();
}

} // namespace mgx::failpoint
