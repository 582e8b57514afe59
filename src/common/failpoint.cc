#include "common/failpoint.h"

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "common/log.h"
#include "common/parse.h"

namespace mgx::failpoint {

namespace {

enum class Mode { Off, Once, EveryN, Always };

/** Parse one arm spec (see failpoint.h). False = malformed. */
bool
parseSpec(const std::string &spec, Mode *mode, u64 *n)
{
    if (spec == "off") {
        *mode = Mode::Off;
    } else if (spec == "once") {
        *mode = Mode::Once;
        *n = 1;
    } else if (spec == "always") {
        *mode = Mode::Always;
    } else if (spec.rfind("every:", 0) == 0) {
        *mode = Mode::EveryN;
        if (!parseDecimal(spec.c_str() + 6, ~u64{0}, *n) || *n == 0)
            return false;
    } else {
        return false;
    }
    return true;
}

/**
 * Split a comma-separated `name=spec` list and hand each well-formed
 * entry to @p arm in order. On the first malformed entry, fill
 * @p error with a message naming it and return false; the entries
 * before it have been handed over.
 */
template <typename Arm>
bool
forEachEntry(const std::string &list, std::string *error, const Arm &arm)
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
        Mode mode = Mode::Off;
        u64 n = 0;
        if (eq == std::string::npos || eq == 0 ||
            !parseSpec(entry.substr(eq + 1), &mode, &n)) {
            if (error != nullptr)
                *error = "bad failpoint entry '" + entry +
                         "' (want name=off|once|every:N|always)";
            return false;
        }
        arm(entry.substr(0, eq), entry.substr(eq + 1));
    }
    return true;
}

} // namespace

struct Point::State {
    mutable std::mutex mu;
    Mode mode = Mode::Off;
    u64 n = 0; // Once: shots left; EveryN: the period
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
            ref.arm(pending->second); // checked when it was held
            pending_.erase(pending);
        }
        return ref;
    }

    /** Arm @p name with a well-formed @p spec, or hold it until the
     *  point registers (env arming can run before the owning
     *  translation unit's statics). */
    void armSpec(const std::string &name, const std::string &spec)
    {
        std::unique_lock<std::mutex> lk(mu_);
        auto it = points_.find(name);
        if (it == points_.end()) {
            pending_[name] = spec;
            return;
        }
        Point &point = *it->second;
        lk.unlock();
        point.arm(spec);
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
        // No point has registered yet, so every entry is held. A
        // malformed entry is fatal: a misspelled fault drill must not
        // run as a drill that injects nothing.
        const char *env = std::getenv("MGX_FAILPOINTS");
        std::string error;
        if (env != nullptr &&
            !forEachEntry(env, &error,
                          [this](const std::string &name,
                                 const std::string &spec) {
                              pending_[name] = spec;
                          }))
            fatal("MGX_FAILPOINTS: %s", error.c_str());
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
    case Mode::Once:
        hit = state_->n > 0;
        state_->n = 0;
        break;
    case Mode::EveryN:
        hit = state_->evaluations % state_->n == 0;
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
    Mode mode = Mode::Off;
    u64 n = 0;
    if (!parseSpec(spec, &mode, &n))
        return false;
    std::lock_guard<std::mutex> lk(state_->mu);
    state_->mode = mode;
    state_->n = n;
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
    return forEachEntry(list, error,
                        [](const std::string &name,
                           const std::string &spec) {
                            Registry::instance().armSpec(name, spec);
                        });
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
