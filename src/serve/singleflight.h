/**
 * @file
 * In-process request coalescing: concurrent run(key, fn) calls with
 * equal keys execute fn exactly once — the first caller (the leader)
 * computes while the rest (followers) block on the shared entry and
 * wake with the same result, so N clients on one key cost one engine
 * run in mgx_serve. The leader computes on its own thread; a deadline
 * is fn's to enforce (mgx_serve's cells stop themselves and throw),
 * and its followers then rethrow the same error.
 */

#ifndef MGX_SERVE_SINGLEFLIGHT_H
#define MGX_SERVE_SINGLEFLIGHT_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace mgx::serve {

template <typename T>
class SingleFlight
{
  public:
    /** run()'s result: the shared value, and who computed it. */
    struct Outcome
    {
        std::shared_ptr<const T> value;
        bool leader = false;
    };

    /**
     * If no call for @p key is in flight, invoke @p fn and wake every
     * follower that joined meanwhile; otherwise wait for the in-flight
     * leader. If the leader's fn throws, the exception is rethrown in
     * the leader *and* every follower. The key is retired before
     * followers wake, so a later run() with the same key computes
     * afresh — a result must not be served forever, only shared with
     * the callers that overlapped its computation.
     */
    template <typename Fn>
    Outcome
    run(const std::string &key, Fn &&fn)
    {
        std::shared_ptr<Entry> entry;
        bool leader = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = inflight_.find(key);
            if (it == inflight_.end()) {
                entry = std::make_shared<Entry>();
                inflight_.emplace(key, entry);
                leader = true;
            } else {
                entry = it->second;
                ++entry->waiters;
            }
        }

        if (!leader) {
            std::unique_lock<std::mutex> lk(entry->m);
            entry->cv.wait(lk, [&] { return entry->done; });
            if (entry->error)
                std::rethrow_exception(entry->error);
            return {entry->value, false};
        }

        std::shared_ptr<const T> value;
        std::exception_ptr error;
        try {
            value = std::make_shared<const T>(fn());
        } catch (...) {
            error = std::current_exception();
        }
        {
            // Retire the key first: run() calls arriving from here on
            // start a fresh flight instead of joining a finished one.
            std::lock_guard<std::mutex> lock(mu_);
            inflight_.erase(key);
        }
        {
            std::lock_guard<std::mutex> lk(entry->m);
            entry->value = value;
            entry->error = error;
            entry->done = true;
        }
        entry->cv.notify_all();
        if (error)
            std::rethrow_exception(error);
        return {value, true};
    }

    /**
     * Followers currently blocked on @p key (0 when no flight is
     * open). Lets tests park a leader until every concurrent request
     * has provably joined the flight, making collapse counts exact
     * instead of racy.
     */
    std::size_t
    waiters(const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = inflight_.find(key);
        return it == inflight_.end() ? 0 : it->second->waiters;
    }

  private:
    struct Entry
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        std::shared_ptr<const T> value;
        std::exception_ptr error;
        std::size_t waiters = 0; ///< guarded by SingleFlight::mu_
    };

    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<Entry>> inflight_;
};

} // namespace mgx::serve

#endif // MGX_SERVE_SINGLEFLIGHT_H
