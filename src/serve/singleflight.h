/**
 * @file
 * In-process request coalescing: concurrent run(key, fn) calls with
 * equal keys execute fn exactly once — the first caller (the leader)
 * computes while the rest (followers) block on the shared entry and
 * wake with the same result, so N clients on one key cost one engine
 * run in mgx_serve.
 */

#ifndef MGX_SERVE_SINGLEFLIGHT_H
#define MGX_SERVE_SINGLEFLIGHT_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

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
     * run() with a deadline: like run(), but the computation happens
     * on a detached background thread and the caller waits at most
     * @p timeout for it. On timeout the returned Outcome has a null
     * value — the flight itself keeps running in the background, so
     * the engine work is never duplicated or abandoned half-done:
     * later calls with the same key join it as followers, and when it
     * completes the key retires normally (a completed-but-unclaimed
     * result is simply dropped; correctness never depended on serving
     * it). If fn throws, every waiter that did not time out rethrows.
     *
     * The background thread references this SingleFlight, so the
     * owner must drainBackground() before destroying it — the
     * destructor does so as a backstop.
     */
    template <typename Fn>
    Outcome
    runFor(const std::string &key, Fn &&fn,
           std::chrono::milliseconds timeout)
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
                ++background_;
            } else {
                entry = it->second;
                ++entry->waiters;
            }
        }

        if (leader) {
            std::thread([this, entry, key,
                         fn = std::forward<Fn>(fn)]() mutable {
                std::shared_ptr<const T> value;
                std::exception_ptr error;
                try {
                    value = std::make_shared<const T>(fn());
                } catch (...) {
                    error = std::current_exception();
                }
                {
                    // Compare-erase: only retire the key if it still
                    // maps to *this* flight (a racing future flight
                    // must not lose its registration).
                    std::lock_guard<std::mutex> lock(mu_);
                    auto it = inflight_.find(key);
                    if (it != inflight_.end() && it->second == entry)
                        inflight_.erase(it);
                }
                {
                    std::lock_guard<std::mutex> lk(entry->m);
                    entry->value = std::move(value);
                    entry->error = error;
                    entry->done = true;
                }
                entry->cv.notify_all();
                {
                    // Notify under the lock: a drainBackground()er
                    // may destroy this object the instant it sees
                    // background_ hit zero, so the notify must not
                    // touch bgcv_ after the lock is released.
                    std::lock_guard<std::mutex> lock(mu_);
                    --background_;
                    bgcv_.notify_all();
                }
            }).detach();
        }

        std::unique_lock<std::mutex> lk(entry->m);
        if (!entry->cv.wait_for(lk, timeout,
                                [&] { return entry->done; }))
            return {nullptr, leader}; // deadline hit; flight continues
        if (entry->error)
            std::rethrow_exception(entry->error);
        return {entry->value, leader};
    }

    /**
     * Block until every detached runFor() leader thread has finished.
     * Unbounded by design: an engine run cannot be cancelled, only
     * disowned, and disowning it at shutdown would tear down the
     * process under a live simulation.
     */
    void
    drainBackground()
    {
        std::unique_lock<std::mutex> lock(mu_);
        bgcv_.wait(lock, [&] { return background_ == 0; });
    }

    /** Detached leader threads still running (diagnostics/tests). */
    std::size_t
    backgroundRuns() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return background_;
    }

    ~SingleFlight() { drainBackground(); }

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
    std::condition_variable bgcv_;
    std::map<std::string, std::shared_ptr<Entry>> inflight_;
    std::size_t background_ = 0; ///< live detached leaders (see runFor)
};

} // namespace mgx::serve

#endif // MGX_SERVE_SINGLEFLIGHT_H
