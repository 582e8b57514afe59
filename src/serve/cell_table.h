/**
 * @file
 * mgx_serve's one table of grid cells, keyed by CellKey::key(). An
 * entry is either running — the first caller (the leader) simulates
 * the cell on its own thread while later callers for the key wait on
 * it — or finished, kept in LRU order up to a capacity so a repeat
 * skips the engine. A cell's record is deterministic (each cell
 * simulates on fresh state), so a kept record is bitwise what a
 * re-run would produce.
 *
 * The leader publishes the finished record under the same lock that
 * ends the run, so no caller can miss both the run and its record. If
 * the run throws (a deadline stopped the cell), the exception reaches
 * the leader and every waiter, and the key leaves the table: the next
 * caller runs the cell afresh under its own deadline.
 */

#ifndef MGX_SERVE_CELL_TABLE_H
#define MGX_SERVE_CELL_TABLE_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/experiment.h"

namespace mgx::serve {

class CellTable
{
  public:
    /** @p capacity finished records kept; 0 keeps none. */
    explicit CellTable(std::size_t capacity) : capacity_(capacity) {}

    /** How get() came by its record. */
    enum class Source
    {
        Ran,    ///< this caller ran the cell
        Joined, ///< waited on another caller's run
        Kept,   ///< a finished entry answered
    };

    struct Answer
    {
        sim::RunRecord record;
        Source source = Source::Ran;
    };

    /**
     * The record for @p key: a finished entry's, the running entry's
     * once it finishes, or else @p run's, called on this thread. An
     * exception from the run is rethrown to every caller that waited
     * on it.
     */
    template <typename Run>
    Answer
    get(const std::string &key, Run &&run)
    {
        std::unique_lock<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            if (const Entry &kept = *it->second; !kept.running) {
                order_.splice(order_.begin(), order_, kept.order);
                return {kept.record, Source::Kept};
            }
            const std::shared_ptr<Entry> entry = it->second;
            ++entry->waiters;
            entry->done.wait(lock, [&] { return !entry->running; });
            if (entry->error)
                std::rethrow_exception(entry->error);
            return {entry->record, Source::Joined};
        }
        // Only this leader removes a running entry, so `it` stays valid
        // while the lock is released for the run.
        const auto entry = std::make_shared<Entry>();
        it = entries_.emplace(key, entry).first;
        lock.unlock();

        Answer answer;
        std::exception_ptr error;
        try {
            answer.record = run();
        } catch (...) {
            error = std::current_exception();
        }

        lock.lock();
        entry->running = false;
        entry->error = error;
        if (!error)
            entry->record = answer.record;
        if (error || capacity_ == 0) {
            entries_.erase(it);
        } else {
            order_.push_front(key);
            entry->order = order_.begin();
            while (order_.size() > capacity_) {
                entries_.erase(order_.back());
                order_.pop_back();
            }
        }
        lock.unlock();
        entry->done.notify_all();
        if (error)
            std::rethrow_exception(error);
        return answer;
    }

    /**
     * Callers waiting on @p key's run (0 when it is not running). Lets
     * tests park a leader until every concurrent caller has provably
     * joined, making collapse counts exact instead of racy.
     */
    std::size_t
    waiters(const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        return it != entries_.end() && it->second->running
                   ? it->second->waiters
                   : 0;
    }

    /** Finished records kept. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return order_.size();
    }

  private:
    /** Shared so a waiter can read it after the key has left. */
    struct Entry
    {
        bool running = true;
        std::size_t waiters = 0;
        std::condition_variable done;
        sim::RunRecord record;
        std::exception_ptr error;
        std::list<std::string>::iterator order; ///< kept entries only
    };

    const std::size_t capacity_;
    mutable std::mutex mu_; ///< guards everything below and each Entry
    std::map<std::string, std::shared_ptr<Entry>> entries_;
    std::list<std::string> order_; ///< kept keys, most recent first
};

} // namespace mgx::serve

#endif // MGX_SERVE_CELL_TABLE_H
