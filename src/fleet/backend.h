/**
 * @file
 * The proxy's view of its backends, decoupled from how they are run.
 * In production the Supervisor (which forks real mgx_serve
 * processes) implements this; tests implement it with in-process
 * serve::Servers so routing, failover and stats aggregation are unit
 * testable without fork/exec.
 */

#ifndef MGX_FLEET_BACKEND_H
#define MGX_FLEET_BACKEND_H

#include <mutex>
#include <string>
#include <vector>

#include "serve/front_door.h"

namespace mgx::fleet {

class BackendDirectory
{
  public:
    virtual ~BackendDirectory() = default;

    /** Stable backend names ("w0".."wN-1"): the hash-ring nodes.
     *  Fixed after start — a restarted worker keeps its name, which
     *  is what keeps ring ownership stable across crashes. */
    virtual std::vector<std::string> backendNames() const = 0;

    /** Where @p name listens. Stable across restarts. */
    virtual serve::SocketAddress address(
        const std::string &name) const = 0;

    /** True while @p name is believed able to serve (alive and
     *  passing health probes). Routing prefers in-rotation backends
     *  but may still try out-of-rotation ones as a last resort —
     *  probe state lags reality in both directions. */
    virtual bool inRotation(const std::string &name) const = 0;

    /** One JSON object describing per-backend state, embedded into
     *  the proxy's /stats document. */
    virtual std::string statusJson() const = 0;
};

/** A fixed set of backends; rotation is externally toggled (tests). */
class StaticDirectory : public BackendDirectory
{
  public:
    void add(const std::string &name,
             const serve::SocketAddress &addr)
    {
        std::lock_guard<std::mutex> lock(mu_);
        names_.push_back(name);
        addrs_.push_back(addr);
        rotation_.push_back(true);
    }

    void setInRotation(const std::string &name, bool in)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < names_.size(); ++i)
            if (names_[i] == name)
                rotation_[i] = in;
    }

    std::vector<std::string> backendNames() const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        return names_;
    }

    serve::SocketAddress address(
        const std::string &name) const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < names_.size(); ++i)
            if (names_[i] == name)
                return addrs_[i];
        return {};
    }

    bool inRotation(const std::string &name) const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < names_.size(); ++i)
            if (names_[i] == name)
                return rotation_[i];
        return false;
    }

    std::string statusJson() const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::string out = "{";
        for (std::size_t i = 0; i < names_.size(); ++i) {
            if (i)
                out += ", ";
            out += "\"" + names_[i] + "\": {\"inRotation\": " +
                   (rotation_[i] ? "true" : "false") + "}";
        }
        return out + "}";
    }

  private:
    mutable std::mutex mu_;
    std::vector<std::string> names_;
    std::vector<serve::SocketAddress> addrs_;
    std::vector<bool> rotation_;
};

} // namespace mgx::fleet

#endif // MGX_FLEET_BACKEND_H
