/**
 * @file
 * The fleet facade: one object that owns the Supervisor (N forked
 * mgx_serve workers on unix sockets) and the
 * Proxy (consistent-hash routing + failover front end), wired
 * together. mgx_fleet and bench_serve_load --fleet drive this.
 */

#ifndef MGX_FLEET_FLEET_H
#define MGX_FLEET_FLEET_H

#include <memory>

#include "proxy.h"
#include "supervisor.h"

namespace mgx::fleet {

struct FleetOptions
{
    SupervisorOptions supervisor;
    ProxyOptions proxy;
};

class Fleet
{
  public:
    explicit Fleet(FleetOptions opts);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Spawn the workers, wait for first readiness, open the front
     *  door. */
    void start();

    /** Drain the proxy, then stop the workers. Idempotent. */
    void shutdown();

    /** True once a /shutdown request (or shutdown()) began a drain. */
    bool stopping() const { return proxy_->stopping(); }

    Supervisor &supervisor() { return *supervisor_; }
    Proxy &proxy() { return *proxy_; }

  private:
    FleetOptions opts_;
    std::unique_ptr<Supervisor> supervisor_;
    std::unique_ptr<Proxy> proxy_;
    bool started_ = false;
    bool shutdown_ = false;
};

} // namespace mgx::fleet

#endif // MGX_FLEET_FLEET_H
