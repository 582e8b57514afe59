#include "fleet.h"

#include "common/log.h"

namespace mgx::fleet {

/// How long start() waits for the first worker to answer /healthz
/// before serving anyway (workers may still be warming).
constexpr int kReadyTimeoutMs = 10000;

Fleet::Fleet(FleetOptions opts)
    : opts_(std::move(opts))
{
    supervisor_ = std::make_unique<Supervisor>(opts_.supervisor);
    proxy_ = std::make_unique<Proxy>(opts_.proxy, supervisor_.get());
}

Fleet::~Fleet()
{
    shutdown();
}

void
Fleet::start()
{
    if (started_)
        return;
    started_ = true;
    supervisor_->start();
    if (!supervisor_->waitUntilReady(kReadyTimeoutMs))
        MGX_WARN("mgx_fleet: no worker became healthy within %d ms; "
                 "serving anyway (requests fail over until one "
                 "does)",
                 kReadyTimeoutMs);
    proxy_->start();
}

void
Fleet::shutdown()
{
    if (!started_ || shutdown_)
        return;
    shutdown_ = true;
    // Front door first so no request arrives at a dying worker.
    proxy_->shutdown();
    supervisor_->shutdown();
}

} // namespace mgx::fleet
