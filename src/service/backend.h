/**
 * @file
 * The transport-agnostic face of the tuning service.
 *
 * Transports (the src/net wire server, the in-process examples, test
 * stubs) program against this interface only, so the serving layer
 * and the tuning pipeline evolve independently: a transport cares
 * that a batch of TuneRequests is eventually answered through one
 * completion call, not how models are cached or searches scheduled.
 * TuningService (service.h) is the production implementation.
 */

#ifndef DAC_SERVICE_BACKEND_H
#define DAC_SERVICE_BACKEND_H

#include <exception>
#include <functional>
#include <vector>

#include "service/request.h"

namespace dac::service {

/** One answered request: the response, or the error it failed with. */
struct TuneOutcome
{
    TuneResponse response;
    /** Non-null when the request failed; `response` is then empty. */
    std::exception_ptr error;
};

/**
 * A batch's completion: outcomes line up index-for-index with the
 * submitted batch. Must not throw.
 */
using BatchDone = std::function<void(std::vector<TuneOutcome>)>;

class TuningBackend
{
  public:
    virtual ~TuningBackend() = default;

    /**
     * Serve requests that arrived together (e.g. frames drained from
     * one connection in one readiness cycle) and call `done` exactly
     * once, when every item is answered. `done` may run on a backend
     * worker, or inline on the calling thread when the backend answers
     * at once (a stub, or a saturated queue), so it must neither block
     * nor take locks the caller holds.
     */
    virtual void submitBatch(std::vector<TuneRequest> batch,
                             BatchDone done) = 0;
};

} // namespace dac::service

#endif // DAC_SERVICE_BACKEND_H
