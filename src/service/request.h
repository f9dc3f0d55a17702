/**
 * @file
 * Wire-level request/response types of the tuning service.
 *
 * A TuneRequest asks "what configuration should program X run with at
 * dataset size Y" — the question DAC answers per program-input pair —
 * and the TuneResponse carries the chosen configuration plus enough
 * provenance (cache hit, model error, latency) for callers and
 * dashboards.
 */

#ifndef DAC_SERVICE_REQUEST_H
#define DAC_SERVICE_REQUEST_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "conf/config.h"
#include "conf/constraints.h"

namespace dac::obs {
class Histogram;
class MetricsRegistry;
} // namespace dac::obs

namespace dac::service {

/**
 * Request-lifecycle phases the serving stack times individually.
 * The numeric values are the wire encoding (protocol v2 phase
 * breakdown) — append only.
 */
enum class Phase : uint8_t {
    /** Wire payload -> TuneRequest on the event loop. */
    Decode = 0,
    /** Waiting in the worker queue (submit to pickup). */
    Queue = 1,
    /** Model-cache lookup, excluding any build it triggered. */
    CacheLookup = 2,
    /** Collect + train campaign (0 on a cache hit). */
    ModelBuild = 3,
    /** GA configuration search. */
    Search = 4,
    /** TuneResponse -> wire bytes. */
    Serialize = 5,
};

/** Number of Phase values (array sizing). */
inline constexpr size_t kPhaseCount = 6;

/** Stable lowercase name ("decode", "queue", ...). */
[[nodiscard]] const char *phaseName(Phase phase);

/** One timed phase of a served request. */
struct PhaseTiming
{
    Phase phase = Phase::Decode;
    double sec = 0.0;
};

/**
 * One call per phase: the breakdown entry, the `phase.<name>`
 * histogram (resolved once, at construction) and the flight record,
 * so the three views of a phase cannot disagree.
 */
class PhaseRecorder
{
  public:
    /** Null `registry` records flight events and entries only. */
    explicit PhaseRecorder(obs::MetricsRegistry *registry);

    /** Append {phase, sec} to `phases`, then observe(). */
    void record(std::vector<PhaseTiming> &phases, Phase phase, double sec,
                uint32_t wire_id, uint16_t shard = 0) const;

    /** Histogram and flight record only, for the transport's decode
     *  and serialize phases (their entries are written elsewhere). */
    void observe(Phase phase, double sec, uint32_t wire_id,
                 uint16_t shard = 0) const;

  private:
    std::array<obs::Histogram *, kPhaseCount> histograms{};
};

/**
 * One tuning question: program + native dataset size.
 */
struct TuneRequest
{
    /** Workload abbreviation as registered ("PR", "KM", "TS", ...). */
    std::string workload;
    /** Dataset size in the workload's native unit (Table 1). */
    double nativeSize = 0.0;
    /** Tuning seed; requests with equal (workload, size, seed) are
     *  identical and the service coalesces them. */
    uint64_t seed = 17;
    /**
     * Wall deadline for serving this request, seconds (0 = use the
     * service's defaultDeadlineSec; negative = no deadline at all).
     * On expiry the service stops cooperatively — between HM rounds
     * and GA generations — and answers with a degraded response
     * rather than an error. Coalesced waiters share the first
     * submitter's deadline.
     */
    double deadlineSec = 0.0;

    /**
     * Caller's trace id (protocol v2). When nonzero, the service
     * adopts it as the parent of the request's span tree, so a
     * client-side span and the server-side spans stitch into one
     * trace. 0 = no caller trace context.
     */
    uint64_t traceId = 0;
    /**
     * Caller's sampling decision (protocol v2). False suppresses all
     * trace recording for this request even when the server's tracer
     * is enabled; meaningful only alongside a nonzero traceId.
     */
    bool sampled = true;
    /** Seconds the transport spent decoding this request's payload
     *  (not on the wire; folded into the response's phase breakdown). */
    double decodeSec = 0.0;
    /** Transport-assigned wire correlation id (0 in-process); flight
     *  recorder events for this request carry it. Not part of the
     *  payload — the frame header already carries it. */
    uint32_t wireId = 0;

    /** Coalescing key. */
    std::string cacheKey() const;
};

/**
 * The service's answer.
 */
struct TuneResponse
{
    TuneResponse() : best(conf::ConfigSpace::spark()) {}

    /** Echo of the request. */
    std::string workload;
    double nativeSize = 0.0;

    /** The recommended configuration. */
    conf::Configuration best;
    /** Model-predicted execution time under `best`, seconds. */
    double predictedTimeSec = 0.0;
    /** Cross-validated error of the model used, percent (Eq. 2). */
    double modelErrorPct = 0.0;

    /** The model came from the cache (no collection campaign ran). */
    bool modelCacheHit = false;
    /** This response was shared with a concurrent identical request
     *  (true for every waiter after the first). */
    bool coalesced = false;
    /** Submit-to-completion wall latency, seconds. */
    double latencySec = 0.0;

    /**
     * The service could not complete the full tune pipeline (deadline
     * expiry, model-build failure, queue saturation) and degraded
     * gracefully: `best` holds the expert fallback configuration (or
     * the GA's best-so-far when only the search was truncated) and
     * `degradedReason` says why. Never set on a normal response.
     */
    bool degraded = false;
    /** Why the response is degraded ("deadline", "model-failure",
     *  "queue-saturated", "search-truncated"); empty otherwise. */
    std::string degradedReason;
    /** Transient model-build failures retried while serving this
     *  request (0 when the first build attempt succeeded). */
    int buildRetries = 0;

    /**
     * Cross-parameter cluster-feasibility findings against `best`
     * (conf::validateForCluster): couplings the per-parameter ranges
     * cannot express, e.g. executors packed per node overflowing node
     * RAM. Typed so transports can carry them to the caller instead of
     * losing them on a server's stderr. Empty for a clean config.
     */
    std::vector<conf::ConstraintViolation> warnings;

    /**
     * Where this request's latency went, one entry per phase that was
     * actually timed (protocol v2; empty over a v1 wire). The
     * serialize entry is patched in by the transport after encoding —
     * it cannot know its own duration beforehand.
     */
    std::vector<PhaseTiming> phases;

    /** The timing for `phase`, or 0 when absent. */
    [[nodiscard]] double phaseSec(Phase phase) const;
};

} // namespace dac::service

#endif // DAC_SERVICE_REQUEST_H
