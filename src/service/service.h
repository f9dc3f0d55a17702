/**
 * @file
 * The concurrent tuning service: DAC's collect -> model -> search
 * pipeline behind an asynchronous submit() API.
 *
 * A TuningService owns a ThreadPool, a ModelCache, and a
 * MetricsRegistry. Each submitted request runs on the pool; the
 * expensive collect+model phase is shared through the cache (and
 * band-local, see model_cache.h), concurrent identical requests are
 * coalesced into one in-flight computation, and shutdown() drains
 * everything already accepted before returning. Responses are
 * deterministic for a fixed request seed regardless of thread count or
 * arrival order: all randomness is planned serially per request (see
 * executor.h).
 */

#ifndef DAC_SERVICE_SERVICE_H
#define DAC_SERVICE_SERVICE_H

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dac/pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "service/backend.h"
#include "service/model_cache.h"
#include "service/request.h"
#include "service/thread_pool.h"
#include "sparksim/simulator.h"
#include "support/cancel.h"

namespace dac::service {

/** Service sizing and tuning policy. */
struct ServiceOptions
{
    /** Worker threads (0 = one per hardware thread). */
    size_t threads = 4;
    /** Bound on queued-but-not-running requests; a request arriving
     *  at a full queue is answered at once with the degraded
     *  "queue-saturated" expert configuration, never blocked. */
    size_t queueCapacity = 256;
    /** Trained models kept resident. */
    size_t modelCacheCapacity = 16;
    /**
     * Independently locked model-cache shards (model_cache.h). More
     * shards let hot workloads in different shards hit the cache
     * without contending on one mutex; 1 reproduces the historical
     * single-lock cache.
     */
    size_t modelCacheShards = 8;
    /** Collection/model/GA settings applied to every request. */
    core::AutoTuneOptions tuning;
    /**
     * Spread one request's collection runs and GA fitness evaluations
     * across the pool. Results are bit-identical either way; parallel
     * collection is what makes a single cold request faster.
     */
    bool parallelWithinRequest = true;

    /**
     * Wall deadline applied to requests that leave
     * TuneRequest::deadlineSec at 0, seconds (<= 0 = no default
     * deadline). Expiry is observed cooperatively — between HM rounds
     * and GA generations — and degrades the response instead of
     * failing it; see DESIGN.md §10 for the degradation ladder.
     */
    double defaultDeadlineSec = 0.0;
    /** Transient model-build failures retried (with backoff) before
     *  the request degrades to the expert configuration. */
    int modelBuildMaxRetries = 2;
    /** First retry backoff, seconds; doubles on every retry. */
    double retryBackoffInitialSec = 0.05;
    /** Backoff ceiling, seconds; also clipped to any deadline left. */
    double retryBackoffMaxSec = 1.0;

    /**
     * Directory of model snapshots (persist/snapshot.h). Empty (the
     * default) disables persistence. When set: the cache is restored
     * from it at construction (stale-format files evicted), every
     * freshly built model is persisted right after its build, and
     * snapshotNow() persists the whole cache on demand (the server
     * example calls it on SIGTERM drain). Persistence is best-effort:
     * a full disk degrades warm restarts, never serving.
     */
    std::string snapshotDir;

    /**
     * Deterministic fault hook for chaos tests: injected transient
     * model-build failures that exercise the retry/degradation path
     * without touching the real pipeline. All zero (the default) means
     * no injection and zero overhead.
     */
    struct FaultInjection
    {
        /** Fail this many build attempts (counted service-wide, in
         *  attempt order) before letting builds succeed. */
        int failFirstModelBuilds = 0;
        /** Per-attempt failure probability, drawn from a seeded Rng
         *  keyed on the service-wide attempt index. */
        double modelBuildFailureProb = 0.0;
        uint64_t seed = 0;
    };
    FaultInjection faults;
};

/**
 * Long-lived, thread-safe tuning frontend over one simulator/cluster.
 *
 * Implements TuningBackend, so transports (the src/net wire server,
 * in-process examples, test stubs) stay agnostic of the pipeline.
 */
class TuningService final : public TuningBackend
{
  public:
    TuningService(const sparksim::SparkSimulator &sim,
                  ServiceOptions options = {});

    /** Drains in-flight work (shutdown()) before destruction. */
    ~TuningService() override;

    TuningService(const TuningService &) = delete;
    TuningService &operator=(const TuningService &) = delete;

    /**
     * Submit one tuning request; the future resolves when the request
     * has been served (or faulted, e.g. unknown workload). A thin
     * wrapper over a one-item submitBatch().
     */
    std::future<TuneResponse> submit(TuneRequest request);

    /**
     * Submit requests that arrived together (one wire readiness
     * cycle). Every item goes through one pending map: an item whose
     * key is new leads a computation, and a repeated key — earlier in
     * this batch or in flight from any earlier submit — waits on that
     * computation and gets its answer (coalesced flag set). The
     * batch's leaders run as a single pool task, so a pipelined burst
     * costs one queue slot and repeated models are shard-local cache
     * hits. A saturated queue answers every leader at once, inline,
     * with the expert configuration ("queue-saturated").
     */
    void submitBatch(std::vector<TuneRequest> batch,
                     BatchDone done) override;

    /**
     * Stop accepting requests, serve everything already submitted,
     * and join the workers. Idempotent.
     */
    void shutdown();

    /** Operational counters and latency histograms. */
    obs::MetricsRegistry &metrics() { return registry; }

    /** Model-cache accounting (hits, misses, evictions, ...). */
    ModelCache::Stats cacheStats() const { return cache.stats(); }

    /**
     * Point-in-time ASCII status table: request counters, latency
     * percentiles, cache hit rate, queue depth.
     */
    std::string statusReport();

    /**
     * Refresh the registry's point-in-time gauges (queue depth, cache
     * totals, per-shard hit rates) so a renderPrometheus()/renderJson()
     * snapshot is current. The stats endpoint calls this on every
     * query; statusReport() does too.
     */
    void refreshGauges();

    /** Shard fan-out of the model cache (stats endpoints iterate it). */
    [[nodiscard]] size_t cacheShardCount() const
    {
        return cache.shardCount();
    }

    /** Per-shard model-cache accounting. */
    [[nodiscard]] ModelCache::Stats cacheShardStats(size_t shard) const
    {
        return cache.shardStats(shard);
    }

    /**
     * Persist every cached model to ServiceOptions::snapshotDir now
     * (no-op counts when persistence is disabled). Thread-safe; entry
     * pointers are captured per shard and written outside the cache
     * locks, so in-flight requests keep serving.
     */
    ModelCache::SnapshotIo snapshotNow();

  private:
    /** One submitted batch; `done` runs when its last item is
     *  answered, on whichever thread answers it. */
    struct Batch
    {
        /** Answer item `index`; the last answer completes the batch. */
        void
        fill(size_t index, TuneOutcome outcome)
        {
            outcomes[index] = std::move(outcome);
            // acq_rel: the last filler sees every other item's outcome.
            if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
                done(std::move(outcomes));
        }

        std::vector<TuneOutcome> outcomes;
        std::atomic<size_t> remaining;
        BatchDone done;
    };

    /** A batch item waiting on a pending computation. */
    struct Waiter
    {
        std::shared_ptr<Batch> batch;
        size_t index = 0;
        /** When the item's own batch was submitted: its latency
         *  starts here, not at the leader's submit. */
        std::chrono::steady_clock::time_point submitted;
    };

    /** Requests waiting on one in-flight computation. */
    struct Pending
    {
        std::string key;
        /** The leader's request; the rest coalesced onto it. */
        TuneRequest request;
        std::vector<Waiter> waiters;
    };

    /** Runs on a pool worker: the full pipeline for one request.
     *  `submitted` is when the request entered the queue (queue-wait
     *  phase = pickup minus submitted). */
    TuneResponse process(const TuneRequest &request,
                         std::chrono::steady_clock::time_point submitted);
    /**
     * The cache entry for `key`: core::train() at the band's training
     * sizes, seeded from the key, behind bounded retry with
     * exponential backoff (`retries_out` counts the transient failures
     * absorbed), then persisted when snapshots are on. Throws
     * DeadlineExpired when `cancel` fires before modeling starts; a
     * later expiry only stops HM refinement between rounds.
     */
    std::shared_ptr<const CachedModel> buildModel(
        const workloads::Workload &workload, const ModelKey &key,
        const CancelToken &cancel, int &retries_out);
    /** Deterministic injected build fault (ServiceOptions::faults);
     *  also counts every build attempt in the metrics. */
    void maybeInjectBuildFault();
    /**
     * The one degrade path: `response` (holding the phases measured so
     * far) labelled degraded for `reason`, with the expert
     * configuration unless the search ran; also labels `span`, counts
     * a deadline expiry or truncated search and drops a flight-recorder
     * event (plus a rate-limited dump request).
     */
    TuneResponse degrade(const TuneRequest &request, TuneResponse response,
                         obs::FlightReason reason, obs::ScopedSpan *span);
    /**
     * Unregister `entry` and answer its waiters: every one gets
     * `response` (all but the first coalesced) with the latency since
     * it was submitted, counted before any batch completes — or
     * `error`.
     */
    void settle(Pending &entry, TuneResponse response,
                std::exception_ptr error);

    const sparksim::SparkSimulator *sim;
    ServiceOptions options;
    obs::MetricsRegistry registry;
    /** Per-request metric handles, resolved once from `registry`. */
    PhaseRecorder phaseRecorder{&registry};
    obs::Histogram &requestLatency = registry.histogram("latency.request");
    obs::Counter &requestsSubmitted = registry.counter("requests.submitted");
    obs::Counter &requestsCoalesced = registry.counter("requests.coalesced");
    obs::Counter &requestsServed = registry.counter("requests.served");
    obs::Counter &requestsFailed = registry.counter("requests.failed");
    obs::Counter &requestsRejected = registry.counter("requests.rejected");
    obs::Counter &requestsDegraded = registry.counter("requests.degraded");
    obs::Counter &deadlineExpired = registry.counter("deadline.expired");
    obs::Counter &searchTruncated = registry.counter("search.truncated");
    ModelCache cache;
    /** Service-wide model-build attempt index (fault hook keys its
     *  deterministic draws on this). */
    std::atomic<uint64_t> buildAttempts{0};
    ThreadPool pool; ///< declared after the fields its tasks touch

    std::mutex mutex;
    std::map<std::string, std::shared_ptr<Pending>> pending;
    bool accepting = true;
};

} // namespace dac::service

#endif // DAC_SERVICE_SERVICE_H
