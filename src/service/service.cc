#include "service/service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "conf/constraints.h"
#include "conf/expert.h"
#include "obs/flight_recorder.h"
#include "obs/tracer.h"
#include "support/logging.h"
#include "workloads/registry.h"

namespace dac::service {

namespace {

/** A model-build failure worth retrying (today: injected faults). */
struct TransientModelError : std::runtime_error
{
    TransientModelError()
        : std::runtime_error("transient model-build failure")
    {
    }
};

/** Backoff growth per model-build retry (exponential). */
constexpr double kRetryBackoffMultiplier = 2.0;

/** The request's deadline fired inside the build path. */
struct DeadlineExpired : std::runtime_error
{
    DeadlineExpired() : std::runtime_error("request deadline expired") {}
};

/** Platform-stable string hash (std::hash is not portable). */
uint64_t
stableHash(const std::string &text)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const char c : text)
        h = splitmix64(h ^ static_cast<uint64_t>(
                               static_cast<unsigned char>(c)));
    return h;
}

double
elapsedSec(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * The m training sizes for one datasize band: geometrically spaced
 * across [0.8 * 2^band, 1.25 * 2^(band+1)], i.e. the band widened by
 * 25% on each side so the model extrapolates a little past the band
 * edges. The spacing ratio is at least 1.12, honoring Eq. 4's >= 10%
 * pairwise separation.
 */
std::vector<double>
bandTrainingSizes(int band, size_t m)
{
    DAC_ASSERT(m > 0, "need at least one training size");
    const double lo = 0.8 * std::ldexp(1.0, band);
    const double hi = 1.25 * std::ldexp(1.0, band + 1);
    if (m == 1)
        return {std::sqrt(lo * hi)};
    const double ratio =
        std::max(std::pow(hi / lo, 1.0 / static_cast<double>(m - 1)),
                 1.12);
    std::vector<double> sizes;
    sizes.reserve(m);
    double size = lo;
    for (size_t i = 0; i < m; ++i, size *= ratio)
        sizes.push_back(size);
    return sizes;
}

/** The flight-recorder checkpoint a phase settles at. */
obs::FlightPhase
flightPhaseOf(Phase phase)
{
    switch (phase) {
    case Phase::Decode:
        return obs::FlightPhase::Decode;
    case Phase::Queue:
        return obs::FlightPhase::QueueExit;
    case Phase::CacheLookup:
        return obs::FlightPhase::CacheLookup;
    case Phase::ModelBuild:
        return obs::FlightPhase::ModelBuild;
    case Phase::Search:
        return obs::FlightPhase::Search;
    case Phase::Serialize:
        return obs::FlightPhase::Serialize;
    }
    return obs::FlightPhase::Decode;
}

} // namespace

std::string
TuneRequest::cacheKey() const
{
    std::ostringstream oss;
    oss << workload << "|" << std::bit_cast<uint64_t>(nativeSize) << "|"
        << seed;
    return oss.str();
}

const char *
phaseName(Phase phase)
{
    switch (phase) {
    case Phase::Decode:
        return "decode";
    case Phase::Queue:
        return "queue";
    case Phase::CacheLookup:
        return "cache-lookup";
    case Phase::ModelBuild:
        return "model-build";
    case Phase::Search:
        return "search";
    case Phase::Serialize:
        return "serialize";
    }
    return "unknown";
}

PhaseRecorder::PhaseRecorder(obs::MetricsRegistry *registry)
{
    for (size_t i = 0; registry != nullptr && i < kPhaseCount; ++i) {
        histograms[i] = &registry->histogram(
            std::string("phase.") + phaseName(static_cast<Phase>(i)));
    }
}

void
PhaseRecorder::record(std::vector<PhaseTiming> &phases, Phase phase,
                      double sec, uint32_t wire_id, uint16_t shard) const
{
    phases.push_back({phase, sec});
    observe(phase, sec, wire_id, shard);
}

void
PhaseRecorder::observe(Phase phase, double sec, uint32_t wire_id,
                       uint16_t shard) const
{
    if (obs::Histogram *h = histograms[static_cast<size_t>(phase)])
        h->observe(sec);
    obs::FlightRecorder::record(wire_id, flightPhaseOf(phase), sec,
                                obs::FlightReason::None, shard);
}

double
TuneResponse::phaseSec(Phase phase) const
{
    for (const PhaseTiming &timing : phases) {
        if (timing.phase == phase)
            return timing.sec;
    }
    return 0.0;
}

TuningService::TuningService(const sparksim::SparkSimulator &sim,
                             ServiceOptions options)
    : sim(&sim), options(options),
      cache(options.modelCacheCapacity, options.modelCacheShards),
      pool(ThreadPool::Options{options.threads, options.queueCapacity})
{
    if (!this->options.snapshotDir.empty()) {
        const ModelCache::SnapshotIo io =
            cache.restoreFrom(this->options.snapshotDir);
        registry.counter("snapshot.restored")
            .increment(static_cast<uint64_t>(io.loaded));
        registry.counter("snapshot.stale_evicted")
            .increment(static_cast<uint64_t>(io.staleEvicted));
        registry.counter("snapshot.restore_failed")
            .increment(static_cast<uint64_t>(io.failed));
        if (io.loaded + io.staleEvicted + io.failed > 0) {
            inform("snapshot restore from " + this->options.snapshotDir +
                   ": " + std::to_string(io.loaded) + " loaded, " +
                   std::to_string(io.staleEvicted) + " stale evicted, " +
                   std::to_string(io.failed) + " failed");
        }
    }
}

TuningService::~TuningService()
{
    shutdown();
}

std::future<TuneResponse>
TuningService::submit(TuneRequest request)
{
    auto promise = std::make_shared<std::promise<TuneResponse>>();
    std::future<TuneResponse> future = promise->get_future();
    submitBatch({std::move(request)},
                [promise](std::vector<TuneOutcome> outcomes) {
                    if (outcomes[0].error)
                        promise->set_exception(outcomes[0].error);
                    else
                        promise->set_value(std::move(outcomes[0].response));
                });
    return future;
}

void
TuningService::submitBatch(std::vector<TuneRequest> batch, BatchDone done)
{
    const size_t n = batch.size();
    if (n == 0) {
        done({});
        return;
    }
    std::vector<std::string> keys;
    keys.reserve(n);
    for (const TuneRequest &request : batch) {
        keys.push_back(request.cacheKey());
        obs::FlightRecorder::record(request.wireId,
                                    obs::FlightPhase::QueueEnter);
    }

    auto state = std::make_shared<Batch>(std::vector<TuneOutcome>(n), n,
                                         std::move(done));
    auto leaders = std::make_shared<std::vector<std::shared_ptr<Pending>>>();
    const auto submitted = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!accepting)
            fatalError("TuningService::submitBatch after shutdown");
        for (size_t i = 0; i < n; ++i) {
            auto &slot = pending[keys[i]];
            if (!slot) {
                slot = std::make_shared<Pending>();
                slot->key = std::move(keys[i]);
                slot->request = std::move(batch[i]);
                leaders->push_back(slot);
            }
            slot->waiters.push_back({state, i, submitted});
        }
    }
    requestsSubmitted.increment(n);
    requestsCoalesced.increment(n - leaders->size());
    if (leaders->empty())
        return;

    // The batch's leaders are one pool task: back-to-back items reuse
    // the shard-warm model (the first miss builds it, the rest hit).
    const bool posted = pool.tryPost([this, leaders, submitted]() {
        for (const auto &entry : *leaders) {
            TuneResponse response;
            std::exception_ptr error;
            try {
                response = process(entry->request, submitted);
            } catch (...) {
                error = std::current_exception();
            }
            settle(*entry, std::move(response), error);
        }
    });
    if (posted)
        return;
    // Backpressure: the queue is full, so answer every waiter inline
    // with the expert fallback rather than blocking the caller or
    // erroring (reject-with-reason).
    for (const auto &entry : *leaders) {
        settle(*entry,
               degrade(entry->request, {},
                       obs::FlightReason::QueueSaturated, nullptr),
               nullptr);
    }
}

void
TuningService::settle(Pending &entry, TuneResponse response,
                      std::exception_ptr error)
{
    {
        // Past this point no submit can coalesce onto the entry, so
        // its waiter list is final.
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = pending.find(entry.key);
        DAC_ASSERT(it != pending.end() && it->second.get() == &entry,
                   "lost a pending request");
        pending.erase(it);
    }
    const size_t n = entry.waiters.size();
    if (error) {
        requestsFailed.increment(n);
        for (const Waiter &waiter : entry.waiters)
            waiter.batch->fill(waiter.index, {{}, error});
        return;
    }
    // Account before completing any batch: a caller may read the
    // counters the instant its answer arrives. Each copy's latency
    // runs from its own batch's submit.
    const auto answered = std::chrono::steady_clock::now();
    const auto latencySec = [answered](const Waiter &waiter) {
        return std::chrono::duration<double>(answered - waiter.submitted)
            .count();
    };
    // A queue-saturated answer never ran: rejected, not served.
    if (response.degradedReason ==
        obs::flightReasonName(obs::FlightReason::QueueSaturated)) {
        requestsRejected.increment(n);
    } else {
        for (const Waiter &waiter : entry.waiters)
            requestLatency.observe(latencySec(waiter));
        requestsServed.increment(n);
    }
    if (response.degraded)
        requestsDegraded.increment(n);
    for (size_t i = 0; i < n; ++i) {
        TuneResponse copy = response;
        copy.latencySec = latencySec(entry.waiters[i]);
        copy.coalesced = copy.coalesced || i > 0;
        entry.waiters[i].batch->fill(entry.waiters[i].index,
                                     {std::move(copy), nullptr});
    }
}

TuneResponse
TuningService::process(const TuneRequest &request,
                       std::chrono::steady_clock::time_point submitted)
{
    // Wire trace context: adopt the caller's sampling decision first
    // (a sampled-out request must record nothing at all), then its
    // span id as the parent, so the server-side span tree hangs under
    // the client's span in one stitched trace.
    obs::SampleScope sampleScope(request.sampled);
    obs::ParentScope parentScope(request.traceId != 0
                                     ? request.traceId
                                     : obs::currentSpanId());
    obs::ScopedSpan requestSpan("request");
    if (requestSpan.active()) {
        requestSpan.attr("workload", request.workload);
        requestSpan.attr("native_size", request.nativeSize);
        if (request.traceId != 0)
            requestSpan.attr("trace_id", request.traceId);
    }

    // Phase breakdown: accumulated in pipeline order as each phase
    // settles; every return path below carries whatever was measured
    // by then. The transport observed the decode phase itself and
    // appends/patches serialize + write.
    std::vector<PhaseTiming> phases;
    if (request.decodeSec > 0.0)
        phases.push_back({Phase::Decode, request.decodeSec});
    phaseRecorder.record(phases, Phase::Queue, elapsedSec(submitted),
                         request.wireId);

    const auto &workload =
        workloads::Registry::instance().byAbbrev(request.workload);
    if (request.nativeSize <= 0.0)
        fatalError("tune request with non-positive dataset size");

    // Deadline: the request's own value wins; 0 inherits the service
    // default; negative disables. Expiry is only observed at the
    // cooperative poll points (between HM rounds, GA generations, and
    // build retries), so a token that never fires changes nothing.
    CancelToken cancel;
    const double deadline_sec = request.deadlineSec == 0.0
        ? options.defaultDeadlineSec
        : request.deadlineSec;
    if (deadline_sec > 0.0)
        cancel.setDeadline(Deadline::after(deadline_sec));

    const ModelKey key{workload.abbrev(), sim->clusterSpec().signature(),
                       sizeBandOf(request.nativeSize)};
    const auto shard = static_cast<uint16_t>(
        ModelCache::shardIndexFor(key, cache.shardCount()));

    bool builtHere = false;
    int build_retries = 0;
    double buildSec = 0.0;
    // The expert fallback, with the phases measured so far.
    auto fallBack = [&](obs::FlightReason reason) {
        TuneResponse response;
        response.buildRetries = build_retries;
        response.phases = std::move(phases);
        return degrade(request, std::move(response), reason, &requestSpan);
    };
    const auto lookupStart = std::chrono::steady_clock::now();
    std::shared_ptr<const CachedModel> cached;
    try {
        cached = cache.getOrBuild(key, [&]() {
            builtHere = true;
            const auto buildStart = std::chrono::steady_clock::now();
            auto entry = buildModel(workload, key, cancel, build_retries);
            buildSec = elapsedSec(buildStart);
            return entry;
        });
    } catch (const DeadlineExpired &) {
        return fallBack(obs::FlightReason::Deadline);
    } catch (const TransientModelError &) {
        // Retries exhausted (also surfaces to every cache waiter that
        // coalesced onto the failed build — they degrade the same way).
        return fallBack(obs::FlightReason::ModelFailure);
    }
    // The cache-lookup phase is the coordination cost alone: total
    // getOrBuild time minus any build this request ran itself.
    phaseRecorder.record(phases, Phase::CacheLookup,
                         std::max(0.0, elapsedSec(lookupStart) - buildSec),
                         request.wireId, shard);
    if (builtHere) {
        phaseRecorder.record(phases, Phase::ModelBuild, buildSec,
                             request.wireId, shard);
    }
    if (requestSpan.active())
        requestSpan.attr("model_source", builtHere ? "built" : "cache_hit");
    if (obs::Tracer::enabled()) {
        obs::instant(builtHere ? "cache.miss" : "cache.hit",
                     {{"key", key.toString()}});
    }

    // Deadline gone before the search starts: answer with the expert
    // configuration instead of starting work we cannot finish. (The
    // model, if built, stays cached for the next request.)
    if (cancel.cancelled())
        return fallBack(obs::FlightReason::Deadline);

    const auto searchStart = std::chrono::steady_clock::now();
    auto found = core::search(
        *cached, workload, request.nativeSize, options.tuning.ga, true,
        request.seed, options.parallelWithinRequest ? &pool : nullptr,
        &cancel);
    phaseRecorder.record(phases, Phase::Search, elapsedSec(searchStart),
                         request.wireId, shard);

    TuneResponse response;
    response.workload = workload.abbrev();
    response.nativeSize = request.nativeSize;
    response.best = std::move(found.best);
    response.predictedTimeSec = found.predictedTimeSec;
    response.modelErrorPct = cached->modelErrorPct;
    response.modelCacheHit = !builtHere;
    response.buildRetries = build_retries;
    response.warnings =
        conf::validateForCluster(response.best, sim->clusterSpec());
    response.phases = std::move(phases);
    if (found.ga.cancelled) {
        // Deadline fired mid-search: the GA's best-so-far is still a
        // real model-scored configuration, so return it — labeled.
        return degrade(request, std::move(response),
                       obs::FlightReason::SearchTruncated, &requestSpan);
    }
    return response;
}

std::shared_ptr<const CachedModel>
TuningService::buildModel(const workloads::Workload &workload,
                          const ModelKey &key, const CancelToken &cancel,
                          int &retries_out)
{
    // One stream per cache key: rebuilding the same key reproduces the
    // same training set; the request seed must not leak in, or two
    // clients asking the same question would train different models.
    const uint64_t seed =
        combineSeed(options.tuning.seed, stableHash(key.toString()));
    std::optional<core::TrainedModel> trained;
    double backoff = options.retryBackoffInitialSec;
    for (int attempt = 0;; ++attempt) {
        if (cancel.cancelled())
            throw DeadlineExpired();
        try {
            maybeInjectBuildFault();
            trained = core::train(
                *sim, workload,
                bandTrainingSizes(key.sizeBand,
                                  options.tuning.collect.datasetCount),
                options.tuning, seed, seed, core::ModelKind::HM, true,
                options.parallelWithinRequest ? &pool : nullptr, &cancel);
            break;
        } catch (const TransientModelError &) {
            if (attempt >= options.modelBuildMaxRetries)
                throw;
        }
        registry.counter("model_build.retries").increment();
        ++retries_out;
        // Exponential backoff, clipped to the cap and to whatever
        // deadline time remains (remainingSec() is +inf without one).
        const double sleep_sec =
            std::min({backoff, options.retryBackoffMaxSec,
                      cancel.remainingSec()});
        if (sleep_sec > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(sleep_sec));
        }
        backoff *= kRetryBackoffMultiplier;
    }
    if (!trained)
        throw DeadlineExpired();
    registry.counter("models.built").increment();
    auto entry = std::make_shared<const CachedModel>(std::move(*trained));

    if (!options.snapshotDir.empty()) {
        // Persist the freshly built model so a restarted process warms
        // up from disk instead of re-collecting. Milliseconds of disk
        // on a build that took whole simulated hours; best-effort.
        std::string persistError;
        if (ModelCache::writeSnapshot(options.snapshotDir, key, *entry,
                                      &persistError)) {
            registry.counter("snapshot.saved").increment();
        } else {
            registry.counter("snapshot.save_failed").increment();
            warn("snapshot of " + key.toString() + " failed: " +
                 persistError);
        }
    }
    return entry;
}

void
TuningService::maybeInjectBuildFault()
{
    const uint64_t attempt =
        buildAttempts.fetch_add(1, std::memory_order_relaxed) + 1;
    registry.counter("model_build.attempts").increment();
    const ServiceOptions::FaultInjection &faults = options.faults;
    bool inject =
        attempt <= static_cast<uint64_t>(
                       std::max(faults.failFirstModelBuilds, 0));
    if (!inject && faults.modelBuildFailureProb > 0.0) {
        Rng draw(combineSeed(faults.seed, attempt));
        inject = draw.uniform() < faults.modelBuildFailureProb;
    }
    if (inject) {
        registry.counter("model_build.transient_failures").increment();
        throw TransientModelError();
    }
}

TuneResponse
TuningService::degrade(const TuneRequest &request, TuneResponse response,
                       obs::FlightReason reason, obs::ScopedSpan *span)
{
    if (reason != obs::FlightReason::SearchTruncated) {
        // No model-scored answer exists: fall back to the expert
        // configuration, the paper's human-tuned baseline.
        response.workload = request.workload;
        response.nativeSize = request.nativeSize;
        response.best = conf::expertSparkConfig(sim->clusterSpec());
        response.warnings =
            conf::validateForCluster(response.best, sim->clusterSpec());
    }
    response.degraded = true;
    response.degradedReason = obs::flightReasonName(reason);
    if (reason == obs::FlightReason::Deadline ||
        reason == obs::FlightReason::SearchTruncated)
        deadlineExpired.increment();
    if (reason == obs::FlightReason::SearchTruncated)
        searchTruncated.increment();
    if (span != nullptr && span->active())
        span->attr("degraded", response.degradedReason);
    // Black-box note + (rate-limited) dump: a degraded answer is the
    // moment the recent-event window is worth keeping.
    obs::FlightRecorder::record(request.wireId, obs::FlightPhase::Degraded,
                                0.0, reason);
    obs::FlightRecorder::instance().requestDump("degraded");
    return response;
}

void
TuningService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        accepting = false;
    }
    // Drains every accepted request, then joins the workers.
    pool.shutdown();
}

void
TuningService::refreshGauges()
{
    const auto stats = cache.stats();
    registry.setGauge("pool.queue_depth",
                      static_cast<double>(pool.queueDepth()));
    registry.setGauge("pool.threads",
                      static_cast<double>(pool.threadCount()));
    registry.setGauge("cache.size", static_cast<double>(stats.size));
    registry.setGauge("cache.hits", static_cast<double>(stats.hits));
    registry.setGauge("cache.misses",
                      static_cast<double>(stats.misses));
    registry.setGauge("cache.coalesced",
                      static_cast<double>(stats.coalesced));
    registry.setGauge("cache.evictions",
                      static_cast<double>(stats.evictions));
    registry.setGauge("cache.hit_rate", stats.hitRate());
    for (size_t s = 0; s < cache.shardCount(); ++s) {
        const auto shard = cache.shardStats(s);
        const std::string stem = "cache.shard" + std::to_string(s);
        registry.setGauge(stem + ".hits",
                          static_cast<double>(shard.hits));
        registry.setGauge(stem + ".misses",
                          static_cast<double>(shard.misses));
        registry.setGauge(stem + ".coalesced",
                          static_cast<double>(shard.coalesced));
        registry.setGauge(stem + ".size",
                          static_cast<double>(shard.size));
        registry.setGauge(stem + ".hit_rate", shard.hitRate());
    }
}

std::string
TuningService::statusReport()
{
    refreshGauges();
    return registry.report();
}

ModelCache::SnapshotIo
TuningService::snapshotNow()
{
    ModelCache::SnapshotIo io;
    if (options.snapshotDir.empty())
        return io;
    io = cache.snapshotTo(options.snapshotDir);
    registry.counter("snapshot.saved")
        .increment(static_cast<uint64_t>(io.saved));
    registry.counter("snapshot.save_failed")
        .increment(static_cast<uint64_t>(io.failed));
    return io;
}

} // namespace dac::service
