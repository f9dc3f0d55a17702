#include "sparksim/simulator.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sparksim/gc.h"
#include "sparksim/knobs.h"
#include "sparksim/memory.h"
#include "sparksim/scheduler.h"
#include "sparksim/serde.h"
#include "sparksim/shuffle.h"
#include "support/logging.h"
#include "support/units.h"

namespace dac::sparksim {

namespace {

/** HDFS-style input split size. */
constexpr double kBlockBytes = 128.0 * MiB;
/** Fixed stage submit/teardown latency, seconds. */
constexpr double kStageLaunchSec = 0.15;
/** Whole-job retry budget after a stage abort. */
constexpr int kMaxJobAttempts = 3;

/** Mutable cluster-wide cache state threaded through a job attempt. */
struct CacheState
{
    bool populated = false;
    /** Fraction of the cacheable RDD that fits in storage memory. */
    double hitFraction = 0.0;
    /** On-heap cached bytes per executor. */
    double usedPerExecutor = 0.0;
    /** Cache is held serialized (MEMORY_ONLY_SER-style). */
    bool serialized = false;
};

/** Everything fixed across the stages of one run. */
struct RunContext
{
    const cluster::ClusterSpec *cluster;
    SparkKnobs knobs;
    ExecutorLayout layout;
    MemoryModel mem;
    SerdeModel serde;
};

int
stagePartitions(const StageSpec &stage, const RunContext &ctx)
{
    if (stage.kind == StageKind::Input) {
        const double blocks = std::ceil(stage.inputBytes / kBlockBytes);
        return static_cast<int>(std::clamp(blocks, 1.0, 20000.0));
    }
    return ctx.knobs.defaultParallelism;
}

/** Torrent broadcast time to all executors, once per stage iteration. */
double
broadcastSec(const StageSpec &stage, const RunContext &ctx)
{
    if (stage.broadcastBytes <= 0.0)
        return 0.0;
    const SparkKnobs &k = ctx.knobs;
    double wire = stage.broadcastBytes;
    double cpu_cost = 0.0;
    if (k.broadcastCompress) {
        wire *= ctx.serde.compressRatio;
        cpu_cost = stage.broadcastBytes *
            (ctx.serde.compressCpuPerByte + ctx.serde.decompressCpuPerByte);
    }
    const double blocks =
        std::max(1.0, std::ceil(stage.broadcastBytes /
                                k.broadcastBlockBytes));
    // Torrent distribution pipelines across executors.
    const double rounds =
        std::ceil(std::log2(ctx.layout.totalExecutors + 1.0));
    const double net = ctx.cluster->node().netBytesPerSec;
    return wire / net * rounds / 2.0 + blocks * 0.006 +
        cpu_cost / ctx.cluster->node().cpuBytesPerSec;
}

/** Collect-to-driver time; sets *driver_oom on memory exhaustion. */
double
collectSec(const StageSpec &stage, const JobDag &job, const RunContext &ctx,
           bool *driver_oom)
{
    if (stage.outputToDriverBytes <= 0.0)
        return 0.0;
    const SparkKnobs &k = ctx.knobs;
    const double in_driver_mem =
        stage.outputToDriverBytes * job.javaExpansion * 0.5;
    if (in_driver_mem > 0.6 * k.driverMemoryBytes)
        *driver_oom = true;
    const double net = ctx.cluster->node().netBytesPerSec;
    const double driver_cpu = ctx.cluster->node().cpuBytesPerSec *
        std::min(4, k.driverCores);
    return stage.outputToDriverBytes / net +
        stage.outputToDriverBytes * ctx.serde.deserializeCpuPerByte /
            driver_cpu;
}

/** Result of simulating one stage iteration. */
struct StageOutcome
{
    double elapsedSec = 0.0;
    double gcSec = 0.0;
    double spilledBytes = 0.0;
    int failures = 0;
    bool driverOom = false;
    /** Discrete fault-injection accounting (zero with no FaultPlan). */
    int attempts = 0;
    int injectedFailures = 0;
    int speculativeCopies = 0;
    int executorsLost = 0;
    double wastedTaskSec = 0.0;
    /** A task exhausted its retry budget; the job resubmits (never
     *  set on the final attempt, mirroring driverOom). */
    bool aborted = false;
};

StageOutcome
simulateStageIteration(const StageSpec &stage, const JobDag &job,
                       const RunContext &ctx, CacheState &cache,
                       bool final_attempt, Rng &rng,
                       const FaultPlan &plan, uint64_t fault_stage_id,
                       StageScratch &scratch)
{
    const SparkKnobs &k = ctx.knobs;
    const auto &node = ctx.cluster->node();
    const int workers = ctx.cluster->workerCount();

    StageOutcome out;

    const int partitions = stagePartitions(stage, ctx);
    const double per_task_in = stage.inputBytes / partitions;
    const int concurrent_per_node = std::max(1, std::min(
        ctx.layout.slotsPerNode,
        static_cast<int>(std::ceil(static_cast<double>(partitions) /
                                   workers))));
    const double cpu_rate =
        node.cpuBytesPerSec / (1.0 + 0.03 * (concurrent_per_node - 1));
    const double disk_share = node.diskBytesPerSec / concurrent_per_node;
    const double net_share = node.netBytesPerSec / concurrent_per_node;

    double cpu_cost = per_task_in * stage.computePerByte;
    double disk_bytes = 0.0;
    double net_bytes = 0.0;
    double fixed_sec = 0.0;
    double fail_prob = ctx.serde.taskFailureProb;
    double spilled = 0.0;

    // --- Input acquisition -------------------------------------------------
    if (stage.kind == StageKind::Input) {
        if (stage.cachedInput && cache.populated) {
            const double hit = cache.hitFraction;
            const double miss = 1.0 - hit;
            if (cache.serialized) {
                cpu_cost += hit * per_task_in *
                    (ctx.serde.deserializeCpuPerByte +
                     (k.rddCompress ? ctx.serde.decompressCpuPerByte : 0.0));
            } else {
                cpu_cost += hit * per_task_in * 0.05; // in-memory scan
            }
            // Misses re-read from storage and recompute the lineage
            // (the paper's stageC penalty under default configs).
            disk_bytes += miss * per_task_in * 1.5;
            cpu_cost += miss * per_task_in * 1.4;
        } else {
            disk_bytes += per_task_in;
            cpu_cost += per_task_in * 0.7; // input-format parsing
        }
    } else if (stage.kind == StageKind::Shuffle) {
        const auto rc = shuffleReadCost(k, ctx.serde, per_task_in, workers);
        cpu_cost += rc.cpuCostBytes;
        net_bytes += rc.netBytes;
        disk_bytes += rc.diskBytes;
        fixed_sec += rc.fixedSec;
        fail_prob += rc.failureProb;
    } else {
        cpu_cost += per_task_in * 0.2; // narrow pipelined read
    }

    // Iterative joins against a cached RDD (e.g. PageRank's link
    // table): hits scan memory, misses re-read and recompute lineage.
    if (stage.cachedSideInputBytes > 0.0) {
        const double side = stage.cachedSideInputBytes / partitions;
        const double hit = cache.populated ? cache.hitFraction : 0.0;
        if (cache.serialized) {
            cpu_cost += hit * side * (ctx.serde.deserializeCpuPerByte +
                (k.rddCompress ? ctx.serde.decompressCpuPerByte : 0.0));
        } else {
            cpu_cost += hit * side * 0.05;
        }
        disk_bytes += (1.0 - hit) * side * 1.5;
        cpu_cost += (1.0 - hit) * side * 1.4;
    }

    // Output persisted to distributed storage.
    if (stage.outputBytes > 0.0)
        disk_bytes += stage.outputBytes / partitions;

    // --- Cache population (first stage that declares a cacheable RDD) ------
    if (stage.cacheableBytes > 0.0 && !cache.populated) {
        cache.populated = true;
        cache.serialized = k.rddCompress;
        const double footprint = stage.cacheableBytes *
            (cache.serialized ? ctx.serde.cachedSerializedFactor
                              : ctx.serde.cachedExpansion);
        const double capacity =
            ctx.layout.totalExecutors * ctx.mem.storageCapacity();
        cache.hitFraction =
            footprint > 0.0 ? std::min(1.0, capacity / footprint) : 0.0;
        cache.usedPerExecutor = std::min(footprint, capacity) /
            ctx.layout.totalExecutors;
        if (cache.serialized) {
            cpu_cost += (stage.cacheableBytes / partitions) *
                (ctx.serde.serializeCpuPerByte +
                 (k.rddCompress ? ctx.serde.compressCpuPerByte : 0.0));
        } else {
            cpu_cost += (stage.cacheableBytes / partitions) * 0.1;
        }
    }

    // --- Memory: working set, spills, OOM ----------------------------------
    const double exec_per_task = std::max(1.0 * MiB,
        ctx.mem.executionPerTask(cache.usedPerExecutor,
                                 ctx.layout.coresPerExecutor));
    const double user_per_task =
        ctx.mem.userPerTask(ctx.layout.coresPerExecutor);
    const double ws = per_task_in * stage.workingSetRatio *
        job.javaExpansion * 0.6;

    double churn_boost = 1.0;
    if (user_per_task < 32.0 * MiB) {
        churn_boost = 1.4;
        fail_prob += 0.02;
    }

    if (stage.kind == StageKind::Shuffle && ws > exec_per_task) {
        // Reduce-side external aggregation/sort spills.
        if (!k.shuffleSpill) {
            // Deterministic OOM: retries rarely help.
            fail_prob += std::min(0.65, 0.4 * (ws / exec_per_task - 1.0));
        } else {
            const double spill_ser = (ws - exec_per_task) /
                (job.javaExpansion * 0.6) * ctx.serde.serializedSizeRatio *
                (k.shuffleSpillCompress ? ctx.serde.compressRatio : 1.0);
            const double passes = std::max(1.0,
                std::ceil(std::log2(std::max(2.0, ws / exec_per_task)) /
                          4.0));
            disk_bytes += 2.0 * passes * spill_ser;
            spilled += spill_ser;
            if (k.shuffleSpillCompress) {
                cpu_cost += spill_ser * (ctx.serde.compressCpuPerByte +
                                         ctx.serde.decompressCpuPerByte);
            }
        }
    }
    // Residual OOM risk grows once the working set dwarfs the budget.
    fail_prob += std::clamp(
        0.05 * (ws / (exec_per_task + user_per_task) - 6.0), 0.0, 0.45);

    // --- Shuffle write ------------------------------------------------------
    if (stage.shuffleWriteRatio > 0.0) {
        const double map_out = per_task_in * stage.shuffleWriteRatio *
            ctx.serde.serializedSizeRatio;
        const auto wc = shuffleWriteCost(k, ctx.serde, map_out,
                                         k.defaultParallelism, exec_per_task,
                                         stage.mapSideAggregation);
        cpu_cost += wc.cpuCostBytes;
        disk_bytes += wc.diskBytes;
        fixed_sec += wc.fixedSec;
        fail_prob += wc.failureProb;
        spilled += wc.spilledBytes;
    }

    // --- GC ----------------------------------------------------------------
    const int concurrent_per_exec = std::max(1, std::min(
        ctx.layout.coresPerExecutor,
        static_cast<int>(std::ceil(static_cast<double>(partitions) /
                                   ctx.layout.totalExecutors))));
    // Per-task heap demand: the memory manager (and spilling) caps how
    // much of the working set actually stays live on the heap.
    const double per_task_demand = std::max(
        ws, per_task_in * job.javaExpansion * 0.35);
    double live_task_bytes = concurrent_per_exec * std::min(
        per_task_demand, 1.1 * (exec_per_task + user_per_task));
    // Allocation pressure: bytes the concurrent tasks stream through
    // the heap, in units of heap turnovers.
    double alloc_pressure = concurrent_per_exec * per_task_in *
        job.javaExpansion * 0.8 / std::max(1.0 * MiB, ctx.mem.heapBytes);
    if (k.offHeapEnabled) {
        const double relief = std::min(0.5, k.offHeapBytes /
            std::max(1.0 * MiB, ctx.mem.heapBytes));
        live_task_bytes *= 1.0 - relief;
        alloc_pressure *= 1.0 - relief;
    }
    const double occ =
        ctx.mem.occupancy(cache.usedPerExecutor, live_task_bytes);
    const double gc_frac = gcOverheadFraction(
        occ, stage.gcChurn * churn_boost, alloc_pressure);

    // Heaps overdriven past capacity also fail tasks outright.
    fail_prob += std::clamp(0.8 * (occ - 1.0), 0.0, 0.45);

    // Long GC pauses destabilize RPC when the knobs are tight.
    if (gc_frac > 0.3) {
        if (k.akkaHeartbeatPausesSec < 3000.0 ||
            k.akkaFailureDetectorThreshold < 200.0) {
            fail_prob += 0.03;
        }
        if (k.networkTimeoutSec < 60.0)
            fail_prob += 0.02;
        if (k.akkaHeartbeatIntervalSec < 400.0)
            fail_prob += 0.01;
    }

    const double cpu_sec = cpu_cost / cpu_rate;
    const double io_sec = disk_bytes / disk_share + net_bytes / net_share;
    // Stop-the-world pauses stall the executor's I/O too.
    const double gc_sec = (cpu_sec + 0.6 * io_sec) * gc_frac;
    const double base_sec = cpu_sec + gc_sec + io_sec + fixed_sec;

    // --- Scheduling profile -------------------------------------------------
    TaskProfile profile;
    profile.baseSec = std::max(1e-4, base_sec);
    profile.noiseSigma = 0.04;
    profile.stragglerProb = 0.08;
    profile.stragglerMaxFactor = 0.7; // additive extra, x baseSec
    profile.failureProb = std::clamp(fail_prob, 0.0, 0.72);
    profile.dispatchSec = (0.0015 + 0.004 / std::max(1, k.akkaThreads)) /
        std::min(2.0, 0.75 + 0.25 * k.driverCores);
    profile.startDelaySec = 0.002 * k.schedulerReviveIntervalSec +
        (stage.kind == StageKind::Input ? 0.015 * k.localityWaitSec : 0.0);
    if (stage.kind == StageKind::Input) {
        profile.remoteProb =
            std::max(0.0, 0.35 * std::exp(-k.localityWaitSec / 3.0));
        profile.remotePenaltySec = per_task_in / net_share;
    }

    const auto sched = scheduleStage(partitions, ctx.layout.totalSlots,
                                     profile, k, rng, plan,
                                     fault_stage_id,
                                     ctx.layout.coresPerExecutor,
                                     scratch);

    bool driver_oom = false;
    const double extra = kStageLaunchSec + broadcastSec(stage, ctx) +
        collectSec(stage, job, ctx, &driver_oom);

    out.elapsedSec = sched.elapsedSec + extra;
    out.gcSec = gc_sec * partitions /
        std::max(1, std::min(partitions, ctx.layout.totalSlots));
    out.spilledBytes = spilled * partitions;
    out.failures = sched.failures;
    out.driverOom = driver_oom && !final_attempt;
    out.attempts = sched.attemptsLaunched;
    out.injectedFailures = sched.injectedFailures;
    out.speculativeCopies = sched.speculativeCopies;
    out.executorsLost = sched.executorsLost;
    out.wastedTaskSec = sched.wastedTaskSec;
    out.aborted = sched.aborted && !final_attempt;
    return out;
}

} // namespace

SparkSimulator::SparkSimulator(const cluster::ClusterSpec &cluster)
    : cluster(&cluster)
{
}

RunResult
SparkSimulator::run(const JobDag &job, const conf::Configuration &config,
                    uint64_t seed) const
{
    Scratch scratch;
    return run(job, config, seed, FaultSpec{}, scratch);
}

RunResult
SparkSimulator::run(const JobDag &job, const conf::Configuration &config,
                    uint64_t seed, const FaultSpec &faults) const
{
    Scratch scratch;
    return run(job, config, seed, faults, scratch);
}

RunResult
SparkSimulator::run(const JobDag &job, const conf::Configuration &config,
                    uint64_t seed, Scratch &scratch) const
{
    return run(job, config, seed, FaultSpec{}, scratch);
}

RunResult
SparkSimulator::run(const JobDag &job, const conf::Configuration &config,
                    uint64_t seed, const FaultSpec &faults,
                    Scratch &scratch) const
{
    DAC_ASSERT(!job.stages.empty(), "job has no stages");

    const FaultPlan plan(faults, seed);

    // The run counter is process-global accounting (dac_cli --metrics);
    // the reference is cached so the hot path skips the registry lock.
    static obs::Counter &simRuns =
        obs::globalMetrics().counter("sim.runs");
    simRuns.increment();
    if (plan.active()) {
        static obs::Counter &faultedRuns =
            obs::globalMetrics().counter("sim.runs.faulted");
        faultedRuns.increment();
    }

    obs::ScopedSpan runSpan("sim.run");
    if (runSpan.active()) {
        runSpan.attr("job", job.program);
        runSpan.attr("stages", static_cast<uint64_t>(job.stages.size()));
        if (plan.active())
            runSpan.attr("faults", "on");
    }

    RunContext ctx;
    ctx.cluster = cluster;
    ctx.knobs = SparkKnobs::decode(config);
    ctx.layout = ExecutorLayout::derive(ctx.knobs, *cluster);
    ctx.mem = MemoryModel::derive(ctx.knobs);
    ctx.serde = SerdeModel::derive(ctx.knobs, job);

    Rng rng(combineSeed(seed, 0x5ca1ab1eULL));

    RunResult result;
    result.executorsPerNode = ctx.layout.executorsPerNode;
    result.totalSlots = ctx.layout.totalSlots;
    result.faultsInjected = plan.active();

    // Driver OOM (a deterministic function of the configuration and
    // collect sizes) fails the job; the paper's periodic-job user
    // resubmits, and the third attempt survives on a recovered driver
    // with spilled result serving.
    double carried_time = 0.0; // time wasted by failed job attempts

    for (int attempt = 1; attempt <= kMaxJobAttempts; ++attempt) {
        const bool final_attempt = attempt == kMaxJobAttempts;
        CacheState cache;
        double attempt_time = 0.0;
        bool attempt_failed = false;

        std::vector<StageResult> stages;
        stages.reserve(job.stages.size());
        result.gcTimeSec = 0.0;
        result.spilledBytes = 0.0;

        for (size_t si = 0; si < job.stages.size(); ++si) {
            const StageSpec &stage = job.stages[si];
            StageResult sr;
            sr.name = stage.name;
            sr.group = stage.group;

            for (int it = 0; it < stage.iterations; ++it) {
                const uint64_t stage_id =
                    combineSeed(attempt * 1000 + si, it);
                Rng stage_rng = rng.fork(stage_id);
                const auto outcome = simulateStageIteration(
                    stage, job, ctx, cache, final_attempt, stage_rng,
                    plan, stage_id, scratch.stage);
                if (obs::Tracer::enabled()) {
                    // Simulated (not wall) figures ride along as attrs:
                    // stage timing, GC pauses, spill decisions.
                    obs::instant(
                        "sim.stage",
                        {{"stage", stage.name},
                         {"iteration", std::to_string(it)},
                         {"sim_sec",
                          std::to_string(outcome.elapsedSec)},
                         {"gc_sec", std::to_string(outcome.gcSec)},
                         {"spilled_bytes",
                          std::to_string(outcome.spilledBytes)},
                         {"task_failures",
                          std::to_string(outcome.failures)}});
                    if (plan.active()) {
                        obs::instant(
                            "sim.faults",
                            {{"stage", stage.name},
                             {"attempts",
                              std::to_string(outcome.attempts)},
                             {"injected_failures",
                              std::to_string(outcome.injectedFailures)},
                             {"spec_copies",
                              std::to_string(outcome.speculativeCopies)},
                             {"executors_lost",
                              std::to_string(outcome.executorsLost)},
                             {"wasted_sec",
                              std::to_string(outcome.wastedTaskSec)},
                             {"aborted",
                              outcome.aborted ? "1" : "0"}});
                    }
                }
                sr.timeSec += outcome.elapsedSec;
                sr.gcTimeSec += outcome.gcSec;
                sr.spilledBytes += outcome.spilledBytes;
                sr.taskFailures += outcome.failures;
                sr.taskAttempts += outcome.attempts;
                sr.speculativeCopies += outcome.speculativeCopies;
                sr.wastedTaskSec += outcome.wastedTaskSec;
                result.taskFailures += outcome.failures;
                result.taskAttempts += outcome.attempts;
                result.injectedFailures += outcome.injectedFailures;
                result.speculativeTasks += outcome.speculativeCopies;
                result.executorsLost += outcome.executorsLost;
                result.wastedTaskSec += outcome.wastedTaskSec;
                attempt_time += outcome.elapsedSec;
                if (outcome.aborted) {
                    // A task exhausted spark.task.maxFailures; Spark
                    // fails the job, the periodic-job user resubmits.
                    ++result.stageAborts;
                    attempt_failed = true;
                    break;
                }
                if (outcome.driverOom) {
                    attempt_failed = true;
                    break;
                }
            }

            result.gcTimeSec += sr.gcTimeSec;
            result.spilledBytes += sr.spilledBytes;
            stages.push_back(std::move(sr));
            if (attempt_failed)
                break;
        }

        if (!attempt_failed) {
            result.stages = std::move(stages);
            result.timeSec = carried_time + attempt_time;
            if (runSpan.active()) {
                runSpan.attr("sim_sec", result.timeSec);
                runSpan.attr("restarts", result.jobRestarts);
                if (plan.active()) {
                    runSpan.attr("task_attempts",
                                 static_cast<int64_t>(result.taskAttempts));
                    runSpan.attr("wasted_task_sec", result.wastedTaskSec);
                    runSpan.attr("executors_lost",
                                 static_cast<int64_t>(result.executorsLost));
                }
            }
            return result;
        }

        if (obs::Tracer::enabled()) {
            obs::instant("sim.restart",
                         {{"attempt", std::to_string(attempt)},
                          {"wasted_sec", std::to_string(attempt_time)}});
        }
        ++result.jobRestarts;
        carried_time += attempt_time + 10.0; // tear-down and resubmit
    }

    // Unreachable: the final attempt never reports driver OOM, but
    // keep a defensive return.
    result.timeSec = carried_time;
    return result;
}

} // namespace dac::sparksim
