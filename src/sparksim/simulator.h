/**
 * @file
 * The Spark simulator facade: runs a JobDag under a Configuration on a
 * ClusterSpec and returns timing, GC, spill and failure results.
 *
 * This is the substitute substrate for the paper's 6-node Spark 1.6
 * cluster (see DESIGN.md): a task-level cost simulator whose response
 * surface is driven by all 41 parameters of Table 2 plus the input
 * dataset size.
 */

#ifndef DAC_SPARKSIM_SIMULATOR_H
#define DAC_SPARKSIM_SIMULATOR_H

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "conf/config.h"
#include "sparksim/dag.h"
#include "sparksim/faults.h"
#include "sparksim/runresult.h"
#include "sparksim/scheduler.h"

namespace dac::sparksim {

/**
 * Simulates Spark job executions on a fixed cluster.
 *
 * Stateless apart from the cluster reference: run() is const, thread-
 * compatible, and deterministic for a given (job, config, seed).
 */
class SparkSimulator
{
  public:
    /**
     * Reusable per-worker buffers for a sweep of runs. A tuning
     * pipeline simulates thousands of (configuration, seed) runs
     * back to back; carrying one Scratch across them caps the
     * scheduler's per-stage allocations at the high-water mark of
     * the largest stage instead of paying them per stage. Purely an
     * optimization: results are bit-identical with or without one.
     * Not thread-safe — use one Scratch per worker.
     */
    struct Scratch
    {
        StageScratch stage;
    };

    /** Bind the simulator to a cluster (must outlive the simulator). */
    explicit SparkSimulator(const cluster::ClusterSpec &cluster);

    /**
     * Execute one job.
     *
     * @param job    The program's stage DAG at a concrete input size.
     * @param config A Spark-space configuration (41 parameters).
     * @param seed   Run seed; stands in for "data content" variation.
     */
    RunResult run(const JobDag &job, const conf::Configuration &config,
                  uint64_t seed) const;

    /**
     * Execute one job under fault injection.
     *
     * With `faults` disabled (all probabilities zero, the default
     * FaultSpec) this is byte-identical to the overload above: the
     * fault plan consumes no randomness and every code path reduces
     * to the fault-free one. With faults enabled, task attempts are
     * simulated discretely — injected failures retried up to
     * spark.task.maxFailures (a stage abort restarts the job),
     * injected stragglers cut short by speculation, executor loss
     * shrinking the slot pool — and the attempt counts, wasted work,
     * and loss events are surfaced in the RunResult.
     *
     * Deterministic for a given (job, config, seed, faults.seed)
     * regardless of calling thread or query order.
     */
    RunResult run(const JobDag &job, const conf::Configuration &config,
                  uint64_t seed, const FaultSpec &faults) const;

    /** run() with caller-owned scratch buffers (same bits). */
    RunResult run(const JobDag &job, const conf::Configuration &config,
                  uint64_t seed, Scratch &scratch) const;

    /** Faulted run() with caller-owned scratch buffers (same bits). */
    RunResult run(const JobDag &job, const conf::Configuration &config,
                  uint64_t seed, const FaultSpec &faults,
                  Scratch &scratch) const;

    const cluster::ClusterSpec &clusterSpec() const { return *cluster; }

  private:
    const cluster::ClusterSpec *cluster;
};

} // namespace dac::sparksim

#endif // DAC_SPARKSIM_SIMULATOR_H
