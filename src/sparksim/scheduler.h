/**
 * @file
 * Wave-level task scheduler: packs a stage's tasks onto the cluster's
 * slots, applying dispatch overheads, locality waits, straggler noise,
 * speculative re-execution, and failure/retry semantics.
 *
 * Two execution modes share the wave model:
 *
 *  - the smooth path (no FaultPlan) costs retries in expectation so
 *    the response surface the models learn stays differentiable;
 *  - the faulted path (an active FaultPlan) simulates discrete task
 *    attempts — injected failures retried up to spark.task.maxFailures,
 *    injected stragglers cut short by speculative copies, executor
 *    loss shrinking the slot pool mid-stage — and surfaces the attempt
 *    counts and wasted work.
 */

#ifndef DAC_SPARKSIM_SCHEDULER_H
#define DAC_SPARKSIM_SCHEDULER_H

#include <vector>

#include "sparksim/faults.h"
#include "sparksim/knobs.h"
#include "support/random.h"

namespace dac::sparksim {

/** Statistical profile of one stage's tasks. */
struct TaskProfile
{
    /** Nominal task duration, seconds. */
    double baseSec = 1.0;
    /** Lognormal sigma of per-task duration noise. */
    double noiseSigma = 0.10;
    /** Probability a task is a straggler (heavy tail). */
    double stragglerProb = 0.04;
    /** Straggler slowdown is uniform in [2, this]. */
    double stragglerMaxFactor = 6.0;
    /** Probability one attempt fails (OOM, fetch failure, serde). */
    double failureProb = 0.0;
    /** Driver-side dispatch cost per task launch, seconds. */
    double dispatchSec = 0.002;
    /** Expected scheduling delay per task start (locality, revive). */
    double startDelaySec = 0.0;
    /** Extra duration when a task runs non-locally. */
    double remotePenaltySec = 0.0;
    /** Probability a task runs non-locally. */
    double remoteProb = 0.0;
};

/** Outcome of scheduling one stage. */
struct StageSchedule
{
    /** Wall-clock seconds from stage submit to last task end. */
    double elapsedSec = 0.0;
    /** Sum of all task-attempt durations (resource seconds). */
    double totalTaskSec = 0.0;
    /** Expected failed attempts (retries are costed in expectation so
     *  the response surface stays smooth; see scheduler.cc). */
    int failures = 0;

    // Discrete fault-injection accounting; all zero on the smooth path.

    /** Task attempts actually launched (first tries + retries +
     *  executor-loss re-runs). */
    int attemptsLaunched = 0;
    /** Attempts killed by the fault plan. */
    int injectedFailures = 0;
    /** Speculative copies launched against injected stragglers. */
    int speculativeCopies = 0;
    /** Executors lost mid-stage. */
    int executorsLost = 0;
    /** Task-seconds burned on attempts whose work was discarded
     *  (failed attempts, outrun originals, work on dead executors). */
    double wastedTaskSec = 0.0;
    /** A task exhausted spark.task.maxFailures; the stage aborts. */
    bool aborted = false;
};

/**
 * Reusable buffers for the smooth scheduling kernel. A GA-driven
 * tuning request sweeps thousands of stage schedules (configurations
 * x stages x iterations); without a scratch each sweep pays one heap
 * allocation per stage for the slot heap. Callers that loop — the
 * collector's chunked runs, model validation sweeps — carry one
 * scratch per worker thread and the whole sweep allocates only until
 * the high-water mark is reached. Contents are transient; only the
 * capacity persists between calls.
 */
struct StageScratch
{
    /** Phase-1 SoA buffer: every task's drawn duration, in seconds
     *  (retry inflation applied). */
    std::vector<double> taskSec;
    /** Phase-2 binary min-heap of slot free times. */
    std::vector<double> slotFree;
};

/**
 * Schedule `num_tasks` tasks of the given profile onto `slots` slots.
 *
 * Speculation (when enabled in the knobs) re-launches tasks whose
 * duration exceeds multiplier x median once the quantile threshold of
 * tasks has completed; the effective duration becomes the earlier of
 * the original and the copy.
 */
StageSchedule scheduleStage(int num_tasks, int slots,
                            const TaskProfile &profile,
                            const SparkKnobs &knobs, Rng &rng);

/**
 * The smooth path as a two-phase batched kernel over `scratch`:
 * phase 1 draws every task's duration from `rng` in the exact order
 * the per-task loop draws them, fusing the straggler/speculation and
 * retry accounting into the sweep; phase 2 packs the durations onto
 * the slot heap (std::push_heap/pop_heap on scratch.slotFree — the
 * same algorithm std::priority_queue runs, on the same values).
 * Byte-identical StageSchedule to the overload above, allocation-free
 * once the scratch has grown to the largest stage seen.
 */
StageSchedule scheduleStage(int num_tasks, int slots,
                            const TaskProfile &profile,
                            const SparkKnobs &knobs, Rng &rng,
                            StageScratch &scratch);

/**
 * Schedule with fault injection. With an inactive `plan` this is the
 * exact smooth path above (same draws from `rng`, byte-identical
 * result). With an active plan, tasks run as discrete attempts:
 *
 *  - plan.attemptFails() kills an attempt halfway through; the task
 *    retries until it succeeds or exhausts knobs.taskMaxFailures, at
 *    which point the stage aborts (StageSchedule::aborted);
 *  - plan.taskStraggles() stretches a task by spec().stragglerFactor;
 *    with speculation enabled a copy is launched at the detection
 *    point and the earlier finisher wins, the loser's overrun counted
 *    as wasted work;
 *  - plan.executorLossBefore() removes one executor's
 *    `slots_per_executor` slots mid-stage; attempts running there are
 *    discarded and re-run on the survivors.
 *
 * @param stage_id           Identifies the stage iteration to the
 *                           plan (fault decisions key off it).
 * @param slots_per_executor Slots an executor loss removes (>= 1).
 */
StageSchedule scheduleStage(int num_tasks, int slots,
                            const TaskProfile &profile,
                            const SparkKnobs &knobs, Rng &rng,
                            const FaultPlan &plan, uint64_t stage_id,
                            int slots_per_executor);

/**
 * Fault-capable entry with a caller-provided scratch: the inactive-
 * plan (smooth) path runs the batched kernel above allocation-free;
 * an active plan takes the discrete faulted path, which is cold by
 * construction (fault injection is a test/analysis mode) and keeps
 * its own storage.
 */
StageSchedule scheduleStage(int num_tasks, int slots,
                            const TaskProfile &profile,
                            const SparkKnobs &knobs, Rng &rng,
                            const FaultPlan &plan, uint64_t stage_id,
                            int slots_per_executor,
                            StageScratch &scratch);

} // namespace dac::sparksim

#endif // DAC_SPARKSIM_SCHEDULER_H
