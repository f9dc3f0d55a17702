/**
 * @file
 * The collecting component (Section 3.1): generate random
 * configurations (CG), run the program on m dataset sizes that differ
 * pairwise by at least 10% (Eq. 4), and record performance vectors.
 */

#ifndef DAC_DAC_COLLECTOR_H
#define DAC_DAC_COLLECTOR_H

#include <cstdint>

#include "dac/perfvector.h"
#include "sparksim/simulator.h"
#include "support/executor.h"
#include "workloads/workload.h"

namespace dac::core {

/** How the configuration generator samples the space. */
enum class Sampling {
    Random,         ///< independent uniform draws (the paper's CG)
    LatinHypercube, ///< stratified draws; better coverage per sample
};

/** Collection settings. */
struct CollectOptions
{
    /** Distinct dataset sizes (the paper's m = 10). */
    size_t datasetCount = 10;
    /** Runs per dataset size (the paper's k; k * m = ntrain). */
    size_t runsPerDataset = 200;
    /** Configuration sampling scheme. */
    Sampling sampling = Sampling::Random;
    uint64_t seed = 11;
};

/** Output of a collection campaign. */
struct CollectResult
{
    std::vector<PerfVector> vectors;
    /** Sum of simulated run times: the "cluster time" cost the
     *  paper's Table 3 reports in hours. */
    double simulatedClusterSec = 0.0;
};

/**
 * Drives experiments against the simulator and gathers training data.
 */
class Collector
{
  public:
    Collector(const sparksim::SparkSimulator &sim,
              const workloads::Workload &workload);

    /** Run the full campaign for one program, serially. */
    CollectResult collect(const CollectOptions &options) const;

    /**
     * Collect at explicit native sizes (used by ablations, by the
     * model-accuracy figures, which also need held-out test sets, and
     * by core::train). Runs spread over `executor` (borrowed; nullptr
     * = serial); configurations and run seeds are planned serially
     * first, so the collected set is bit-identical for any thread
     * count.
     */
    CollectResult collectAtSizes(const std::vector<double> &native_sizes,
                                 size_t runs_per_size, uint64_t seed,
                                 Sampling sampling = Sampling::Random,
                                 Executor *executor = nullptr) const;

    /** Verify Eq. 4: every pair of sizes differs by >= 10%. */
    static bool sizesWellSeparated(const std::vector<double> &sizes);

  private:
    const sparksim::SparkSimulator *sim;
    const workloads::Workload *workload;
};

} // namespace dac::core

#endif // DAC_DAC_COLLECTOR_H
