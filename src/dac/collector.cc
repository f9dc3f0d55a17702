#include "dac/collector.h"

#include <algorithm>
#include <cmath>

#include "conf/generator.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "support/logging.h"

namespace dac::core {

Collector::Collector(const sparksim::SparkSimulator &sim,
                     const workloads::Workload &workload)
    : sim(&sim), workload(&workload)
{
}

CollectResult
Collector::collect(const CollectOptions &options) const
{
    const auto sizes = workload->trainingSizes(options.datasetCount);
    DAC_ASSERT(sizesWellSeparated(sizes),
               "training sizes violate the 10% separation rule");
    return collectAtSizes(sizes, options.runsPerDataset, options.seed,
                          options.sampling);
}

CollectResult
Collector::collectAtSizes(const std::vector<double> &native_sizes,
                          size_t runs_per_size, uint64_t seed,
                          Sampling sampling, Executor *executor) const
{
    DAC_ASSERT(!native_sizes.empty(), "no dataset sizes");
    DAC_ASSERT(runs_per_size > 0, "need at least one run per size");

    obs::ScopedSpan campaign("collect");
    if (campaign.active()) {
        campaign.attr("workload", workload->abbrev());
        campaign.attr("sizes",
                      static_cast<uint64_t>(native_sizes.size()));
        campaign.attr("runs_per_size",
                      static_cast<uint64_t>(runs_per_size));
    }

    // Plan phase (serial): draw every configuration and run seed in
    // the same order the historical serial loop did, so the training
    // set is bit-identical whether the runs below execute serially or
    // across an executor's workers.
    struct PlannedRun
    {
        size_t sizeIndex;
        conf::Configuration config;
        uint64_t runSeed;
    };
    std::vector<PlannedRun> plan;
    plan.reserve(native_sizes.size() * runs_per_size);
    std::vector<sparksim::JobDag> dags;
    std::vector<double> dsizes;
    dags.reserve(native_sizes.size());
    dsizes.reserve(native_sizes.size());

    {
        obs::ScopedSpan planSpan("collect.plan");
        conf::ConfigGenerator gen(conf::ConfigSpace::spark(), Rng(seed));
        Rng run_seeds(combineSeed(seed, 0xC0FFEE));

        for (size_t s = 0; s < native_sizes.size(); ++s) {
            const double native = native_sizes[s];
            dags.push_back(workload->buildDag(native));
            dsizes.push_back(workload->bytesForSize(native));
            // Latin hypercube stratifies per dataset size, so each
            // size's k runs jointly cover every parameter's range.
            const auto lhs_batch = sampling == Sampling::LatinHypercube
                ? gen.latinHypercube(runs_per_size)
                : std::vector<conf::Configuration>{};
            for (size_t r = 0; r < runs_per_size; ++r) {
                auto config = sampling == Sampling::LatinHypercube
                    ? lhs_batch[r]
                    : gen.random();
                // A fresh seed per run stands in for the different
                // "data content" of each production run of a
                // periodic job.
                plan.push_back(PlannedRun{s, std::move(config),
                                          run_seeds.raw()});
            }
        }
    }

    // Execute phase (parallel when an executor is given): each run is
    // independent and the simulator is stateless, so runs land in
    // preallocated slots in plan order. Runs are chunked so each
    // executor task carries one simulator Scratch across its chunk —
    // the batched cost-kernel path — while every run still opens its
    // own collect.run span, exactly as the per-run loop did.
    CollectResult out;
    out.vectors.resize(plan.size());
    static obs::Counter &runsMetric =
        obs::globalMetrics().counter("collect.runs");
    constexpr size_t kRunChunk = 8;
    const size_t chunks = (plan.size() + kRunChunk - 1) / kRunChunk;
    parallelFor(executor, chunks, [&](size_t c) {
        const size_t first = c * kRunChunk;
        const size_t last = std::min(plan.size(), first + kRunChunk);
        sparksim::SparkSimulator::Scratch scratch;
        for (size_t i = first; i < last; ++i) {
            const PlannedRun &run = plan[i];
            obs::ScopedSpan runSpan("collect.run");
            if (runSpan.active()) {
                runSpan.attr("run", static_cast<uint64_t>(i));
                runSpan.attr("size_index",
                             static_cast<uint64_t>(run.sizeIndex));
            }
            const auto result = sim->run(dags[run.sizeIndex],
                                         run.config, run.runSeed,
                                         scratch);
            PerfVector &pv = out.vectors[i];
            pv.timeSec = result.timeSec;
            pv.config = run.config.values();
            pv.dsizeBytes = dsizes[run.sizeIndex];
            if (runSpan.active())
                runSpan.attr("sim_sec", result.timeSec);
        }
    });
    runsMetric.increment(plan.size());
    // Summed in plan order, matching the serial loop's accumulation.
    for (const auto &pv : out.vectors)
        out.simulatedClusterSec += pv.timeSec;
    if (campaign.active()) {
        campaign.attr("vectors", static_cast<uint64_t>(out.vectors.size()));
        campaign.attr("simulated_cluster_sec", out.simulatedClusterSec);
    }
    return out;
}

bool
Collector::sizesWellSeparated(const std::vector<double> &sizes)
{
    for (size_t i = 0; i < sizes.size(); ++i) {
        for (size_t j = i + 1; j < sizes.size(); ++j) {
            const double smaller = std::min(sizes[i], sizes[j]);
            const double diff = std::abs(sizes[i] - sizes[j]);
            if (smaller <= 0.0 || diff / smaller < 0.10 - 1e-12)
                return false;
        }
    }
    return true;
}

} // namespace dac::core
