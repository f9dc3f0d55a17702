/**
 * @file
 * DAC's tuning procedure (Section 3, Figure 6), written once: train()
 * collects m * k runs and trains the performance model; search()
 * GA-searches the 41 knobs at a target size, seeding the population
 * from the training set S. The model-based tuners (tuner.h) and the
 * tuning service both run it and keep its product, a TrainedModel,
 * per workload or per cache entry; snapshots store the same record.
 */

#ifndef DAC_DAC_PIPELINE_H
#define DAC_DAC_PIPELINE_H

#include <memory>
#include <optional>
#include <vector>

#include "dac/collector.h"
#include "dac/modeler.h"
#include "dac/searcher.h"
#include "ml/flat_ensemble.h"

namespace dac::core {

/** Per-workload tuning cost broken down as in Table 3. */
struct TunerOverhead
{
    /** Simulated cluster time spent collecting training data, hours
     *  (the paper's "Collecting (h)" column). */
    double collectingHours = 0.0;
    /** Wall seconds training the model ("Modeling (s)"). */
    double modelingSec = 0.0;
    /** Wall seconds searching; the paper reports minutes. */
    double searchingSec = 0.0;
    /** Training runs executed (ntrain = m * k). */
    size_t trainingRuns = 0;
};

/** Collection, model and GA settings of one tuning procedure. */
struct AutoTuneOptions
{
    CollectOptions collect;
    ml::HmParams hm;
    ga::GaParams ga;
    uint64_t seed = 17;

    AutoTuneOptions();
};

/** What train() produces and every search against the model needs. */
struct TrainedModel
{
    /** The trained performance model (HM for DAC). */
    std::shared_ptr<const ml::Model> model;
    /** The model compiled once, at train time (flat_ensemble.h);
     *  searches score through it. Null for non-compilable models. */
    std::shared_ptr<const ml::FlatEnsemble> compiled;
    /** Training set S; the GA seeds its population from it (Fig. 6). */
    std::vector<PerfVector> vectors;
    /** Cross-validated model error, percent (Eq. 2). */
    double modelErrorPct = 0.0;
    /** Collection/modeling cost paid to build this record (Table 3). */
    TunerOverhead overhead;
};

/**
 * Collect `options.collect.runsPerDataset` runs at each of
 * `native_sizes` (span phase.collect), spread over `executor`
 * (nullptr = serial) with bit-identical results; then train,
 * cross-validate and compile a `kind` model (span phase.model).
 * `cancel` (nullptr = never) is polled before collection, before
 * modeling — nullopt if it fired — and between HM rounds, which stops
 * refinement but still returns the model.
 */
std::optional<TrainedModel> train(const sparksim::SparkSimulator &sim,
                                  const workloads::Workload &workload,
                                  const std::vector<double> &native_sizes,
                                  const AutoTuneOptions &options,
                                  uint64_t collect_seed, uint64_t model_seed,
                                  ModelKind kind, bool datasize_aware,
                                  Executor *executor,
                                  const CancelToken *cancel = nullptr);

/**
 * GA-search the configuration minimizing `trained`'s predicted time
 * at `native_size` (span phase.search): up to half a population of
 * seeds drawn from S by Rng(combineSeed(seed, size)), then
 * `ga_params` seeded with combineSeed(seed, size * 1000), scoring on
 * `executor` and polling `cancel` between generations.
 */
SearchResult search(const TrainedModel &trained,
                    const workloads::Workload &workload, double native_size,
                    const ga::GaParams &ga_params, bool datasize_aware,
                    uint64_t seed, Executor *executor,
                    const CancelToken *cancel = nullptr);

} // namespace dac::core

#endif // DAC_DAC_PIPELINE_H
