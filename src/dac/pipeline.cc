#include "dac/pipeline.h"

#include "obs/tracer.h"
#include "support/logging.h"

namespace dac::core {

AutoTuneOptions::AutoTuneOptions()
{
    // Reduced-scale defaults for the 1-core container; the benches
    // raise these toward paper scale (m=10, k=200, nt=3600) via
    // --full. See EXPERIMENTS.md.
    collect.datasetCount = 10;
    collect.runsPerDataset = 80;
    hm.firstOrder.maxTrees = 400;
    hm.firstOrder.learningRate = 0.05;
    hm.firstOrder.treeComplexity = 5;
    ga.populationSize = 50;
    ga.maxGenerations = 100;
    ga.mutationRate = 0.01;
}

std::optional<TrainedModel>
train(const sparksim::SparkSimulator &sim,
      const workloads::Workload &workload,
      const std::vector<double> &native_sizes,
      const AutoTuneOptions &options, uint64_t collect_seed,
      uint64_t model_seed, ModelKind kind, bool datasize_aware,
      Executor *executor, const CancelToken *cancel)
{
    const auto cancelled = [cancel] {
        return cancel != nullptr && cancel->cancelled();
    };
    DAC_ASSERT(Collector::sizesWellSeparated(native_sizes),
               "training sizes violate the 10% separation rule");
    if (cancelled())
        return std::nullopt;

    TrainedModel trained;
    // Collecting (the dominant cost in Table 3).
    {
        obs::ScopedSpan phase("phase.collect");
        if (phase.active())
            phase.attr("workload", workload.abbrev());
        auto collected = Collector(sim, workload).collectAtSizes(
            native_sizes, options.collect.runsPerDataset, collect_seed,
            options.collect.sampling, executor);
        trained.vectors = std::move(collected.vectors);
        trained.overhead.collectingHours =
            collected.simulatedClusterSec / 3600.0;
        trained.overhead.trainingRuns = trained.vectors.size();
    }

    if (cancelled())
        return std::nullopt;

    // Modeling; the token only stops HM refinement from here on.
    {
        obs::ScopedSpan phase("phase.model");
        if (phase.active())
            phase.attr("kind", modelKindName(kind));
        ml::HmParams hm = options.hm;
        hm.cancel = cancel;
        auto report = buildAndValidate(kind, trained.vectors, hm,
                                       datasize_aware, model_seed);
        trained.model = std::move(report.model);
        trained.compiled = trained.model->compile();
        trained.overhead.modelingSec = report.trainWallSec;
        trained.modelErrorPct = report.testErrorPct;
        if (phase.active())
            phase.attr("test_error_pct", trained.modelErrorPct);
    }
    return trained;
}

SearchResult
search(const TrainedModel &trained, const workloads::Workload &workload,
       double native_size, const ga::GaParams &ga_params,
       bool datasize_aware, uint64_t seed, Executor *executor,
       const CancelToken *cancel)
{
    obs::ScopedSpan phase("phase.search");
    if (phase.active())
        phase.attr("size", native_size);

    // Seed the GA population with configurations from S (Figure 6).
    const auto &space = conf::ConfigSpace::spark();
    std::vector<conf::Configuration> seeds;
    Rng rng(combineSeed(seed, static_cast<uint64_t>(native_size)));
    const size_t want =
        std::min<size_t>(ga_params.populationSize / 2,
                         trained.vectors.size());
    for (size_t i = 0; i < want; ++i) {
        const auto &pv = trained.vectors[rng.index(trained.vectors.size())];
        seeds.emplace_back(space, pv.config);
    }

    Searcher searcher(*trained.model, space, datasize_aware);
    searcher.setCompiled(trained.compiled.get());
    ga::GaParams params = ga_params;
    params.seed = combineSeed(seed,
                              static_cast<uint64_t>(native_size * 1000));
    params.executor = executor;
    params.cancel = cancel;
    return searcher.search(workload.bytesForSize(native_size), params,
                           seeds);
}

} // namespace dac::core
