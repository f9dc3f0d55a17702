#include "dac/tuner.h"

#include "support/logging.h"

namespace dac::core {

conf::Configuration
DefaultTuner::configFor(const workloads::Workload &, double)
{
    return conf::Configuration(conf::ConfigSpace::spark());
}

ExpertTuner::ExpertTuner(const cluster::ClusterSpec &cluster)
    : config(conf::expertSparkConfig(cluster))
{
}

conf::Configuration
ExpertTuner::configFor(const workloads::Workload &, double)
{
    return config;
}

ModelBasedTuner::ModelBasedTuner(const sparksim::SparkSimulator &sim,
                                 AutoTuneOptions options, ModelKind kind,
                                 bool datasize_aware)
    : sim(&sim), options(std::move(options)), kind(kind),
      datasizeAware(datasize_aware)
{
}

TrainedModel &
ModelBasedTuner::ensureTrained(const workloads::Workload &workload)
{
    const std::string &abbrev = workload.abbrev();
    auto it = trained.find(abbrev);
    if (it == trained.end()) {
        auto record = train(
            *sim, workload,
            workload.trainingSizes(options.collect.datasetCount), options,
            combineSeed(options.seed, abbrev.size() + abbrev.front()),
            options.seed, kind, datasizeAware, nullptr);
        it = trained.emplace(abbrev, std::move(*record)).first;
    }
    return it->second;
}

const TrainedModel &
ModelBasedTuner::trainedFor(const std::string &abbrev) const
{
    auto it = trained.find(abbrev);
    if (it == trained.end())
        fatalError("workload has not been tuned: " + abbrev);
    return it->second;
}

conf::Configuration
ModelBasedTuner::configFor(const workloads::Workload &workload,
                           double native_size)
{
    TrainedModel &record = ensureTrained(workload);
    auto result = search(record, workload, native_size, options.ga,
                         datasizeAware, options.seed, nullptr);
    record.overhead.searchingSec += result.wallSec;
    lastGa = std::move(result.ga);
    return result.best;
}

const TunerOverhead &
ModelBasedTuner::overhead(const std::string &abbrev) const
{
    return trainedFor(abbrev).overhead;
}

double
ModelBasedTuner::modelError(const std::string &abbrev) const
{
    return trainedFor(abbrev).modelErrorPct;
}

DacTuner::DacTuner(const sparksim::SparkSimulator &sim,
                   AutoTuneOptions options)
    : ModelBasedTuner(sim, std::move(options), ModelKind::HM, true)
{
}

RfhocTuner::RfhocTuner(const sparksim::SparkSimulator &sim,
                       AutoTuneOptions options)
    : ModelBasedTuner(sim, std::move(options), ModelKind::RF, false)
{
}

} // namespace dac::core
