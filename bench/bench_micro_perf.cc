/**
 * @file
 * Micro-benchmarks (google-benchmark): throughput of the substrate
 * pieces that bound the tuning pipeline — simulator runs, tree
 * training, model prediction, and GA generations. The paper's Table 3
 * cost argument rests on model queries being ~milliseconds.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "conf/generator.h"
#include "dac/collector.h"
#include "dac/modeler.h"
#include "ga/ga.h"
#include "ml/boosting.h"
#include "ml/flat_ensemble.h"
#include "sparksim/simulator.h"
#include "workloads/registry.h"

namespace {

using namespace dac;

const sparksim::SparkSimulator &
simulator()
{
    static const sparksim::SparkSimulator sim(
        cluster::ClusterSpec::paperTestbed());
    return sim;
}

void
BM_SimulatorRun(benchmark::State &state)
{
    const auto &w = workloads::Registry::instance().byAbbrev(
        state.range(0) == 0 ? "WC" : "PR");
    const auto dag = w.buildDag(w.paperSizes().back());
    conf::ConfigGenerator gen(conf::ConfigSpace::spark(), Rng(1));
    const auto cfg = gen.random();
    uint64_t seed = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator().run(dag, cfg, ++seed).timeSec);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorRun)->Arg(0)->Arg(1);

void
BM_SimulatorRunBatch(benchmark::State &state)
{
    // The batched cost sweep: K distinct configurations against one
    // job, back to back through one reused scheduler scratch — the
    // shape every collection campaign and model validation sweep has.
    // items/s counts simulated runs.
    const auto &w = workloads::Registry::instance().byAbbrev("WC");
    const auto dag = w.buildDag(w.paperSizes().back());
    const size_t count = static_cast<size_t>(state.range(0));
    conf::ConfigGenerator gen(conf::ConfigSpace::spark(), Rng(1));
    std::vector<conf::Configuration> configs;
    std::vector<uint64_t> seeds;
    configs.reserve(count);
    seeds.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        configs.push_back(gen.random());
        seeds.push_back(i + 1);
    }
    sparksim::SparkSimulator::Scratch scratch;
    for (auto _ : state) {
        for (size_t i = 0; i < count; ++i) {
            benchmark::DoNotOptimize(
                simulator().run(dag, configs[i], seeds[i], scratch).timeSec);
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(count));
}
BENCHMARK(BM_SimulatorRunBatch)->Arg(64);

void
BM_CollectHundredRuns(benchmark::State &state)
{
    const auto &w = workloads::Registry::instance().byAbbrev("TS");
    core::Collector collector(simulator(), w);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            collector.collectAtSizes({30.0}, 100, 7).vectors.size());
    }
}
BENCHMARK(BM_CollectHundredRuns);

void
BM_TreeTrain2000x42(benchmark::State &state)
{
    ml::DataSet data(42);
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        std::vector<double> x(42);
        for (double &v : x)
            v = rng.uniform();
        data.addRow(x, x[0] * 10.0 + x[1]);
    }
    ml::TreeParams tp;
    tp.treeComplexity = static_cast<int>(state.range(0));
    for (auto _ : state) {
        ml::RegressionTree tree(tp);
        tree.train(data);
        benchmark::DoNotOptimize(tree.splitCount());
    }
}
BENCHMARK(BM_TreeTrain2000x42)->Arg(1)->Arg(5);

void
BM_BoostTrain500x42(benchmark::State &state)
{
    // GBRT training cost at modeler scale: 42 features, a few hundred
    // rows per band, a couple hundred trees (Table 3 "modeling").
    ml::DataSet data(42);
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        std::vector<double> x(42);
        for (double &v : x)
            v = rng.uniform();
        data.addRow(x, x[0] * 10.0 + x[1] * x[2] + x[3]);
    }
    ml::BoostParams bp;
    bp.maxTrees = 200;
    bp.convergencePatience = 0;
    bp.targetErrorPct = 0.0;
    for (auto _ : state) {
        ml::GradientBoost boost(bp);
        boost.train(data);
        benchmark::DoNotOptimize(boost.treeCount());
    }
}
BENCHMARK(BM_BoostTrain500x42);

/** A trained HM at modeler scale, shared by the prediction rows (the
 *  collect+train setup dominates each bench body otherwise). */
struct TrainedModel
{
    core::ModelReport report;
    std::unique_ptr<const ml::FlatEnsemble> flat;
    std::vector<double> features;
};

const TrainedModel &
trainedModel()
{
    static const TrainedModel tm = [] {
        const auto &w = workloads::Registry::instance().byAbbrev("TS");
        core::Collector collector(simulator(), w);
        const auto data =
            collector.collectAtSizes({20.0, 35.0, 50.0}, 60, 7);
        ml::HmParams hm;
        hm.firstOrder.maxTrees = 300;
        TrainedModel out{core::buildAndValidate(core::ModelKind::HM,
                                                data.vectors, hm, true,
                                                5),
                         nullptr,
                         {}};
        out.flat = out.report.model->compile();
        out.features = core::toFeatures(
            conf::Configuration(conf::ConfigSpace::spark()),
            w.bytesForSize(50.0), true);
        return out;
    }();
    return tm;
}

void
BM_ModelPredict(benchmark::State &state)
{
    // The paper's point: a model query is ~ms vs minutes per real run.
    const TrainedModel &tm = trainedModel();
    for (auto _ : state)
        benchmark::DoNotOptimize(tm.report.model->predict(tm.features));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelPredict);

void
BM_ModelPredictCompiled(benchmark::State &state)
{
    // The same query through the compiled ensemble (the GA's path).
    const TrainedModel &tm = trainedModel();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tm.flat->predict(tm.features.data(), tm.features.size()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelPredictCompiled);

/** A single-row FlatEnsemble walk: predictSerial or predict. */
using Walk = double (ml::FlatEnsemble::*)(const double *, size_t) const;

/** The same compiled query on the serial reference walk and on the
 *  blocked walk (BM_ModelPredictKernel/{serial,scalar}). */
void
BM_ModelPredictKernel(benchmark::State &state, Walk walk)
{
    const TrainedModel &tm = trainedModel();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ((*tm.flat).*walk)(tm.features.data(), tm.features.size()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ModelPredictKernel, serial,
                  &ml::FlatEnsemble::predictSerial);
BENCHMARK_CAPTURE(BM_ModelPredictKernel, scalar,
                  &ml::FlatEnsemble::predict);

void
BM_GaGeneration(benchmark::State &state)
{
    auto objective = [](const std::vector<double> &x) {
        double s = 0.0;
        for (double v : x)
            s += (v - 0.5) * (v - 0.5);
        return s;
    };
    for (auto _ : state) {
        ga::GaParams p;
        p.maxGenerations = 10;
        p.convergencePatience = 0;
        ga::GeneticAlgorithm ga(p);
        benchmark::DoNotOptimize(ga.minimize(objective, 41).bestFitness);
    }
}
BENCHMARK(BM_GaGeneration);

} // namespace

BENCHMARK_MAIN();
