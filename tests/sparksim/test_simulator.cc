/** @file Behavioural tests for the Spark simulator. */

#include <gtest/gtest.h>

#include <functional>

#include "sparksim/simulator.h"
#include "support/units.h"
#include "workloads/registry.h"

namespace dac::sparksim {
namespace {

const cluster::ClusterSpec &
testbed()
{
    return cluster::ClusterSpec::paperTestbed();
}

conf::Configuration
config(std::function<void(conf::Configuration &)> edit = {})
{
    conf::Configuration c(conf::ConfigSpace::spark());
    if (edit)
        edit(c);
    return c;
}

/** A reasonable hand-tuned configuration for sanity baselines. */
conf::Configuration
sane()
{
    return config([](auto &c) {
        c.set(conf::ExecutorCores, 4);
        c.set(conf::ExecutorMemory, 8192);
        c.set(conf::DefaultParallelism, 48);
        c.set(conf::SerializerClass, 1);
    });
}

JobDag
dagFor(const std::string &abbrev, int size_index = 2)
{
    const auto &w = workloads::Registry::instance().byAbbrev(abbrev);
    return w.buildDag(w.paperSizes()[static_cast<size_t>(size_index)]);
}

TEST(Simulator, DeterministicForSameSeed)
{
    SparkSimulator sim(testbed());
    const auto dag = dagFor("TS");
    const auto a = sim.run(dag, sane(), 42);
    const auto b = sim.run(dag, sane(), 42);
    EXPECT_DOUBLE_EQ(a.timeSec, b.timeSec);
    EXPECT_DOUBLE_EQ(a.gcTimeSec, b.gcTimeSec);
    EXPECT_EQ(a.taskFailures, b.taskFailures);
}

TEST(Simulator, SeedVariesDataContent)
{
    SparkSimulator sim(testbed());
    const auto dag = dagFor("TS");
    const auto a = sim.run(dag, sane(), 1);
    const auto b = sim.run(dag, sane(), 2);
    EXPECT_NE(a.timeSec, b.timeSec);
    // ...but only mildly (periodic jobs with similar input sizes).
    EXPECT_LT(std::abs(a.timeSec - b.timeSec) / a.timeSec, 0.5);
}

TEST(Simulator, MoreDataTakesLonger)
{
    SparkSimulator sim(testbed());
    for (const auto &w : workloads::Registry::instance().all()) {
        const auto sizes = w->paperSizes();
        const double small = sim.run(w->buildDag(sizes.front()), sane(),
                                     7).timeSec;
        const double large = sim.run(w->buildDag(sizes.back()), sane(),
                                     7).timeSec;
        EXPECT_GT(large, small) << w->name();
    }
}

TEST(Simulator, DefaultConfigIsFarFromOptimal)
{
    // The paper's headline observation: defaults crawl at large sizes.
    SparkSimulator sim(testbed());
    for (const char *abbrev : {"PR", "KM", "BA", "NW", "TS"}) {
        const auto dag = dagFor(abbrev, 4);
        const double def = sim.run(dag, config(), 7).timeSec;
        const double tuned = sim.run(dag, sane(), 7).timeSec;
        EXPECT_GT(def, 1.8 * tuned) << abbrev;
    }
}

TEST(Simulator, ReportsPerStageResults)
{
    SparkSimulator sim(testbed());
    const auto r = sim.run(dagFor("KM"), sane(), 7);
    ASSERT_EQ(r.stages.size(), 5u);
    EXPECT_EQ(r.stages[0].group, "stageA");
    EXPECT_EQ(r.stages[2].group, "stageC");
    double sum = 0.0;
    for (const auto &s : r.stages) {
        EXPECT_GT(s.timeSec, 0.0);
        EXPECT_GE(s.gcTimeSec, 0.0);
        sum += s.timeSec;
    }
    EXPECT_NEAR(sum, r.timeSec, 1e-6);
}

TEST(Simulator, KmStageCDominates)
{
    // Figure 13: the iterative aggregate stage dominates KMeans.
    SparkSimulator sim(testbed());
    const auto r = sim.run(dagFor("KM"), config(), 7);
    double stage_c = 0.0;
    for (const auto &s : r.stages) {
        if (s.group == "stageC")
            stage_c = s.timeSec;
    }
    EXPECT_GT(stage_c, 0.5 * r.timeSec);
}

TEST(Simulator, TsStage2Dominates)
{
    // Section 5.8: TeraSort Stage2 takes ~90% of the time.
    SparkSimulator sim(testbed());
    const auto r = sim.run(dagFor("TS", 4), config(), 7);
    ASSERT_EQ(r.stages.size(), 2u);
    EXPECT_GT(r.stages[1].timeSec, 0.7 * r.timeSec);
}

TEST(Simulator, BiggerExecutorMemoryReducesGcUnderPressure)
{
    SparkSimulator sim(testbed());
    const auto dag = dagFor("TS", 4);
    const auto small = config([](auto &c) {
        c.set(conf::ExecutorMemory, 1024);
        c.set(conf::DefaultParallelism, 30);
    });
    const auto large = config([](auto &c) {
        c.set(conf::ExecutorMemory, 12288);
        c.set(conf::DefaultParallelism, 30);
    });
    const auto a = sim.run(dag, small, 7);
    const auto b = sim.run(dag, large, 7);
    EXPECT_GT(a.gcTimeSec, b.gcTimeSec);
    EXPECT_GT(a.timeSec, b.timeSec);
}

TEST(Simulator, SerializedCacheHelpsIterativeJobsAtScale)
{
    // The datasize-aware insight: at large sizes the deserialized
    // cache no longer fits; kryo + rdd.compress keeps iterations
    // memory-resident.
    SparkSimulator sim(testbed());
    const auto dag = dagFor("PR", 4);
    const auto deser = config([](auto &c) {
        c.set(conf::ExecutorCores, 4);
        c.set(conf::ExecutorMemory, 10240);
        c.set(conf::DefaultParallelism, 48);
    });
    const auto ser = config([](auto &c) {
        c.set(conf::ExecutorCores, 4);
        c.set(conf::ExecutorMemory, 10240);
        c.set(conf::DefaultParallelism, 48);
        c.set(conf::SerializerClass, 1);
        c.set(conf::RddCompress, 1);
    });
    EXPECT_LT(sim.run(dag, ser, 7).timeSec,
              sim.run(dag, deser, 7).timeSec);
}

TEST(Simulator, TinyDriverOomsOnCollectHeavyJobs)
{
    // Bayes collects a sizable model; a tiny driver forces job
    // restarts (deterministic in the configuration).
    SparkSimulator sim(testbed());
    const auto dag = dagFor("BA", 4);
    const auto tiny = config([](auto &c) {
        c.set(conf::DriverMemory, 1024);
        c.set(conf::DefaultParallelism, 48);
        c.set(conf::ExecutorMemory, 8192);
        c.set(conf::ExecutorCores, 4);
    });
    const auto big = config([](auto &c) {
        c.set(conf::DriverMemory, 12288);
        c.set(conf::DefaultParallelism, 48);
        c.set(conf::ExecutorMemory, 8192);
        c.set(conf::ExecutorCores, 4);
    });
    const auto a = sim.run(dag, tiny, 7);
    const auto b = sim.run(dag, big, 7);
    EXPECT_GT(a.jobRestarts, 0);
    EXPECT_EQ(b.jobRestarts, 0);
    EXPECT_GT(a.timeSec, b.timeSec);
}

TEST(Simulator, DisablingSpillRisksFailuresUnderPressure)
{
    // Moderate pressure: with spilling the sort fits after spilling;
    // without it the aggregation buffers overflow and tasks fail.
    SparkSimulator sim(testbed());
    const auto dag = dagFor("TS", 2);
    auto base = [](conf::Configuration &c) {
        c.set(conf::ExecutorMemory, 8192);
        c.set(conf::ExecutorCores, 2);
        c.set(conf::DefaultParallelism, 20);
    };
    const auto spill_off = config([&](auto &c) {
        base(c);
        c.set(conf::ShuffleSpill, 0);
    });
    const auto spill_on = config(base);
    EXPECT_GT(sim.run(dag, spill_off, 7).taskFailures,
              sim.run(dag, spill_on, 7).taskFailures);
}

TEST(Simulator, ExecutorLayoutReported)
{
    SparkSimulator sim(testbed());
    const auto r = sim.run(dagFor("WC", 0), sane(), 7);
    EXPECT_EQ(r.executorsPerNode, 3); // floor(12/4) capped by memory
    EXPECT_EQ(r.totalSlots, 60);
}

TEST(Simulator, ScratchReuseAcrossJobsIsByteIdentical)
{
    // One Scratch carried across different DAGs and configurations —
    // the collector's per-chunk pattern — must not change any result.
    SparkSimulator sim(testbed());
    SparkSimulator::Scratch scratch;
    for (const char *abbrev : {"WC", "TS", "PR"}) {
        const auto dag = dagFor(abbrev, 1);
        const auto c = sane();
        EXPECT_EQ(sim.run(dag, c, 42).timeSec,
                  sim.run(dag, c, 42, scratch).timeSec)
            << abbrev;
    }
    // Configurations that grow and shrink the executor layout, so the
    // scratch's buffers are reused below and above their high-water
    // mark.
    const auto dag = dagFor("WC", 1);
    for (int i = 0; i < 20; ++i) {
        const auto c = config([&](auto &cfg) {
            cfg.set(conf::ExecutorCores, 1 + i % 4);
            cfg.set(conf::ExecutorMemory, 4096 + 1500 * (i % 6));
            cfg.set(conf::DefaultParallelism, 16 + 8 * (i % 5));
        });
        const uint64_t seed = static_cast<uint64_t>(1000 + i);
        const auto single = sim.run(dag, c, seed);
        const auto reused = sim.run(dag, c, seed, scratch);
        EXPECT_EQ(single.timeSec, reused.timeSec) << "run " << i;
        EXPECT_EQ(single.taskFailures, reused.taskFailures) << "run " << i;
        EXPECT_EQ(single.totalSlots, reused.totalSlots) << "run " << i;
    }
}

TEST(Simulator, EmptyJobPanics)
{
    SparkSimulator sim(testbed());
    JobDag empty;
    empty.program = "empty";
    EXPECT_THROW(sim.run(empty, sane(), 1), std::logic_error);
}

} // namespace
} // namespace dac::sparksim
