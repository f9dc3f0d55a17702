/** @file End-to-end integration tests across the whole DAC pipeline. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "dac/evaluation.h"
#include "dac/tuner.h"
#include "service/service.h"
#include "support/statistics.h"
#include "workloads/registry.h"

namespace dac::core {
namespace {

AutoTuneOptions
fastOptions()
{
    AutoTuneOptions opt;
    opt.collect.datasetCount = 6;
    opt.collect.runsPerDataset = 40;
    opt.hm.firstOrder.maxTrees = 150;
    opt.hm.firstOrder.convergencePatience = 50;
    opt.ga.maxGenerations = 50;
    return opt;
}

TEST(EndToEnd, FullPipelinePerWorkload)
{
    // Collect -> model -> search -> evaluate, for every paper program
    // at its middle dataset size: DAC must beat the defaults
    // everywhere.
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    DacTuner dac_tuner(sim, fastOptions());
    DefaultTuner default_tuner;

    for (const auto &w : workloads::Registry::instance().all()) {
        const double size = w->paperSizes()[2];
        const auto tuned = dac_tuner.configFor(*w, size);
        const double t_dac = measureTime(sim, *w, size, tuned, 3, 5);
        const double t_def = measureTime(
            sim, *w, size, default_tuner.configFor(*w, size), 3, 5);
        EXPECT_GT(t_def / t_dac, 1.2) << w->name();
    }
}

TEST(EndToEnd, DacConfigurationsAreLegal)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    DacTuner tuner(sim, fastOptions());
    const auto &w = workloads::Registry::instance().byAbbrev("BA");
    const auto c = tuner.configFor(w, 1.6);
    for (size_t i = 0; i < c.size(); ++i) {
        const auto &p = c.space().param(i);
        EXPECT_GE(c.get(i), p.lo()) << p.name();
        EXPECT_LE(c.get(i), p.hi()) << p.name();
    }
}

TEST(EndToEnd, TuningIsReproducible)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    const auto &w = workloads::Registry::instance().byAbbrev("NW");
    DacTuner a(sim, fastOptions());
    DacTuner b(sim, fastOptions());
    EXPECT_EQ(a.configFor(w, 12.5).values(),
              b.configFor(w, 12.5).values());
}

TEST(EndToEnd, DacTracksDatasizeBetterThanRfhoc)
{
    // The core paper claim, as a statistical integration test: across
    // the evaluation sizes of TeraSort, DAC's geomean time must not
    // be worse than RFHOC's (it should win by finding size-dependent
    // configurations).
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    AutoTuneOptions opt = fastOptions();
    opt.collect.runsPerDataset = 60;
    DacTuner dac_tuner(sim, opt);
    RfhocTuner rfhoc_tuner(sim, opt);
    const auto &w = workloads::Registry::instance().byAbbrev("TS");

    std::vector<double> dac_times;
    std::vector<double> rfhoc_times;
    for (double size : w.paperSizes()) {
        dac_times.push_back(measureTime(
            sim, w, size, dac_tuner.configFor(w, size), 3, 11));
        rfhoc_times.push_back(measureTime(
            sim, w, size, rfhoc_tuner.configFor(w, size), 3, 11));
    }
    EXPECT_LE(geomean(dac_times), geomean(rfhoc_times) * 1.05);
}

/** The bits of one tuned answer (0 where the path reports none). */
struct AnswerBits
{
    uint64_t config = 0; ///< FNV-1a over the 41 values' bit patterns
    uint64_t predictedSec = 0;
    uint64_t modelErrorPct = 0;
    size_t trainingRuns = 0;
    int generations = 0;
    int convergedAt = 0;

    bool operator==(const AnswerBits &) const = default;
};

uint64_t
bitsOf(double v)
{
    return std::bit_cast<uint64_t>(v);
}

uint64_t
configDigest(const conf::Configuration &config)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const double v : config.values()) {
        uint64_t b = bitsOf(v);
        for (int byte = 0; byte < 8; ++byte, b >>= 8)
            h = (h ^ (b & 0xff)) * 0x100000001b3ULL;
    }
    return h;
}

std::string
render(const AnswerBits &a)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{0x%016llxULL, 0x%016llxULL, 0x%016llxULL, %zu, %d, %d}",
                  static_cast<unsigned long long>(a.config),
                  static_cast<unsigned long long>(a.predictedSec),
                  static_cast<unsigned long long>(a.modelErrorPct),
                  a.trainingRuns, a.generations, a.convergedAt);
    return buf;
}

AnswerBits
tunerAnswer(ModelBasedTuner &tuner, const workloads::Workload &w,
            double size)
{
    const auto config = tuner.configFor(w, size);
    const auto &ga = tuner.lastGaResult();
    return {configDigest(config), bitsOf(ga.bestFitness),
            bitsOf(tuner.modelError(w.abbrev())),
            tuner.overhead(w.abbrev()).trainingRuns, ga.generations,
            ga.convergedAt};
}

TEST(EndToEnd, PipelineAnswersMatchRecordedBits)
{
    // Pins the whole collect -> train -> seeded search pipeline, bit
    // for bit, through every entry point that runs it: the DAC tuner,
    // RFHOC (the random forest has no compiled form, so its GA scores
    // through Model::predict), and the tuning service cold and warm.
    // Any change to seeding, training, scoring or search order shows
    // up here even where the figure-level tests still pass.
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    const auto &reg = workloads::Registry::instance();
    std::vector<AnswerBits> got;

    DacTuner dac_tuner(sim, fastOptions());
    for (const char *abbrev : {"TS", "PR"}) {
        const auto &w = reg.byAbbrev(abbrev);
        for (const size_t i : {1, 3})
            got.push_back(tunerAnswer(dac_tuner, w, w.paperSizes()[i]));
    }

    RfhocTuner rfhoc_tuner(sim, fastOptions());
    const auto &wc = reg.byAbbrev("WC");
    got.push_back(tunerAnswer(rfhoc_tuner, wc, wc.paperSizes()[2]));

    service::ServiceOptions options;
    options.threads = 2;
    options.tuning = fastOptions();
    service::TuningService svc(sim, options);
    // Cold (collect + train + search), then a warm hit in the same
    // size band with a different size and seed.
    for (const auto &[size, seed] :
         {std::pair{10.0, uint64_t{3}}, std::pair{13.0, uint64_t{8}}}) {
        service::TuneRequest request;
        request.workload = "KM";
        request.nativeSize = size;
        request.seed = seed;
        const auto response = svc.submit(request).get();
        ASSERT_FALSE(response.degraded) << response.degradedReason;
        EXPECT_EQ(response.modelCacheHit, size != 10.0);
        got.push_back({configDigest(response.best),
                       bitsOf(response.predictedTimeSec),
                       bitsOf(response.modelErrorPct), 0, 0, 0});
    }

    // Fixed reference bits: a refactor must reproduce them exactly;
    // only a deliberate change of answers may re-record them (each
    // failure prints the new row).
    const std::vector<AnswerBits> want = {
        {0x18657fae6cfcd0b4ULL, 0x406e5097422a5f50ULL,
         0x40380d84711287c2ULL, 240, 50, 50},
        {0x741cf7b4a49932ddULL, 0x4074b7ff0a15194eULL,
         0x40380d84711287c2ULL, 240, 50, 50},
        {0x36d172356e656f01ULL, 0x407c010e996b7295ULL,
         0x40447b95a85afc66ULL, 240, 50, 49},
        {0x789106b89e7d69caULL, 0x408259b1ce932c64ULL,
         0x40447b95a85afc66ULL, 240, 50, 41},
        {0x4500c72b9f7c6e0dULL, 0x4067d94e5c7fc1a2ULL,
         0x4041aadadcbb1ec0ULL, 240, 50, 50},
        {0xa5a1e181691fcbecULL, 0x40408b342992cb58ULL,
         0x401dd04a7566aebeULL, 0, 0, 0},
        {0xc79c47bddeb2c5b5ULL, 0x40474a1217bd36f1ULL,
         0x401dd04a7566aebeULL, 0, 0, 0},
    };
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "answer " << i << " is now "
                                   << render(got[i]);
}

} // namespace
} // namespace dac::core
