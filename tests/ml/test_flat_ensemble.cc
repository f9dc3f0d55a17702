/**
 * @file
 * FlatEnsemble compiled inference: exact (==) equivalence of both
 * walks (the serial reference and the blocked walk, single-row and
 * batched) with the interpreted pointer-walk, degenerate shapes,
 * threshold ties and NaN features, concurrent predictBatch on a
 * shared ensemble — the access pattern the GA's batch objective and
 * the service warm path produce, and what the TSan CI leg checks —
 * and the allocation discipline of TreeBuilder scratch reuse.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "ga/ga.h"
#include "ml/boosting.h"
#include "ml/flat_ensemble.h"
#include "ml/hm.h"
#include "ml/log_target.h"
#include "service/thread_pool.h"

namespace dac::ml {
namespace {

DataSet
bumpyData(int n, uint64_t seed)
{
    DataSet d(5);
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        const double c = rng.uniform();
        const double e = rng.uniform();
        const double f = rng.uniform();
        double y = 25.0 + 12.0 * std::sin(8.0 * a) * std::cos(6.0 * b);
        y += (c > 0.5 ? 10.0 * e : 3.0 * f);
        y += rng.normal(0.0, 0.4);
        d.addRow({a, b, c, e, f}, y);
    }
    return d;
}

std::vector<std::vector<double>>
randomQueries(size_t count, size_t width, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> queries(count);
    for (auto &q : queries) {
        q.resize(width);
        // Half in-distribution, half outside [0,1] to force walks
        // through both children of every root-level split.
        for (auto &v : q)
            v = rng.uniform() * 3.0 - 1.0;
    }
    return queries;
}

/**
 * Every prediction path must agree bit-for-bit — the contract
 * DESIGN.md section 14 pins: interpreted == predictSerial == predict
 * == predictBatch, the batch both serial and through a pool.
 */
void
expectExactlyEqual(const Model &model, const FlatEnsemble &flat,
                   const std::vector<std::vector<double>> &queries)
{
    ASSERT_FALSE(queries.empty());
    const size_t width = queries.front().size();
    std::vector<double> expected;
    std::vector<double> packed;
    for (const auto &q : queries) {
        ASSERT_EQ(q.size(), width);
        const double interpreted = model.predict(q);
        EXPECT_EQ(interpreted, model.predict(q.data(), q.size()));
        EXPECT_EQ(interpreted, flat.predictSerial(q.data(), q.size()));
        EXPECT_EQ(interpreted, flat.predict(q.data(), q.size()));
        EXPECT_EQ(interpreted, flat.predict(q));
        expected.push_back(interpreted);
        packed.insert(packed.end(), q.begin(), q.end());
    }

    service::ThreadPool pool(2);
    for (Executor *exec : {static_cast<Executor *>(nullptr),
                           static_cast<Executor *>(&pool)}) {
        std::vector<double> out(queries.size(), 0.0);
        flat.predictBatch(packed.data(), width, queries.size(),
                          out.data(), exec);
        EXPECT_EQ(out, expected) << (exec ? "pool" : "serial")
                                 << " predictBatch";
    }
}

TEST(FlatEnsemble, MatchesGradientBoostExactly)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        BoostParams p;
        p.maxTrees = 60;
        p.convergencePatience = 0;
        p.targetErrorPct = 0.0; // grow all trees
        p.seed = seed;
        GradientBoost gb(p);
        gb.train(bumpyData(300, seed));

        const auto flat = gb.compile();
        ASSERT_NE(flat, nullptr);
        EXPECT_EQ(flat->memberCount(), 1u);
        EXPECT_EQ(flat->treeCount(),
                  static_cast<size_t>(gb.treeCount()));
        EXPECT_FALSE(flat->expOutput());
        expectExactlyEqual(gb, *flat, randomQueries(64, 5, seed + 100));
    }
}

TEST(FlatEnsemble, MatchesHierarchicalModelExactly)
{
    HmParams p;
    p.firstOrder.maxTrees = 80;
    p.firstOrder.convergencePatience = 30;
    p.targetErrorPct = 1.0; // unreachable: forces higher orders
    p.maxOrder = 4;

    // The weight search may reject the higher-order member (w = 0)
    // for a given draw; scan seeds until one yields a genuine
    // multi-member combination, verifying equivalence on each.
    bool sawMultiMember = false;
    for (uint64_t seed = 11; seed <= 18; ++seed) {
        p.seed = seed;
        HierarchicalModel hm(p);
        hm.train(bumpyData(400, seed + 40));

        const auto flat = hm.compile();
        ASSERT_NE(flat, nullptr);
        EXPECT_EQ(flat->memberCount(),
                  static_cast<size_t>(hm.subModelCount()));
        expectExactlyEqual(hm, *flat, randomQueries(32, 5, seed));
        if (hm.subModelCount() >= 2) {
            sawMultiMember = true;
            break;
        }
    }
    EXPECT_TRUE(sawMultiMember) << "no seed produced a multi-member HM";
}

TEST(FlatEnsemble, MatchesLogTargetWrappedModelExactly)
{
    HmParams p;
    p.firstOrder.maxTrees = 60;
    p.firstOrder.convergencePatience = 30;
    p.firstOrder.targetIsLog = true;
    p.targetErrorPct = 5.0;
    p.targetIsLog = true;
    LogTargetModel model(
        std::make_unique<HierarchicalModel>(p));
    model.train(bumpyData(300, 6));

    const auto flat = model.compile();
    ASSERT_NE(flat, nullptr);
    EXPECT_TRUE(flat->expOutput());
    expectExactlyEqual(model, *flat, randomQueries(64, 5, 7));
}

TEST(FlatEnsemble, SingleLeafDegenerateTrees)
{
    // Constant target: every split gain is ~0, so every tree is a
    // single leaf and the prediction is the baseline mean.
    DataSet d(3);
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        d.addRow({rng.uniform(), rng.uniform(), rng.uniform()}, 42.0);

    BoostParams p;
    p.maxTrees = 5;
    p.convergencePatience = 0;
    p.targetErrorPct = 0.0;
    GradientBoost gb(p);
    gb.train(d);

    const auto flat = gb.compile();
    ASSERT_NE(flat, nullptr);
    // Single-leaf trees: one node per tree, root == leaf.
    EXPECT_EQ(flat->nodeCount(), flat->treeCount());
    expectExactlyEqual(gb, *flat, randomQueries(16, 3, 10));
    EXPECT_EQ(gb.predict({0.1, 0.2, 0.3}),
              flat->predict({0.1, 0.2, 0.3}));
}

TEST(FlatEnsemble, PredictBatchMatchesSingle)
{
    BoostParams p;
    p.maxTrees = 40;
    p.convergencePatience = 0;
    p.targetErrorPct = 0.0;
    GradientBoost gb(p);
    gb.train(bumpyData(250, 12));
    const auto flat = gb.compile();
    ASSERT_NE(flat, nullptr);

    // 97 rows: six full 16-row interleaved chunks plus a 1-row tail.
    const auto queries = randomQueries(97, 5, 13);
    std::vector<double> expected;
    std::vector<double> packed;
    for (const auto &q : queries) {
        expected.push_back(flat->predict(q.data(), q.size()));
        packed.insert(packed.end(), q.begin(), q.end());
    }

    service::ThreadPool pool(4);
    std::vector<double> out(queries.size());
    for (Executor *exec : {static_cast<Executor *>(nullptr),
                           static_cast<Executor *>(&pool)}) {
        std::fill(out.begin(), out.end(), 0.0);
        flat->predictBatch(packed.data(), 5, queries.size(), out.data(),
                           exec);
        EXPECT_EQ(out, expected);
    }
}

TEST(SimdWalk, AllKernelsMatchGradientBoostExactly)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        BoostParams p;
        p.maxTrees = 70;
        p.convergencePatience = 0;
        p.targetErrorPct = 0.0;
        p.seed = seed;
        GradientBoost gb(p);
        gb.train(bumpyData(300, seed));
        const auto flat = gb.compile();
        ASSERT_NE(flat, nullptr);
        expectExactlyEqual(gb, *flat, randomQueries(64, 5, seed + 200));
    }
}

TEST(SimdWalk, AllKernelsMatchLogTargetModelExactly)
{
    // exp() sits after the walk, so both walks' raw sums must already
    // agree before exponentiation can.
    HmParams p;
    p.firstOrder.maxTrees = 60;
    p.firstOrder.convergencePatience = 30;
    p.firstOrder.targetIsLog = true;
    p.targetErrorPct = 5.0;
    p.targetIsLog = true;
    LogTargetModel model(std::make_unique<HierarchicalModel>(p));
    model.train(bumpyData(300, 6));
    const auto flat = model.compile();
    ASSERT_NE(flat, nullptr);
    EXPECT_TRUE(flat->expOutput());
    expectExactlyEqual(model, *flat, randomQueries(64, 5, 7));
}

TEST(SimdWalk, AllKernelsMatchOnSingleLeafTrees)
{
    // Constant target -> every tree is a single self-looping leaf:
    // the degenerate blocks where a lock-step walk's step count is 0.
    DataSet d(3);
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        d.addRow({rng.uniform(), rng.uniform(), rng.uniform()}, 42.0);
    BoostParams p;
    p.maxTrees = 5;
    p.convergencePatience = 0;
    p.targetErrorPct = 0.0;
    GradientBoost gb(p);
    gb.train(d);
    const auto flat = gb.compile();
    ASSERT_NE(flat, nullptr);
    EXPECT_EQ(flat->nodeCount(), flat->treeCount());
    expectExactlyEqual(gb, *flat, randomQueries(16, 3, 10));
}

TEST(SimdWalk, AllKernelsMatchOnThresholdBoundaryQueries)
{
    // Train on a coarse grid so split thresholds land between (or at)
    // grid values, then query the exact grid points: x == threshold
    // ties and the NaN-goes-right convention must resolve identically
    // in both walks (the comparison is !(x <= t) in each).
    DataSet d(3);
    const double grid[] = {0.0, 0.25, 0.5, 0.75, 1.0};
    for (const double a : grid)
        for (const double b : grid)
            for (const double c : grid)
                d.addRow({a, b, c}, 3.0 * a + (b > 0.5 ? 7.0 : 1.0) * c);

    BoostParams p;
    p.maxTrees = 40;
    p.convergencePatience = 0;
    p.targetErrorPct = 0.0;
    GradientBoost gb(p);
    gb.train(d);
    const auto flat = gb.compile();
    ASSERT_NE(flat, nullptr);

    std::vector<std::vector<double>> queries;
    for (const double a : grid)
        for (const double b : grid)
            queries.push_back({a, b, 0.5});
    // And a NaN lane: must take the right child at every split, same
    // as the interpreted walk.
    queries.push_back({std::nan(""), 0.5, std::nan("")});
    expectExactlyEqual(gb, *flat, queries);
}

TEST(SimdWalk, ParallelPredictBatchSharedEnsemble)
{
    // One immutable FlatEnsemble, hammered concurrently: N threads
    // each running executor-parallel predictBatch over their own rows
    // (the walk scratch is per-call stack state, so the only shared
    // data is the const node arrays). Run under the TSan CI leg.
    BoostParams p;
    p.maxTrees = 60;
    p.convergencePatience = 0;
    p.targetErrorPct = 0.0;
    GradientBoost gb(p);
    gb.train(bumpyData(300, 18));
    const auto flat = gb.compile();
    ASSERT_NE(flat, nullptr);

    constexpr size_t kThreads = 4;
    constexpr size_t kRows = 300;
    service::ThreadPool pool(4);

    std::vector<std::vector<double>> rows(kThreads);
    std::vector<std::vector<double>> expected(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        Rng rng(100 + t);
        rows[t].resize(kRows * 5);
        for (double &v : rows[t])
            v = rng.uniform() * 3.0 - 1.0;
        expected[t].resize(kRows);
        for (size_t r = 0; r < kRows; ++r) {
            const double *x = rows[t].data() + r * 5;
            expected[t][r] = gb.predict(x, 5);
            EXPECT_EQ(expected[t][r], flat->predictSerial(x, 5));
            EXPECT_EQ(expected[t][r], flat->predict(x, 5));
        }
    }

    std::vector<std::vector<double>> got(
        kThreads, std::vector<double>(kRows, 0.0));
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int repeat = 0; repeat < 8; ++repeat) {
                flat->predictBatch(rows[t].data(), 5, kRows,
                                   got[t].data(), &pool);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    for (size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], expected[t]) << "thread " << t;
}

TEST(FlatEnsemble, GaBatchedScoringMatchesSerialResult)
{
    // A deterministic, RNG-free objective: batched evaluation must
    // reproduce the serial GaResult exactly, since scoring consumes
    // no randomness and selection sees identical fitness values.
    const auto score = [](const double *g, size_t n) {
        double s = 0.0;
        for (size_t i = 0; i < n; ++i)
            s += (g[i] - 0.37) * (g[i] - 0.37) +
                 0.1 * std::sin(13.0 * g[i]);
        return s;
    };

    ga::GaParams params;
    params.populationSize = 24;
    params.maxGenerations = 30;
    params.seed = 21;

    const size_t dims = 6;
    ga::GeneticAlgorithm serial(params);
    const auto a = serial.minimize(
        [&](const std::vector<double> &g) {
            return score(g.data(), g.size());
        },
        dims);

    ga::GeneticAlgorithm batched(params);
    const auto b = batched.minimize(
        ga::GeneticAlgorithm::BatchObjective(
            [&](const double *const *genomes, size_t count,
                double *fitness) {
                for (size_t i = 0; i < count; ++i)
                    fitness[i] = score(genomes[i], dims);
            }),
        dims);

    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.bestFitness, b.bestFitness);
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.generations, b.generations);
    EXPECT_EQ(a.convergedAt, b.convergedAt);
}

TEST(TreeBuilder, ColdBuildAllocatesO1RowVectorsPerSplit)
{
    const DataSet d = bumpyData(400, 30);
    TreeParams tp;
    tp.treeComplexity = 8;
    RegressionTree tree(tp);

    TreeBuilder builder;
    builder.build(tree, DataView(d));
    EXPECT_GT(tree.splitCount(), 0);
    // Root rows + at most two child row-vectors per split.
    EXPECT_LE(builder.rowVectorAllocations(),
              2 * static_cast<size_t>(tree.splitCount()) + 1);
}

TEST(TreeBuilder, WarmRebuildAllocatesNothing)
{
    const DataSet d = bumpyData(400, 31);
    TreeParams tp;
    tp.treeComplexity = 6;

    TreeBuilder builder;
    RegressionTree cold(tp);
    builder.build(cold, DataView(d));
    const size_t after_cold = builder.rowVectorAllocations();

    // Steady state: rebuilding (even repeatedly) reuses the pooled
    // row vectors — zero new heap-allocated row vectors.
    for (int i = 0; i < 5; ++i) {
        RegressionTree warm(tp);
        builder.build(warm, DataView(d));
        EXPECT_EQ(builder.rowVectorAllocations(), after_cold);
        EXPECT_EQ(warm.predict({0.3, 0.6, 0.2, 0.8, 0.5}),
                  cold.predict({0.3, 0.6, 0.2, 0.8, 0.5}));
    }
}

TEST(TreeBuilder, ReuseIsBitIdenticalToFreshBuilder)
{
    const DataSet a = bumpyData(300, 32);
    const DataSet b = bumpyData(200, 33);
    TreeParams tp;
    tp.treeComplexity = 5;

    // One builder reused across datasets vs a fresh builder per
    // build: identical trees (the scratch carries no state across
    // builds that affects split decisions).
    TreeBuilder reused;
    RegressionTree t1(tp), t2(tp);
    reused.build(t1, DataView(a));
    reused.build(t2, DataView(b));

    TreeBuilder fresh1, fresh2;
    RegressionTree u1(tp), u2(tp);
    fresh1.build(u1, DataView(a));
    fresh2.build(u2, DataView(b));

    for (const auto &q : randomQueries(32, 5, 34)) {
        EXPECT_EQ(t1.predict(q.data(), q.size()),
                  u1.predict(q.data(), q.size()));
        EXPECT_EQ(t2.predict(q.data(), q.size()),
                  u2.predict(q.data(), q.size()));
    }
}

} // namespace
} // namespace dac::ml
