/**
 * @file
 * The corruption battery: decodeSnapshot replayed over EVERY
 * truncation length of a real snapshot image, plus single-bit and
 * whole-byte flips at deterministically sampled offsets. The loader
 * must answer each with a clean typed error — never crash, never
 * throw past its boundary, never accept damaged bytes. CI runs this
 * binary under ASan, which is what turns "never crash" from a hope
 * into a check.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/boosting.h"
#include "ml/flat_ensemble.h"
#include "ml/log_target.h"
#include "persist/snapshot.h"
#include "support/random.h"
#include "support/units.h"

namespace dac::persist {
namespace {

/** One real encoded snapshot (log-target GBRT + compiled ensemble,
 *  a few vectors) — every decoder branch is on its byte path. */
std::vector<uint8_t>
sampleImage()
{
    ml::DataSet data(4);
    Rng rng(404);
    for (int i = 0; i < 24; ++i) {
        std::vector<double> x = {rng.uniform(), rng.uniform(),
                                 rng.uniform(), rng.uniform()};
        data.addRow(x, 10.0 + 20.0 * x[0] + 5.0 * x[1] * x[2]);
    }

    ml::BoostParams params;
    params.maxTrees = 6;
    params.convergencePatience = 0;
    params.targetErrorPct = 0.0;
    params.targetIsLog = true;
    auto model = std::make_unique<ml::LogTargetModel>(
        std::make_unique<ml::GradientBoost>(params));
    model->train(data);
    core::TrainedModel trained;
    trained.compiled = model->compile();
    trained.model = std::move(model);
    trained.vectors.resize(3);
    for (size_t i = 0; i < trained.vectors.size(); ++i) {
        trained.vectors[i].timeSec = 5.0 + static_cast<double>(i);
        trained.vectors[i].config = {0.1, 0.2, 0.3};
        trained.vectors[i].dsizeBytes = GiB * static_cast<double>(i + 1);
    }
    trained.modelErrorPct = 7.5;
    trained.overhead.trainingRuns = 24;

    const std::string workload = "TS";
    const std::string cluster = "paper-testbed";
    return encodeSnapshot({&workload, &cluster, 2, &trained});
}

TEST(SnapshotCorruption, EveryTruncationFailsCleanly)
{
    const auto image = sampleImage();
    ASSERT_TRUE(decodeSnapshot(image.data(), image.size()).ok());

    for (size_t len = 0; len < image.size(); ++len) {
        const auto result = decodeSnapshot(image.data(), len);
        ASSERT_NE(result.error, SnapshotError::None)
            << "accepted a truncation to " << len << " bytes";
        ASSERT_EQ(result.snapshot.model, nullptr);
    }
}

TEST(SnapshotCorruption, SingleBitFlipsAlwaysRejected)
{
    auto image = sampleImage();

    // Every header bit, plus ~256 payload offsets sampled
    // deterministically across the image (a fixed stride hits every
    // section: strings, params, tree arrays, node columns).
    std::vector<size_t> offsets;
    for (size_t i = 0; i < SnapshotHeader::kBytes; ++i)
        offsets.push_back(i);
    const size_t payloadLen = image.size() - SnapshotHeader::kBytes;
    const size_t samples = payloadLen < 256 ? payloadLen : 256;
    for (size_t s = 0; s < samples; ++s)
        offsets.push_back(SnapshotHeader::kBytes +
                          s * payloadLen / samples);

    for (const size_t at : offsets) {
        for (int bit = 0; bit < 8; ++bit) {
            const uint8_t mask = static_cast<uint8_t>(1u << bit);
            image[at] ^= mask;
            const auto result =
                decodeSnapshot(image.data(), image.size());
            ASSERT_NE(result.error, SnapshotError::None)
                << "accepted bit " << bit << " flipped at offset "
                << at;
            image[at] ^= mask;
        }
    }
    // The battery restored every flip: the image must decode again.
    EXPECT_TRUE(decodeSnapshot(image.data(), image.size()).ok());
}

TEST(SnapshotCorruption, WholeByteFlipsAlwaysRejected)
{
    auto image = sampleImage();
    Rng rng(1311);
    for (int i = 0; i < 256; ++i) {
        const size_t at = static_cast<size_t>(
            rng.uniform() * static_cast<double>(image.size()));
        const size_t offset = at < image.size() ? at : image.size() - 1;
        image[offset] ^= 0xFF;
        const auto result = decodeSnapshot(image.data(), image.size());
        ASSERT_NE(result.error, SnapshotError::None)
            << "accepted byte flipped at offset " << offset;
        image[offset] ^= 0xFF;
    }
    EXPECT_TRUE(decodeSnapshot(image.data(), image.size()).ok());
}

TEST(SnapshotCorruption, ArbitraryGarbageNeverCrashes)
{
    // Pure noise of assorted sizes, including sizes right around the
    // header boundary; the loader must type an error for all of them.
    Rng rng(77);
    const size_t sizes[] = {0,  1,  16, 31, 32,  33,
                            64, 96, 256, 4096, 65537};
    for (const size_t size : sizes) {
        std::vector<uint8_t> junk(size);
        for (auto &b : junk)
            b = static_cast<uint8_t>(rng.uniform() * 256.0);
        const auto result = decodeSnapshot(junk.data(), junk.size());
        EXPECT_NE(result.error, SnapshotError::None)
            << "accepted " << size << " bytes of noise";
    }
}

} // namespace
} // namespace dac::persist
