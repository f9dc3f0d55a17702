#include "service/model_cache.h"

#include <cmath>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <utility>

#include "persist/snapshot.h"
#include "support/logging.h"
#include "support/mapped_file.h"
#include "support/random.h"

namespace dac::service {

std::string
ModelKey::toString() const
{
    std::ostringstream oss;
    oss << workload << "@" << cluster << "#band" << sizeBand;
    return oss.str();
}

uint64_t
ModelKey::stableHash() const
{
    // SplitMix64-fold the fields directly (no toString(): this runs on
    // every cache routing decision and must not allocate). The length
    // fold between fields keeps ("ab","c") and ("a","bc") distinct.
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    const auto foldString = [&h](const std::string &text) {
        for (const char c : text)
            h = splitmix64(h ^ static_cast<uint64_t>(
                                   static_cast<unsigned char>(c)));
        h = splitmix64(h ^ static_cast<uint64_t>(text.size()));
    };
    foldString(workload);
    foldString(cluster);
    h = splitmix64(h ^ static_cast<uint64_t>(
                           static_cast<uint32_t>(sizeBand)));
    return h;
}

int
sizeBandOf(double native_size)
{
    DAC_ASSERT(native_size > 0.0, "datasize band of a non-positive size");
    return static_cast<int>(std::floor(std::log2(native_size)));
}

double
ModelCache::Stats::hitRate() const
{
    const uint64_t useful = hits + coalesced;
    const uint64_t total = useful + misses;
    return total > 0
        ? static_cast<double>(useful) / static_cast<double>(total)
        : 0.0;
}

ModelCache::ModelCache(size_t capacity, size_t shard_count)
    : totalCapacity(capacity)
{
    DAC_ASSERT(capacity > 0, "model cache needs capacity >= 1");
    DAC_ASSERT(shard_count > 0, "model cache needs shards >= 1");
    shards.reserve(shard_count);
    for (size_t i = 0; i < shard_count; ++i) {
        auto shard = std::make_unique<Shard>();
        // Even distribution, remainder to the low shards; never below
        // one model or a hot shard could cache nothing at all.
        const size_t base = capacity / shard_count;
        const size_t extra = i < capacity % shard_count ? 1 : 0;
        shard->capacity = std::max<size_t>(1, base + extra);
        shards.push_back(std::move(shard));
    }
}

size_t
ModelCache::shardIndexFor(const ModelKey &key, size_t shards)
{
    DAC_ASSERT(shards > 0, "shard routing needs shards >= 1");
    return static_cast<size_t>(key.stableHash() % shards);
}

ModelCache::Shard &
ModelCache::shardFor(const ModelKey &key)
{
    return *shards[shardIndexFor(key, shards.size())];
}

std::shared_ptr<const CachedModel>
ModelCache::getOrBuild(const ModelKey &key, const Builder &build)
{
    Shard &shard = shardFor(key);
    std::promise<std::shared_ptr<const CachedModel>> promise;
    {
        std::unique_lock<std::mutex> lock(shard.mutex);
        if (auto found = findLocked(shard, key)) {
            ++shard.hits;
            return found;
        }
        if (const auto it = shard.inflight.find(key);
            it != shard.inflight.end()) {
            // Another caller is already building this model; wait for
            // it outside the lock and share the result.
            ++shard.coalesced;
            auto shared = it->second;
            lock.unlock();
            return shared.get();
        }
        ++shard.misses;
        shard.inflight.emplace(key, promise.get_future().share());
    }

    std::shared_ptr<const CachedModel> built;
    try {
        built = build();
        DAC_ASSERT(built != nullptr, "model builder returned nullptr");
    } catch (...) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.inflight.erase(key);
        promise.set_exception(std::current_exception());
        throw;
    }

    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        insertLocked(shard, key, built);
        shard.inflight.erase(key);
    }
    promise.set_value(built);
    return built;
}

std::shared_ptr<const CachedModel>
ModelCache::lookup(const ModelKey &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (auto found = findLocked(shard, key)) {
        ++shard.hits;
        return found;
    }
    ++shard.misses;
    return nullptr;
}

void
ModelCache::insert(const ModelKey &key,
                   std::shared_ptr<const CachedModel> model)
{
    DAC_ASSERT(model != nullptr, "inserted a null model");
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    insertLocked(shard, key, std::move(model));
}

void
ModelCache::clear()
{
    for (auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->entries.clear();
        shard->index.clear();
    }
}

size_t
ModelCache::size() const
{
    size_t total = 0;
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->entries.size();
    }
    return total;
}

ModelCache::Stats
ModelCache::stats() const
{
    Stats out;
    out.capacity = totalCapacity;
    out.shards = shards.size();
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.hits += shard->hits;
        out.misses += shard->misses;
        out.coalesced += shard->coalesced;
        out.evictions += shard->evictions;
        out.size += shard->entries.size();
    }
    return out;
}

ModelCache::Stats
ModelCache::shardStats(size_t shard_index) const
{
    DAC_ASSERT(shard_index < shards.size(),
               "shard index out of range");
    const Shard &shard = *shards[shard_index];
    Stats out;
    out.shards = 1;
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.hits = shard.hits;
    out.misses = shard.misses;
    out.coalesced = shard.coalesced;
    out.evictions = shard.evictions;
    out.size = shard.entries.size();
    out.capacity = shard.capacity;
    return out;
}

std::vector<ModelKey>
ModelCache::keysByRecency() const
{
    std::vector<ModelKey> keys;
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const auto &[key, model] : shard->entries)
            keys.push_back(key);
    }
    return keys;
}

std::string
ModelCache::snapshotFileName(const ModelKey &key)
{
    std::ostringstream oss;
    oss << "dac-" << std::hex << std::setw(16) << std::setfill('0')
        << key.stableHash() << persist::kSnapshotSuffix;
    return oss.str();
}

bool
ModelCache::writeSnapshot(const std::string &dir, const ModelKey &key,
                          const CachedModel &model, std::string *error)
{
    if (model.model == nullptr) {
        if (error != nullptr)
            *error = "entry has no model to persist";
        return false;
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        if (error != nullptr)
            *error = "create " + dir + ": " + ec.message();
        return false;
    }

    const std::string path =
        (std::filesystem::path(dir) / snapshotFileName(key)).string();
    return persist::saveSnapshotFile(
        path, {&key.workload, &key.cluster, key.sizeBand, &model}, error);
}

ModelCache::SnapshotIo
ModelCache::snapshotTo(const std::string &dir) const
{
    SnapshotIo io;
    for (const auto &shard : shards) {
        // Copy the shard's entries under its lock (cheap: keys plus
        // shared_ptrs), then hit the disk without holding it.
        std::vector<Entry> entries;
        {
            std::lock_guard<std::mutex> lock(shard->mutex);
            entries.assign(shard->entries.begin(), shard->entries.end());
        }
        for (const auto &[key, model] : entries) {
            std::string error;
            if (writeSnapshot(dir, key, *model, &error)) {
                ++io.saved;
            } else {
                ++io.failed;
                warn("snapshot of " + key.toString() + " failed: " +
                     error);
            }
        }
    }
    return io;
}

ModelCache::SnapshotIo
ModelCache::restoreFrom(const std::string &dir)
{
    SnapshotIo io;
    for (const std::string &name :
         listFilesWithSuffix(dir, persist::kSnapshotSuffix)) {
        const std::string path =
            (std::filesystem::path(dir) / name).string();
        persist::SnapshotLoadResult result =
            persist::loadSnapshotFile(path);
        if (result.error == persist::SnapshotError::BadVersion) {
            // Stale format: delete rather than migrate — the model is
            // reproducible from training data, the file is not worth
            // carrying reader code for.
            std::error_code ec;
            std::filesystem::remove(path, ec);
            ++io.staleEvicted;
            warn("evicted stale snapshot " + name);
            continue;
        }
        if (!result.ok()) {
            ++io.failed;
            warn("skipped snapshot " + name + " (" +
                 persist::snapshotErrorName(result.error) +
                 "): " + result.message);
            continue;
        }

        persist::ModelSnapshot &snap = result.snapshot;
        if (snap.compiled == nullptr)
            snap.compiled = snap.model->compile();
        ModelKey key{std::move(snap.workload), std::move(snap.cluster),
                     snap.sizeBand};
        insert(key, std::make_shared<const CachedModel>(
                        std::move(static_cast<CachedModel &>(snap))));
        ++io.loaded;
    }
    return io;
}

std::shared_ptr<const CachedModel>
ModelCache::findLocked(Shard &shard, const ModelKey &key)
{
    const auto it = shard.index.find(key);
    if (it == shard.index.end())
        return nullptr;
    // Touch: move to the MRU head.
    shard.entries.splice(shard.entries.begin(), shard.entries,
                         it->second);
    return shard.entries.front().second;
}

void
ModelCache::insertLocked(Shard &shard, const ModelKey &key,
                         std::shared_ptr<const CachedModel> model)
{
    if (const auto it = shard.index.find(key); it != shard.index.end()) {
        it->second->second = std::move(model);
        shard.entries.splice(shard.entries.begin(), shard.entries,
                             it->second);
        return;
    }
    shard.entries.emplace_front(key, std::move(model));
    shard.index.emplace(key, shard.entries.begin());
    while (shard.entries.size() > shard.capacity) {
        shard.index.erase(shard.entries.back().first);
        shard.entries.pop_back();
        ++shard.evictions;
    }
}

} // namespace dac::service
