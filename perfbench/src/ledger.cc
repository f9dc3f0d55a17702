#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "obs/chrome_trace.h"
#include "obs/summary.h"

namespace dacbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t at = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(at, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
supportedPercentile(size_t samples)
{
    for (const double p : {0.99, 0.95, 0.90}) {
        if ((1.0 - p) * static_cast<double>(samples) >= 10.0)
            return p;
    }
    return 0.5;
}

void
appendClientSpans(dac::obs::TraceLog &log, const Segment &segment)
{
    for (const Outcome &o : segment.outcomes) {
        if (o.spanId == 0 || o.sentSec < 0.0)
            continue;
        dac::obs::TraceEvent event;
        event.name = "client.request";
        event.id = o.spanId;
        event.lane = 1000 + o.connection;
        event.startSec = segment.tracerStartSec + o.sentSec;
        const double end = o.doneSec >= 0.0 ? o.doneSec : segment.wallSec;
        event.durSec = std::max(0.0, end - o.sentSec);
        event.attrs.emplace_back("workload", o.response.workload);
        log.events.push_back(std::move(event));
    }
    log.lanes.push_back({1000, "loadgen"});
}

std::string
layerOf(const std::string &name)
{
    static const std::vector<std::pair<std::string, std::string>> kMap =
        {
            {"client.", "net"},          {"net.", "net"},
            {"bench.submit", "service"}, {"bench.lookup", "cache"},
            {"bench.snapshot", "persist"},
            {"bench.restore", "persist"}, {"bench.collect", "collector"},
            {"bench.train", "ml"},       {"bench.compile", "ml"},
            {"bench.predict", "ml"},     {"bench.search", "ga"},
            {"request", "service"},      {"phase.", "service"},
            {"search", "ga"},            {"ga.", "ga"},
            {"model.", "ml"},            {"hm.", "ml"},
            {"collect", "collector"},    {"sim.", "sparksim"},
        };
    for (const auto &[prefix, layer] : kMap) {
        if (name.rfind(prefix, 0) == 0)
            return layer;
    }
    return "other";
}

LayerLedger
layerLedger(const dac::obs::TraceLog &log)
{
    LayerLedger ledger;
    for (const auto &[name, stats] : dac::obs::aggregateSpans(log)) {
        const std::string layer = layerOf(name);
        ledger.selfSec[layer] += stats.selfSec;
        ledger.spans[layer] += stats.count;
    }
    return ledger;
}

std::map<std::string, ProgramBuilds>
buildsByProgram(const dac::obs::TraceLog &log)
{
    std::unordered_map<uint64_t, const dac::obs::TraceEvent *> byId;
    for (const auto &e : log.events)
        byId[e.id] = &e;
    auto programOf = [&byId](const dac::obs::TraceEvent &e) {
        const dac::obs::TraceEvent *at = &e;
        for (int depth = 0; depth < 64 && at->parent != 0; ++depth) {
            const auto it = byId.find(at->parent);
            if (it == byId.end())
                break;
            at = it->second;
        }
        for (const auto &[key, value] : at->attrs) {
            if (key == "workload")
                return value;
        }
        return std::string();
    };
    std::map<std::string, ProgramBuilds> out;
    for (const auto &e : log.events) {
        if (!e.isSpan || (e.name != "phase.collect" && e.name != "sim.run" &&
                          e.name != "phase.model"))
            continue;
        const std::string program = programOf(e);
        if (program.empty())
            continue;
        ProgramBuilds &b = out[program];
        if (e.name == "phase.collect")
            b.collectSec += e.durSec;
        else if (e.name == "phase.model")
            b.trainSec += e.durSec;
        else
            ++b.runs;
    }
    return out;
}

void
writeTrace(dac::obs::TraceLog log, const std::string &path)
{
    std::unordered_map<uint64_t, uint64_t> parentOf;
    for (const auto &e : log.events)
        parentOf[e.id] = e.parent;
    for (auto &e : log.events) {
        uint64_t root = e.id;
        for (int depth = 0; depth < 64; ++depth) {
            const auto it = parentOf.find(root);
            if (it == parentOf.end() || it->second == 0)
                break;
            root = it->second;
        }
        e.attrs.emplace_back("request", std::to_string(root));
    }
    dac::obs::writeChromeTrace(log, path);
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace dacbench
