/**
 * @file
 * The benchmark's measurement helpers: order statistics, the span
 * ledger (client spans merged with the program's own dac::obs::Tracer
 * spans, per-layer self time, Chrome-trace export), and host facts.
 */
#ifndef DACBENCH_LEDGER_H
#define DACBENCH_LEDGER_H

#include <map>
#include <string>
#include <vector>

#include "loadgen.h"
#include "obs/tracer.h"

namespace dacbench {

/** Nearest-rank quantile, q in [0, 1]; NaN for an empty sample. */
double quantile(std::vector<double> values, double q);
/** quantile(values, 0.5). */
double median(std::vector<double> values);

/**
 * The highest of p99/p95/p90/p50 that has at least ten samples
 * beyond it (p50 when the sample is smaller than 20).
 */
double supportedPercentile(size_t samples);

/** Append one "client.request" span per sent request of a traced
 *  segment (ids are the trace ids the requests carried). */
void appendClientSpans(dac::obs::TraceLog &log, const Segment &segment);

/** Layer a span belongs to, by name ("net", "service", "ga", ...). */
std::string layerOf(const std::string &span_name);

/** Per-layer totals of a trace. */
struct LayerLedger
{
    /** Span duration minus its direct child spans
     *  (obs::aggregateSpans self time), summed per layer, seconds. */
    std::map<std::string, double> selfSec;
    /** Span count per layer. */
    std::map<std::string, size_t> spans;
};

LayerLedger layerLedger(const dac::obs::TraceLog &log);

/** One program's model builds in a trace, by the workload attribute
 *  of each span's root (the client request span). */
struct ProgramBuilds
{
    /** Summed phase.collect span time, seconds. */
    double collectSec = 0.0;
    /** sim.run spans (simulated runs) under those builds. */
    size_t runs = 0;
    /** Summed phase.model span time (HM training), seconds. */
    double trainSec = 0.0;
};

std::map<std::string, ProgramBuilds>
buildsByProgram(const dac::obs::TraceLog &log);

/** Tag every span with the id of its root span ("request" attr, one
 *  id shared by all spans of a request) and write Chrome-trace JSON. */
void writeTrace(dac::obs::TraceLog log, const std::string &path);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

} // namespace dacbench

#endif // DACBENCH_LEDGER_H
