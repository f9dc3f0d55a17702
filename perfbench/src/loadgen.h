/**
 * @file
 * Open-loop wire load generator. Requests are sent on a precomputed
 * schedule whether or not earlier replies have arrived, so a slow
 * server sees its queue grow instead of being offered less load.
 * Latency is timed from each send's *scheduled* time to its decoded
 * reply, which charges a stall to every request it delays.
 */
#ifndef DACBENCH_LOADGEN_H
#define DACBENCH_LOADGEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "service/request.h"

namespace dacbench {

/** One wire write: one or more request frames sent back to back. */
struct Send
{
    /** Scheduled send time, seconds from the segment start. */
    double dueSec = 0.0;
    std::vector<dac::service::TuneRequest> requests;
};

/** How one request ended. */
enum class Status { Pending, Ok, Degraded, Error, Transport };

/** Per-request record, in schedule order (send by send). */
struct Outcome
{
    double dueSec = 0.0;
    /** Actual send and reply times, seconds from the segment start
     *  (negative when it never happened). */
    double sentSec = -1.0;
    double doneSec = -1.0;
    Status status = Status::Pending;
    /** Wire answer (Ok and Degraded). */
    dac::service::TuneResponse response;
    /** Error-frame text or transport failure. */
    std::string error;
    /** Client span id sent as the trace id (traced segments only). */
    uint64_t spanId = 0;
    /** Connection (generator thread) that carried the request. */
    uint32_t connection = 0;

    [[nodiscard]] bool ok() const { return status == Status::Ok; }
    /** Scheduled-send-to-reply latency; +inf unless ok(). */
    [[nodiscard]] double latencySec() const;
};

/** Result of one open-loop segment. */
struct Segment
{
    std::vector<Outcome> outcomes;
    /** Wall time from the segment start to the last reply. */
    double wallSec = 0.0;
    /** Steady-clock seconds (obs::Tracer::nowSec() base) of the
     *  segment start, for placing client spans in a trace. */
    double tracerStartSec = 0.0;
};

/**
 * Drive `sends` against host:port over `connections` TCP connections
 * (one generator thread each; send i goes to connection i mod n).
 * When `traced`, every request carries a fresh client span id as its
 * trace id so server spans parent under the client span.
 * Replies still missing `drain_sec` after the last send are counted
 * as transport failures.
 */
Segment runOpenLoop(const std::string &host, uint16_t port,
                    const std::vector<Send> &sends, size_t connections,
                    bool traced, double drain_sec);

} // namespace dacbench

#endif // DACBENCH_LOADGEN_H
