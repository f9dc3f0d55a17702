#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <ctime>
#include <limits>
#include <thread>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/tracer.h"

namespace dacbench {

using namespace dac;
using Clock = std::chrono::steady_clock;

double
Outcome::latencySec() const
{
    return ok() ? doneSec - dueSec
                : std::numeric_limits<double>::infinity();
}

namespace {

/** Client span ids live far above the tracer's own counter. */
constexpr uint64_t kClientSpanBase = uint64_t{1} << 62;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Block until `fd` is readable or `timeout_sec` passes. */
bool
waitReadable(int fd, double timeout_sec)
{
    if (timeout_sec < 0.0)
        timeout_sec = 0.0;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout_sec);
    ts.tv_nsec = static_cast<long>((timeout_sec - ts.tv_sec) * 1e9);
    pollfd pfd{fd, POLLIN, 0};
    return ::ppoll(&pfd, 1, &ts, nullptr) > 0;
}

/**
 * One generator thread: owns one connection, sends its share of the
 * schedule on time, and decodes replies as they arrive.
 */
void
driveConnection(const std::string &host, uint16_t port,
                const std::vector<Send> &sends,
                const std::vector<size_t> &first_outcome, size_t conn,
                size_t connections, bool traced, double drain_sec,
                Clock::time_point start, std::vector<Outcome> &outcomes)
{
    net::Socket sock = net::connectTcp(host, port);
    net::FrameDecoder decoder;
    const auto &space = conf::ConfigSpace::spark();
    size_t outstanding = 0;
    size_t next = conn;
    double lastSendSec = 0.0;
    std::vector<uint8_t> wire;
    // Ids this connection is still waiting on; a reply naming any
    // other id is a protocol failure, never a write to another
    // thread's record.
    std::vector<uint8_t> awaiting(outcomes.size(), 0);
    uint8_t chunk[net::kReadChunkBytes];

    auto failOutstanding = [&](const std::string &why) {
        for (size_t s = conn; s < sends.size(); s += connections) {
            for (size_t r = 0; r < sends[s].requests.size(); ++r) {
                Outcome &o = outcomes[first_outcome[s] + r];
                if (o.status == Status::Pending) {
                    o.status = Status::Transport;
                    o.error = why;
                }
            }
        }
    };

    while (next < sends.size() || outstanding > 0) {
        const double now = since(start);
        if (next < sends.size() && now >= sends[next].dueSec) {
            const Send &send = sends[next];
            wire.clear();
            for (size_t r = 0; r < send.requests.size(); ++r) {
                const size_t index = first_outcome[next] + r;
                service::TuneRequest request = send.requests[r];
                if (traced) {
                    outcomes[index].spanId = kClientSpanBase + index + 1;
                    request.traceId = outcomes[index].spanId;
                }
                const auto payload = net::encodeTuneRequest(request);
                net::appendFrame(wire, net::MsgType::TuneRequest,
                                 static_cast<uint32_t>(index + 1),
                                 payload.data(), payload.size());
            }
            const double sentSec = since(start);
            if (!net::writeAll(sock.fd(), wire.data(), wire.size())) {
                failOutstanding("connection lost while sending");
                return;
            }
            for (size_t r = 0; r < send.requests.size(); ++r) {
                Outcome &o = outcomes[first_outcome[next] + r];
                o.sentSec = sentSec;
                o.connection = static_cast<uint32_t>(conn);
                awaiting[first_outcome[next] + r] = 1;
            }
            outstanding += send.requests.size();
            lastSendSec = sentSec;
            next += connections;
            continue;
        }

        const double wait = next < sends.size()
            ? sends[next].dueSec - now
            : lastSendSec + drain_sec - now;
        if (next >= sends.size() && wait <= 0.0) {
            failOutstanding("no reply within the drain window");
            return;
        }
        if (!waitReadable(sock.fd(), wait))
            continue;
        const ssize_t n =
            ::recv(sock.fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n < 0 && (errno == EAGAIN || errno == EINTR))
            continue;
        if (n <= 0) {
            failOutstanding("server closed the connection");
            return;
        }
        decoder.feed(chunk, static_cast<size_t>(n));
        net::Frame frame;
        for (;;) {
            const auto result = decoder.next(&frame);
            if (result == net::FrameDecoder::Result::Malformed) {
                failOutstanding("malformed reply: " + decoder.error());
                return;
            }
            if (result != net::FrameDecoder::Result::Frame)
                break;
            const size_t index = frame.requestId - 1;
            if (frame.requestId == 0 || index >= outcomes.size() ||
                awaiting[index] == 0) {
                failOutstanding("reply for an unknown request id");
                return;
            }
            awaiting[index] = 0;
            Outcome &o = outcomes[index];
            try {
                if (frame.type == net::MsgType::TuneResponse) {
                    o.response = net::decodeTuneResponse(
                        frame.payload, space, frame.version);
                    o.status = o.response.degraded ? Status::Degraded
                                                   : Status::Ok;
                } else if (frame.type == net::MsgType::Error) {
                    o.error = net::decodeError(frame.payload);
                    o.status = Status::Error;
                } else {
                    o.error = "unexpected reply frame type";
                    o.status = Status::Error;
                }
            } catch (const net::ProtocolError &e) {
                o.error = e.what();
                o.status = Status::Error;
            }
            o.doneSec = since(start);
            --outstanding;
        }
    }
}

} // namespace

Segment
runOpenLoop(const std::string &host, uint16_t port,
            const std::vector<Send> &sends, size_t connections,
            bool traced, double drain_sec)
{
    Segment seg;
    std::vector<size_t> firstOutcome(sends.size());
    for (size_t s = 0; s < sends.size(); ++s) {
        firstOutcome[s] = seg.outcomes.size();
        for (size_t r = 0; r < sends[s].requests.size(); ++r) {
            Outcome o;
            o.dueSec = sends[s].dueSec;
            seg.outcomes.push_back(std::move(o));
        }
    }
    connections = std::max<size_t>(1, std::min(connections, sends.size()));

    // Start a little in the future so every thread is connected and
    // waiting before the first send is due.
    const auto start = Clock::now() + std::chrono::milliseconds(50);
    seg.tracerStartSec = obs::Tracer::instance().nowSec() + 0.05;
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c]() {
            driveConnection(host, port, sends, firstOutcome, c,
                            connections, traced, drain_sec, start,
                            seg.outcomes);
        });
    }
    for (auto &thread : threads)
        thread.join();
    seg.wallSec = since(start);
    return seg;
}

} // namespace dacbench
