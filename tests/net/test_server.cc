/**
 * @file
 * Tests for the wire server: echo traffic over a stub backend (both
 * readiness backends), wire-level batching, malformed-stream teardown,
 * per-frame error replies, concurrent connections, and byte-identity
 * of wire answers against the in-process TuningService.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "service/service.h"
#include "sparksim/simulator.h"

namespace dac::net {
namespace {

/**
 * Backend double: answers with a response derived from the request
 * (predictedTimeSec = 2 * nativeSize) and records the largest batch
 * the server submitted. Batches asking about workload "GATE" stand in
 * for a slow build: they are held until open() answers them, on the
 * opening thread. Every other batch is answered at once, inline.
 */
class StubBackend final : public service::TuningBackend
{
  public:
    void
    submitBatch(std::vector<service::TuneRequest> batch,
                service::BatchDone done) override
    {
        std::vector<service::TuneOutcome> outcomes;
        for (const auto &request : batch) {
            service::TuneResponse response;
            response.workload = request.workload;
            response.nativeSize = request.nativeSize;
            response.predictedTimeSec = request.nativeSize * 2.0;
            response.warnings.push_back({"stub-rule", "stub finding"});
            outcomes.push_back({std::move(response), nullptr});
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            largest = std::max(largest, batch.size());
            if (!opened && batch.front().workload == "GATE") {
                held.push_back({std::move(done), std::move(outcomes)});
                heldChanged.notify_all();
                return;
            }
        }
        done(std::move(outcomes));
    }

    size_t
    maxBatch()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return largest;
    }

    /** Wait until `n` batches wait on the gate (false after 5 s). */
    bool
    awaitHeld(size_t n)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return heldChanged.wait_for(lock, std::chrono::seconds(5),
                                    [&]() { return held.size() >= n; });
    }

    /** Batches waiting on the gate now. */
    size_t
    heldCount()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return held.size();
    }

    /** Answer every held batch; later ones are answered at once. */
    void
    open()
    {
        std::vector<Held> release;
        {
            std::lock_guard<std::mutex> lock(mutex);
            opened = true;
            release.swap(held);
        }
        for (Held &batch : release)
            batch.done(std::move(batch.outcomes));
    }

  private:
    struct Held
    {
        service::BatchDone done;
        std::vector<service::TuneOutcome> outcomes;
    };

    std::mutex mutex;
    std::condition_variable heldChanged;
    size_t largest = 0;
    bool opened = false;
    std::vector<Held> held;
};

service::TuneRequest
makeRequest(const std::string &workload, double size)
{
    service::TuneRequest request;
    request.workload = workload;
    request.nativeSize = size;
    return request;
}

TEST(TuningServer, EchoesOverTheWire)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Client client("127.0.0.1", server.port());
    client.ping();
    const auto response = client.request(makeRequest("TS", 40.0));
    EXPECT_EQ(response.workload, "TS");
    EXPECT_EQ(response.nativeSize, 40.0);
    EXPECT_EQ(response.predictedTimeSec, 80.0);
    // Typed warnings crossed the wire, not stderr.
    ASSERT_EQ(response.warnings.size(), 1u);
    EXPECT_EQ(response.warnings[0].constraint, "stub-rule");

    client.close();
    server.stop();
    const auto stats = server.stats();
    EXPECT_EQ(stats.connectionsAccepted, 1u);
    EXPECT_EQ(stats.requestsSubmitted, 1u);
    EXPECT_EQ(stats.protocolErrors, 0u);
}

TEST(TuningServer, PollBackendServes)
{
    StubBackend backend;
    ServerOptions options;
    options.poller = PollerKind::Poll;
    TuningServer server(backend, options);
    server.start();

    Client client("127.0.0.1", server.port());
    const auto response = client.request(makeRequest("WC", 10.0));
    EXPECT_EQ(response.predictedTimeSec, 20.0);
    client.close();
    server.stop();
}

TEST(TuningServer, PipelinedFramesFormOneBatch)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Client client("127.0.0.1", server.port());
    // One coalesced write of 6 frames lands in the server's receive
    // buffer together; the readiness cycle drains them as one batch.
    // Scheduling could in principle split the read, so allow retries
    // before asserting.
    size_t observedMax = 0;
    for (int attempt = 0; attempt < 5 && observedMax < 2; ++attempt) {
        std::vector<service::TuneRequest> requests;
        for (int i = 0; i < 6; ++i)
            requests.push_back(makeRequest("TS", 10.0 + i));
        const auto responses = client.requestBatch(requests);
        ASSERT_EQ(responses.size(), 6u);
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(responses[i].nativeSize, 10.0 + i);
            EXPECT_EQ(responses[i].predictedTimeSec, 2.0 * (10.0 + i));
        }
        observedMax = backend.maxBatch();
    }
    EXPECT_GE(observedMax, 2u)
        << "pipelined frames never reached the backend as a batch";
    EXPECT_GE(server.stats().maxBatch, observedMax);

    client.close();
    server.stop();
}

TEST(TuningServer, ConcurrentConnections)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    // More connections than event loops: pinning must spread them and
    // every closed-loop client must see only its own answers.
    constexpr int kClients = 6;
    constexpr int kRequestsEach = 8;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c]() {
            try {
                Client client("127.0.0.1", server.port());
                for (int i = 0; i < kRequestsEach; ++i) {
                    const double size = 100.0 * c + i;
                    const auto response =
                        client.request(makeRequest("KM", size));
                    if (response.nativeSize != size ||
                        response.predictedTimeSec != 2.0 * size)
                        failures.fetch_add(1,
                                           std::memory_order_relaxed);
                }
            } catch (const std::exception &) {
                failures.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);

    server.stop();
    const auto stats = server.stats();
    EXPECT_EQ(stats.connectionsAccepted,
              static_cast<uint64_t>(kClients));
    EXPECT_EQ(stats.requestsSubmitted,
              static_cast<uint64_t>(kClients * kRequestsEach));
}

TEST(TuningServer, MalformedFrameClosesConnectionOnly)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    // Raw garbage: not a frame header at all.
    {
        Socket raw = connectTcp("127.0.0.1", server.port());
        const uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02,
                                0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                                0x09, 0x0a, 0x0b, 0x0c};
        ASSERT_TRUE(writeAll(raw.fd(), junk, sizeof junk));
        // The server must close on us (EOF), not hang or crash.
        uint8_t buf[64];
        const long got = readWithTimeout(raw.fd(), buf, sizeof buf, 5.0);
        EXPECT_EQ(got, 0) << "expected EOF after malformed frame";
    }

    // The server survives and keeps serving fresh connections.
    Client client("127.0.0.1", server.port());
    const auto response = client.request(makeRequest("PR", 3.0));
    EXPECT_EQ(response.predictedTimeSec, 6.0);
    client.close();

    server.stop();
    EXPECT_GE(server.stats().protocolErrors, 1u);
}

TEST(TuningServer, UndecodablePayloadGetsErrorFrame)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    // Well-framed, but the payload is not a TuneRequest: the server
    // answers with an Error frame and keeps the connection open.
    Socket raw = connectTcp("127.0.0.1", server.port());
    const std::vector<uint8_t> garbage = {1, 2, 3};
    const auto frame =
        encodeFrame(MsgType::TuneRequest, 77, garbage);
    ASSERT_TRUE(writeAll(raw.fd(), frame.data(), frame.size()));

    FrameDecoder decoder;
    Frame reply;
    for (;;) {
        uint8_t buf[512];
        const long got = readWithTimeout(raw.fd(), buf, sizeof buf, 5.0);
        ASSERT_GT(got, 0) << "connection died instead of replying";
        decoder.feed(buf, static_cast<size_t>(got));
        const auto result = decoder.next(&reply);
        ASSERT_NE(result, FrameDecoder::Result::Malformed);
        if (result == FrameDecoder::Result::Frame)
            break;
    }
    EXPECT_EQ(reply.type, MsgType::Error);
    EXPECT_EQ(reply.requestId, 77u);
    EXPECT_FALSE(decodeError(reply.payload).empty());

    // Same connection still serves valid requests afterwards.
    const auto request = makeRequest("TS", 5.0);
    const auto good =
        encodeFrame(MsgType::TuneRequest, 78,
                    encodeTuneRequest(request));
    ASSERT_TRUE(writeAll(raw.fd(), good.data(), good.size()));
    for (;;) {
        uint8_t buf[4096];
        const long got = readWithTimeout(raw.fd(), buf, sizeof buf, 5.0);
        ASSERT_GT(got, 0);
        decoder.feed(buf, static_cast<size_t>(got));
        const auto result = decoder.next(&reply);
        ASSERT_NE(result, FrameDecoder::Result::Malformed);
        if (result == FrameDecoder::Result::Frame)
            break;
    }
    EXPECT_EQ(reply.type, MsgType::TuneResponse);
    EXPECT_EQ(reply.requestId, 78u);

    server.stop();
    EXPECT_GE(server.stats().protocolErrors, 1u);
}

TEST(TuningServer, StopWithOpenConnectionsIsClean)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();
    Client client("127.0.0.1", server.port());
    client.ping();
    // Stop with the client still connected; must not hang or crash.
    server.stop();
}

/**
 * The tentpole contract: a tuning answer served over the wire is
 * byte-identical to the same question asked in process.
 */
TEST(TuningServer, WireAnswersMatchInProcessBitForBit)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    service::ServiceOptions options;
    options.threads = 2;
    // Tiny budget: identity is what is under test, not model quality.
    options.tuning.collect.datasetCount = 4;
    options.tuning.collect.runsPerDataset = 12;
    options.tuning.hm.firstOrder.maxTrees = 30;
    options.tuning.ga.maxGenerations = 8;
    service::TuningService service(sim, options);

    TuningServer server(service, ServerOptions{});
    server.start();

    service::TuneRequest request = makeRequest("TS", 40.0);
    request.seed = 99;

    const auto direct = service.submit(request).get();

    Client client("127.0.0.1", server.port());
    const auto wire = client.request(request);
    client.close();
    server.stop();

    EXPECT_EQ(wire.workload, direct.workload);
    EXPECT_EQ(wire.nativeSize, direct.nativeSize);
    // Bit-exact: the config crosses the wire as IEEE-754 bit patterns.
    EXPECT_EQ(wire.best.values(), direct.best.values());
    EXPECT_EQ(wire.predictedTimeSec, direct.predictedTimeSec);
    EXPECT_EQ(wire.modelErrorPct, direct.modelErrorPct);
    EXPECT_EQ(wire.degraded, direct.degraded);
    ASSERT_EQ(wire.warnings.size(), direct.warnings.size());
    for (size_t i = 0; i < wire.warnings.size(); ++i) {
        EXPECT_EQ(wire.warnings[i].constraint,
                  direct.warnings[i].constraint);
        EXPECT_EQ(wire.warnings[i].message, direct.warnings[i].message);
    }
}

/** Raw-socket helper: read frames until one arrives. */
Frame
readFrame(Socket &raw, FrameDecoder &decoder)
{
    Frame reply;
    for (;;) {
        const auto result = decoder.next(&reply);
        EXPECT_NE(result, FrameDecoder::Result::Malformed)
            << decoder.error();
        if (result == FrameDecoder::Result::Frame)
            return reply;
        uint8_t buf[4096];
        const long got = readWithTimeout(raw.fd(), buf, sizeof buf, 5.0);
        EXPECT_GT(got, 0) << "connection died instead of replying";
        if (got <= 0)
            return reply;
        decoder.feed(buf, static_cast<size_t>(got));
    }
}

/**
 * Backward compatibility: a v1 client gets a bit-identical v1 answer
 * — same frame version, no trace fields consumed, no phase breakdown
 * appended.
 */
TEST(TuningServer, V1ClientGetsBitIdenticalV1Reply)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    const service::TuneRequest request = makeRequest("TS", 40.0);
    Socket raw = connectTcp("127.0.0.1", server.port());
    const auto frame = encodeFrame(MsgType::TuneRequest, 9,
                                   encodeTuneRequest(request, 1), 1);
    ASSERT_TRUE(writeAll(raw.fd(), frame.data(), frame.size()));

    FrameDecoder decoder;
    const Frame reply = readFrame(raw, decoder);
    EXPECT_EQ(reply.type, MsgType::TuneResponse);
    EXPECT_EQ(reply.requestId, 9u);
    EXPECT_EQ(reply.version, 1);

    // The payload matches a local v1 encoding of the stub's answer
    // byte for byte: v2 never leaks into a v1 conversation.
    service::TuneResponse expected;
    expected.workload = "TS";
    expected.nativeSize = 40.0;
    expected.predictedTimeSec = 80.0;
    expected.warnings.push_back({"stub-rule", "stub finding"});
    EXPECT_EQ(reply.payload, encodeTuneResponse(expected, 1));

    server.stop();
}

TEST(TuningServer, V2ReplyCarriesPhaseBreakdown)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Client client("127.0.0.1", server.port());
    const auto response = client.request(makeRequest("TS", 40.0));
    client.close();
    server.stop();

    // Even over the stub backend (which reports no phases itself) the
    // server appends its serialize timing to the v2 reply.
    ASSERT_FALSE(response.phases.empty());
    bool sawSerialize = false;
    for (const auto &timing : response.phases) {
        if (timing.phase == service::Phase::Serialize) {
            EXPECT_GE(timing.sec, 0.0);
            sawSerialize = true;
        }
    }
    EXPECT_TRUE(sawSerialize);
}

/**
 * One phase, one fact: every entry of a v2 reply's phase breakdown
 * moved its `phase.<name>` histogram by exactly one observation of
 * exactly that value, and left exactly one flight record under the
 * request's wire id, at the phase's checkpoint, with the same value —
 * on a cache miss (model-build listed) and on a hit.
 */
TEST(TuningServer, PhaseBreakdownAgreesWithHistogramsAndFlightRecords)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    service::ServiceOptions options;
    options.threads = 2;
    options.tuning.collect.datasetCount = 4;
    options.tuning.collect.runsPerDataset = 12;
    options.tuning.hm.firstOrder.maxTrees = 30;
    options.tuning.ga.maxGenerations = 8;
    service::TuningService service(sim, options);
    ServerOptions serverOptions;
    serverOptions.metrics = &service.metrics();
    TuningServer server(service, serverOptions);
    server.start();
    obs::MetricsRegistry &metrics = service.metrics();

    const auto flightPhaseOf = [](service::Phase phase) {
        switch (phase) {
        case service::Phase::Decode:
            return obs::FlightPhase::Decode;
        case service::Phase::Queue:
            return obs::FlightPhase::QueueExit;
        case service::Phase::CacheLookup:
            return obs::FlightPhase::CacheLookup;
        case service::Phase::ModelBuild:
            return obs::FlightPhase::ModelBuild;
        case service::Phase::Search:
            return obs::FlightPhase::Search;
        case service::Phase::Serialize:
            return obs::FlightPhase::Serialize;
        }
        ADD_FAILURE() << "unmapped phase";
        return obs::FlightPhase::Degraded;
    };

    Socket raw = connectTcp("127.0.0.1", server.port());
    FrameDecoder decoder;
    service::TuneRequest request = makeRequest("TS", 40.0);
    request.seed = 7;
    for (const uint32_t wireId : {41u, 42u}) {
        const bool miss = wireId == 41u;
        SCOPED_TRACE(miss ? "cache miss" : "cache hit");
        std::vector<uint64_t> countsBefore(service::kPhaseCount);
        std::vector<double> sumsBefore(service::kPhaseCount);
        for (size_t p = 0; p < service::kPhaseCount; ++p) {
            const obs::Histogram &h = metrics.histogram(
                std::string("phase.") +
                service::phaseName(static_cast<service::Phase>(p)));
            countsBefore[p] = h.count();
            sumsBefore[p] = h.total();
        }

        const auto frame = encodeFrame(MsgType::TuneRequest, wireId,
                                       encodeTuneRequest(request));
        ASSERT_TRUE(writeAll(raw.fd(), frame.data(), frame.size()));
        const Frame reply = readFrame(raw, decoder);
        ASSERT_EQ(reply.type, MsgType::TuneResponse);
        ASSERT_EQ(reply.requestId, wireId);
        const service::TuneResponse response = decodeTuneResponse(
            reply.payload, conf::ConfigSpace::spark(), reply.version);
        EXPECT_EQ(response.modelCacheHit, !miss);
        EXPECT_EQ(response.phaseSec(service::Phase::ModelBuild) > 0.0,
                  miss);

        const auto records = obs::FlightRecorder::instance().snapshot();
        ASSERT_EQ(response.phases.size(), miss ? 6u : 5u);
        for (const service::PhaseTiming &timing : response.phases) {
            const auto p = static_cast<size_t>(timing.phase);
            SCOPED_TRACE(service::phaseName(timing.phase));
            const obs::Histogram &h = metrics.histogram(
                std::string("phase.") + service::phaseName(timing.phase));
            EXPECT_EQ(h.count(), countsBefore[p] + 1);
            EXPECT_DOUBLE_EQ(h.total(), sumsBefore[p] + timing.sec);

            size_t matching = 0;
            for (const obs::FlightRecord &record : records) {
                if (record.requestId != wireId ||
                    record.phase != flightPhaseOf(timing.phase))
                    continue;
                ++matching;
                EXPECT_EQ(record.valueSec, timing.sec);
            }
            EXPECT_EQ(matching, 1u);
        }
    }
    server.stop();

    // The per-phase histograms are the only copy of the search and
    // model-build timings.
    const std::string json = metrics.renderJson();
    EXPECT_EQ(json.find("latency.search"), std::string::npos);
    EXPECT_EQ(json.find("latency.model_build"), std::string::npos);
}

TEST(TuningServer, UnknownFrameTypeGetsErrorAndKeepsConnection)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Socket raw = connectTcp("127.0.0.1", server.port());
    auto unknown = encodeFrame(MsgType::Ping, 41, {});
    unknown[5] = 0xEE; // a type from the future
    ASSERT_TRUE(writeAll(raw.fd(), unknown.data(), unknown.size()));

    FrameDecoder decoder;
    const Frame reply = readFrame(raw, decoder);
    EXPECT_EQ(reply.type, MsgType::Error);
    EXPECT_EQ(reply.requestId, 41u);
    EXPECT_FALSE(decodeError(reply.payload).empty());

    // Same connection still serves: unknown types are forgivable.
    const auto good = encodeFrame(MsgType::TuneRequest, 42,
                                  encodeTuneRequest(makeRequest("TS", 5.0)));
    ASSERT_TRUE(writeAll(raw.fd(), good.data(), good.size()));
    const Frame answer = readFrame(raw, decoder);
    EXPECT_EQ(answer.type, MsgType::TuneResponse);
    EXPECT_EQ(answer.requestId, 42u);

    server.stop();
}

TEST(TuningServer, StatsFrameServesRegistryInBothFormats)
{
    obs::MetricsRegistry metrics;
    metrics.counter("requests.served").increment(5);
    metrics.histogram("phase.search").observe(0.25);

    StubBackend backend;
    ServerOptions options;
    options.metrics = &metrics;
    TuningServer server(backend, options);
    server.start();

    Client client("127.0.0.1", server.port());
    (void)client.request(makeRequest("TS", 40.0));

    // Prometheus text exposition.
    const std::string prom = client.stats(StatsFormat::Prometheus);
    EXPECT_NE(prom.find("# TYPE dac_requests_served_total counter"),
              std::string::npos);
    EXPECT_NE(prom.find("dac_requests_served_total 5"),
              std::string::npos);
    // The server's own RED metrics landed in the same registry.
    EXPECT_NE(prom.find("dac_net_loop0_requests_total"),
              std::string::npos);

    // JSON snapshot (what dac_top polls).
    const std::string json = client.stats(StatsFormat::Json);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"requests.served\":5"), std::string::npos);

    client.close();
    server.stop();
}

TEST(TuningServer, StatsProviderOverridesRegistryRendering)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.setStatsProvider([](StatsFormat format) {
        return format == StatsFormat::Prometheus ? "prom-custom\n"
                                                 : "{\"custom\":1}";
    });
    server.start();

    Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.stats(StatsFormat::Prometheus), "prom-custom\n");
    EXPECT_EQ(client.stats(StatsFormat::Json), "{\"custom\":1}");
    client.close();
    server.stop();
}

TEST(TuningServer, StatsWithoutProviderOrRegistryIsAnError)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();
    Client client("127.0.0.1", server.port());
    EXPECT_THROW((void)client.stats(), RpcError);
    // The error did not cost the connection.
    client.ping();
    client.close();
    server.stop();
}

TEST(TuningServer, FlightDumpFrameReturnsParseableWindow)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Client client("127.0.0.1", server.port());
    (void)client.request(makeRequest("TS", 40.0));

    const std::string dump = client.flightDump(/*window_sec=*/30.0);
    // The decode/serialize/write records of the request just served
    // are in the window (the recorder is always on).
    EXPECT_NE(dump.find("\"records\""), std::string::npos);
    EXPECT_NE(dump.find("\"decode\""), std::string::npos);

    // A negative window is a protocol error, not a crash.
    EXPECT_THROW((void)client.flightDump(-1.0), RpcError);
    client.ping(); // connection survived the refusal

    client.close();
    server.stop();
}

/**
 * No head-of-line blocking: answers held up by a slow build on two
 * connections must not delay a ready answer on a third. The gate opens
 * by itself after kGate, so a server that parks a reply thread per
 * batch answers the third connection only then.
 */
TEST(TuningServer, SlowAnswerDoesNotDelayOtherConnections)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Socket slowA = connectTcp("127.0.0.1", server.port());
    Socket slowB = connectTcp("127.0.0.1", server.port());
    const auto gated =
        encodeFrame(MsgType::TuneRequest, 1,
                    encodeTuneRequest(makeRequest("GATE", 1.0)));
    ASSERT_TRUE(writeAll(slowA.fd(), gated.data(), gated.size()));
    ASSERT_TRUE(writeAll(slowB.fd(), gated.data(), gated.size()));
    EXPECT_TRUE(backend.awaitHeld(2));

    constexpr auto kGate = std::chrono::milliseconds(1000);
    std::thread opener([&]() {
        std::this_thread::sleep_for(kGate);
        backend.open();
    });
    Client ready("127.0.0.1", server.port());
    const auto start = std::chrono::steady_clock::now();
    const auto response = ready.request(makeRequest("TS", 40.0));
    const auto waited = std::chrono::steady_clock::now() - start;
    opener.join();

    EXPECT_EQ(response.predictedTimeSec, 80.0);
    EXPECT_LT(waited, kGate / 4)
        << "a ready answer waited behind other connections' slow ones";
    // The held answers still arrive once the build finishes.
    for (Socket *slow : {&slowA, &slowB}) {
        FrameDecoder decoder;
        const Frame reply = readFrame(*slow, decoder);
        EXPECT_EQ(reply.type, MsgType::TuneResponse);
        EXPECT_EQ(reply.requestId, 1u);
    }
    ready.close();
    server.stop();
}

/**
 * stop() with a batch in flight returns only after that batch's answer
 * is written — or, for a connection already gone, dropped — so no
 * completion runs against a stopped server. A client that keeps
 * pipelining meanwhile gets an Error for each late request at once:
 * late batches never reach the backend and cannot hold stop() up.
 */
TEST(TuningServer, StopWaitsForTheBatchInFlight)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Socket kept = connectTcp("127.0.0.1", server.port());
    Socket dropped = connectTcp("127.0.0.1", server.port());
    Socket busy = connectTcp("127.0.0.1", server.port());
    const auto gated = [](uint32_t id) {
        return encodeFrame(MsgType::TuneRequest, id,
                           encodeTuneRequest(makeRequest("GATE", 1.0)));
    };
    const auto first = gated(5);
    ASSERT_TRUE(writeAll(kept.fd(), first.data(), first.size()));
    ASSERT_TRUE(writeAll(dropped.fd(), first.data(), first.size()));
    EXPECT_TRUE(backend.awaitHeld(2));
    dropped.close();

    std::atomic<bool> stopReturned{false};
    std::thread stopper([&]() {
        server.stop();
        stopReturned.store(true);
    });
    // stop() now waits on the held batches, refusing new ones.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread pipeliner([&]() {
        // Until stop() returns (bounded at ~10 s).
        for (uint32_t id = 100; id < 10100 && !stopReturned.load(); ++id) {
            const auto frame = gated(id);
            if (!writeAll(busy.fd(), frame.data(), frame.size()))
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    FrameDecoder busyDecoder;
    const Frame late = readFrame(busy, busyDecoder);
    EXPECT_EQ(late.type, MsgType::Error);
    EXPECT_EQ(late.requestId, 100u);
    EXPECT_EQ(late.payload, encodeError("server stopping"));
    EXPECT_EQ(backend.heldCount(), 2u)
        << "a request that arrived during stop() reached the backend";
    EXPECT_FALSE(stopReturned.load())
        << "stop() returned with a batch still in flight";

    backend.open();
    stopper.join();
    pipeliner.join();
    FrameDecoder decoder;
    const Frame reply = readFrame(kept, decoder);
    EXPECT_EQ(reply.type, MsgType::TuneResponse);
    EXPECT_EQ(reply.requestId, 5u);
}

} // namespace
} // namespace dac::net
