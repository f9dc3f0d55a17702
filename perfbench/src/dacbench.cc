/**
 * @file
 * dacbench: the repository benchmark program (see ../README.md).
 *
 * One in-process TuningService + TuningServer stack over loopback,
 * driven by one of four workloads:
 *
 *   tune_cold        closed loop, one client, cycling the six Table 1
 *                    programs x two size bands (the smallest Table 1
 *                    size and twice it) through a cache smaller than
 *                    the cycle: every request collects, trains and
 *                    persists.
 *   tune_cold_large  the same at the largest Table 1 size and twice it,
 *                    where the simulator's share of a build doubles.
 *   hot_search       open loop, Poisson arrivals, Zipf(1) over the
 *                    serving mix, a fresh seed per request: every
 *                    request runs a full GA search on a warm model.
 *   hot_repeat       same mix, rate and cache state, but each mix item
 *                    always carries seed 17 and arrives in pipelined
 *                    bursts of 8 frames per write: most work is shared.
 *
 * BENCHMARK.json runs the two cold workloads; the hot ones are run by
 * hand (README.md says why).
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the
 * workload once untraced and once with obs::Tracer on, times direct
 * calls into each layer, prints the per-layer metrics and self times,
 * and writes the merged spans as Chrome-trace JSON. The last stdout
 * line is always the result object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "dac/collector.h"
#include "dac/evaluation.h"
#include "dac/modeler.h"
#include "dac/perfvector.h"
#include "dac/searcher.h"
#include "ledger.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/tracer.h"
#include "service/model_cache.h"
#include "service/service.h"
#include "service/thread_pool.h"
#include "support/logging.h"
#include "support/random.h"
#include "workloads/registry.h"

namespace dacbench {
namespace {

using namespace dac;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

const Clock::time_point kProcessStart = Clock::now();

/** Log where a run's wall time goes. */
void
mark(const char *what)
{
    std::ostringstream line;
    line << "[" << std::fixed << std::setprecision(1)
         << since(kProcessStart) << " s] " << what << "\n";
    std::cout << line.str();
}

// ---------------------------------------------------------------- args

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for scratch files (snapshots) and the trace. */
    std::string workDir = ".";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "dacbench: " << why << "\n"
              << "usage: dacbench --workload hot_search|hot_repeat|"
                 "tune_cold|tune_cold_large --seed N --seconds S\n"
              << "                --trace 0|1 [--work-dir D] [--commit C]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload")
                a.workload = value;
            else if (key == "--seed")
                a.seed = std::stoull(value);
            else if (key == "--seconds")
                a.seconds = std::stod(value);
            else if (key == "--trace")
                a.trace = value == "1";
            else if (key == "--work-dir")
                a.workDir = value;
            else if (key == "--commit")
                a.commit = value;
            else
                usage("unknown option " + key);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (a.workload != "hot_search" && a.workload != "hot_repeat" &&
        a.workload != "tune_cold" && a.workload != "tune_cold_large")
        usage("unknown workload '" + a.workload + "'");
    if (a.seconds <= 0.0)
        usage("--seconds must be positive");
    return a;
}

// ------------------------------------------------------------- results

/** Metrics in print order, each with its unit. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        rows.push_back({name, value, unit});
    }

    /** Human-readable table on stdout. */
    void
    print() const
    {
        for (const auto &r : rows) {
            std::cout << "  " << std::left << std::setw(28) << r.name
                      << std::right << std::setw(16) << std::setprecision(6)
                      << r.value << " " << r.unit << "\n";
        }
    }

    [[nodiscard]] std::string
    json() const
    {
        std::ostringstream out;
        out << std::setprecision(17) << "{";
        for (size_t i = 0; i < rows.size(); ++i) {
            // A percentile that includes failures is +inf: report the
            // largest double so it reads as a miss, never as fast.
            const double v = std::isfinite(rows[i].value)
                ? rows[i].value
                : std::numeric_limits<double>::max();
            out << (i ? ", " : "") << "\"" << rows[i].name
                << "\": {\"value\": " << v << ", \"unit\": \""
                << rows[i].unit << "\"}";
        }
        out << "}";
        return out.str();
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows;
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** One line of fingerprint JSON: what must match for two results to
 *  be comparable (run.py compare refuses otherwise). */
std::string
fingerprintJson(const Args &args)
{
    std::ostringstream out;
    out << "{\"cpu_model\": \"" << cpuModel() << "\", \"nproc\": "
        << std::thread::hardware_concurrency() << ", \"compiler\": \""
        << "gcc " << __VERSION__ << "\", \"build_type\": \""
        << DACBENCH_BUILD_TYPE << "\", \"git_commit\": \"" << args.commit
        << "\", \"workload\": \"" << args.workload
        << "\", \"seed\": " << args.seed << "}";
    return out.str();
}

// ---------------------------------------------------------------- stack

size_t
nproc()
{
    return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/**
 * The one service configuration every workload runs: the reduced
 * paper scale of bench/common.h (ntrain = 800, nt <= 500, popSize 50,
 * <= 100 generations, mutation 0.01) on nproc workers; everything else,
 * parallelWithinRequest included, stays at the defaults tuning_server
 * ships. Only the cache sizing and persistence differ per workload
 * (see README.md).
 */
service::ServiceOptions
serviceOptions(bool cold, const std::string &snapshot_dir)
{
    service::ServiceOptions opt;
    opt.threads = nproc();
    opt.tuning = bench::tunerOptions(bench::Scale{});
    if (cold) {
        // Below the 12-item cycle on one LRU shard: every request of
        // the cycle misses and evicts.
        opt.modelCacheCapacity = 4;
        opt.modelCacheShards = 1;
        opt.snapshotDir = snapshot_dir;
    }
    return opt;
}

/** Simulator + service + wire server, torn down in reverse. */
struct Stack
{
    explicit Stack(const service::ServiceOptions &options)
        : sim(cluster::ClusterSpec::paperTestbed()), service(sim, options),
          server(service, serverOptions(service))
    {
        server.start();
    }

    ~Stack()
    {
        server.stop();
        service.shutdown();
    }

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    static net::ServerOptions
    serverOptions(service::TuningService &svc)
    {
        net::ServerOptions opt;
        opt.metrics = &svc.metrics();
        return opt;
    }

    sparksim::SparkSimulator sim;
    service::TuningService service;
    net::TuningServer server;
};

// ------------------------------------------------------------ workloads

struct Item
{
    std::string workload;
    double nativeSize;
};

/** The 8-item serving mix of bench_net_serving, rank 1 first. */
std::vector<Item>
servingMix()
{
    return {
        {"TS", 40.0},  {"WC", 80.0},  {"KM", 200.0}, {"TS", 44.0},
        {"PR", 120.0}, {"WC", 95.0},  {"KM", 230.0}, {"PR", 140.0},
    };
}

/** The six Table 1 programs at their smallest (or, `large`, largest)
 *  Table 1 size and twice that (always the next power-of-two cache
 *  band). */
std::vector<Item>
coldList(bool large)
{
    std::vector<Item> items;
    for (const auto &w : workloads::Registry::instance().all()) {
        const auto &sizes = w->paperSizes();
        const double base = large ? sizes.back() : sizes.front();
        items.push_back({w->abbrev(), base});
        items.push_back({w->abbrev(), 2.0 * base});
    }
    return items;
}

/**
 * `count` mix ranks in exact Zipf(s=1) proportions (largest-remainder
 * rounding), in seeded random order. Every segment then carries each
 * item at its Zipf share, so a run's percentiles do not move with a
 * sampled share of the slow items or with the item make-up of bursts.
 */
std::vector<size_t>
zipfDeck(size_t ranks, size_t count, Rng &rng)
{
    double total = 0.0;
    for (size_t r = 0; r < ranks; ++r)
        total += 1.0 / static_cast<double>(r + 1);
    std::vector<size_t> counts(ranks);
    std::vector<std::pair<double, size_t>> remainders;
    size_t dealt = 0;
    for (size_t r = 0; r < ranks; ++r) {
        const double share = static_cast<double>(count) /
                             static_cast<double>(r + 1) / total;
        counts[r] = static_cast<size_t>(share);
        dealt += counts[r];
        remainders.emplace_back(share - std::floor(share), r);
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (size_t i = 0; dealt < count; ++i, ++dealt)
        ++counts[remainders[i % ranks].second];
    std::vector<size_t> deck;
    for (size_t r = 0; r < ranks; ++r)
        deck.insert(deck.end(), counts[r], r);
    rng.shuffle(deck);
    return deck;
}

/**
 * Poisson arrivals at `rate` requests/s over `seconds`: the send count
 * is fixed at rate x seconds and the send times are sorted uniform
 * draws (a Poisson process conditioned on its count), so every run of
 * a segment offers exactly its rate. hot_search sends one frame per
 * write with a fresh seed each. hot_repeat sends bursts of 8 frames
 * (burst rate = rate / 8) with the default seed, each burst a
 * stratified Zipf sample: one draw from every eighth of the sorted
 * deck, so bursts carry near-identical job lists.
 */
std::vector<Send>
schedule(bool repeat, double rate, double seconds, Rng &rng)
{
    const auto mix = servingMix();
    const size_t burst = repeat ? 8 : 1;
    const auto count = static_cast<size_t>(std::max(
        1.0, std::round(rate * seconds / static_cast<double>(burst))));
    std::vector<Send> sends(count);
    for (Send &send : sends)
        send.dueSec = rng.uniform() * seconds;
    std::sort(sends.begin(), sends.end(),
              [](const Send &a, const Send &b) { return a.dueSec < b.dueSec; });
    auto deck = zipfDeck(mix.size(), count * burst, rng);
    std::vector<size_t> order(count);
    for (size_t i = 0; i < count; ++i)
        order[i] = i;
    if (repeat) {
        std::sort(deck.begin(), deck.end());
        rng.shuffle(order);
    }
    for (size_t i = 0; i < count; ++i) {
        for (size_t b = 0; b < burst; ++b) {
            const Item &item = mix[deck[order[i] + b * count]];
            service::TuneRequest req;
            req.workload = item.workload;
            req.nativeSize = item.nativeSize;
            if (!repeat)
                req.seed = rng.raw();
            sends[i].requests.push_back(std::move(req));
        }
    }
    return sends;
}

/** Requests of a schedule in outcome order. */
std::vector<service::TuneRequest>
flatten(const std::vector<Send> &sends)
{
    std::vector<service::TuneRequest> out;
    for (const Send &s : sends)
        out.insert(out.end(), s.requests.begin(), s.requests.end());
    return out;
}

// ------------------------------------------------------------- tallies

/** sent / ok / degraded-by-reason / errored of a set of outcomes. */
struct Tally
{
    size_t sent = 0;
    size_t ok = 0;
    size_t errored = 0;
    std::map<std::string, size_t> degraded;

    void
    add(const Outcome &o)
    {
        ++sent;
        if (o.status == Status::Ok)
            ++ok;
        else if (o.status == Status::Degraded)
            ++degraded[o.response.degradedReason];
        else
            ++errored;
    }

    [[nodiscard]] size_t failed() const { return sent - ok; }

    [[nodiscard]] std::string
    str() const
    {
        std::ostringstream out;
        out << "sent " << sent << "  ok " << ok << "  errored " << errored
            << "  degraded";
        size_t total = 0;
        for (const auto &[reason, n] : degraded) {
            out << " " << reason << "=" << n;
            total += n;
        }
        if (total == 0)
            out << " 0";
        return out.str();
    }
};

Tally
tally(const std::vector<Outcome> &outcomes)
{
    Tally t;
    for (const Outcome &o : outcomes)
        t.add(o);
    return t;
}

std::vector<double>
latenciesMs(const std::vector<Outcome> &outcomes)
{
    std::vector<double> ms;
    for (const Outcome &o : outcomes)
        ms.push_back(o.latencySec() * 1e3);
    return ms;
}

/** One log line: sample count, whole-sample p50/p90/p95/p99, and the
 *  highest percentile with at least ten samples beyond it. */
std::string
latencyLine(const std::vector<double> &ms)
{
    const double supported = supportedPercentile(ms.size());
    std::ostringstream out;
    out << "latency over " << ms.size() << " samples: p50 " << median(ms)
        << " ms, p90 " << quantile(ms, 0.9) << " ms, p95 "
        << quantile(ms, 0.95) << " ms, p99 " << quantile(ms, 0.99)
        << " ms (highest supported p" << supported * 100 << ")";
    return out.str();
}

/** FNV-1a over the answers' identity, config bits and predicted time,
 *  in order. */
uint64_t
answerDigest(const std::vector<service::TuneResponse> &answers)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *data, size_t len) {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < len; ++i)
            h = (h ^ p[i]) * 1099511628211ull;
    };
    for (const auto &r : answers) {
        mix(r.workload.data(), r.workload.size());
        mix(&r.nativeSize, sizeof(double));
        mix(r.best.values().data(), r.best.values().size() * sizeof(double));
        mix(&r.predictedTimeSec, sizeof(double));
    }
    return h;
}

/** The normal (non-degraded) wire answers, in schedule order. */
std::vector<service::TuneResponse>
okAnswers(const std::vector<Outcome> &outcomes)
{
    std::vector<service::TuneResponse> out;
    for (const Outcome &o : outcomes) {
        if (o.ok())
            out.push_back(o.response);
    }
    return out;
}

bool
sameAnswer(const service::TuneResponse &a, const service::TuneResponse &b)
{
    const auto &x = a.best.values();
    const auto &y = b.best.values();
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) ==
               0 &&
           std::memcmp(&a.predictedTimeSec, &b.predictedTimeSec,
                       sizeof(double)) == 0;
}

/** Result of the correctness gate. */
struct GateResult
{
    /** Sampled requests whose in-process answer degraded, or whose
     *  normal wire answer differs from it. */
    size_t mismatches = 0;
    /** Sampled requests that also had a normal wire answer. */
    size_t compared = 0;
    /** In-process answers of the sample, in schedule order. */
    std::vector<service::TuneResponse> answers;
};

/**
 * Correctness gate: re-ask a seeded sample of `candidates` through
 * in-process TuningService::submit() and require every normal wire
 * answer among them to match its configuration bits and predicted time
 * exactly. The sample does not depend on which requests failed, so the
 * answers it returns are a function of the seed alone.
 */
GateResult
gate(service::TuningService &svc,
     const std::vector<service::TuneRequest> &requests,
     const std::vector<Outcome> &outcomes, std::vector<size_t> candidates,
     size_t want, uint64_t seed)
{
    Rng rng(combineSeed(seed, 0x6a7e));
    rng.shuffle(candidates);
    candidates.resize(std::min(want, candidates.size()));
    std::sort(candidates.begin(), candidates.end());
    GateResult result;
    for (const size_t i : candidates) {
        // The span id rides as the trace id, so the service's spans of
        // this request stitch under it; the answer ignores it.
        obs::ScopedSpan span("bench.submit");
        service::TuneRequest request = requests[i];
        request.traceId = span.id();
        auto local = svc.submit(request).get();
        const bool wireOk = outcomes[i].ok();
        result.compared += wireOk;
        if (local.degraded ||
            (wireOk && !sameAnswer(local, outcomes[i].response))) {
            ++result.mismatches;
            std::cout << "GATE MISMATCH request " << i << " "
                      << requests[i].workload << "@"
                      << requests[i].nativeSize << "\n";
        }
        result.answers.push_back(std::move(local));
    }
    return result;
}

/**
 * Fig. 12 quality: geometric mean over the answers of
 * measureTime(default) / measureTime(answer) at the requested size.
 * Off the timed path; a pure function of the answers.
 */
double
tunedSpeedup(const sparksim::SparkSimulator &sim,
             const std::vector<service::TuneResponse> &answers)
{
    const auto &registry = workloads::Registry::instance();
    const conf::Configuration defaults(conf::ConfigSpace::spark());
    // ratio[k] = default / tuned time of answer k; answers are measured
    // in parallel, each by one thread, so the value does not depend on
    // the thread count.
    std::vector<double> ratio(answers.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < nproc(); ++t) {
        threads.emplace_back([&, t]() {
            for (size_t k = t; k < answers.size(); k += nproc()) {
                const auto &r = answers[k];
                const auto &w = registry.byAbbrev(r.workload);
                ratio[k] = core::measureTime(sim, w, r.nativeSize, defaults,
                                             3, 42) /
                           core::measureTime(sim, w, r.nativeSize, r.best,
                                             3, 42);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    double logSum = 0.0;
    for (const double x : ratio)
        logSum += std::log(x);
    return ratio.empty() ? 0.0
                         : std::exp(logSum / static_cast<double>(ratio.size()));
}

/** Mean modelErrorPct over the distinct models behind the answers. */
double
modelError(const std::vector<service::TuneResponse> &answers)
{
    std::map<std::pair<std::string, int>, double> models;
    for (const auto &r : answers)
        models[{r.workload, service::sizeBandOf(r.nativeSize)}] =
            r.modelErrorPct;
    double sum = 0.0;
    for (const auto &[key, err] : models)
        sum += err;
    return models.empty() ? 0.0 : sum / static_cast<double>(models.size());
}

// ----------------------------------------------------------- hot set-up

/** Build a fresh stack and warm every mix model; returns seconds. */
double
setUpHot(std::unique_ptr<Stack> &stack,
         std::vector<service::TuneResponse> *warm_out = nullptr)
{
    stack.reset();
    const auto start = Clock::now();
    stack = std::make_unique<Stack>(serviceOptions(false, ""));
    std::vector<std::future<service::TuneResponse>> futures;
    for (const Item &item : servingMix()) {
        service::TuneRequest req;
        req.workload = item.workload;
        req.nativeSize = item.nativeSize;
        req.seed = 7;
        futures.push_back(stack->service.submit(req));
    }
    for (auto &f : futures) {
        auto r = f.get();
        if (r.degraded)
            fatalError("set-up warm request degraded: " + r.degradedReason);
        if (warm_out)
            warm_out->push_back(std::move(r));
    }
    return since(start);
}

std::vector<double>
lateSec(const std::vector<Outcome> &outcomes)
{
    std::vector<double> out;
    for (const Outcome &o : outcomes) {
        if (o.sentSec >= 0.0)
            out.push_back(o.sentSec - o.dueSec);
    }
    return out;
}

/** Whether one open-loop segment meets the latency limit. */
struct Verdict
{
    bool pass = false;
    double p99Ms = 0.0;
    double failRatio = 0.0;
    /** Latency growth over the segment, s per s of schedule. */
    double slope = 0.0;
    /** How far the generator's sends fell behind schedule, p99, ms. */
    double lateP99Ms = 0.0;
};

Verdict
judge(const Segment &seg, double limit_ms)
{
    Verdict v;
    const auto ms = latenciesMs(seg.outcomes);
    v.p99Ms = quantile(ms, 0.99);
    const Tally t = tally(seg.outcomes);
    v.failRatio = t.sent ? static_cast<double>(t.failed()) /
                               static_cast<double>(t.sent)
                         : 1.0;
    // Growing backlog: latency rising with send time. Least-squares
    // slope of latency over the schedule, seconds of extra wait per
    // second sent; an offered rate 5% over capacity grows the wait by
    // about 0.05 s/s, far outside the slope's noise at a steady rate.
    double n = 0.0, st = 0.0, sl = 0.0, stt = 0.0, stl = 0.0;
    for (size_t i = 0; i < ms.size(); ++i) {
        if (!std::isfinite(ms[i]))
            continue;
        const double due = seg.outcomes[i].dueSec;
        const double l = ms[i] * 1e-3;
        n += 1.0;
        st += due;
        sl += l;
        stt += due * due;
        stl += due * l;
    }
    const double denom = n * stt - st * st;
    v.slope = denom > 0.0 ? (n * stl - st * sl) / denom : 0.0;
    v.lateP99Ms = quantile(lateSec(seg.outcomes), 0.99) * 1e3;
    v.pass = v.p99Ms <= limit_ms && v.failRatio <= 0.01 && v.slope <= 0.05;
    return v;
}

/** Offered rate of the hot latency point, requests/s: about half of
 *  hot_search's max_rate_rps at definition time (README.md). */
constexpr double kHotRate = 20.0;
/** p99 limit behind max_rate_rps, ms. */
constexpr double kP99LimitMs = 200.0;
/**
 * Bound on the generator's send lateness (p99 of send time minus
 * scheduled time). A segment past it measured the generator, not the
 * server: the run, or the max-rate step, is invalid, not slow. The hot
 * runs at definition time stayed below 15 ms (README.md).
 */
constexpr double kMaxLateMs = 25.0;

/**
 * Highest offered rate meeting p99 <= limit, fail ratio <= 1% and no
 * growing backlog, on the ladder base x 1.5, 2, 2.5, 3, climbed until
 * a rung fails; 0 when the first rung fails. Each rung is a fresh
 * open-loop segment against a drained server. A rung whose generator
 * ran late is run once more; late again, it is neither a pass nor a
 * fail: the climb stops and `valid` is cleared.
 */
double
maxRate(const std::string &host, uint16_t port, bool repeat, double base,
        double step_sec, double limit_ms, Rng &rng, bool &valid)
{
    double best = 0.0;
    for (int k = 1; k <= 4; ++k) {
        const double rate = base * (1.0 + 0.5 * k);
        bool late = true;
        for (int attempt = 0; attempt < 2 && late; ++attempt) {
            const auto sends = schedule(repeat, rate, step_sec, rng);
            const Segment seg =
                runOpenLoop(host, port, sends, nproc(), false, 5.0);
            const Verdict v = judge(seg, limit_ms);
            late = v.lateP99Ms > kMaxLateMs;
            std::cout << "  step " << rate << " req/s: p99 " << v.p99Ms
                      << " ms, fail " << v.failRatio << ", slope " << v.slope
                      << ", late p99 " << v.lateP99Ms << " ms"
                      << (late ? "  LATE" : v.pass ? "  pass" : "  FAIL")
                      << "\n";
            if (!late && !v.pass)
                return best;
        }
        if (late) {
            valid = false;
            return best;
        }
        best = rate;
    }
    return best;
}

// ------------------------------------------------------- phase ledgers

/** Per-phase samples of a set of wire answers. */
std::vector<double>
phaseSamples(const std::vector<Outcome> &outcomes, service::Phase phase)
{
    std::vector<double> out;
    for (const Outcome &o : outcomes) {
        if (o.status == Status::Ok || o.status == Status::Degraded) {
            for (const auto &p : o.response.phases) {
                if (p.phase == phase)
                    out.push_back(p.sec);
            }
        }
    }
    return out;
}

/** Client round trip (send to reply) minus the phases the server
 *  accounted for: event loop, socket, reply pool and client time. */
std::vector<double>
unattributedSec(const std::vector<Outcome> &outcomes)
{
    std::vector<double> out;
    for (const Outcome &o : outcomes) {
        if (!o.ok())
            continue;
        double phases = 0.0;
        for (const auto &p : o.response.phases)
            phases += p.sec;
        out.push_back(o.doneSec - o.sentSec - phases);
    }
    return out;
}

// --------------------------------------------------- direct layer calls

/** Collection sizes of a power-of-two cache band (the service trains a
 *  band's model on the same geometric spread around the band). */
std::vector<double>
bandSizes(int band, size_t m)
{
    const double lo = 0.8 * std::ldexp(1.0, band);
    const double hi = 1.25 * std::ldexp(1.0, band + 1);
    const double ratio = std::max(
        std::pow(hi / lo, 1.0 / static_cast<double>(m - 1)), 1.12);
    std::vector<double> sizes;
    for (double s = lo; sizes.size() < m; s *= ratio)
        sizes.push_back(s);
    return sizes;
}

/**
 * Time each layer through its public entry point, single-threaded
 * except collection (which runs on an nproc pool, like the service's
 * builds), each call wrapped in a bench.* span.
 */
void
probeLayers(const Item &item, const Args &args, Report &report)
{
    const auto opt = serviceOptions(false, "");
    const sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    const auto &w = workloads::Registry::instance().byAbbrev(item.workload);
    const int band = service::sizeBandOf(item.nativeSize);
    const uint64_t seed = combineSeed(args.seed, 0x1a7e5);

    auto entry = std::make_shared<service::CachedModel>();
    {
        service::ThreadPool pool(nproc());
        obs::ScopedSpan span("bench.collectAtSizes");
        const auto start = Clock::now();
        core::Collector collector(sim, w);
        auto collected = collector.collectAtSizes(
            bandSizes(band, opt.tuning.collect.datasetCount),
            opt.tuning.collect.runsPerDataset, seed,
            opt.tuning.collect.sampling, &pool);
        const double sec = since(start);
        entry->vectors = std::move(collected.vectors);
        report.add("collector.collect_s", sec, "s");
        report.add("sparksim.runs", static_cast<double>(entry->vectors.size()),
                   "count");
        report.add("sparksim.runs_per_s",
                   static_cast<double>(entry->vectors.size()) / sec, "1/s");
    }
    {
        obs::ScopedSpan span("bench.train");
        const auto start = Clock::now();
        auto built = core::buildAndValidate(core::ModelKind::HM,
                                            entry->vectors, opt.tuning.hm,
                                            true, seed);
        report.add("ml.train_s", since(start), "s");
        entry->model =
            std::shared_ptr<const ml::Model>(std::move(built.model));
        entry->modelErrorPct = built.testErrorPct;
    }
    {
        obs::ScopedSpan span("bench.compile");
        const auto start = Clock::now();
        entry->compiled = std::shared_ptr<const ml::FlatEnsemble>(
            entry->model->compile());
        report.add("ml.compile_ms", since(start) * 1e3, "ms");
    }

    // Population-sized batches of real feature rows at the item size.
    const auto &space = conf::ConfigSpace::spark();
    const double dsize = w.bytesForSize(item.nativeSize);
    const size_t pop = opt.tuning.ga.populationSize;
    const size_t width = space.size() + 1;
    std::vector<double> rows(pop * width);
    Rng rng(seed);
    for (size_t i = 0; i < pop; ++i) {
        const auto &pv = entry->vectors[rng.index(entry->vectors.size())];
        core::toFeaturesInto(conf::Configuration(space, pv.config), dsize,
                             true, rows.data() + i * width);
    }
    std::vector<double> predictNs;
    std::vector<double> out(pop);
    for (int rep = 0; rep < 15; ++rep) {
        obs::ScopedSpan span("bench.predictBatch");
        const auto start = Clock::now();
        size_t scored = 0;
        while (scored < 20000) {
            entry->compiled->predictBatch(rows.data(), width, pop,
                                          out.data());
            scored += pop;
        }
        predictNs.push_back(since(start) * 1e9 /
                            static_cast<double>(scored));
    }
    const double nsPerRow = median(predictNs);

    std::vector<double> searchMs;
    std::vector<double> gens;
    for (int rep = 0; rep < 8; ++rep) {
        obs::ScopedSpan span("bench.search");
        std::vector<conf::Configuration> seeds;
        for (size_t i = 0; i < std::min(pop / 2, entry->vectors.size());
             ++i) {
            const auto &pv =
                entry->vectors[rng.index(entry->vectors.size())];
            seeds.emplace_back(space, pv.config);
        }
        core::Searcher searcher(*entry->model, space, true);
        searcher.setCompiled(entry->compiled.get());
        ga::GaParams params = opt.tuning.ga;
        params.seed = rng.raw();
        const auto start = Clock::now();
        const auto found = searcher.search(dsize, params, seeds);
        searchMs.push_back(since(start) * 1e3);
        gens.push_back(found.ga.generations);
    }
    const double searchP50 = median(searchMs);
    // Each generation re-scores all but the elites; generation 0
    // scores the whole population.
    const double evals =
        static_cast<double>(pop) +
        median(gens) *
            static_cast<double>(pop - static_cast<size_t>(
                                          opt.tuning.ga.eliteCount));
    report.add("ga.search_ms", searchP50, "ms");
    report.add("ga.generations", median(gens), "count");
    report.add("ga.evaluations", evals, "count");
    report.add("ga.self_ms", searchP50 - evals * nsPerRow * 1e-6, "ms");
    report.add("ml.predict_ns_per_row", nsPerRow, "ns");

    const service::ModelKey key{w.abbrev(), sim.clusterSpec().signature(),
                                band};
    {
        service::ModelCache cache(opt.modelCacheCapacity,
                                  opt.modelCacheShards);
        cache.insert(key, entry);
        std::vector<double> lookupUs;
        for (int rep = 0; rep < 15; ++rep) {
            obs::ScopedSpan span("bench.lookup");
            const auto start = Clock::now();
            size_t hits = 0;
            for (int i = 0; i < 20000; ++i)
                hits += cache.lookup(key) != nullptr;
            if (hits != 20000)
                fatalError("probe cache lost its entry");
            lookupUs.push_back(since(start) * 1e6 / 20000.0);
        }
        report.add("cache.lookup_us", median(lookupUs), "us");
    }
    {
        const fs::path dir = fs::path(args.workDir) / "probe-snapshots";
        std::vector<double> saveMs;
        std::vector<double> loadMs;
        double bytes = 0.0;
        for (int rep = 0; rep < 5; ++rep) {
            fs::remove_all(dir);
            service::ModelCache cache(opt.modelCacheCapacity,
                                      opt.modelCacheShards);
            cache.insert(key, entry);
            {
                obs::ScopedSpan span("bench.snapshotTo");
                const auto start = Clock::now();
                const auto io = cache.snapshotTo(dir.string());
                saveMs.push_back(since(start) * 1e3);
                if (io.saved != 1)
                    fatalError("probe snapshot failed");
            }
            bytes = static_cast<double>(fs::file_size(
                dir / service::ModelCache::snapshotFileName(key)));
            service::ModelCache restored(opt.modelCacheCapacity,
                                         opt.modelCacheShards);
            obs::ScopedSpan span("bench.restoreFrom");
            const auto start = Clock::now();
            const auto io = restored.restoreFrom(dir.string());
            loadMs.push_back(since(start) * 1e3);
            if (io.loaded != 1)
                fatalError("probe restore failed");
        }
        fs::remove_all(dir);
        report.add("persist.snapshot_ms", median(saveMs), "ms");
        report.add("persist.restore_ms", median(loadMs), "ms");
        report.add("persist.bytes", bytes, "bytes");
    }
}

/** Phase, cache and wire counters of a measured segment. */
void
addServingLayers(const std::vector<Outcome> &outcomes,
                 const std::vector<double> &build_ms,
                 const service::ModelCache::Stats &before,
                 const service::ModelCache::Stats &after,
                 const net::TuningServer::Stats &wire, Report &report)
{
    using service::Phase;
    auto ms = [](std::vector<double> v, double q) {
        return v.empty() ? 0.0 : quantile(std::move(v), q) * 1e3;
    };
    const auto queue = phaseSamples(outcomes, Phase::Queue);
    report.add("service.queue_p50_ms", ms(queue, 0.5), "ms");
    report.add("service.queue_p99_ms", ms(queue, 0.99), "ms");
    size_t coalesced = 0;
    size_t answered = 0;
    const Tally t = tally(outcomes);
    for (const Outcome &o : outcomes) {
        if (o.ok()) {
            ++answered;
            coalesced += o.response.coalesced;
        }
    }
    report.add("service.coalesced_ratio",
               answered ? static_cast<double>(coalesced) /
                              static_cast<double>(answered)
                        : 0.0,
               "ratio");
    for (const char *reason :
         {"deadline", "model-failure", "queue-saturated", "search-truncated"}) {
        const auto it = t.degraded.find(reason);
        report.add(std::string("service.degraded.") + reason,
                   it == t.degraded.end() ? 0.0
                                          : static_cast<double>(it->second),
                   "count");
    }
    report.add("service.model_build_ms", build_ms.empty() ? 0.0 : median(build_ms),
               "ms");
    report.add("cache.phase_lookup_us",
               ms(phaseSamples(outcomes, Phase::CacheLookup), 0.5) * 1e3,
               "us");
    const double lookups = static_cast<double>(
        (after.hits - before.hits) + (after.misses - before.misses) +
        (after.coalesced - before.coalesced));
    report.add("cache.hit_ratio",
               lookups > 0.0
                   ? static_cast<double>((after.hits - before.hits) +
                                         (after.coalesced -
                                          before.coalesced)) /
                         lookups
                   : 0.0,
               "ratio");
    report.add("cache.evictions",
               static_cast<double>(after.evictions - before.evictions),
               "count");
    report.add("ga.phase_search_ms",
               ms(phaseSamples(outcomes, Phase::Search), 0.5), "ms");
    report.add("net.decode_us",
               ms(phaseSamples(outcomes, Phase::Decode), 0.5) * 1e3, "us");
    report.add("net.serialize_us",
               ms(phaseSamples(outcomes, Phase::Serialize), 0.5) * 1e3,
               "us");
    report.add("net.unattributed_ms", ms(unattributedSec(outcomes), 0.5),
               "ms");
    report.add("net.requests_per_batch",
               wire.batchesSubmitted
                   ? static_cast<double>(wire.requestsSubmitted) /
                         static_cast<double>(wire.batchesSubmitted)
                   : 0.0,
               "count");
    report.add("net.max_batch", static_cast<double>(wire.maxBatch), "count");
    report.add("net.protocol_errors",
               static_cast<double>(wire.protocolErrors), "count");
}

/** Merge client spans into the tracer's log, print per-layer self
 *  time, write the Chrome trace, and add self times as metrics. */
void
finishTrace(const std::vector<const Segment *> &segments, const Args &args,
            Report &report)
{
    obs::TraceLog log = obs::Tracer::instance().snapshot();
    for (const Segment *seg : segments)
        appendClientSpans(log, *seg);
    const LayerLedger ledger = layerLedger(log);
    std::cout << "per-layer self time (span duration minus child spans):\n";
    for (const char *layer : {"net", "service", "cache", "ga", "ml",
                              "collector", "sparksim", "persist"}) {
        const auto it = ledger.selfSec.find(layer);
        const double sec = it == ledger.selfSec.end() ? 0.0 : it->second;
        const auto n = ledger.spans.count(layer) ? ledger.spans.at(layer)
                                                 : size_t{0};
        std::ostringstream line;
        line << "  " << std::left << std::setw(10) << layer << std::right
             << std::setw(12) << std::fixed << std::setprecision(3)
             << sec * 1e3 << " ms  over " << n << " spans\n";
        std::cout << line.str();
        report.add(std::string("self.") + layer + "_ms", sec * 1e3, "ms");
    }
    const auto builds = buildsByProgram(log);
    if (!builds.empty())
        std::cout << "model builds per program (collect s, simulated "
                     "runs, runs/s, HM training s):\n";
    for (const auto &[program, b] : builds) {
        std::ostringstream line;
        line << "  " << std::left << std::setw(4) << program << std::right
             << std::fixed << std::setprecision(3) << std::setw(9)
             << b.collectSec << std::setw(8) << b.runs << std::setw(11)
             << std::setprecision(0)
             << (b.collectSec > 0.0 ? b.runs / b.collectSec : 0.0)
             << std::setprecision(3) << std::setw(9) << b.trainSec << "\n";
        std::cout << line.str();
    }
    const fs::path path = fs::path(args.workDir) /
                          ("trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json");
    writeTrace(std::move(log), path.string());
    std::cout << "chrome trace: " << path.string() << "\n";
}

// -------------------------------------------------------------- result

int
emit(const Args &args, const Report &report, bool correct,
     size_t attempted, size_t failed)
{
    std::cout << "fingerprint " << fingerprintJson(args) << "\n";
    std::cout << "metrics (" << args.workload << ", seed " << args.seed
              << (args.trace ? ", traced" : ", untraced") << "):\n";
    report.print();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << report.json() << "}" << std::endl;
    return correct ? 0 : 1;
}

// ------------------------------------------------------------ hot runs

int
runHot(const Args &args)
{
    const bool repeat = args.workload == "hot_repeat";
    Rng rng(combineSeed(args.seed, repeat ? 0x4e9 : 0x5ea));
    Report report;
    std::unique_ptr<Stack> stack;

    // Set up several times, report the median; serve from the last.
    std::vector<double> setups;
    std::vector<service::TuneResponse> warm;
    const int setupReps = args.trace ? 1 : 3;
    for (int i = 0; i < setupReps; ++i) {
        warm.clear();
        setups.push_back(setUpHot(stack, &warm));
    }
    const double setupSec = median(setups);
    mark("set-up done");
    const uint16_t port = stack->server.port();
    const std::string host = "127.0.0.1";

    // Untimed warm-up so thread pools, sockets and allocators settle.
    (void)runOpenLoop(host, port, schedule(repeat, kHotRate, 1.0, rng),
                      nproc(), false, 5.0);

    const double pointSec = args.seconds * (args.trace ? 0.4 : 0.75);
    const auto sends = schedule(repeat, kHotRate, pointSec, rng);
    const auto requests = flatten(sends);
    mark("latency point");
    const Segment point =
        runOpenLoop(host, port, sends, nproc(), false, 5.0);
    mark("latency point done");
    const Tally t = tally(point.outcomes);
    const auto ms = latenciesMs(point.outcomes);
    const double lateP99Ms = quantile(lateSec(point.outcomes), 0.99) * 1e3;
    std::cout << args.workload << " @ " << kHotRate << " req/s for "
              << pointSec << " s: " << t.str() << "\n  " << latencyLine(ms)
              << ", generator late p99 " << lateP99Ms << " ms\n";

    // A traced run traces from the gate on: its in-process submits are
    // the benchmark's own spans into the service.
    obs::Tracer::instance().clear();
    obs::Tracer::instance().setEnabled(args.trace);
    bool correct = true;
    // Gate (and speed-up) sample: three sent requests of every mix item,
    // so each run weighs the same jobs whichever requests failed.
    std::map<std::pair<std::string, double>, std::vector<size_t>> byItem;
    for (size_t i = 0; i < requests.size(); ++i)
        byItem[{requests[i].workload, requests[i].nativeSize}].push_back(i);
    std::vector<service::TuneResponse> sampled;
    size_t mismatches = 0;
    size_t compared = 0;
    for (const auto &[item, indices] : byItem) {
        auto g = gate(stack->service, requests, point.outcomes, indices, 3,
                      args.seed);
        mismatches += g.mismatches;
        compared += g.compared;
        sampled.insert(sampled.end(), g.answers.begin(), g.answers.end());
    }
    std::cout << "correctness gate: " << compared << " of "
              << sampled.size()
              << " sampled wire answers vs in-process submit() (the rest "
                 "failed on the wire), "
              << mismatches << " mismatches\n"
              << "answer digest " << args.workload << " " << std::hex
              << answerDigest(sampled) << std::dec << "\n";
    if (mismatches > 0 || byItem.size() != servingMix().size())
        correct = false;
    if (lateP99Ms > kMaxLateMs) {
        std::cout << "INVALID RUN: generator fell " << lateP99Ms
                  << " ms behind schedule (bound " << kMaxLateMs
                  << " ms)\n";
        correct = false;
    }

    if (!args.trace) {
        mark("gate done");
        bool valid = true;
        const double rateMax =
            maxRate(host, port, repeat, kHotRate, args.seconds * 0.1,
                    kP99LimitMs, rng, valid);
        std::cout << "max rate meeting p99 <= " << kP99LimitMs
                  << " ms (ladder from " << kHotRate << " req/s): "
                  << rateMax << " req/s\n";
        if (!valid) {
            std::cout << "INVALID RUN: a max-rate step's generator fell "
                         "behind schedule twice (bound "
                      << kMaxLateMs << " ms)\n";
            correct = false;
        }
        mark("max rate done");
        report.add("setup_s", setupSec, "s");
        report.add("latency_p50_ms", median(ms), "ms");
        report.add("latency_p95_ms", quantile(ms, 0.95), "ms");
        report.add("max_rate_rps", rateMax, "1/s");
        report.add("ok_ratio",
                   static_cast<double>(t.ok) / static_cast<double>(t.sent),
                   "ratio");
        report.add("tuned_speedup",
                   tunedSpeedup(stack->sim, sampled), "x");
        report.add("model_error_pct", modelError(sampled), "%");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        return emit(args, report, correct, t.sent, t.failed());
    }

    // Traced run: the same schedule again, tracing on since the gate.
    const auto cacheTracedBefore = stack->service.cacheStats();
    const Segment traced =
        runOpenLoop(host, port, sends, nproc(), true, 5.0);
    const auto cacheTracedAfter = stack->service.cacheStats();
    std::vector<double> buildMs;
    for (const auto &r : warm) {
        const double sec = r.phaseSec(service::Phase::ModelBuild);
        if (sec > 0.0)
            buildMs.push_back(sec * 1e3);
    }
    const auto wire = stack->server.stats();
    addServingLayers(traced.outcomes, buildMs, cacheTracedBefore,
                     cacheTracedAfter, wire, report);
    probeLayers(servingMix().front(), args, report);
    obs::Tracer::instance().setEnabled(false);
    const double untracedP50 = median(ms);
    const double tracedP50 = median(latenciesMs(traced.outcomes));
    report.add("obs.trace_overhead_pct",
               (tracedP50 - untracedP50) / untracedP50 * 100.0, "%");
    report.add("loadgen.late_p99_ms", lateP99Ms, "ms");
    finishTrace({&traced}, args, report);
    const Tally tt = tally(traced.outcomes);
    std::cout << "traced segment: " << tt.str() << "\n";
    return emit(args, report, correct, t.sent + tt.sent,
                t.failed() + tt.failed());
}

// ------------------------------------------------------------ cold run

/**
 * One closed-loop cycle through the list, starting after the set-up's
 * warm item (which comes last, long evicted), through one wire client.
 * With the tracer on, the client's own net.client.request span
 * parents the server's spans.
 */
std::vector<Outcome>
coldCycle(net::Client &client, const std::vector<Item> &items, Rng &rng,
          std::vector<service::TuneRequest> &requests)
{
    std::vector<Outcome> out;
    const auto start = Clock::now();
    for (size_t k = 1; k <= items.size(); ++k) {
        const Item &item = items[k % items.size()];
        service::TuneRequest req;
        req.workload = item.workload;
        req.nativeSize = item.nativeSize;
        req.seed = rng.raw();
        Outcome o;
        o.dueSec = o.sentSec = since(start);
        try {
            o.response = client.request(req);
            o.status = o.response.degraded ? Status::Degraded : Status::Ok;
        } catch (const net::RpcError &e) {
            o.status = Status::Error;
            o.error = e.what();
        }
        o.doneSec = since(start);
        requests.push_back(req);
        out.push_back(std::move(o));
    }
    return out;
}

int
runCold(const Args &args)
{
    Rng rng(combineSeed(args.seed, 0xc01d));
    Report report;
    const auto items = coldList(args.workload == "tune_cold_large");
    const fs::path snapDir = fs::path(args.workDir) / "cold-snapshots";
    const auto options = serviceOptions(true, snapDir.string());

    // Set-up: a fresh stack through to its first answer (the first
    // list item, untimed below). Repeated; the median is reported.
    std::unique_ptr<Stack> stack;
    std::vector<double> setups;
    const int setupReps = args.trace ? 1 : 5;
    for (int i = 0; i < setupReps; ++i) {
        stack.reset();
        fs::remove_all(snapDir);
        const auto start = Clock::now();
        stack = std::make_unique<Stack>(options);
        net::Client first("127.0.0.1", stack->server.port());
        service::TuneRequest req;
        req.workload = items[0].workload;
        req.nativeSize = items[0].nativeSize;
        const auto r = first.request(req);
        if (r.degraded)
            fatalError("cold set-up request degraded: " + r.degradedReason);
        setups.push_back(since(start));
    }
    net::Client client("127.0.0.1", stack->server.port());
    mark("set-up done");

    // Timed: whole cycles; every request misses.
    std::vector<service::TuneRequest> requests;
    std::vector<Outcome> outcomes;
    const auto cacheBefore = stack->service.cacheStats();
    const auto start = Clock::now();
    do {
        auto pass = coldCycle(client, items, rng, requests);
        outcomes.insert(outcomes.end(), pass.begin(), pass.end());
    } while (since(start) < (args.trace ? args.seconds * 0.4
                                        : args.seconds));
    const double elapsed = since(start);
    const auto cacheAfter = stack->service.cacheStats();
    const Tally t = tally(outcomes);
    std::vector<double> ms;
    for (const Outcome &o : outcomes)
        ms.push_back(o.latencySec() * 1e3);
    std::cout << args.workload << ": " << outcomes.size() / items.size()
              << " cycles of " << items.size() << " in " << elapsed
              << " s: " << t.str() << "\n  " << latencyLine(ms)
              << "; cache hits " << cacheAfter.hits - cacheBefore.hits
              << ", evictions "
              << cacheAfter.evictions - cacheBefore.evictions << "\n";

    obs::Tracer::instance().clear();
    obs::Tracer::instance().setEnabled(args.trace);
    // Gate on the answers still resident in the cache (the last four
    // builds), so the in-process re-ask is a hit, not a rebuild.
    std::vector<size_t> resident;
    for (size_t i = outcomes.size() - std::min<size_t>(4, outcomes.size());
         i < outcomes.size(); ++i)
        resident.push_back(i);
    const GateResult g =
        gate(stack->service, requests, outcomes, resident, 4, args.seed);
    // Quality and digest over the first cycle, every program and band:
    // the number of cycles depends on speed, the first cycle's answers
    // only on the seed.
    const auto firstCycle = okAnswers(
        {outcomes.begin(), outcomes.begin() + items.size()});
    std::cout << "correctness gate: " << g.compared
              << " wire answers vs in-process submit(), " << g.mismatches
              << " mismatches\n"
              << "answer digest " << args.workload << " (first cycle) "
              << std::hex
              << answerDigest(firstCycle) << std::dec << "\n";
    bool correct = g.mismatches == 0 && g.compared > 0;

    if (!args.trace) {
        report.add("setup_s", median(setups), "s");
        report.add("latency_p50_ms", median(ms), "ms");
        report.add("cold_tunes_per_min",
                   static_cast<double>(t.ok) / elapsed * 60.0, "1/min");
        report.add("ok_ratio",
                   static_cast<double>(t.ok) / static_cast<double>(t.sent),
                   "ratio");
        report.add("tuned_speedup",
                   tunedSpeedup(stack->sim, firstCycle), "x");
        report.add("model_error_pct", modelError(firstCycle), "%");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        return emit(args, report, correct, t.sent, t.failed());
    }

    std::vector<service::TuneRequest> tracedRequests;
    const auto cacheTracedBefore = stack->service.cacheStats();
    const auto tracedStart = Clock::now();
    const auto traced = coldCycle(client, items, rng, tracedRequests);
    const double tracedSec = since(tracedStart);
    const auto cacheTracedAfter = stack->service.cacheStats();
    std::vector<double> buildMs;
    for (const Outcome &o : traced) {
        const double sec = o.response.phaseSec(service::Phase::ModelBuild);
        if (sec > 0.0)
            buildMs.push_back(sec * 1e3);
    }
    addServingLayers(traced, buildMs, cacheTracedBefore, cacheTracedAfter,
                     stack->server.stats(), report);
    probeLayers(items.front(), args, report);
    obs::Tracer::instance().setEnabled(false);
    const double untracedCycle =
        elapsed / static_cast<double>(outcomes.size() / items.size());
    report.add("obs.trace_overhead_pct",
               (tracedSec - untracedCycle) / untracedCycle * 100.0, "%");
    report.add("loadgen.late_p99_ms", 0.0, "ms");
    finishTrace({}, args, report);
    const Tally tt = tally(traced);
    std::cout << "traced cycle: " << tt.str() << "\n";
    return emit(args, report, correct, t.sent + tt.sent,
                t.failed() + tt.failed());
}

} // namespace
} // namespace dacbench

int
main(int argc, char **argv)
{
    const auto args = dacbench::parseArgs(argc, argv);
    std::error_code ec;
    std::filesystem::create_directories(args.workDir, ec);
    // The always-on flight recorder stays as the server ships; the
    // tracer is off except in the traced segment.
    dac::obs::Tracer::instance().setEnabled(false);
    return args.workload.rfind("tune_cold", 0) == 0
        ? dacbench::runCold(args)
        : dacbench::runHot(args);
}
