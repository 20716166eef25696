/**
 * @file
 * perfbench: the end-to-end benchmark of ulpeak. One process runs one
 * workload for a fixed time and prints, as its last stdout line, one
 * JSON object with the correctness verdict and the metrics:
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--golden FILE] [--trace-out FILE]
 *             [--commit C] [--source-digest D]
 *
 * --trace 0 reports the end-to-end metrics, measured untraced;
 * --trace 1 runs traced and untraced rotations (a traced iteration is
 * followed by an untimed replay of its layer calls), the per-layer
 * probes and the knob ledger, reports the per-layer metrics and writes
 * the spans as Chrome trace-event JSON. --prepare resolves the expected
 * digests (and fills the suite-warm cache) in a process of its own, so
 * that reference runs do not count in the measured process's memory.
 * Other modes:
 *
 *   perfbench --prepare --expected-out FILE --workload W --seed N
 *             --work-dir DIR [--golden FILE]
 *   perfbench --make-golden --workload W --seed N --work-dir DIR
 *   perfbench --self-test --golden FILE --work-dir DIR
 *
 * Normally driven through perfbench/run.py, which builds this binary.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "cli/driver.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace perfbench;
using namespace ulpeak;

namespace {

/** Fewest rotations of one run: a median needs three samples. */
constexpr size_t kMinRotations = 3;

struct Args {
    RunConfig cfg;
    std::string traceOut, commit = "unknown", sourceDigest = "unknown";
    std::string expectedOut;
    bool prepare = false, makeGolden = false, selfTest = false;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("missing value after " + k);
            return argv[++i];
        };
        auto number = [&](auto parse) {
            std::string v = value();
            try {
                size_t end = 0;
                auto x = parse(v, &end);
                if (end == v.size())
                    return x;
            } catch (const std::exception &) {
            }
            usageError("bad number '" + v + "' after " + k);
        };
        if (k == "--workload")
            a.cfg.workload = value();
        else if (k == "--seed")
            a.cfg.seed = number([](const std::string &v, size_t *end) {
                return std::stoull(v, end);
            });
        else if (k == "--seconds")
            a.cfg.seconds = number([](const std::string &v, size_t *end) {
                return std::stod(v, end);
            });
        else if (k == "--trace")
            a.cfg.trace = value() != "0";
        else if (k == "--work-dir")
            a.cfg.workDir = value();
        else if (k == "--golden")
            a.cfg.goldenPath = value();
        else if (k == "--trace-out")
            a.traceOut = value();
        else if (k == "--commit")
            a.commit = value();
        else if (k == "--source-digest")
            a.sourceDigest = value();
        else if (k == "--expected-out")
            a.expectedOut = value();
        else if (k == "--prepare")
            a.prepare = true;
        else if (k == "--make-golden")
            a.makeGolden = true;
        else if (k == "--self-test")
            a.selfTest = true;
        else
            usageError("unknown argument " + k);
    }
    if (a.cfg.workDir.empty())
        usageError("--work-dir is required");
    if (!(a.cfg.seconds > 0))
        usageError("--seconds must be positive");
    return a;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
provenanceJson(const Args &a, size_t iterations)
{
    return "{\"workload\": " + jsonString(a.cfg.workload) +
           ", \"seed\": " + std::to_string(a.cfg.seed) +
           ", \"seconds\": " + std::to_string(a.cfg.seconds) +
           ", \"trace\": " + (a.cfg.trace ? "1" : "0") +
           ", \"iterations\": " + std::to_string(iterations) +
           ", \"host_cpus\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": " + jsonString(compilerName()) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"commit\": " + jsonString(a.commit) +
           ", \"source_digest\": " + jsonString(a.sourceDigest) + "}";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The result line: exactly correct/attempted/failed/metrics. */
std::string
resultLine(bool correct, uint64_t attempted, uint64_t failed,
           const Metrics &m)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    bool first = true;
    for (const std::string &n : m.names()) {
        const Metric &x = m.at(n);
        out += (first ? "" : ", ") + jsonString(n) + ": {\"value\": " +
               num(x.value) + ", \"unit\": " + jsonString(x.unit) + "}";
        first = false;
    }
    return out + "}}";
}

void
printTable(const Metrics &m)
{
    for (const std::string &n : m.names()) {
        const Metric &x = m.at(n);
        std::printf("  %-40s %16.6g %-6s (n=%zu)\n", n.c_str(), x.value,
                    x.unit.c_str(), x.samples);
    }
}

int
selfTest(const Args &a)
{
    Golden golden = Golden::load(a.cfg.goldenPath);
    bool ok = true;
    for (const char *name : {"suite-cold", "fork-wide", "fault-campaign"}) {
        RunConfig cfg = a.cfg;
        cfg.workload = name;
        std::unique_ptr<Workload> w = makeWorkload(cfg);
        w->setup(nullptr);
        w->prepare(golden);
        IterStats st = w->iterate(nullptr);
        uint64_t perturbed = w->perturbedFailures();
        bool pass = st.failed == 0 && perturbed > 0;
        std::printf("self-test %-15s golden: %llu/%llu failed, perturbed "
                    "digest: %llu failed -> %s\n",
                    name, (unsigned long long)st.failed,
                    (unsigned long long)st.items,
                    (unsigned long long)perturbed, pass ? "PASS" : "FAIL");
        ok = ok && pass;
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
    std::fprintf(stderr, "perfbench: refusing to run a non-optimised "
                         "build (configure with -DCMAKE_BUILD_TYPE="
                         "Release)\n");
    return 3;
#endif
    Args a = parseArgs(argc, argv);
    RunConfig &cfg = a.cfg;
    fs::create_directories(cfg.workDir);

    try {
        if (a.selfTest)
            return selfTest(a);

        std::unique_ptr<Workload> w = makeWorkload(cfg);
        if (!w)
            usageError("unknown workload '" + cfg.workload + "'");
        if (a.prepare) {
            w->setup(nullptr);
            w->prepare(Golden::load(cfg.goldenPath));
            std::ofstream out(a.expectedOut);
            for (const std::string &line : w->expectedLines())
                out << line << "\n";
            return out ? 0 : 1;
        }
        if (a.makeGolden) {
            w->setup(nullptr);
            w->prepare(Golden{});
            w->crossCheck();
            for (const std::string &line : w->expectedLines())
                std::printf("golden %s\n", line.c_str());
            return 0;
        }

        std::unique_ptr<Tracer> tracer;
        if (cfg.trace)
            tracer = std::make_unique<Tracer>();
        Tracer *tr = tracer.get();

        // Set-up, several times; the median is setup_s.
        std::vector<double> setupS;
        const int setupReps = 31;
        for (int i = 0; i < setupReps; ++i) {
            Clock::time_point t0 = Clock::now();
            w->setup(i + 1 == setupReps ? tr : nullptr);
            setupS.push_back(secondsSince(t0));
        }
        w->prepare(Golden::load(cfg.goldenPath));

        // Closed loop: the next iteration starts when the previous
        // one (and its verification) is done. The loop stops only
        // between rotations, so every part of the workload is sampled
        // equally often. A traced run alternates untraced and traced
        // rotations.
        const size_t period = w->period();
        std::vector<IterStats> plain, traced;
        Clock::time_point loop0 = Clock::now(), rot0 = loop0;
        double rotationS = 0.0;
        for (size_t n = 0;; ++n) {
            if (n % period == 0 && n > 0) {
                rotationS = secondsSince(rot0);
                rot0 = Clock::now();
                if (n >= kMinRotations * period &&
                    secondsSince(loop0) + rotationS > cfg.seconds)
                    break;
            }
            bool traceThis = cfg.trace && (n / period) % 2 == 1;
            (traceThis ? traced : plain)
                .push_back(w->iterate(traceThis ? tr : nullptr));
        }

        uint64_t attempted = 0, failed = 0;
        for (const std::vector<IterStats> *set : {&plain, &traced}) {
            for (const IterStats &s : *set) {
                attempted += s.items;
                failed += s.failed;
            }
        }
        auto failFrac = [&] {
            return attempted ? double(failed) / double(attempted) : 0.0;
        };
        // Whole-workload figures: per part the median over its
        // iterations, summed over the parts of a rotation.
        auto byPart = [period](const std::vector<IterStats> &set,
                               auto field) {
            std::vector<std::vector<double>> v(period);
            for (const IterStats &s : set)
                v[s.slice].push_back(field(s));
            return v;
        };
        auto wallOf = [](const IterStats &s) { return s.wallS; };
        double wallS = sumOfMedians(byPart(plain, wallOf));

        Metrics m;
        if (!cfg.trace) {
            std::vector<double> latency;
            for (const IterStats &s : plain)
                latency.insert(latency.end(), s.itemLatencyS.begin(),
                               s.itemLatencyS.end());
            double cycles = sumOfMedians(byPart(
                plain, [](const IterStats &s) { return double(s.cycles); }));
            double units = sumOfMedians(byPart(plain, [](const IterStats &s) {
                return double(s.workUnits);
            }));
            m.set("wall_s", wallS, "s", plain.size());
            m.set("cycles_per_s", cycles / wallS, "1/s", plain.size());
            m.set("items_per_s", units / wallS, "1/s", plain.size());
            m.set("analysis_p50_ms", quantile(latency, 0.5) * 1e3, "ms",
                  latency.size());
            m.set("analysis_p90_ms", quantile(latency, 0.9) * 1e3, "ms",
                  latency.size());
            m.set("setup_s", median(setupS), "s", setupS.size());
            m.set("peak_rss_mb", peakRssMb(), "MB");
        } else {
            initLayerMetrics(m);
            {
                Span s(tr, "layers");
                w->layers(m, tr);
            }
            {
                Span s(tr, "knobs");
                knobLedger(m, tr, cfg.seed);
            }
            if (cfg.workload != "fault-campaign") {
                Span s(tr, "fault-ledger");
                IterStats f = faultLedger(m, tr, cfg,
                                          Golden::load(cfg.goldenPath));
                attempted += f.items;
                failed += f.failed;
            }
            // The share of the traced iterations' time that the replay
            // of their layer calls accounts for, pooled over the traced
            // iterations: one ~1 s iteration and its replay differ by
            // up to ~15% on a shared host, which a pooled ratio averages
            // out and a layer the replay misses does not.
            double layerS = 0.0, tracedS = 0.0;
            for (const IterStats &s : traced) {
                layerS += s.layerS;
                tracedS += s.wallS;
            }
            double coverage = tracedS > 0 ? layerS / tracedS : 0.0;
            double tracedWallS = sumOfMedians(byPart(traced, wallOf));
            m.set("trace.wall_ms", tracedWallS * 1e3, "ms", traced.size());
            m.set("trace.coverage", coverage, "ratio", traced.size());
            m.set("trace.overhead_frac", tracedWallS / wallS - 1.0, "ratio",
                  traced.size());
            m.set("fail_frac", failFrac(), "ratio", attempted);
        }

        std::string prov = provenanceJson(a, plain.size() + traced.size());
        if (tr && !a.traceOut.empty()) {
            fs::path out(a.traceOut);
            if (out.has_parent_path())
                fs::create_directories(out.parent_path());
            std::ofstream(out) << tr->chromeJson(prov);
            std::printf("trace: %s (%zu spans)\n", a.traceOut.c_str(),
                        tr->spans().size());
        }
        std::printf("provenance %s\n", prov.c_str());
        std::printf("%s: %zu iterations, %llu/%llu items failed\n",
                    cfg.workload.c_str(), plain.size() + traced.size(),
                    (unsigned long long)failed,
                    (unsigned long long)attempted);
        printTable(m);
        // An end-to-end run prints it beside the metrics, not among
        // them: end-to-end metrics are never 0, and it is 0 whenever
        // the results are correct.
        if (!m.has("fail_frac"))
            std::printf("  %-40s %16.6g %-6s (n=%llu)\n", "fail_frac",
                        failFrac(), "ratio", (unsigned long long)attempted);
        std::printf("%s\n", resultLine(failed == 0, attempted, failed, m)
                                .c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
