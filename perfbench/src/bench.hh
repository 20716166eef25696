/**
 * @file
 * Shared plumbing of the end-to-end benchmark: host clocks, sample
 * statistics, FNV-1a result digests, the in-memory span tracer
 * (written as Chrome trace-event JSON) and the metric table the
 * result line is printed from.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nearest-rank quantile of @p v (q in [0, 1]); 0 for no samples. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(q * double(v.size())));
    rank = std::min(std::max<size_t>(rank, 1), v.size());
    return v[rank - 1];
}

inline double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/** Σ over parts of the median of each part's samples: the whole-
 *  workload figure of a workload run in rotating parts. */
inline double
sumOfMedians(const std::vector<std::vector<double>> &parts)
{
    double sum = 0.0;
    for (const std::vector<double> &p : parts)
        sum += median(p);
    return sum;
}

/** FNV-1a over raw bytes: every digest the golden file stores. */
class Digest {
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void f32(float v) { bytes(&v, sizeof v); }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

inline std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/**
 * In-memory span recorder. A span has a name, start, end, the span
 * that caused it, and the id of the work item it belongs to (-1 when
 * it covers no single item). Nothing is written until writeChrome().
 * A null Tracer* disables tracing at zero cost: Span checks it.
 */
class Tracer {
  public:
    struct Record {
        std::string name;
        double t0 = 0.0, t1 = 0.0; ///< seconds since the tracer began
        int parent = -1;
        long item = -1;
    };

    Tracer() : base_(Clock::now()) {}

    int
    open(const std::string &name, long item)
    {
        Record r;
        r.name = name;
        r.t0 = secondsSince(base_);
        r.parent = stack_.empty() ? -1 : stack_.back();
        r.item = item;
        spans_.push_back(r);
        stack_.push_back(int(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int id)
    {
        spans_[size_t(id)].t1 = secondsSince(base_);
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }

    const std::vector<Record> &spans() const { return spans_; }

    /** Chrome trace-event JSON ("X" complete events, microseconds),
     *  loadable in Perfetto; @p meta_json is an object of run
     *  provenance stored under "otherData". */
    std::string
    chromeJson(const std::string &meta_json) const
    {
        std::string out = "{\"displayTimeUnit\": \"ms\", "
                          "\"otherData\": " + meta_json +
                          ", \"traceEvents\": [\n";
        char buf[512];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Record &r = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\": \"%s\", \"ph\": \"X\", "
                          "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                          "\"dur\": %.3f, \"args\": {\"id\": %zu, "
                          "\"parent\": %d, \"item\": %ld}}",
                          i ? ",\n" : "", r.name.c_str(), r.t0 * 1e6,
                          (r.t1 - r.t0) * 1e6, i, r.parent, r.item);
            out += buf;
        }
        out += "\n]}\n";
        return out;
    }

  private:
    Clock::time_point base_;
    std::vector<Record> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op when the tracer is null. */
class Span {
  public:
    Span(Tracer *t, const std::string &name, long item = -1)
        : t_(t), id_(t ? t->open(name, item) : -1)
    {
    }
    ~Span() { end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close early (idempotent); returns the span id (-1 untraced). */
    int
    end()
    {
        if (t_ && !closed_)
            t_->close(id_);
        closed_ = true;
        return id_;
    }

  private:
    Tracer *t_;
    int id_;
    bool closed_ = false;
};

/** One reported metric: value, unit and the samples behind it. */
struct Metric {
    double value = 0.0;
    std::string unit;
    size_t samples = 1;
};

/** Ordered metric table (insertion order is print order). */
class Metrics {
  public:
    void
    set(const std::string &name, double value, const std::string &unit,
        size_t samples = 1)
    {
        if (!table_.count(name))
            order_.push_back(name);
        table_[name] = {std::isfinite(value) ? value : 0.0, unit,
                        samples};
    }
    const std::vector<std::string> &names() const { return order_; }
    const Metric &at(const std::string &n) const { return table_.at(n); }
    bool has(const std::string &n) const { return table_.count(n) != 0; }

  private:
    std::vector<std::string> order_;
    std::map<std::string, Metric> table_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
