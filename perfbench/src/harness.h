/**
 * @file
 * Workload-independent pieces of the repository benchmark: exact
 * percentiles, the seeded open-loop arrival schedule, the in-memory
 * span recorder with self-time arithmetic, failure accounting, and
 * the one-line JSON result.  Everything here is covered by
 * perfbench/tests/harness_test.cc.
 */
#ifndef SMARTMEM_PERFBENCH_HARNESS_H
#define SMARTMEM_PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two clock readings. */
double msBetween(Clock::time_point a, Clock::time_point b);

/**
 * Exact q-quantile (q in [0, 1]) over every sample, by linear
 * interpolation between closest ranks -- the "inclusive" method of
 * Python's statistics.quantiles, so q = 0.5 is the ordinary median.
 * Returns 0 for an empty sample.
 */
double percentile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

/** Smallest sample (0 when empty): the best of identical repetitions. */
inline double best(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.0);
}

/** One request of the open-loop generator. */
struct Arrival
{
    double atMs = 0;     ///< scheduled send time from window start
    int model = 0;       ///< index into the workload's model mix
    int salt = 0;        ///< index into the fixed input-salt set
};

/**
 * Seeded Poisson arrivals over [0, seconds): exactly
 * round(rate * seconds) arrivals at sorted uniform times -- a Poisson
 * process conditioned on its count, so the offered load is the same
 * for every seed and only the spacing varies.  Model and salt indices
 * are drawn uniformly.  Same arguments, same schedule.
 */
std::vector<Arrival> poissonSchedule(std::uint64_t seed, double ratePerS,
                                     double seconds, int models,
                                     int salts);

/** One recorded span; times are microseconds from the tracer epoch. */
struct Span
{
    std::string name;
    double startUs = 0;
    double endUs = 0;
    int parent = -1;        ///< index of the enclosing span, -1 = root
    std::int64_t op = 0;    ///< operation / request id shared by a tree
};

/**
 * In-memory span recorder.  Disabled, every call is a single branch.
 * Spans opened with begin() nest under the innermost open span (the
 * benchmark records from one thread); add() records a span with
 * explicit times and parent, for intervals reconstructed from
 * response fields.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (-1 when disabled). */
    int begin(const std::string &name, std::int64_t op);
    void end(int span);

    /** Record a finished span; returns its index (-1 when disabled). */
    int add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent, std::int64_t op);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span in ms: its duration minus the union of
     * its children's intervals (clipped to the parent), so overlapping
     * children are subtracted once.
     */
    std::vector<double> selfTimesMs() const;

    /**
     * Per-operation self time of one span name: for every op id that
     * has spans of that name, the sum of their self times (ms).
     */
    std::vector<double> selfMsPerOp(const std::string &name) const;

    /** Chrome trace-event JSON ("X" events, one track per op id). */
    std::string chromeJson(
        const std::map<std::string, std::string> &metadata) const;

  private:
    double usSince(Clock::time_point t) const;

    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a no-op when the tracer is disabled. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, std::int64_t op)
        : t_(t), span_(t.begin(name, op))
    {
    }
    ~Scope() { t_.end(span_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int span_;
};

/** Operations attempted and failed; a failed check is a failed op. */
struct Tally
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    /** Count one operation; returns `ok`. */
    bool record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
        return ok;
    }

    /** A correctness check failed. */
    void fail() { ++failed; }

    bool correct() const { return attempted > 0 && failed == 0; }

    /** Failures as reported: a run with more failed checks than
     *  operations reports every operation failed. */
    std::int64_t reportedFailed() const { return std::min(failed, attempted); }
};

/**
 * The raw result line {"correct", "attempted", "failed", "values"};
 * run.py turns "values" into the unit-tagged "metrics" object.  A
 * non-finite value is printed as 0 and counted as a failed check.
 */
std::string resultJson(Tally tally,
                       const std::map<std::string, double> &values);

/** JSON string literal with escapes. */
std::string jsonString(const std::string &s);

/** Restart peak-RSS tracking from the current RSS (Linux clear_refs;
 *  a no-op where unsupported). */
void resetPeakRss();

/** Peak resident set size of this process since the last
 *  resetPeakRss() (or process start), MB. */
double peakRssMb();

/** "model name" from /proc/cpuinfo, or "unknown". */
std::string cpuModel();

} // namespace perfbench

#endif // SMARTMEM_PERFBENCH_HARNESS_H
