/**
 * @file
 * Tests of the benchmark harness: exact percentiles, the seeded
 * arrival schedule, span self-time arithmetic, and failure
 * accounting.  Self-contained (no test framework):
 *
 *   cmake --build .bench_build/perfbench --target perfbench_test
 *   .bench_build/perfbench/perfbench_test
 *
 * Exits 0 when every check passes.
 */
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

Clock::time_point
at(Clock::time_point base, double ms)
{
    return base + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
}

void
testPercentile()
{
    // Matches Python's statistics.quantiles(method="inclusive").
    CHECK(near(median({4, 1, 3, 2}), 2.5));
    CHECK(near(median({5, 1, 3}), 3));
    CHECK(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.1));
    CHECK(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.25), 3.25));
    CHECK(near(percentile({10, 20}, 0.0), 10));
    CHECK(near(percentile({10, 20}, 1.0), 20));
    CHECK(near(percentile({7}, 0.9), 7));
    CHECK(percentile({}, 0.5) == 0.0);
}

void
testSchedule()
{
    const auto a = poissonSchedule(42, 800, 10, 3, 8);
    const auto b = poissonSchedule(42, 800, 10, 3, 8);
    const auto c = poissonSchedule(43, 800, 10, 3, 8);
    CHECK(a.size() == 8000);
    CHECK(c.size() == 8000); // the count is fixed; only spacing varies
    bool same = a.size() == b.size(), differs = false;
    int perModel[3] = {0, 0, 0};
    for (std::size_t i = 0; i < a.size(); ++i) {
        same = same && a[i].atMs == b[i].atMs && a[i].model == b[i].model &&
               a[i].salt == b[i].salt;
        differs = differs || a[i].atMs != c[i].atMs;
        CHECK(a[i].atMs >= 0 && a[i].atMs < 10000);
        CHECK(i == 0 || a[i - 1].atMs <= a[i].atMs);
        CHECK(a[i].model >= 0 && a[i].model < 3);
        CHECK(a[i].salt >= 0 && a[i].salt < 8);
        ++perModel[a[i].model];
    }
    CHECK(same);
    CHECK(differs);
    for (int n : perModel)
        CHECK(n > 2400 && n < 2933); // uniform mix, 8000 / 3 each
    CHECK(poissonSchedule(1, 0.04, 10, 3, 8).empty());
}

void
testSelfTime()
{
    Tracer t(true);
    const Clock::time_point base = Clock::now();
    const int root = t.add("root", at(base, 0), at(base, 10), -1, 7);
    // Overlapping children: their union [1, 6] is subtracted once.
    const int a = t.add("child", at(base, 1), at(base, 4), root, 7);
    t.add("child", at(base, 3), at(base, 6), root, 7);
    // A child running past its parent only covers the overlap.
    t.add("child", at(base, 9), at(base, 12), root, 7);
    // A grandchild affects its own parent only.
    t.add("grandchild", at(base, 1.5), at(base, 2.5), a, 7);
    const int other = t.add("root", at(base, 20), at(base, 22), -1, 8);
    (void)other;

    const std::vector<double> self = t.selfTimesMs();
    CHECK(std::fabs(self[0] - 4.0) < 1e-3); // 10 - (5 + 1)
    CHECK(std::fabs(self[1] - 2.0) < 1e-3); // 3 - 1
    CHECK(std::fabs(self[2] - 3.0) < 1e-3);
    CHECK(std::fabs(self[4] - 1.0) < 1e-3);

    const std::vector<double> perOp = t.selfMsPerOp("root");
    CHECK(perOp.size() == 2);
    CHECK(std::fabs(perOp[0] - 4.0) < 1e-3 && std::fabs(perOp[1] - 2.0) < 1e-3);
    const std::vector<double> kids = t.selfMsPerOp("child");
    CHECK(kids.size() == 1 && std::fabs(kids[0] - 8.0) < 1e-3); // 2+3+3

    // begin()/end() nest under the innermost open span.
    Tracer n(true);
    const int outer = n.begin("outer", 1);
    const int inner = n.begin("inner", 1);
    n.end(inner);
    n.end(outer);
    CHECK(n.spans()[1].parent == outer);
    CHECK(n.spans()[0].parent == -1);

    Tracer off(false);
    CHECK(off.begin("x", 1) == -1);
    off.end(-1);
    CHECK(off.spans().empty());
    const std::string json = t.chromeJson({{"seed", "1"}});
    CHECK(json.find("\"traceEvents\"") != std::string::npos);
    CHECK(json.find("\"name\": \"grandchild\"") != std::string::npos);
}

void
testFailureAccounting()
{
    Tally t;
    CHECK(!t.correct()); // nothing attempted is not a pass
    t.record(true);
    t.record(true);
    CHECK(t.correct() && t.reportedFailed() == 0);
    t.record(false);
    CHECK(!t.correct() && t.attempted == 3 && t.reportedFailed() == 1);
    for (int i = 0; i < 5; ++i)
        t.fail();
    CHECK(t.reportedFailed() == 3); // never more failures than attempts

    Tally fresh;
    fresh.fail(); // a check failing before any operation still counts
    fresh.record(true);
    CHECK(!fresh.correct() && fresh.reportedFailed() == 1);

    Tally ok;
    ok.record(true);
    CHECK(resultJson(ok, {{"a", 1.5}}) ==
          "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
          "\"values\": {\"a\": 1.5}}");
    CHECK(resultJson(ok, {{"a", std::numeric_limits<double>::quiet_NaN()}}) ==
          "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
          "\"values\": {\"a\": 0}}");
}

} // namespace

int
main()
{
    testPercentile();
    testSchedule();
    testSelfTime();
    testFailureAccounting();
    if (failures == 0)
        std::printf("perfbench_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
