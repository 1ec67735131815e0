/**
 * @file
 * Serving load generator: sweeps offered QPS against the
 * InferenceServer and reports achieved throughput and p50/p90/p99
 * latency with batch coalescing on vs off.
 *
 * Open-loop generation: requests are submitted on a fixed
 * inter-arrival schedule regardless of completion (the generator
 * never self-throttles), so at saturation the admission queue fills
 * and the rejection counter -- not a silently stretched schedule --
 * shows the overload.  Latencies are the server-reported per-request
 * totals (admission to response), so they include queueing.  The
 * server never holds a request for company: a free worker runs the
 * queue head with the same-model requests already queued, so the
 * "on" arm batches only what queues while every worker executes.
 *
 * Modes:
 *   default          sweep --qps levels, coalescing both on and off,
 *                    print/emit the comparison (--json is
 *                    tools/diff_bench_json.py-compatible)
 *   --smoke          one short fixed-size burst at low load; asserts
 *                    zero rejected/lost requests and clean shutdown
 *                    (the CI serve-smoke gate)
 *   --verify         numerically check every Ok response at 1e-4
 *                    against a direct batch-1 execution with the same
 *                    seed/salt (always on under --smoke in CI)
 *   --assert-coalesce-gain
 *                    exit non-zero unless coalescing-on achieved
 *                    strictly more requests/s than off at the highest
 *                    offered level, and that level saturated the off
 *                    arm (it rejected requests or served < 0.95x the
 *                    offered rate) -- otherwise the comparison says
 *                    nothing about capacity
 *
 * Models are served from a registry that carries tiny:<name> variants
 * of the evaluation zoo (milliseconds per request on CI runners) plus
 * the full-size zoo under its usual names.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/compile_session.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "models/graph_source.h"
#include "models/model_registry.h"
#include "models/models.h"
#include "report/table.h"
#include "runtime/plan_executor.h"
#include "serve/server.h"
#include "support/stats.h"

using namespace smartmem;

namespace {

constexpr float kTol = 1e-4f;

struct ServeArgs
{
    std::vector<double> qps = {50, 100, 200, 400};
    double durationMs = 1000;
    std::vector<std::string> models = {"tiny:Swin", "tiny:ViT",
                                       "tiny:ResNext"};
    int maxBatch = 8;
    int workers = 2;
    int queueCap = 256;
    std::string coalesce = "both"; ///< on | off | both
    bool smoke = false;
    bool verify = false;
    bool assertGain = false;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--qps CSV] [--duration-ms N] [--models CSV]\n"
        "          [--max-batch N] [--workers N] [--queue-cap N]\n"
        "          [--coalesce on|off|both]\n"
        "          [--smoke] [--verify] [--assert-coalesce-gain]\n"
        "          [shared bench flags: --device/--device-file/"
        "--threads/--repeat/--json]\n",
        argv0);
    std::exit(2);
}

double
parseDoubleFlag(const char *flag, const char *value)
{
    char *end = nullptr;
    double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || v < 0) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", flag,
                     value);
        std::exit(2);
    }
    return v;
}

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : text) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** Strip this bench's own flags, collect the rest for
 *  parseBenchArgs (the bench_exec_throughput idiom). */
ServeArgs
extractServeArgs(int argc, char **argv, std::vector<char *> &rest)
{
    ServeArgs sa;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--qps" && i + 1 < argc) {
            sa.qps.clear();
            for (const std::string &part : splitCsv(argv[++i]))
                sa.qps.push_back(
                    parseDoubleFlag("--qps", part.c_str()));
            if (sa.qps.empty())
                usage(argv[0]);
        } else if (arg == "--duration-ms" && i + 1 < argc) {
            sa.durationMs = parseDoubleFlag("--duration-ms", argv[++i]);
        } else if (arg == "--models" && i + 1 < argc) {
            sa.models = splitCsv(argv[++i]);
            if (sa.models.empty())
                usage(argv[0]);
        } else if (arg == "--max-batch" && i + 1 < argc) {
            sa.maxBatch =
                bench::parseIntFlag("--max-batch", argv[++i], 1);
        } else if (arg == "--workers" && i + 1 < argc) {
            sa.workers = bench::parseIntFlag("--workers", argv[++i], 1);
        } else if (arg == "--queue-cap" && i + 1 < argc) {
            sa.queueCap =
                bench::parseIntFlag("--queue-cap", argv[++i], 1);
        } else if (arg == "--coalesce" && i + 1 < argc) {
            sa.coalesce = argv[++i];
            if (sa.coalesce != "on" && sa.coalesce != "off" &&
                sa.coalesce != "both")
                usage(argv[0]);
        } else if (arg == "--smoke") {
            sa.smoke = true;
        } else if (arg == "--verify") {
            sa.verify = true;
        } else if (arg == "--assert-coalesce-gain") {
            sa.assertGain = true;
        } else {
            rest.push_back(argv[i]);
        }
    }
    return sa;
}

/** tiny:<name> variants of the evaluation zoo + the full-size zoo
 *  under its registry names, one serving catalog. */
const models::ModelRegistry &
servingRegistry()
{
    static const models::ModelRegistry *reg = [] {
        auto *r = new models::ModelRegistry();
        for (const std::string &name : models::evaluationModels()) {
            r->add(std::make_unique<models::BuilderGraphSource>(
                "tiny:" + name, [name](int batch) {
                    return models::buildTinyVariant(name, batch);
                }));
        }
        for (const std::string &name :
             models::ModelRegistry::builtins().names()) {
            r->add(std::make_unique<models::BuilderGraphSource>(
                name, [name](int batch) {
                    return models::buildModel(name, batch);
                }));
        }
        return r;
    }();
    return *reg;
}

/** Re-executes served requests directly (batch 1, same seed/salt) and
 *  compares at 1e-4; caches one plan + executor per model. */
class Verifier
{
  public:
    Verifier(const device::DeviceProfile &dev, std::uint64_t seed,
             const std::string &backend)
        : dev_(dev), session_(dev, 1), seed_(seed), backend_(backend)
    {
    }

    /** True when `got` matches the direct execution. */
    bool
    check(const std::string &model, std::uint64_t salt,
          const std::vector<exec::Tensor> &got)
    {
        auto it = plans_.find(model);
        if (it == plans_.end()) {
            auto plan = session_.compileSource(
                servingRegistry().find(model));
            it = plans_.emplace(model, std::move(plan)).first;
        }
        const runtime::ExecutionPlan &plan = *it->second;
        auto inputs = serve::makeRequestInputs(plan.graph, seed_, salt);
        if (!executor_) {
            runtime::ExecutorOptions eo;
            eo.threads = 1;
            eo.seed = seed_;
            const exec::TileParams tiles =
                exec::resolveTileParams(dev_);
            eo.gemmRowTile = tiles.rowTile;
            eo.gemmKBlock = tiles.kBlock;
            executor_ = runtime::makeExecutor(backend_, eo);
        }
        auto ref = executor_->run(plan, inputs);
        if (ref.size() != got.size())
            return false;
        return exec::maxRelDiff(ref, got) <= kTol;
    }

  private:
    device::DeviceProfile dev_;
    core::CompileSession session_;
    std::uint64_t seed_;
    std::string backend_;
    std::map<std::string,
             std::shared_ptr<const runtime::ExecutionPlan>>
        plans_;
    std::unique_ptr<runtime::PlanExecutor> executor_;
};

struct LevelResult
{
    double offered = 0;
    double achieved = 0; ///< served requests / makespan
    std::int64_t submitted = 0;
    std::int64_t served = 0;
    std::int64_t rejected = 0;
    std::int64_t failed = 0;
    std::int64_t verifyFailures = 0;
    double p50 = 0, p90 = 0, p99 = 0;
    double meanBatch = 0;
    std::int64_t coalesced = 0;
};

serve::ServerOptions
makeServerOptions(const ServeArgs &sa,
                  const device::DeviceProfile &dev, bool coalesce)
{
    serve::ServerOptions so;
    so.extraDevices = {dev};
    so.defaultDevice = dev.name;
    so.workers = sa.workers;
    so.queueCapacity = static_cast<std::size_t>(sa.queueCap);
    so.maxBatch = sa.maxBatch;
    so.coalesce = coalesce;
    so.models = &servingRegistry();
    return so;
}

/** Pre-compile plans: bursts of maxBatch same-model requests touch
 *  batch-1 plus the common coalesced batch sizes, so the measured
 *  window is not dominated by cold compiles. */
void
warmup(serve::InferenceServer &server,
       const std::vector<std::string> &modelNames, int maxBatch)
{
    for (int round = 0; round < 2; ++round) {
        std::vector<std::future<serve::InferenceResponse>> futures;
        for (const std::string &m : modelNames) {
            for (int i = 0; i < maxBatch; ++i) {
                serve::InferenceRequest r;
                r.model = m;
                r.inputSalt = static_cast<std::uint64_t>(i);
                futures.push_back(server.submit(std::move(r)));
            }
        }
        for (auto &f : futures)
            f.get();
    }
}

LevelResult
runLevel(const ServeArgs &sa, const device::DeviceProfile &dev,
         bool coalesce, double qps, int fixedRequests,
         Verifier *verifier)
{
    using clock = std::chrono::steady_clock;
    serve::InferenceServer server(makeServerOptions(sa, dev, coalesce));
    warmup(server, sa.models, coalesce ? sa.maxBatch : 1);

    const int n = fixedRequests > 0
        ? fixedRequests
        : std::max(1, static_cast<int>(qps * sa.durationMs / 1000.0));
    const auto interArrival =
        std::chrono::duration_cast<clock::duration>(
            std::chrono::duration<double>(1.0 / qps));

    std::vector<std::future<serve::InferenceResponse>> futures;
    futures.reserve(static_cast<std::size_t>(n));
    std::vector<std::string> requestModel(
        static_cast<std::size_t>(n));
    const auto start = clock::now();
    for (int i = 0; i < n; ++i) {
        std::this_thread::sleep_until(start + interArrival * i);
        serve::InferenceRequest r;
        r.model = sa.models[static_cast<std::size_t>(i) %
                            sa.models.size()];
        r.inputSalt = static_cast<std::uint64_t>(i);
        requestModel[static_cast<std::size_t>(i)] = r.model;
        futures.push_back(server.submit(std::move(r)));
    }

    LevelResult out;
    out.offered = qps;
    out.submitted = n;
    LatencyRecorder lat;
    for (int i = 0; i < n; ++i) {
        serve::InferenceResponse r =
            futures[static_cast<std::size_t>(i)].get();
        switch (r.status) {
        case serve::ResponseStatus::Ok:
            ++out.served;
            lat.record(r.totalMs);
            if (verifier &&
                !verifier->check(
                    requestModel[static_cast<std::size_t>(i)],
                    static_cast<std::uint64_t>(i), r.outputs))
                ++out.verifyFailures;
            break;
        case serve::ResponseStatus::Rejected:
            ++out.rejected;
            break;
        default:
            ++out.failed;
            break;
        }
    }
    const double makespanS =
        std::chrono::duration<double>(clock::now() - start).count();
    out.achieved =
        makespanS > 0 ? static_cast<double>(out.served) / makespanS
                      : 0.0;
    out.p50 = lat.p50();
    out.p90 = lat.p90();
    out.p99 = lat.p99();

    // Batch shape from the server's own stats (includes warmup; the
    // measured window dominates).
    auto st = server.stats();
    out.meanBatch = st.global.meanBatchSize();
    out.coalesced = st.global.coalesced;
    server.shutdown(true);
    return out;
}

void
addRow(report::Table &t, const char *mode, const LevelResult &r)
{
    t.addRow({mode, formatFixed(r.offered, 0),
              formatFixed(r.achieved, 1), std::to_string(r.served),
              std::to_string(r.rejected), std::to_string(r.failed),
              formatFixed(r.p50, 2), formatFixed(r.p90, 2),
              formatFixed(r.p99, 2), formatFixed(r.meanBatch, 2),
              std::to_string(r.coalesced)});
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<char *> rest;
    ServeArgs sa = extractServeArgs(argc, argv, rest);
    bench::BenchOptions opts = bench::parseBenchArgs(
        static_cast<int>(rest.size()), rest.data());
    device::DeviceProfile dev =
        bench::resolveDevice(opts, "adreno740");

    if (sa.smoke) {
        // Low-load CI gate: fixed burst, coalescing on, generous
        // queue; asserts nothing is rejected or lost and every
        // response verifies.
        sa.qps = {400};
        sa.maxBatch = 4;
        sa.coalesce = "on";
    }

    int violations = 0;
    bench::runRepeated(opts, "bench_serve_qps", [&](const bench::BenchOptions &o, bool last, bench::JsonReport &json) {
        (void)o;
        report::Table table({"coalesce", "offered/s", "achieved/s",
                             "served", "rejected", "failed", "p50 ms",
                             "p90 ms", "p99 ms", "mean batch",
                             "coalesced"});

        std::unique_ptr<Verifier> verifier;
        if (sa.verify)
            verifier = std::make_unique<Verifier>(dev, 1234,
                                                  "cpu-blocked");

        const int fixedRequests = sa.smoke ? 48 : 0;
        std::vector<LevelResult> onResults, offResults;
        for (double qps : sa.qps) {
            if (sa.coalesce != "off")
                onResults.push_back(runLevel(sa, dev, true, qps,
                                             fixedRequests,
                                             verifier.get()));
            if (sa.coalesce != "on")
                offResults.push_back(runLevel(sa, dev, false, qps,
                                              fixedRequests,
                                              verifier.get()));
        }
        for (const LevelResult &r : onResults)
            addRow(table, "on", r);
        for (const LevelResult &r : offResults)
            addRow(table, "off", r);
        if (last)
            std::printf("%s%s\n",
                        report::banner("serve QPS sweep").c_str(),
                        table.render().c_str());
        json.add("serve QPS sweep", table);

        // Every submitted request must come back with a typed
        // response; anything else is a lost request.
        auto tally = [&](const std::vector<LevelResult> &rs) {
            for (const LevelResult &r : rs) {
                if (r.served + r.rejected + r.failed != r.submitted) {
                    std::fprintf(stderr,
                                 "LOST REQUESTS at %.0f qps: "
                                 "%lld of %lld unaccounted\n",
                                 r.offered,
                                 static_cast<long long>(
                                     r.submitted - r.served -
                                     r.rejected - r.failed),
                                 static_cast<long long>(r.submitted));
                    ++violations;
                }
                if (r.verifyFailures > 0) {
                    std::fprintf(stderr,
                                 "VERIFY FAILURES at %.0f qps: %lld "
                                 "responses exceeded %.0e\n",
                                 r.offered,
                                 static_cast<long long>(
                                     r.verifyFailures),
                                 static_cast<double>(kTol));
                    ++violations;
                }
            }
        };
        tally(onResults);
        tally(offResults);

        if (sa.smoke) {
            for (const LevelResult &r : onResults) {
                if (r.rejected != 0 || r.failed != 0 ||
                    r.served != r.submitted) {
                    std::fprintf(stderr,
                                 "SMOKE FAILURE: served %lld/%lld, "
                                 "rejected %lld, failed %lld\n",
                                 static_cast<long long>(r.served),
                                 static_cast<long long>(r.submitted),
                                 static_cast<long long>(r.rejected),
                                 static_cast<long long>(r.failed));
                    ++violations;
                }
            }
            if (last && violations == 0)
                std::printf("smoke ok: %d requests served, 0 "
                            "rejected, 0 failed%s\n",
                            48,
                            sa.verify ? ", all verified at 1e-4" : "");
        }

        if (sa.assertGain && !onResults.empty() &&
            !offResults.empty()) {
            const LevelResult &on = onResults.back();
            const LevelResult &off = offResults.back();
            report::Table cmp({"offered/s", "on req/s", "off req/s",
                               "gain"});
            cmp.addRow({formatFixed(on.offered, 0),
                        formatFixed(on.achieved, 1),
                        formatFixed(off.achieved, 1),
                        report::formatSpeedup(
                            off.achieved > 0
                                ? on.achieved / off.achieved
                                : 0.0)});
            if (last)
                std::printf(
                    "%s%s\n",
                    report::banner("saturation comparison").c_str(),
                    cmp.render().c_str());
            json.add("saturation comparison", cmp);
            // Coalescing wins capacity, so the comparison means
            // something only where the off arm ran out of it.
            const bool saturated =
                off.rejected > 0 || off.achieved < 0.95 * off.offered;
            if (!saturated) {
                std::fprintf(stderr,
                             "COALESCE GAIN FAILURE: load does not "
                             "saturate: off served %.1f of %.0f req/s "
                             "with 0 rejected; raise --qps\n",
                             off.achieved, off.offered);
                ++violations;
            } else if (on.achieved <= off.achieved) {
                std::fprintf(stderr,
                             "COALESCE GAIN FAILURE: on %.1f req/s "
                             "<= off %.1f req/s at %.0f offered\n",
                             on.achieved, off.achieved, on.offered);
                ++violations;
            }
        }
    });

    return violations == 0 ? 0 : 1;
}
