#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/compile_session.h"
#include "core/layout_select.h"
#include "core/planner.h"
#include "core/tuner.h"
#include "device/device_registry.h"
#include "exec/cpu_backend.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "ir/macs.h"
#include "models/graph_source.h"
#include "models/model_registry.h"
#include "models/models.h"
#include "runtime/plan_executor.h"
#include "serialize/plan_text.h"
#include "serve/server.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace perfbench {

namespace {

using namespace smartmem;
namespace fs = std::filesystem;
using Plans = std::vector<std::shared_ptr<const runtime::ExecutionPlan>>;

constexpr std::uint64_t kWeightSeed = 1234; ///< synthesized constants
constexpr float kTol = 1e-4f;
// setup_s is the median of at least kSetups setups taking together at
// least kSetupSeconds: a 10 ms tiny-model setup is repeated ~100 times.
constexpr int kSetups = 5;
constexpr double kSetupSeconds = 1.0;
constexpr int kWarmLoads = 15; ///< warm_load_ms is the best of these
constexpr double kMiB = 1024.0 * 1024.0;

// serve-mix: open-loop Poisson rate and latency limit.  Fixed here,
// never derived from the code under test; the rate sits well below
// the ~2000 req/s knee measured on a 4-vCPU AVX-512 Xeon.
constexpr double kServeRate = 800.0;
constexpr double kServeLimitMs = 20.0;
constexpr int kServeSalts = 8;
constexpr int kServeMaxBatch = 8;

// Latency limits behind goodput_per_s for the closed-loop workloads.
// About 3x the uncontended cost, so host contention alone (up to ~1.7x
// here) never zeroes them.
constexpr double kSwinLimitMs = 4.0;
constexpr double kResNextLimitMs = 4.0;
constexpr double kZooLimitMs = 2500.0;

const device::DeviceProfile &
target()
{
    return device::DeviceRegistry::builtins().find("adreno740");
}

exec::CpuBackendOptions
backendOptions()
{
    const exec::TileParams tiles = exec::resolveTileParams(target());
    exec::CpuBackendOptions o;
    o.threads = 1;
    o.seed = kWeightSeed;
    o.gemmRowTile = tiles.rowTile;
    o.gemmKBlock = tiles.kBlock;
    return o;
}

std::unique_ptr<runtime::PlanExecutor>
makeBlockedExecutor()
{
    const exec::CpuBackendOptions b = backendOptions();
    runtime::ExecutorOptions o;
    o.threads = b.threads;
    o.seed = b.seed;
    o.gemmRowTile = b.gemmRowTile;
    o.gemmKBlock = b.gemmKBlock;
    return runtime::makeExecutor("cpu-blocked", o);
}

/** The SmartMem configuration every workload compiles (Figure 8's
 *  stage 3: LTE, layout selection, texture mapping, tuner). */
core::CompileOptions
stageOptions(int stage)
{
    core::CompileOptions o;
    o.batch = 1;
    o.stage = stage;
    return o;
}

double
secondsSince(Clock::time_point t)
{
    return msBetween(t, Clock::now()) / 1000.0;
}

/** Whether another setup is due (see kSetups). */
bool
moreSetups(const std::vector<double> &setupS)
{
    double total = 0;
    for (double s : setupS)
        total += s;
    return static_cast<int>(setupS.size()) < kSetups || total < kSetupSeconds;
}

bool
allFinite(const std::vector<exec::Tensor> &ts)
{
    for (const exec::Tensor &t : ts)
        for (std::int64_t i = 0; i < t.numElements(); ++i)
            if (!std::isfinite(t.data()[i]))
                return false;
    return true;
}

bool
sameBytes(const std::vector<exec::Tensor> &a,
          const std::vector<exec::Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].shape() == b[i].shape()) ||
            std::memcmp(a[i].data(), b[i].data(),
                        sizeof(float) *
                            static_cast<std::size_t>(a[i].numElements())) != 0)
            return false;
    }
    return true;
}

/** `got` is finite and within kTol of `ref` (maxRelDiff alone would
 *  let a NaN through). */
bool
matches(const std::vector<exec::Tensor> &ref,
        const std::vector<exec::Tensor> &got)
{
    return ref.size() == got.size() && allFinite(got) &&
           exec::maxRelDiff(ref, got) <= kTol;
}

std::string
scratchDir(const RunConfig &cfg, const std::string &tag)
{
    const fs::path p = fs::path(cfg.workDir) /
                       (tag + "-" + std::to_string(::getpid()));
    fs::remove_all(p);
    return p.string();
}

std::vector<std::string>
serializeAll(const Plans &plans)
{
    std::vector<std::string> out;
    for (const auto &p : plans)
        out.push_back(serialize::serializePlan(*p));
    return out;
}

/** tiny:<name> variants of the evaluation zoo (buildTinyVariant): the
 *  models every workload but compile-zoo runs. */
const models::ModelRegistry &
tinyRegistry()
{
    static const models::ModelRegistry *reg = [] {
        auto *r = new models::ModelRegistry();
        for (const std::string &name : models::evaluationModels()) {
            r->add(std::make_unique<models::BuilderGraphSource>(
                "tiny:" + name, [name](int batch) {
                    return models::buildTinyVariant(name, batch);
                }));
        }
        return r;
    }();
    return *reg;
}

/** One compile: a named graph source and its options. */
struct Job
{
    const models::GraphSource *source;
    core::CompileOptions options;
};
using Jobs = std::vector<Job>;

Plans
compileAll(core::CompileSession &session, const Jobs &jobs)
{
    Plans plans;
    for (const Job &job : jobs)
        plans.push_back(session.compileSource(*job.source, job.options));
    return plans;
}

/**
 * The stage-3 plan built by the public phase calls compileSmartMem
 * makes, each under its own span.  Callers assert the result
 * serializes byte-identically to the session's plan, so this
 * decomposition cannot drift from the compiler.
 */
runtime::ExecutionPlan
phasedCompile(const models::GraphSource &src, Tracer &tr, std::int64_t op,
              opt::PipelineStats *stats)
{
    ir::Graph raw;
    {
        Scope s(tr, "models.build", op);
        raw = src.build(1);
    }
    ir::Graph canon;
    {
        Scope s(tr, "opt.canonicalize", op);
        canon = core::canonicalizeGraph(raw, stats);
    }
    core::FusionPolicy fusion;
    fusion.fuseNormMatmulPrologue = true;
    fusion.fuseAttentionBlock = true;
    fusion.fuseTransformChains = true;
    fusion.eliminateTransforms = true;
    runtime::ExecutionPlan plan;
    {
        Scope s(tr, "core.plan", op);
        plan = core::planGraph(canon, fusion);
    }
    {
        Scope s(tr, "core.layout_select", op);
        core::assignLayouts(plan, core::LayoutStrategy::SmartSelect,
                            target());
    }
    {
        Scope s(tr, "core.tune", op);
        core::tunePlan(plan, target());
    }
    return plan;
}

/** True when the phased plan is the session's plan, once the
 *  session-assigned compiler name and cache key are copied over. */
bool
samePlan(runtime::ExecutionPlan phased, const runtime::ExecutionPlan &ref)
{
    phased.compilerName = ref.compilerName;
    phased.cacheKey = ref.cacheKey;
    return serialize::serializePlan(phased) == serialize::serializePlan(ref);
}

/** Store `plans` into a fresh directory under serialize.store spans;
 *  returns the mean entry size (.plan + .graph), KiB. */
double
tracedStore(const RunConfig &cfg, const std::vector<runtime::ExecutionPlan> &plans,
            Tracer &tr, std::int64_t op)
{
    const std::string dir = scratchDir(cfg, "store");
    const core::PlanCacheDir store(dir, 0);
    double bytes = 0;
    for (const runtime::ExecutionPlan &p : plans) {
        {
            Scope s(tr, "serialize.store", op);
            store.store(p);
        }
        bytes += static_cast<double>(fs::file_size(store.entryPath(p.cacheKey)) +
                                     fs::file_size(store.graphPath(p.cacheKey)));
    }
    fs::remove_all(dir);
    return plans.empty() ? 0.0 : bytes / 1024.0 / static_cast<double>(plans.size());
}

/**
 * One warm load: a fresh session resolves every job by name from the
 * warm cache in `dir`.  Fails the tally unless every plan came from
 * disk and serializes exactly as `expected`.  Returns ms.
 */
double
warmLoad(const std::string &dir, const Jobs &jobs,
         const std::vector<std::string> &expected, Tracer &tr,
         std::int64_t op, Tally &tally)
{
    core::CompileSession session(target(), 1);
    session.setPlanCacheDir(dir, 0);
    Plans plans;
    const auto start = Clock::now();
    for (const Job &job : jobs) {
        Scope s(tr, "serialize.load", op);
        plans.push_back(session.compileSource(*job.source, job.options));
    }
    const double ms = msBetween(start, Clock::now());
    if (session.stats().diskHits != static_cast<std::int64_t>(jobs.size()) ||
        serializeAll(plans) != expected)
        tally.fail();
    return ms;
}

/** kWarmLoads warm loads of `jobs` from a cache written here, each
 *  its own operation under serialize.load spans. */
void
warmLoads(const RunConfig &cfg, const Jobs &jobs, Tracer &tr,
          std::int64_t &op, Tally &tally)
{
    const std::string dir = scratchDir(cfg, "warm");
    std::vector<std::string> expected;
    {
        core::CompileSession writer(target(), 1);
        writer.setPlanCacheDir(dir, 0);
        expected = serializeAll(compileAll(writer, jobs));
    }
    for (int r = 0; r < kWarmLoads; ++r)
        warmLoad(dir, jobs, expected, tr, ++op, tally);
    fs::remove_all(dir);
}

/**
 * Closed-loop timings.  The loop repeats one operation on one input,
 * so the spread between repetitions is host contention, not the
 * program (perfbench/README.md): every timing is the best repetition.
 * With a single distinct operation its p90 is that same value, and
 * the rates are those of the best repetition.
 */
void
putClosedLoop(Outcome &out, const std::vector<double> &latMs,
              double limitMs, double opsPerSample)
{
    const double ms = best(latMs);
    out.values["latency_ms"] = ms;
    out.values["latency_p90_ms"] = ms;
    out.values["throughput_per_s"] = opsPerSample * 1000.0 / ms;
    out.values["goodput_per_s"] = ms <= limitMs ? 1000.0 / ms : 0.0;
}

/** Traced against untraced latency at quantile q (0 = best), percent. */
double
overheadPct(const std::vector<double> &traced,
            const std::vector<double> &untraced, double q)
{
    const double base = percentile(untraced, q);
    return base > 0 ? 100.0 * (percentile(traced, q) - base) / base : 0.0;
}

/** Best per-operation self time of `span`, as `<span>_ms`. */
void
putSpan(Outcome &out, const Tracer &tr, const std::string &span)
{
    out.values[span + "_ms"] = best(tr.selfMsPerOp(span));
}

void
putCompilePhases(Outcome &out, const Tracer &tr)
{
    for (const char *span : {"models.build", "opt.canonicalize", "core.plan",
                             "core.layout_select", "core.tune",
                             "serialize.store", "serialize.load"})
        putSpan(out, tr, span);
}

// ---------------------------------------------------------------------
// swin-tiny-b1 / resnext-tiny-b1: one tiny model, batch 1, one stream.
// ---------------------------------------------------------------------

Outcome
runExec(const RunConfig &cfg, Tracer &tr, const std::string &model,
        double limitMs)
{
    Outcome out;
    support::ThreadBudgetGuard budget(1);
    const models::GraphSource &src = tinyRegistry().find(model);
    std::int64_t op = 0;

    std::shared_ptr<const runtime::ExecutionPlan> plan;
    std::unique_ptr<runtime::PlanExecutor> executor;
    std::map<ir::ValueId, exec::Tensor> inputs;
    std::vector<double> setupS;
    opt::PipelineStats pipeline;
    auto setupStart = cfg.processStart;
    while (moreSetups(setupS)) {
        {
            Scope s(tr, "setup", ++op);
            core::CompileSession session(target(), 1);
            plan = session.compileSource(src, stageOptions(3));
            executor = makeBlockedExecutor();
            inputs = exec::makeSeededInputs(plan->graph, exec::Executor(cfg.seed));
            executor->run(*plan, inputs); // warm-up
        }
        setupS.push_back(secondsSince(setupStart));
        if (tr.enabled()) {
            pipeline = opt::PipelineStats();
            if (!samePlan(phasedCompile(src, tr, op, &pipeline), *plan))
                out.tally.fail();
        }
        setupStart = Clock::now();
    }

    core::CompileSession session0(target(), 1);
    const auto plan0 = session0.compileSource(src, stageOptions(0));

    // Timed window: closed loop of one stream.  Traced runs rotate
    // untraced PlanExecutor runs with spanned CpuBackend runs of the
    // stage-3 and the stage-0 plan, so the tracing overhead and the LTE
    // speed-up are measured under the same conditions.  Each output is
    // compared with the first outside its timed region.
    const exec::CpuBackend backend(backendOptions());
    exec::CpuBackendStats stats, stats0;
    std::vector<double> latMs, tracedMs;
    std::vector<exec::Tensor> first;
    std::size_t n = 0;
    const auto start = Clock::now();
    while (secondsSince(start) < cfg.seconds || latMs.size() < 3) {
        const std::size_t kind = tr.enabled() ? n++ % 3 : 0;
        std::vector<exec::Tensor> got;
        const auto a = Clock::now();
        if (kind == 0) {
            ++op;
            got = executor->run(*plan, inputs);
        } else if (kind == 1) {
            Scope s(tr, "exec.run", ++op);
            got = backend.run(*plan, inputs, &stats);
        } else {
            Scope s(tr, "exec.stage0", ++op);
            got = backend.run(*plan0, inputs, &stats0);
        }
        const double ms = msBetween(a, Clock::now());
        out.tally.record(true);
        if (kind == 2) {
            if (!matches(first, got))
                out.tally.fail();
            continue;
        }
        (kind == 0 ? latMs : tracedMs).push_back(ms);
        if (first.empty())
            first = std::move(got);
        else if (!sameBytes(got, first))
            out.tally.fail();
    }
    const double rssMb = peakRssMb();

    // Checks: the output is finite and matches the stage-0 plan's and
    // the reference executor's at 1e-4.
    const auto ref = exec::Executor(kWeightSeed).runOutputs(plan->graph, inputs);
    if (!allFinite(first) || !matches(first, backend.run(*plan0, inputs)) ||
        !matches(ref, first))
        out.tally.fail();

    if (!tr.enabled()) {
        putClosedLoop(out, latMs, limitMs, 1.0);
        out.values["setup_s"] = median(setupS);
        out.values["peak_rss_mb"] = rssMb;
        return out;
    }

    out.values["serialize.entry_kb"] = tracedStore(cfg, {*plan}, tr, ++op);
    warmLoads(cfg, {{&src, stageOptions(3)}}, tr, op, out.tally);
    putCompilePhases(out, tr);
    out.values["opt.sweeps"] = pipeline.iterations;
    out.values["opt.ops_removed"] =
        pipeline.operatorsBefore - pipeline.operatorsAfter;
    out.values["core.kernels"] = plan->operatorCount();
    out.values["core.kernels_stage0"] = plan0->operatorCount();
    putSpan(out, tr, "exec.run");
    putSpan(out, tr, "exec.stage0");
    const double runMs = out.values["exec.run_ms"];
    out.values["exec.gflops"] =
        2.0 * static_cast<double>(ir::graphMacs(plan->graph)) / (runMs * 1e6);
    out.values["exec.lte_speedup"] = out.values["exec.stage0_ms"] / runMs;
    out.values["exec.relayout_kernels"] = stats.relayoutKernels;
    out.values["exec.relayout_mb"] =
        static_cast<double>(stats.bytesRelayouted) / kMiB;
    out.values["exec.substitutes"] = stats.substitutesMaterialized;
    out.values["exec.epilogue_ops"] = stats.fusedEpilogueOps;
    out.values["exec.fused_attention_kernels"] = stats.fusedAttentionKernels;
    out.values["exec.score_mb_avoided"] =
        static_cast<double>(stats.scoreBytesAvoided) / kMiB;
    out.values["exec.native_views"] = stats.nativeLayoutViews;
    out.values["exec.native_stores"] = stats.nativeLayoutStores;
    out.values["runtime.pool_high_water_mb"] =
        static_cast<double>(stats.poolHighWaterBytes) / kMiB;
    out.values["runtime.pool_reuses"] = static_cast<double>(stats.poolReuses);
    out.values["trace.overhead_pct"] = overheadPct(tracedMs, latMs, 0.0);
    return out;
}

// ---------------------------------------------------------------------
// compile-zoo: cold compiles of the 18 evaluation models, no kernels.
// ---------------------------------------------------------------------

Outcome
runCompileZoo(const RunConfig &cfg, Tracer &tr)
{
    Outcome out;
    support::ThreadBudgetGuard budget(1);
    std::vector<std::string> names = models::evaluationModels();
    Rng rng(cfg.seed);
    rng.shuffle(names);
    Jobs jobs;
    for (const std::string &n : names)
        jobs.push_back({&models::ModelRegistry::builtins().find(n),
                        stageOptions(3)});
    std::int64_t op = 0;

    // Setup: warm-up cold rounds into throwaway directories.
    std::vector<double> setupS;
    auto setupStart = cfg.processStart;
    while (moreSetups(setupS)) {
        const std::string dir = scratchDir(cfg, "zoo-setup");
        {
            core::CompileSession session(target(), 1);
            session.setPlanCacheDir(dir, 0);
            compileAll(session, jobs);
        }
        fs::remove_all(dir);
        setupS.push_back(secondsSince(setupStart));
        setupStart = Clock::now();
    }

    // Timed window: each round is a cold compile into a fresh cache
    // directory, then a warm load of that directory by a fresh session.
    // Each model's compile is timed: a round lasts about a second, long
    // enough for host contention to cover every round of a run, while
    // each model's best over the rounds still finds a quiet moment.
    std::vector<double> coldMs, phasedMs;
    std::vector<double> bestModelMs(jobs.size(), 1e300);
    std::vector<std::string> firstRound;
    opt::PipelineStats pipeline;
    double entryKb = 0, rssMb = 0;
    int kernels = 0;
    const auto start = Clock::now();
    while (secondsSince(start) < cfg.seconds || coldMs.size() < 3) {
        ++op;
        const std::string dir = scratchDir(cfg, "zoo-round");
        Plans plans;
        {
            core::CompileSession session(target(), 1);
            session.setPlanCacheDir(dir, 0);
            resetPeakRss();
            const auto a = Clock::now();
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const auto m = Clock::now();
                plans.push_back(
                    session.compileSource(*jobs[i].source, jobs[i].options));
                bestModelMs[i] =
                    std::min(bestModelMs[i], msBetween(m, Clock::now()));
            }
            coldMs.push_back(msBetween(a, Clock::now()));
            rssMb = std::max(rssMb, peakRssMb());
        }
        out.tally.record(true);

        if (tr.enabled()) {
            const auto a = Clock::now();
            std::vector<runtime::ExecutionPlan> phased;
            pipeline = opt::PipelineStats();
            kernels = 0;
            {
                Scope s(tr, "zoo.phased_compile", op);
                for (std::size_t i = 0; i < jobs.size(); ++i) {
                    opt::PipelineStats ps;
                    phased.push_back(phasedCompile(*jobs[i].source, tr, op, &ps));
                    if (!samePlan(phased.back(), *plans[i]))
                        out.tally.fail();
                    phased.back().compilerName = plans[i]->compilerName;
                    phased.back().cacheKey = plans[i]->cacheKey;
                    pipeline.iterations += ps.iterations;
                    pipeline.operatorsBefore += ps.operatorsBefore;
                    pipeline.operatorsAfter += ps.operatorsAfter;
                    kernels += phased.back().operatorCount();
                }
                entryKb = tracedStore(cfg, phased, tr, op);
            }
            phasedMs.push_back(msBetween(a, Clock::now()));
        }

        const std::vector<std::string> texts = serializeAll(plans);
        if (firstRound.empty())
            firstRound = texts;
        else if (texts != firstRound)
            out.tally.fail();
        warmLoad(dir, jobs, texts, tr, op, out.tally);
        fs::remove_all(dir);
    }

    if (!tr.enabled()) {
        double zooMs = 0;
        for (double ms : bestModelMs)
            zooMs += ms;
        putClosedLoop(out, {zooMs}, kZooLimitMs,
                      static_cast<double>(jobs.size()));
        out.values["setup_s"] = median(setupS);
        out.values["peak_rss_mb"] = rssMb;
        return out;
    }
    putCompilePhases(out, tr);
    out.values["opt.sweeps"] = pipeline.iterations;
    out.values["opt.ops_removed"] =
        pipeline.operatorsBefore - pipeline.operatorsAfter;
    out.values["core.kernels"] = kernels;
    out.values["serialize.entry_kb"] = entryKb;
    out.values["trace.overhead_pct"] = overheadPct(phasedMs, coldMs, 0.0);
    return out;
}

// ---------------------------------------------------------------------
// serve-mix: open-loop Poisson arrivals of three tiny models.
// ---------------------------------------------------------------------

const char *const kServeModels[] = {"tiny:Swin", "tiny:ViT", "tiny:ResNext"};
constexpr int kServeModelCount = 3;

serve::ServerOptions
serverOptions()
{
    serve::ServerOptions so;
    so.defaultDevice = "adreno740";
    so.workers = 2;
    so.executorThreads = 1;
    so.maxBatch = kServeMaxBatch;
    so.coalesce = true;
    so.seed = kWeightSeed;
    so.models = &tinyRegistry();
    return so;
}

std::uint64_t
serveSalt(const RunConfig &cfg, int salt)
{
    return cfg.seed * 1000 + static_cast<std::uint64_t>(salt);
}

/** Warm-up: same-model bursts of every size 1..maxBatch, four times,
 *  so the batch-1..8 plans are compiled before the window.  The two
 *  workers may split a burst, so one round does not cover every size;
 *  core.cache_hit_ratio shows any size still missed. */
void
warmUpServer(serve::InferenceServer &server, const RunConfig &cfg)
{
    for (int round = 0; round < 4; ++round) {
        for (int k = kServeMaxBatch; k >= 1; --k) {
            std::vector<std::future<serve::InferenceResponse>> fs;
            for (const char *m : kServeModels) {
                for (int i = 0; i < k; ++i) {
                    serve::InferenceRequest r;
                    r.model = m;
                    r.inputSalt = serveSalt(cfg, i % kServeSalts);
                    fs.push_back(server.submit(std::move(r)));
                }
            }
            for (auto &f : fs)
                f.get();
        }
    }
}

Outcome
runServeMix(const RunConfig &cfg, Tracer &tr)
{
    Outcome out;
    support::ThreadBudgetGuard budget(1);
    std::int64_t op = 0;

    // Expected outputs of every (model, salt), by direct batch-1
    // execution: correctness preparation, outside setup_s.
    const auto prepStart = Clock::now();
    std::vector<std::vector<std::vector<exec::Tensor>>> expected(kServeModelCount);
    {
        core::CompileSession session(target(), 1);
        const exec::CpuBackend backend(backendOptions());
        for (int m = 0; m < kServeModelCount; ++m) {
            const auto plan =
                session.compileSource(tinyRegistry().find(kServeModels[m]));
            for (int s = 0; s < kServeSalts; ++s)
                expected[static_cast<std::size_t>(m)].push_back(backend.run(
                    *plan, serve::makeRequestInputs(plan->graph, kWeightSeed,
                                                    serveSalt(cfg, s))));
        }
    }
    const double prepS = secondsSince(prepStart);

    std::unique_ptr<serve::InferenceServer> server;
    std::vector<double> setupS;
    auto setupStart = cfg.processStart;
    for (bool firstSetup = true; moreSetups(setupS); firstSetup = false) {
        {
            Scope s(tr, "setup", ++op);
            server.reset();
            server = std::make_unique<serve::InferenceServer>(serverOptions());
            warmUpServer(*server, cfg);
        }
        setupS.push_back(secondsSince(setupStart) - (firstSetup ? prepS : 0.0));
        setupStart = Clock::now();
    }

    const std::vector<Arrival> arrivals = poissonSchedule(
        cfg.seed, kServeRate, cfg.seconds, kServeModelCount, kServeSalts);
    const serve::StatsSnapshot before = server->stats();
    const core::CompileStats compileBefore = server->compileStats("adreno740");

    struct Pending
    {
        std::future<serve::InferenceResponse> future;
        const Arrival *arrival;
        Clock::time_point due, sent;
        std::int64_t op;
    };
    std::deque<Pending> pending;
    std::vector<double> latMs, tracedLatMs, lateMs, queueMs, execMs,
        respondMs;
    std::int64_t ok = 0, good = 0, nonOk = 0;
    std::size_t queueHighWater = 0;
    Clock::time_point lastResponse;

    // Compare and drop one response (the generator holds no outputs).
    auto collect = [&](Pending &p) {
        serve::InferenceResponse r = p.future.get();
        const auto toDur = [](double ms) {
            return std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(ms));
        };
        const Clock::time_point done = p.sent + toDur(r.totalMs);
        lastResponse = std::max(lastResponse, done);
        if (!r.ok()) {
            ++nonOk;
            out.tally.fail();
            return;
        }
        ++ok;
        const double late = msBetween(p.due, p.sent);
        const double lat = late + r.totalMs;
        if (lat <= kServeLimitMs)
            ++good;
        const bool traced = tr.enabled() && p.op % 2 == 0;
        (traced ? tracedLatMs : latMs).push_back(lat);
        lateMs.push_back(late);
        queueMs.push_back(r.queueMs);
        execMs.push_back(r.execMs);
        respondMs.push_back(r.totalMs - r.queueMs - r.execMs);
        if (!matches(expected[static_cast<std::size_t>(p.arrival->model)]
                             [static_cast<std::size_t>(p.arrival->salt)],
                     r.outputs))
            out.tally.fail();
        if (traced) {
            const Clock::time_point q = p.sent + toDur(r.queueMs);
            const Clock::time_point e = q + toDur(r.execMs);
            const int root = tr.add("serve.request", p.due, done, -1, p.op);
            tr.add("loadgen.late", p.due, p.sent, root, p.op);
            tr.add("serve.queue", p.sent, q, root, p.op);
            tr.add("serve.exec", q, e, root, p.op);
            tr.add("serve.respond", e, done, root, p.op);
        }
    };

    const auto start = Clock::now();
    for (const Arrival &a : arrivals) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(a.atMs));
        while (!pending.empty() &&
               pending.front().future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            collect(pending.front());
            pending.pop_front();
        }
        std::this_thread::sleep_until(due);
        queueHighWater = std::max(queueHighWater, server->queueDepth());
        serve::InferenceRequest r;
        r.model = kServeModels[a.model];
        r.inputSalt = serveSalt(cfg, a.salt);
        const auto sent = Clock::now();
        pending.push_back({server->submit(std::move(r)), &a, due, sent, ++op});
        out.tally.record(true);
    }
    while (!pending.empty()) {
        collect(pending.front());
        pending.pop_front();
    }
    const double windowS = msBetween(start, lastResponse) / 1000.0;
    const double rssMb = peakRssMb();

    const serve::StatsSnapshot after = server->stats();
    const core::CompileStats compileAfter = server->compileStats("adreno740");
    const auto delta = [&](std::int64_t serve::StatsBlock::*f) {
        return static_cast<double>(after.global.*f - before.global.*f);
    };
    const auto submitted = static_cast<std::int64_t>(arrivals.size());
    if (delta(&serve::StatsBlock::submitted) != static_cast<double>(submitted) ||
        delta(&serve::StatsBlock::served) + delta(&serve::StatsBlock::rejected) +
                delta(&serve::StatsBlock::failed) +
                delta(&serve::StatsBlock::shutDown) !=
            static_cast<double>(submitted) ||
        ok + nonOk != submitted)
        out.tally.fail();
    server->shutdown(true);

    if (!tr.enabled()) {
        out.values["setup_s"] = median(setupS);
        out.values["latency_ms"] = median(latMs);
        out.values["latency_p90_ms"] = percentile(latMs, 0.9);
        out.values["throughput_per_s"] = static_cast<double>(ok) / windowS;
        out.values["goodput_per_s"] = static_cast<double>(good) / windowS;
        out.values["peak_rss_mb"] = rssMb;
        return out;
    }
    const double hits =
        static_cast<double>(compileAfter.cacheHits - compileBefore.cacheHits);
    const double lookups =
        hits + static_cast<double>(compileAfter.cacheMisses -
                                   compileBefore.cacheMisses);
    out.values["core.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 1.0;
    // The read side of the plan set the server warms: every model at
    // batch 1..8.
    Jobs jobs;
    for (const char *m : kServeModels) {
        for (int b = 1; b <= kServeMaxBatch; ++b) {
            core::CompileOptions o;
            o.batch = b;
            jobs.push_back({&tinyRegistry().find(m), o});
        }
    }
    warmLoads(cfg, jobs, tr, op, out.tally);
    putSpan(out, tr, "serialize.load");
    out.values["serve.queue_ms_p50"] = median(queueMs);
    out.values["serve.queue_ms_p90"] = percentile(queueMs, 0.9);
    out.values["serve.exec_ms_p50"] = median(execMs);
    out.values["serve.respond_ms_p50"] = median(respondMs);
    const double batches = delta(&serve::StatsBlock::batches);
    out.values["serve.mean_batch"] =
        batches > 0 ? delta(&serve::StatsBlock::served) / batches : 0.0;
    out.values["serve.coalesced_frac"] =
        ok > 0 ? delta(&serve::StatsBlock::coalesced) / static_cast<double>(ok)
               : 0.0;
    out.values["serve.rejected"] = delta(&serve::StatsBlock::rejected);
    out.values["serve.failed"] = delta(&serve::StatsBlock::failed);
    out.values["serve.queue_high_water"] = static_cast<double>(queueHighWater);
    out.values["loadgen.late_ms_p90"] = percentile(lateMs, 0.9);
    out.values["trace.overhead_pct"] = overheadPct(tracedLatMs, latMs, 0.5);
    return out;
}

} // namespace

Outcome
runWorkload(const RunConfig &cfg, Tracer &tracer)
{
    if (cfg.workload == "swin-tiny-b1")
        return runExec(cfg, tracer, "tiny:Swin", kSwinLimitMs);
    if (cfg.workload == "resnext-tiny-b1")
        return runExec(cfg, tracer, "tiny:ResNext", kResNextLimitMs);
    if (cfg.workload == "compile-zoo")
        return runCompileZoo(cfg, tracer);
    if (cfg.workload == "serve-mix")
        return runServeMix(cfg, tracer);
    smFatal("unknown workload '" + cfg.workload +
            "' (registered: swin-tiny-b1, resnext-tiny-b1, compile-zoo, "
            "serve-mix)");
}

} // namespace perfbench
