/**
 * @file
 * Parity, determinism, and bookkeeping tests for the cpu-blocked
 * execution backend (exec/cpu_backend.h, runtime/plan_executor.h).
 *
 * The whole 18-model zoo (tiny variants, so the naive reference
 * executor stays fast) is compared against exec::Executor at batch
 * {1, 4}, threads {1, 4}, stages {0, 3}; outputs must agree within
 * 1e-4 relative tolerance and be byte-identical at every thread
 * count.  Executed outputs are also pinned byte for byte against
 * tests/exec_digests.txt, and the prepared-plan cache is held to its
 * contract: a reused preparation never changes what a run computes.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "core/compile_session.h"
#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "exec/cpu_backend.h"
#include "exec/executor.h"
#include "exec/simd_dispatch.h"
#include "models/models.h"
#include "runtime/plan_executor.h"
#include "support/error.h"
#include "support/hash.h"
#include "simd_env_guard.h"

namespace smartmem {
namespace {

constexpr std::uint64_t kSeed = 4242;
constexpr float kTolerance = 1e-4f;

using PlanPtr = std::shared_ptr<const runtime::ExecutionPlan>;

/** Session-compiled (so keyed) adreno740 plan of a tiny zoo model. */
PlanPtr
keyedTinyPlan(core::CompileSession &session, const std::string &model,
              int stage)
{
    core::CompileOptions o;
    o.stage = stage;
    PlanPtr plan =
        session.compileGraph(models::buildTinyVariant(model, 1), o);
    EXPECT_FALSE(plan->cacheKey.empty()) << model;
    return plan;
}

exec::CpuBackendOptions
backendOptions(int threads)
{
    exec::CpuBackendOptions o;
    o.threads = threads;
    o.seed = kSeed;
    return o;
}

/** True when both output lists hold byte-identical tensors. */
bool
sameBytes(const std::vector<exec::Tensor> &a,
          const std::vector<exec::Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].shape() != b[i].shape() ||
            std::memcmp(a[i].data(), b[i].data(),
                        static_cast<std::size_t>(a[i].numElements()) *
                            sizeof(float)) != 0)
            return false;
    }
    return true;
}

/** FNV-1a over the raw bytes of every output, one field per tensor. */
std::string
outputDigest(const std::vector<exec::Tensor> &outputs)
{
    Fnv1a f;
    for (const exec::Tensor &t : outputs)
        f.feed(std::string(reinterpret_cast<const char *>(t.data()),
                           static_cast<std::size_t>(t.numElements()) *
                               sizeof(float)));
    return f.hex();
}


class ZooParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ZooParity, BlockedMatchesReferenceEverywhere)
{
    auto dev = device::adreno740();
    for (int batch : {1, 4}) {
        auto g = models::buildTinyVariant(GetParam(), batch);
        exec::Executor ex(kSeed);
        for (int stage : {0, 3}) {
            auto plan = core::compileStage(g, dev, stage);
            auto inputs = exec::makeSeededInputs(plan.graph, ex);
            auto ref = ex.runOutputs(plan.graph, inputs);
            for (int threads : {1, 4}) {
                exec::CpuBackendOptions o;
                o.threads = threads;
                o.seed = kSeed;
                exec::CpuBackend backend(o);
                auto got = backend.run(plan, inputs);
                EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance)
                    << GetParam() << " batch " << batch << " stage "
                    << stage << " threads " << threads;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooParity, ::testing::ValuesIn(models::evaluationModels()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/**
 * The tiny zoo variants cover the transformer/convnet hot paths but
 * not every operator; this synthetic graph exercises the remaining
 * backend paths (Concat, Pad, pools, reductions, DepthToSpace,
 * Slice, Gather, Scale, broadcast binaries) through the full
 * compiler at both stage 0 and 3.
 */
ir::Graph
opCoverageGraph(int batch)
{
    ir::GraphBuilder b;
    auto x = b.input("x", ir::Shape({batch, 8, 16, 16}));
    auto w = b.constant("w", ir::Shape({16, 8, 3, 3}));
    auto t = b.conv2d(x, w, 1, 1);
    t = b.unary(ir::OpKind::Scale, t);
    t = b.maxPool2d(t, 2, 2, 0);                  // [b,16,8,8]
    auto avg = b.avgPool2d(t, 2, 2, 0);           // [b,16,4,4]
    auto pad = b.pad(t, {0, 0, 0, 0, 2, 2, 2, 2});
    auto down = b.maxPool2d(pad, 3, 3, 0);        // [b,16,4,4]
    auto cat = b.concat({avg, down}, 1);          // [b,32,4,4]
    auto d2s = b.depthToSpace(cat, 2);            // [b,8,8,8]
    auto sl = b.slice(d2s, {1}, {0}, {4});        // [b,4,8,8]
    auto idx = b.constantData("idx", ir::Shape({4}), {3, 1, 2, 0});
    auto gathered = b.gather(sl, idx, 1);
    auto red = b.reduce(ir::OpKind::ReduceMean, gathered, {2, 3}, true);
    auto norm = b.binary(ir::OpKind::Div, gathered,
                         b.binary(ir::OpKind::Add, red,
                                  b.constant("eps", ir::Shape({1}))));
    auto flat = b.reshape(norm, {batch, 4 * 8 * 8});
    auto w2 = b.constant("w2", ir::Shape({4 * 8 * 8, 10}));
    b.markOutput(b.unary(ir::OpKind::Sigmoid, b.matmul(flat, w2)));
    return b.finish();
}

TEST(CpuBackendOpCoverage, RareOpsMatchReference)
{
    auto dev = device::adreno740();
    for (int batch : {1, 3}) {
        auto g = opCoverageGraph(batch);
        exec::Executor ex(kSeed);
        for (int stage : {0, 3}) {
            auto plan = core::compileStage(g, dev, stage);
            auto inputs = exec::makeSeededInputs(plan.graph, ex);
            auto ref = ex.runOutputs(plan.graph, inputs);
            for (int threads : {1, 4}) {
                exec::CpuBackendOptions o;
                o.threads = threads;
                o.seed = kSeed;
                auto got = exec::CpuBackend(o).run(plan, inputs);
                EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance)
                    << "batch " << batch << " stage " << stage
                    << " threads " << threads;
            }
        }
    }
}

TEST(CpuBackendDeterminism, ByteIdenticalAtAnyThreadCount)
{
    auto dev = device::adreno740();
    for (const char *model : {"Swin", "ViT", "ResNext"}) {
        for (int stage : {0, 3}) {
            auto g = models::buildTinyVariant(model, 2);
            auto plan = core::compileStage(g, dev, stage);
            exec::Executor ex(kSeed);
            auto inputs = exec::makeSeededInputs(plan.graph, ex);

            std::vector<std::vector<exec::Tensor>> runs;
            for (int threads : {1, 2, 4}) {
                exec::CpuBackendOptions o;
                o.threads = threads;
                o.seed = kSeed;
                runs.push_back(
                    exec::CpuBackend(o).run(plan, inputs));
            }
            for (std::size_t r = 1; r < runs.size(); ++r) {
                ASSERT_EQ(runs[0].size(), runs[r].size());
                for (std::size_t i = 0; i < runs[0].size(); ++i) {
                    EXPECT_EQ(0, std::memcmp(
                                     runs[0][i].data(),
                                     runs[r][i].data(),
                                     static_cast<std::size_t>(
                                         runs[0][i].numElements()) *
                                         sizeof(float)))
                        << model << " stage " << stage << " run " << r;
                }
            }
        }
    }
}

TEST(CpuBackendDeterminism, RepeatedRunsAreByteIdentical)
{
    // A session-compiled plan is keyed, so the second run reuses the
    // backend's prepared state.
    core::CompileSession session(device::adreno740(), 1);
    session.setPlanCacheDir("");
    PlanPtr plan = keyedTinyPlan(session, "Swin", 3);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan->graph, ex);
    exec::CpuBackendOptions o;
    o.seed = kSeed;
    exec::CpuBackend backend(o);
    auto a = backend.run(*plan, inputs);
    auto b = backend.run(*plan, inputs);
    EXPECT_TRUE(sameBytes(a, b));
}

/**
 * The standing byte-identity gate for executed outputs.
 * tests/exec_digests.txt holds, per SIMD level, the FNV-1a digest of
 * the cpu-blocked outputs of every tiny zoo model compiled by a
 * session (so the plans are keyed) at stages 0 and 3 on adreno740,
 * run on seeded inputs with 1 and 4 threads.  Each plan runs twice
 * on one backend, so the second run goes through the backend's
 * prepared-plan cache; both runs must give the recorded bytes.
 * Every recorded level the host can execute is checked.  The digests
 * were recorded with the default Release build under g++ 12; other
 * build flags can change vector-kernel bits (a RelWithDebInfo build,
 * -O2, gives other AVX2 digests for the ViT-class models, and did so
 * before prepared plans too).  On a mismatch the actual manifest is
 * written into the build
 * tree; a change that alters outputs on purpose records it over the
 * committed one and says why.
 */
TEST(CpuBackend, ZooOutputsMatchRecordedDigests)
{
    const std::string manifest =
        std::string(SMARTMEM_SOURCE_DIR) + "/tests/exec_digests.txt";
    std::map<std::string, std::string> expected; // level -> lines
    {
        std::ifstream in(manifest);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty() && line[0] != '#')
                expected[line.substr(0, line.find(' '))] += line + "\n";
    }

    core::CompileSession session(device::adreno740(), 1);
    session.setPlanCacheDir("");
    struct Case
    {
        std::string name;
        PlanPtr plan;
        std::map<ir::ValueId, exec::Tensor> inputs;
    };
    std::vector<Case> cases;
    for (const std::string &model : models::evaluationModels()) {
        for (int stage : {0, 3}) {
            PlanPtr plan = keyedTinyPlan(session, model, stage);
            auto inputs = exec::makeSeededInputs(plan->graph,
                                                 exec::Executor(kSeed));
            cases.push_back({model + " stage" + std::to_string(stage),
                             plan, std::move(inputs)});
        }
    }

    std::vector<exec::SimdLevel> levels;
    for (exec::SimdLevel lv : exec::availableSimdLevels())
        if (expected.count(exec::simdLevelName(lv)))
            levels.push_back(lv);
    const bool anyRecorded = !levels.empty();
    if (!anyRecorded) // record every level the host has
        levels = exec::availableSimdLevels();

    std::string actual =
        "# <simd level> <model> <stage> <threads> <fnv1a64 of the "
        "outputs>, checked by CpuBackend.ZooOutputsMatchRecordedDigests\n";
    bool same = true;
    for (exec::SimdLevel lv : levels) {
        const std::string level = exec::simdLevelName(lv);
        SimdEnvGuard guard(level.c_str());
        std::string lines;
        for (int threads : {1, 4}) {
            const exec::CpuBackend backend(backendOptions(threads));
            for (const Case &c : cases) {
                const std::string first =
                    outputDigest(backend.run(*c.plan, c.inputs));
                const std::string second =
                    outputDigest(backend.run(*c.plan, c.inputs));
                lines += level + " " + c.name + " threads" +
                         std::to_string(threads) + " " + first +
                         (second == first ? "" : " second-run " + second) +
                         "\n";
            }
        }
        actual += lines;
        same = same && lines == expected[level];
    }
    if (anyRecorded && same)
        return;
    const std::string written =
        std::string(SMARTMEM_BINARY_DIR) + "/exec_digests.actual.txt";
    std::ofstream(written) << actual;
    if (!anyRecorded)
        ADD_FAILURE() << "no SIMD level recorded in " << manifest
                      << " is available on this host; wrote "
                      << written;
    else
        ADD_FAILURE() << "executed outputs differ from the recorded "
                      << "digests: diff " << manifest << " " << written;
}

// ---------------------------------------------------------------------
// Prepared-plan cache contract: a keyed plan is prepared once per
// backend and reused, and a reused preparation must never change what
// a run computes.
// ---------------------------------------------------------------------

TEST(CpuBackendCache, InterleavedKeyedPlansMatchFreshBackends)
{
    core::CompileSession session(device::adreno740(), 1);
    session.setPlanCacheDir("");
    const PlanPtr plans[2] = {keyedTinyPlan(session, "Swin", 0),
                              keyedTinyPlan(session, "Swin", 3)};
    ASSERT_NE(plans[0]->cacheKey, plans[1]->cacheKey);
    auto inputs =
        exec::makeSeededInputs(plans[0]->graph, exec::Executor(kSeed));

    std::vector<exec::Tensor> fresh[2];
    for (int p = 0; p < 2; ++p)
        fresh[p] = exec::CpuBackend(backendOptions(1)).run(*plans[p],
                                                            inputs);
    const exec::CpuBackend shared(backendOptions(1));
    for (int p : {0, 1, 0, 1})
        EXPECT_TRUE(sameBytes(shared.run(*plans[p], inputs), fresh[p]))
            << "stage " << (p == 0 ? 0 : 3);
}

TEST(CpuBackendCache, SimdLevelIsReadOnEveryRun)
{
    core::CompileSession session(device::adreno740(), 1);
    session.setPlanCacheDir("");
    PlanPtr plan = keyedTinyPlan(session, "Swin", 3);
    auto inputs =
        exec::makeSeededInputs(plan->graph, exec::Executor(kSeed));
    const exec::SimdLevel best = exec::availableSimdLevels().back();

    std::map<exec::SimdLevel, std::vector<exec::Tensor>> fresh;
    for (exec::SimdLevel lv : {exec::SimdLevel::Scalar, best}) {
        SimdEnvGuard guard(exec::simdLevelName(lv));
        fresh[lv] = exec::CpuBackend(backendOptions(1)).run(*plan, inputs);
    }
    const exec::CpuBackend shared(backendOptions(1));
    for (exec::SimdLevel lv : {exec::SimdLevel::Scalar, best,
                               exec::SimdLevel::Scalar, best}) {
        SimdEnvGuard guard(exec::simdLevelName(lv));
        exec::CpuBackendStats stats;
        auto got = shared.run(*plan, inputs, &stats);
        EXPECT_EQ(stats.simdLevel, lv);
        EXPECT_TRUE(sameBytes(got, fresh[lv])) << exec::simdLevelName(lv);
    }
}

TEST(CpuBackendCache, ConcurrentRunsOnASharedBackendMatchSerial)
{
    core::CompileSession session(device::adreno740(), 1);
    session.setPlanCacheDir("");
    const PlanPtr plans[2] = {keyedTinyPlan(session, "Swin", 3),
                              keyedTinyPlan(session, "ResNext", 3)};
    std::map<ir::ValueId, exec::Tensor> inputs[2];
    std::vector<exec::Tensor> serial[2];
    for (int p = 0; p < 2; ++p) {
        inputs[p] = exec::makeSeededInputs(plans[p]->graph,
                                           exec::Executor(kSeed));
        serial[p] = exec::CpuBackend(backendOptions(1)).run(*plans[p],
                                                             inputs[p]);
    }

    // Every caller starts on a cold cache entry, so the threads race
    // to prepare both plans as well as to run them.
    const exec::CpuBackend shared(backendOptions(1));
    constexpr int kCallers = 4;
    constexpr int kRunsPerCaller = 3;
    std::vector<std::vector<std::vector<exec::Tensor>>> got(kCallers);
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            for (int r = 0; r < kRunsPerCaller; ++r) {
                const int p = (t + r) % 2;
                got[static_cast<std::size_t>(t)].push_back(
                    shared.run(*plans[p], inputs[p]));
            }
        });
    }
    for (std::thread &c : callers)
        c.join();
    for (int t = 0; t < kCallers; ++t)
        for (int r = 0; r < kRunsPerCaller; ++r)
            EXPECT_TRUE(sameBytes(
                got[static_cast<std::size_t>(t)]
                   [static_cast<std::size_t>(r)],
                serial[(t + r) % 2]))
                << "caller " << t << " run " << r;
}

TEST(CpuBackendCache, UnkeyedPlansArePreparedOnEveryRun)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    const auto plan0 = core::compileStage(g, dev, 0);
    const auto plan3 = core::compileStage(g, dev, 3);
    ASSERT_TRUE(plan0.cacheKey.empty());
    ASSERT_NE(plan0.operatorCount(), plan3.operatorCount());
    auto inputs = exec::makeSeededInputs(plan0.graph, exec::Executor(kSeed));
    const auto want = exec::CpuBackend(backendOptions(1)).run(plan3, inputs);

    // Same plan object, new kernels: nothing of the first preparation
    // may survive into the second run.
    runtime::ExecutionPlan plan = plan0;
    const exec::CpuBackend backend(backendOptions(1));
    exec::CpuBackendStats stats;
    backend.run(plan, inputs, &stats);
    EXPECT_EQ(stats.kernelsExecuted, plan0.operatorCount());
    plan.graph = plan3.graph;
    plan.kernels = plan3.kernels;
    auto got = backend.run(plan, inputs, &stats);
    EXPECT_EQ(stats.kernelsExecuted, plan3.operatorCount());
    EXPECT_TRUE(sameBytes(got, want));
}

TEST(CpuBackendStats, CountersDescribeThePlan)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);

    exec::CpuBackendOptions o;
    o.threads = 1;
    o.seed = kSeed;
    exec::CpuBackendStats stats;
    exec::CpuBackend(o).run(plan, inputs, &stats);

    EXPECT_EQ(stats.kernelsExecuted, plan.operatorCount());
    EXPECT_EQ(stats.relayoutKernels, plan.layoutCopyCount());
    EXPECT_GT(stats.poolHighWaterBytes, 0);
    // Tiny Swin's plan eliminates transformation chains, which the
    // backend must reproduce through composed read maps.
    EXPECT_GT(stats.substitutesMaterialized, 0);
}

TEST(CpuBackendStats, Stage3MaterializesFewerPassesThanStage0)
{
    // The measured counterpart of LTE: with chains eliminated, the
    // backend launches fewer kernels.
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    exec::Executor ex(kSeed);
    auto plan0 = core::compileStage(g, dev, 0);
    auto plan3 = core::compileStage(g, dev, 3);
    auto inputs = exec::makeSeededInputs(plan3.graph, ex);

    exec::CpuBackendOptions o;
    o.threads = 1;
    o.seed = kSeed;
    exec::CpuBackendStats s0, s3;
    exec::CpuBackend(o).run(plan0, inputs, &s0);
    exec::CpuBackend(o).run(plan3, inputs, &s3);
    EXPECT_LT(s3.kernelsExecuted, s0.kernelsExecuted);
}

TEST(PlanExecutorRegistry, NamesAndConstruction)
{
    const auto &names = runtime::executorNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "reference");
    EXPECT_EQ(names[1], "cpu-blocked");
    for (const auto &name : names) {
        auto be = runtime::makeExecutor(name);
        EXPECT_EQ(be->name(), name);
    }
}

TEST(PlanExecutorRegistry, UnknownNameListsCatalog)
{
    try {
        runtime::makeExecutor("gpu-metal");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("gpu-metal"), std::string::npos);
        EXPECT_NE(msg.find("reference"), std::string::npos);
        EXPECT_NE(msg.find("cpu-blocked"), std::string::npos);
    }
}

TEST(PlanExecutorRegistry, BackendsAgreeThroughTheFacade)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("ViT", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);

    runtime::ExecutorOptions o;
    o.seed = kSeed;
    auto ref = runtime::makeExecutor("reference", o)->run(plan, inputs);
    auto blocked = runtime::makeExecutor("cpu-blocked", o);
    auto got = blocked->run(plan, inputs);
    EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance);
    EXPECT_GT(blocked->lastRunStats().poolHighWaterBytes, 0);
}

TEST(CpuBackendSeeds, SeedMismatchChangesOutputs)
{
    // Constants are synthesized from the seed; two different seeds
    // must produce different results (guards accidental seed
    // hard-coding in the backend).
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);

    exec::CpuBackendOptions a;
    a.seed = kSeed;
    exec::CpuBackendOptions b;
    b.seed = kSeed + 1;
    const exec::CpuBackend backendA(a);
    auto ra = backendA.run(plan, inputs);
    auto rb = exec::CpuBackend(b).run(plan, inputs);
    EXPECT_GT(exec::maxAbsDiff(ra[0], rb[0]), 0.0f);

    // A prepared plan carries its seed's constants: it runs as the
    // plan does on its own backend and is refused under another seed.
    const auto prepared = backendA.prepare(plan);
    EXPECT_TRUE(sameBytes(backendA.run(*prepared, inputs), ra));
    EXPECT_THROW(exec::CpuBackend(b).run(*prepared, inputs), FatalError);
}

} // namespace
} // namespace smartmem
