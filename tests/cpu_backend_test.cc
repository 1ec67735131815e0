/**
 * @file
 * Parity, determinism, and bookkeeping tests for the cpu-blocked
 * execution backend (exec/cpu_backend.h, runtime/plan_executor.h).
 *
 * The whole 18-model zoo (tiny variants, so the naive reference
 * executor stays fast) is compared against exec::Executor at batch
 * {1, 4}, threads {1, 4}, stages {0, 3}; outputs must agree within
 * 1e-4 relative tolerance and be byte-identical at every thread
 * count.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "exec/cpu_backend.h"
#include "exec/executor.h"
#include "models/models.h"
#include "runtime/plan_executor.h"
#include "support/error.h"

namespace smartmem {
namespace {

constexpr std::uint64_t kSeed = 4242;
constexpr float kTolerance = 1e-4f;


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
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);
    exec::CpuBackendOptions o;
    o.seed = kSeed;
    exec::CpuBackend backend(o);
    auto a = backend.run(plan, inputs);
    auto b = backend.run(plan, inputs);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(a[i].data(), b[i].data(),
                                 static_cast<std::size_t>(
                                     a[i].numElements()) *
                                     sizeof(float)));
    }
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
    auto ra = exec::CpuBackend(a).run(plan, inputs);
    auto rb = exec::CpuBackend(b).run(plan, inputs);
    EXPECT_GT(exec::maxAbsDiff(ra[0], rb[0]), 0.0f);
}

} // namespace
} // namespace smartmem
