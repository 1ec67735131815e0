/**
 * @file
 * Tests for the analytic cost model: stride probing, relayout costs,
 * bandwidth selection, roofline helpers.
 */
#include <gtest/gtest.h>

#include "cost/kernel_cost.h"
#include "cost/roofline.h"
#include "core/planner.h"
#include "core/layout_select.h"
#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "ir/graph.h"
#include "models/models.h"

namespace smartmem::cost {
namespace {

using ir::GraphBuilder;
using ir::OpKind;
using ir::Shape;

/** Graph: x -> transpose -> matmul(w). */
runtime::ExecutionPlan
transposeMatmulPlan(bool eliminate)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({64, 128}));
    auto t = b.transpose(x, {1, 0});
    auto w = b.constant("w", Shape({64, 32}));
    auto y = b.matmul(t, w);
    b.markOutput(y);
    auto g = b.finish();
    core::FusionPolicy p;
    p.eliminateTransforms = eliminate;
    p.fuseTransformChains = true;
    auto plan = core::planGraph(g, p);
    plan.compilerName = "test";
    return plan;
}

TEST(Cost, EliminationRemovesTransformKernel)
{
    auto keep = transposeMatmulPlan(false);
    auto elim = transposeMatmulPlan(true);
    EXPECT_EQ(keep.operatorCount(), 2);
    EXPECT_EQ(elim.operatorCount(), 1);
    EXPECT_TRUE(elim.kernels[0].inputs[0].readMap.has_value());
}

TEST(Cost, ProbeStrideSeesTransposedAccess)
{
    auto plan = transposeMatmulPlan(true);
    const auto &k = plan.kernels[0];
    const ir::Node *mm = nullptr;
    for (const auto &n : plan.graph.nodes())
        if (n.kind == OpKind::MatMul)
            mm = &n;
    ASSERT_NE(mm, nullptr);
    // MatMul wants its K dim (substitute dim 1) contiguous; through the
    // eliminated transpose this is source dim 0 => stride 128 under
    // row-major source layout.
    std::int64_t stride =
        probeReadStride(plan.graph, k.inputs[0], *mm, 0);
    EXPECT_EQ(stride, 128);
}

TEST(Cost, LayoutSelectionRestoresUnitStride)
{
    auto plan = transposeMatmulPlan(true);
    auto dev = device::adreno740();
    core::assignLayouts(plan, core::LayoutStrategy::SmartSelectBufferOnly,
                        dev);
    const auto &k = plan.kernels[0];
    const ir::Node *mm = nullptr;
    for (const auto &n : plan.graph.nodes())
        if (n.kind == OpKind::MatMul)
            mm = &n;
    std::int64_t stride =
        probeReadStride(plan.graph, k.inputs[0], *mm, 0);
    // The model input keeps its row-major layout (nothing re-lays it
    // out), so the stride stays; but the kernel must still be costed.
    auto kc = costKernel(dev, plan, k);
    EXPECT_GT(kc.seconds, 0);
    (void)stride;
}

TEST(Cost, TransformKernelPaysRelayoutRate)
{
    auto plan = transposeMatmulPlan(false);
    auto dev = device::adreno740();
    core::assignLayouts(plan, core::LayoutStrategy::RowMajorBuffer, dev);
    // kernels[0] is the transpose (copy kernel).
    const auto &tk = plan.kernels[0];
    ASSERT_TRUE(tk.isLayoutCopy);
    auto kc = costKernel(dev, plan, tk);
    EXPECT_TRUE(kc.isLayoutTransform);
    double elems = 64 * 128;
    EXPECT_GE(kc.memorySeconds, elems / dev.relayoutElemsPerSec * 0.99);
}

TEST(Cost, ComputeKernelNotRelayoutLimited)
{
    auto plan = transposeMatmulPlan(true);
    auto dev = device::adreno740();
    core::assignLayouts(plan, core::LayoutStrategy::SmartSelectBufferOnly,
                        dev);
    auto kc = costKernel(dev, plan, plan.kernels[0]);
    EXPECT_FALSE(kc.isLayoutTransform);
    EXPECT_GT(kc.macs, 0);
    EXPECT_GT(kc.computeSeconds, 0);
}

TEST(Cost, PlanCostAggregates)
{
    auto plan = transposeMatmulPlan(false);
    auto dev = device::adreno740();
    core::assignLayouts(plan, core::LayoutStrategy::RowMajorBuffer, dev);
    PlanCost pc = costPlan(dev, plan);
    EXPECT_EQ(pc.perKernel.size(), plan.kernels.size());
    double sum = 0;
    for (const auto &kc : pc.perKernel)
        sum += kc.seconds;
    EXPECT_NEAR(pc.seconds, sum, 1e-12);
    EXPECT_GT(pc.explicitTransformSeconds, 0);
}

TEST(Cost, EliminationIsFasterThanMaterialization)
{
    auto dev = device::adreno740();
    auto keep = transposeMatmulPlan(false);
    auto elim = transposeMatmulPlan(true);
    core::assignLayouts(keep, core::LayoutStrategy::RowMajorBuffer, dev);
    core::assignLayouts(elim, core::LayoutStrategy::SmartSelectBufferOnly,
                        dev);
    EXPECT_LT(costPlan(dev, elim).seconds, costPlan(dev, keep).seconds);
}

TEST(Cost, TunedEfficiencySpeedsCompute)
{
    auto plan = transposeMatmulPlan(true);
    auto dev = device::adreno740();
    core::assignLayouts(plan, core::LayoutStrategy::SmartSelectBufferOnly,
                        dev);
    auto base = costKernel(dev, plan, plan.kernels[0]);
    plan.kernels[0].tunedEfficiency = 1.0;
    auto tuned = costKernel(dev, plan, plan.kernels[0]);
    EXPECT_LT(tuned.computeSeconds, base.computeSeconds);
}

TEST(Cost, ComputeSecondsIsWorkOverTunedRate)
{
    // The auto-tuner re-rates kernels from computeWork and computeRate
    // alone, so these must reproduce computeSeconds exactly.
    auto dev = device::adreno740();
    int relayouts = 0;
    for (int stage : {0, 3}) {
        for (const char *model : {"Swin", "ResNext"}) {
            SCOPED_TRACE(std::string(model) + " stage " +
                         std::to_string(stage));
            auto plan = core::compileStage(models::buildModel(model), dev,
                                           stage);
            for (const auto &k : plan.kernels) {
                KernelCost kc = costKernel(dev, plan, k);
                EXPECT_EQ(kc.computeSeconds,
                          kc.computeWork /
                              (kc.computeRate * k.tunedEfficiency))
                    << k.name;
                EXPECT_EQ(kc.seconds, kc.secondsAt(k.tunedEfficiency));
                if (kc.isLayoutTransform) {
                    EXPECT_EQ(kc.computeWork, 0.0) << k.name;
                    ++relayouts;
                }
            }
        }
    }
    EXPECT_GT(relayouts, 0);
}

TEST(Roofline, AttainableCapsAtPeak)
{
    EXPECT_DOUBLE_EQ(attainableGmacs(2e12, 55e9, 1000.0), 2000.0);
    EXPECT_DOUBLE_EQ(attainableGmacs(2e12, 55e9, 1.0), 55.0);
}

TEST(Roofline, PointIsBelowRoof)
{
    auto plan = transposeMatmulPlan(true);
    auto dev = device::adreno740();
    core::assignLayouts(plan, core::LayoutStrategy::SmartSelect, dev);
    PlanCost pc = costPlan(dev, plan);
    RooflinePoint pt = rooflinePoint(dev, pc);
    EXPECT_GT(pt.intensityMacsPerByte, 0);
    EXPECT_LE(pt.achievedGmacs, pt.textureRoofGmacs * 1.0001);
}

} // namespace
} // namespace smartmem::cost
