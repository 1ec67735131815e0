/**
 * @file
 * Tests for the genetic auto-tuner.
 */
#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/smartmem_compiler.h"
#include "core/tuner.h"
#include "cost/kernel_cost.h"
#include "models/models.h"

namespace smartmem::core {
namespace {

using ir::GraphBuilder;
using ir::OpKind;
using ir::Shape;

runtime::ExecutionPlan
matmulChainPlan(int n)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({64, 64}));
    auto cur = x;
    for (int i = 0; i < n; ++i) {
        auto w = b.constant("w", Shape({64, 64}));
        cur = b.matmul(cur, w);
    }
    b.markOutput(cur);
    auto plan = planGraph(b.finish(), FusionPolicy{});
    plan.compilerName = "tuner-test";
    return plan;
}

TEST(Tuner, ConfigEfficiencyDeterministicAndBounded)
{
    auto dev = device::adreno740();
    for (std::size_t k = 0; k < 5; ++k) {
        for (int c = 0; c < 16; ++c) {
            double e1 = configEfficiency(k, c, dev);
            double e2 = configEfficiency(k, c, dev);
            EXPECT_DOUBLE_EQ(e1, e2);
            EXPECT_GE(e1, 0.80);
            EXPECT_LE(e1, 1.0);
        }
    }
}

TEST(Tuner, RegisterPressureCapsCeiling)
{
    auto big = device::adreno740();   // 64 regs
    auto small = device::maliG57();   // 32 regs
    double best_big = 0, best_small = 0;
    for (int c = 0; c < 16; ++c) {
        best_big = std::max(best_big, configEfficiency(0, c, big));
        best_small = std::max(best_small, configEfficiency(0, c, small));
    }
    EXPECT_LE(best_small, 0.97);
    EXPECT_GT(best_big, best_small);
}

TEST(Tuner, ImprovesOverUntunedDefault)
{
    auto dev = device::adreno740();
    auto plan = matmulChainPlan(6);
    double before = cost::costPlan(dev, plan).seconds;
    double after = tunePlan(plan, dev);
    EXPECT_LT(after, before);
    // Every kernel got a tuned efficiency above the 0.85 default floor
    // on average.
    double sum = 0;
    for (const auto &k : plan.kernels)
        sum += k.tunedEfficiency;
    EXPECT_GT(sum / static_cast<double>(plan.kernels.size()), 0.85);
}

TEST(Tuner, DeterministicForFixedSeed)
{
    auto dev = device::adreno740();
    auto p1 = matmulChainPlan(4);
    auto p2 = matmulChainPlan(4);
    TunerOptions opt;
    opt.seed = 123;
    double a = tunePlan(p1, dev, opt);
    double c = tunePlan(p2, dev, opt);
    EXPECT_DOUBLE_EQ(a, c);
    for (std::size_t i = 0; i < p1.kernels.size(); ++i) {
        EXPECT_DOUBLE_EQ(p1.kernels[i].tunedEfficiency,
                         p2.kernels[i].tunedEfficiency);
    }
}

TEST(Tuner, MoreGenerationsNeverWorse)
{
    auto dev = device::adreno740();
    TunerOptions small;
    small.generations = 1;
    TunerOptions large;
    large.generations = 20;
    auto p1 = matmulChainPlan(8);
    auto p2 = matmulChainPlan(8);
    double s = tunePlan(p1, dev, small);
    double l = tunePlan(p2, dev, large);
    EXPECT_LE(l, s + 1e-12);
}

TEST(Tuner, ReturnedSecondsAreTheTunedPlansCost)
{
    // tunePlan costs the plan once and scores every genome on the
    // cached per-kernel terms; the seconds it returns must still be,
    // bit for bit, what the cost model says of the plan it tuned.
    // Stage 0 (no LTE, no layout search) keeps relayout kernels and
    // strided ILD reads; stage 3 has texture and buffer convs and
    // streaming attention.
    SmartMemOptions stage3;
    stage3.enableTuner = false;
    SmartMemOptions stage0 = stage3;
    stage0.enableLte = false;
    stage0.enableLayoutSelect = false;
    int relayouts = 0;
    int attention = 0;
    for (const auto &dev :
         {device::adreno740(), device::maliG57(), device::teslaV100()}) {
        for (const SmartMemOptions &untuned : {stage0, stage3}) {
            for (const char *model : {"Swin", "ResNext", "ViT"}) {
                SCOPED_TRACE(dev.name + " " + model + " lte " +
                             std::to_string(untuned.enableLte));
                auto plan = compileSmartMem(models::buildModel(model),
                                            dev, untuned);
                const double tuned = tunePlan(plan, dev);
                EXPECT_EQ(tuned, cost::costPlan(dev, plan).seconds);
                for (const auto &kc : cost::costPlan(dev, plan).perKernel)
                    relayouts += kc.isLayoutTransform ? 1 : 0;
                for (const auto &k : plan.kernels)
                    attention += k.streamingAttention ? 1 : 0;
            }
        }
    }
    EXPECT_GT(relayouts, 0);
    EXPECT_GT(attention, 0);
}

TEST(Tuner, EmptyPlanIsNoop)
{
    runtime::ExecutionPlan plan;
    auto dev = device::adreno740();
    EXPECT_DOUBLE_EQ(tunePlan(plan, dev), 0.0);
}

} // namespace
} // namespace smartmem::core
