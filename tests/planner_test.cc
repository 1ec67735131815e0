/**
 * @file
 * Tests for the planner: fusion grouping rules (Table 5 actions) and
 * Layout Transformation Elimination plumbing.
 */
#include <gtest/gtest.h>

#include "core/planner.h"
#include "runtime/functional_runner.h"

namespace smartmem::core {
namespace {

using ir::GraphBuilder;
using ir::OpKind;
using ir::Shape;

FusionPolicy
dnnfPolicy()
{
    FusionPolicy p;
    p.fuseTransformChains = true;
    return p;
}

FusionPolicy
smartPolicy()
{
    FusionPolicy p = dnnfPolicy();
    p.eliminateTransforms = true;
    return p;
}

TEST(Planner, ConvReluBiasFusesIntoOneKernel)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({1, 8, 8, 8}));
    auto w = b.constant("w", Shape({8, 8, 3, 3}));
    auto y = b.conv2d(x, w, 1, 1);
    auto bias = b.constant("bias", Shape({8, 1, 1}));
    y = b.binary(OpKind::Add, y, bias);
    y = b.unary(OpKind::Relu, y);
    b.markOutput(y);
    auto plan = planGraph(b.finish(), dnnfPolicy());
    EXPECT_EQ(plan.operatorCount(), 1);
    EXPECT_EQ(plan.kernels[0].fusedNodes.size(), 3u);
}

TEST(Planner, TwoIldOpsAreKeptSeparate)
{
    // Table 5: ILD&Var + ILD&Var -> keep both.
    GraphBuilder b;
    auto x = b.input("x", Shape({4, 8}));
    auto w1 = b.constant("w1", Shape({8, 8}));
    auto w2 = b.constant("w2", Shape({8, 8}));
    auto y = b.matmul(b.matmul(x, w1), w2);
    b.markOutput(y);
    auto plan = planGraph(b.finish(), dnnfPolicy());
    EXPECT_EQ(plan.operatorCount(), 2);
}

TEST(Planner, PreChainAbsorbedIntoIld)
{
    // ILI&Var chain feeding an ILD&Var op fuses ("try fuse").
    GraphBuilder b;
    auto x = b.input("x", Shape({4, 8}));
    auto u = b.unary(OpKind::Gelu, x);
    auto w = b.constant("w", Shape({8, 8}));
    auto y = b.matmul(u, w);
    b.markOutput(y);
    auto plan = planGraph(b.finish(), dnnfPolicy());
    EXPECT_EQ(plan.operatorCount(), 1);
}

TEST(Planner, MaxPostOpsLimitsFixedPatternFusion)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({1, 4, 4, 4}));
    auto w = b.constant("w", Shape({4, 4, 1, 1}));
    auto y = b.conv2d(x, w, 1, 0);
    y = b.unary(OpKind::Relu, y);
    y = b.unary(OpKind::Sigmoid, y);
    y = b.unary(OpKind::Tanh, y);
    b.markOutput(y);
    FusionPolicy p;
    p.maxPostOps = 1;
    p.fuseEltwiseChains = false;
    auto plan = planGraph(b.finish(), p);
    // conv+relu fused; sigmoid and tanh remain separate kernels.
    EXPECT_EQ(plan.operatorCount(), 3);
}

TEST(Planner, ValueWithTwoConsumersEndsGroup)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({4, 4}));
    auto r = b.unary(OpKind::Relu, x);
    auto a = b.unary(OpKind::Exp, r);
    auto c = b.binary(OpKind::Add, r, a); // r has two consumers
    b.markOutput(c);
    auto plan = planGraph(b.finish(), dnnfPolicy());
    // relu cannot fuse forward (two consumers); exp+add can chain.
    EXPECT_EQ(plan.operatorCount(), 2);
}

TEST(Planner, RepeatedOperandIsOneConsumer)
{
    // A node reading one value twice is one consumer of it
    // (Graph::consumers), so relu -> mul(r, r) is a single-exit chain
    // and fuses -- also when the repeated operand is an eliminated
    // transpose of the relu.
    for (bool through_transpose : {false, true}) {
        SCOPED_TRACE(through_transpose);
        GraphBuilder b;
        auto x = b.input("x", Shape({4, 4}));
        auto r = b.unary(OpKind::Relu, x);
        auto operand = through_transpose ? b.transpose(r, {1, 0}) : r;
        auto y = b.binary(OpKind::Mul, operand, operand);
        b.markOutput(y);
        auto g = b.finish();
        const ir::NodeId mul = g.value(y).producer;
        EXPECT_EQ(g.consumers(operand), std::vector<ir::NodeId>{mul});

        auto plan = planGraph(g, smartPolicy());
        EXPECT_EQ(eliminatedNodes(g, smartPolicy()).size(),
                  through_transpose ? 1u : 0u);
        ASSERT_EQ(plan.operatorCount(), 1);
        EXPECT_EQ(plan.kernels[0].fusedNodes,
                  (std::vector<ir::NodeId>{g.value(r).producer, mul}));
        EXPECT_NO_THROW(runtime::verifyPlan(plan));
    }
}

TEST(Planner, TransformChainsFuseIntoOneCopyKernel)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 3, 4}));
    auto t = b.transpose(x, {1, 0, 2});
    auto r = b.reshape(t, {12, 2});
    auto w = b.constant("w", Shape({2, 5}));
    auto y = b.matmul(r, w);
    b.markOutput(y);
    auto plan = planGraph(b.finish(), dnnfPolicy());
    EXPECT_EQ(plan.operatorCount(), 2);
    EXPECT_TRUE(plan.kernels[0].isLayoutCopy);
    EXPECT_EQ(plan.kernels[0].fusedNodes.size(), 2u);
}

TEST(Planner, LteEliminatesTransformChain)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 3, 4}));
    auto t = b.transpose(x, {1, 0, 2});
    auto r = b.reshape(t, {12, 2});
    auto w = b.constant("w", Shape({2, 5}));
    auto y = b.matmul(r, w);
    b.markOutput(y);
    auto g = b.finish();
    EXPECT_EQ(eliminatedNodes(g, smartPolicy()).size(), 2u);
    auto plan = planGraph(g, smartPolicy());
    EXPECT_EQ(plan.operatorCount(), 1);
    ASSERT_EQ(plan.kernels[0].inputs.size(), 1u);
    const auto &in = plan.kernels[0].inputs[0];
    EXPECT_NE(in.source, in.substitute);
    ASSERT_TRUE(in.readMap.has_value());
    EXPECT_EQ(in.readMap->outputShape(), Shape({12, 2}));
    EXPECT_EQ(in.readMap->inputShape(), Shape({2, 3, 4}));
}

TEST(Planner, GraphOutputTransformIsNotEliminated)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 6}));
    auto t = b.transpose(x, {1, 0});
    b.markOutput(t);
    auto g = b.finish();
    EXPECT_TRUE(eliminatedNodes(g, smartPolicy()).empty());
    auto plan = planGraph(g, smartPolicy());
    EXPECT_EQ(plan.operatorCount(), 1);
}

TEST(Planner, GatherWithDynamicIndicesSurvives)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({8, 4}));
    auto idx = b.input("idx", Shape({3}), ir::DType::I32);
    auto y = b.gather(x, idx, 0);
    auto z = b.unary(OpKind::Relu, y);
    b.markOutput(z);
    auto g = b.finish();
    EXPECT_TRUE(eliminatedNodes(g, smartPolicy()).empty());
}

TEST(Planner, GatherWithConstantIndicesEliminated)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({8, 4}));
    auto idx = b.constantData("idx", Shape({3}), {1, 7, 2});
    auto y = b.gather(x, idx, 0);
    auto z = b.unary(OpKind::Relu, y);
    b.markOutput(z);
    auto g = b.finish();
    EXPECT_EQ(eliminatedNodes(g, smartPolicy()).size(), 1u);
}

TEST(Planner, FusionAcrossEliminatedChain)
{
    // matmul -> reshape (eliminated) -> gelu: SmartMem fuses the gelu
    // into the matmul kernel, reading through the composed map.
    GraphBuilder b;
    auto x = b.input("x", Shape({4, 8}));
    auto w = b.constant("w", Shape({8, 6}));
    auto y = b.matmul(x, w);
    auto r = b.reshape(y, {2, 12});
    auto z = b.unary(OpKind::Gelu, r);
    b.markOutput(z);
    auto plan = planGraph(b.finish(), smartPolicy());
    EXPECT_EQ(plan.operatorCount(), 1);
    bool has_internal = false;
    for (const auto &in : plan.kernels[0].inputs)
        has_internal |= in.internalSource;
    EXPECT_TRUE(has_internal);
    runtime::verifyPlan(plan);
}

TEST(Planner, KernelOrderIsTopological)
{
    // Regression: a late node fused into an early group must not make
    // the plan read values before they are produced.
    GraphBuilder b;
    auto x = b.input("x", Shape({4, 9}));
    auto w = b.constant("w", Shape({9, 9}));
    auto mm = b.matmul(x, w);
    auto sc = b.unary(OpKind::Sigmoid, mm);
    auto t = b.transpose(x, {1, 0});
    auto r = b.reshape(t, {4, 9});
    auto add = b.binary(OpKind::Add, sc, r); // joins the matmul group
    b.markOutput(add);
    auto plan = planGraph(b.finish(), dnnfPolicy());
    EXPECT_NO_THROW(runtime::verifyPlan(plan));
}

TEST(Planner, EveryPlanVerifies)
{
    for (bool lte : {false, true}) {
        GraphBuilder b;
        auto x = b.input("x", Shape({1, 4, 8, 8}));
        auto w = b.constant("w", Shape({4, 4, 3, 3}));
        auto y = b.conv2d(x, w, 1, 1);
        auto r = b.reshape(y, {1, 4, 64});
        auto t = b.transpose(r, {0, 2, 1});
        auto g1 = b.constant("g", Shape({4}));
        auto b1 = b.constant("b", Shape({4}));
        auto ln = b.layerNorm(t, g1, b1);
        b.markOutput(ln);
        FusionPolicy p = lte ? smartPolicy() : dnnfPolicy();
        auto plan = planGraph(b.finish(), p);
        EXPECT_NO_THROW(runtime::verifyPlan(plan));
    }
}

} // namespace
} // namespace smartmem::core
