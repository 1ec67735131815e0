/**
 * @file
 * Tests for the four-quadrant operator classification and the pairwise
 * action/result tables (paper Tables 3-6), plus reduction-dimension
 * analysis.
 */
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "ir/graph.h"
#include "opclass/opclass.h"
#include "opclass/reduction_dims.h"

namespace smartmem::opclass {
namespace {

using ir::OpKind;

TEST(Classify, Table3Quadrants)
{
    const std::vector<std::pair<OpClass, std::vector<OpKind>>> quadrants = {
        // ILD & Variable: compute with reuse or a reduction.
        {ildVariable,
         {OpKind::Conv2d, OpKind::DepthwiseConv2d, OpKind::GroupConv2d,
          OpKind::MatMul, OpKind::BatchMatMul, OpKind::LayerNorm,
          OpKind::InstanceNorm, OpKind::Softmax, OpKind::ReduceSum,
          OpKind::ReduceMean, OpKind::ReduceMax, OpKind::MaxPool2d,
          OpKind::AvgPool2d, OpKind::GlobalAvgPool,
          OpKind::FusedAttention}},
        // ILI & Variable: element-wise, including inference-mode
        // BatchNorm (a folded per-channel affine map).
        {iliVariable,
         {OpKind::BatchNorm, OpKind::Relu, OpKind::Gelu, OpKind::Silu,
          OpKind::Sigmoid, OpKind::Tanh, OpKind::Exp, OpKind::Sqrt,
          OpKind::Neg, OpKind::Identity, OpKind::Scale, OpKind::Add,
          OpKind::Sub, OpKind::Mul, OpKind::Div}},
        // ILD & Fixed: layout transformations.
        {ildFixed,
         {OpKind::Reshape, OpKind::Transpose, OpKind::DepthToSpace,
          OpKind::SpaceToDepth}},
        // ILI & Fixed: selection.
        {iliFixed,
         {OpKind::Gather, OpKind::Slice, OpKind::Concat, OpKind::Pad}},
    };
    std::set<OpKind> covered;
    for (const auto &[quadrant, kinds] : quadrants) {
        for (OpKind kind : kinds) {
            SCOPED_TRACE(ir::opKindName(kind));
            EXPECT_EQ(classifyOp(kind), quadrant);
            covered.insert(kind);
        }
    }
    // Every kind but the two terminals (Input, Constant).
    EXPECT_EQ(covered.size(), 38u);
}

TEST(Action, Table5FirstRowIldVariable)
{
    EXPECT_EQ(combinationAction(ildVariable, ildVariable),
              PairAction::KeepBoth);
    EXPECT_EQ(combinationAction(ildVariable, iliVariable),
              PairAction::TryFuse);
    EXPECT_EQ(combinationAction(ildVariable, ildFixed),
              PairAction::EliminateSecond);
    EXPECT_EQ(combinationAction(ildVariable, iliFixed),
              PairAction::EliminateSecond);
}

TEST(Action, Table5SecondRowIliVariable)
{
    EXPECT_EQ(combinationAction(iliVariable, ildVariable),
              PairAction::TryFuse);
    EXPECT_EQ(combinationAction(iliVariable, iliVariable),
              PairAction::TryFuse);
    EXPECT_EQ(combinationAction(iliVariable, ildFixed),
              PairAction::EliminateSecond);
    EXPECT_EQ(combinationAction(iliVariable, iliFixed),
              PairAction::EliminateSecond);
}

TEST(Action, Table5FixedRows)
{
    for (OpClass first : {ildFixed, iliFixed}) {
        EXPECT_EQ(combinationAction(first, ildVariable),
                  PairAction::EliminateFirst);
        EXPECT_EQ(combinationAction(first, iliVariable),
                  PairAction::EliminateFirst);
        EXPECT_EQ(combinationAction(first, ildFixed),
                  PairAction::EliminateBoth);
        EXPECT_EQ(combinationAction(first, iliFixed),
                  PairAction::EliminateBoth);
    }
}

TEST(Action, PaperConvReshapeExample)
{
    // Section 3.2: Conv (ILD&Var) + Reshape (ILD&Fixed) ->
    // Reshape eliminated, preserved operator still ILD&Var, search the
    // first operator's layout.
    OpClass conv = classifyOp(OpKind::Conv2d);
    OpClass reshape = classifyOp(OpKind::Reshape);
    EXPECT_EQ(combinationAction(conv, reshape),
              PairAction::EliminateSecond);
    EXPECT_EQ(combinedType(conv, reshape), ildVariable);
    EXPECT_EQ(searchPolicy(conv, reshape), SearchPolicy::SearchFirst);
}

TEST(Result, Table6CombinedTypes)
{
    // Fused ILD&Var + ILI&Var stays ILD & Variable.
    EXPECT_EQ(combinedType(ildVariable, iliVariable), ildVariable);
    EXPECT_EQ(combinedType(iliVariable, ildVariable), ildVariable);
    EXPECT_EQ(combinedType(iliVariable, iliVariable), iliVariable);
    // Eliminating the first keeps the second's type.
    EXPECT_EQ(combinedType(ildFixed, ildVariable), ildVariable);
    EXPECT_EQ(combinedType(iliFixed, iliVariable), iliVariable);
}

TEST(Result, Table6SearchPolicies)
{
    EXPECT_EQ(searchPolicy(ildVariable, ildVariable),
              SearchPolicy::SearchBoth);
    EXPECT_EQ(searchPolicy(ildVariable, iliVariable),
              SearchPolicy::SearchFused);
    EXPECT_EQ(searchPolicy(iliVariable, ildVariable),
              SearchPolicy::SearchFused);
    EXPECT_EQ(searchPolicy(ildFixed, ildVariable),
              SearchPolicy::SearchSecond);
    EXPECT_EQ(searchPolicy(iliVariable, iliVariable),
              SearchPolicy::NoSearch);
    EXPECT_EQ(searchPolicy(iliFixed, iliVariable),
              SearchPolicy::NoSearch);
}

TEST(ReductionDims, MatMulSharedK)
{
    // Paper Section 3.2.2: for MatMul A[i,k] x B[k,j], the reduction
    // dimension is k for both operands.
    ir::GraphBuilder b;
    auto a = b.input("a", ir::Shape({5, 8}));
    auto w = b.constant("w", ir::Shape({8, 3}));
    auto y = b.matmul(a, w);
    b.markOutput(y);
    auto g = b.finish();
    const ir::Node &mm = g.node(g.value(y).producer);
    EXPECT_EQ(reductionDims(g, mm, 0), (std::vector<int>{1})); // A: k
    EXPECT_EQ(reductionDims(g, mm, 1), (std::vector<int>{0})); // B: k
}

TEST(ReductionDims, MatMulTransposedB)
{
    ir::GraphBuilder b;
    auto a = b.input("a", ir::Shape({2, 5, 8}));
    auto c = b.input("c", ir::Shape({2, 3, 8}));
    auto y = b.batchMatMul(a, c, /*trans_b=*/true);
    b.markOutput(y);
    auto g = b.finish();
    const ir::Node &mm = g.node(g.value(y).producer);
    EXPECT_EQ(reductionDims(g, mm, 1), (std::vector<int>{2}));
}

TEST(ReductionDims, ConvChannels)
{
    ir::GraphBuilder b;
    auto x = b.input("x", ir::Shape({1, 8, 6, 6}));
    auto w = b.constant("w", ir::Shape({4, 8, 3, 3}));
    auto y = b.conv2d(x, w, 1, 1);
    b.markOutput(y);
    auto g = b.finish();
    const ir::Node &conv = g.node(g.value(y).producer);
    EXPECT_EQ(reductionDims(g, conv, 0), (std::vector<int>{1}));
    EXPECT_EQ(preferredContiguousDim(g, conv, 0), 1);
}

TEST(ReductionDims, SoftmaxAxis)
{
    ir::GraphBuilder b;
    auto x = b.input("x", ir::Shape({2, 5, 7}));
    auto y = b.softmax(x, 1);
    b.markOutput(y);
    auto g = b.finish();
    const ir::Node &sm = g.node(g.value(y).producer);
    EXPECT_EQ(reductionDims(g, sm, 0), (std::vector<int>{1}));
}

TEST(ReductionDims, ElementwiseHasNone)
{
    ir::GraphBuilder b;
    auto x = b.input("x", ir::Shape({2, 5}));
    auto y = b.unary(OpKind::Relu, x);
    b.markOutput(y);
    auto g = b.finish();
    const ir::Node &n = g.node(g.value(y).producer);
    EXPECT_TRUE(reductionDims(g, n, 0).empty());
    EXPECT_EQ(preferredContiguousDim(g, n, 0), 1); // innermost fallback
}

TEST(Names, HumanReadable)
{
    EXPECT_EQ(opClassName(ildVariable), "ILD & Variable");
    EXPECT_EQ(opClassName(iliFixed), "ILI & Fixed");
    EXPECT_EQ(pairActionName(PairAction::EliminateBoth),
              "Eliminate both");
    EXPECT_EQ(searchPolicyName(SearchPolicy::SearchFused),
              "Search fused");
}

} // namespace
} // namespace smartmem::opclass
