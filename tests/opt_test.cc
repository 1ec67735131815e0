/**
 * @file
 * Tests for the graph-level pass framework.
 */
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "opt/pass.h"
#include "support/error.h"

namespace smartmem::opt {
namespace {

using ir::GraphBuilder;
using ir::OpKind;
using ir::Shape;

TEST(Dce, RemovesUnreachableNodes)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({4}));
    auto live = b.unary(OpKind::Relu, x);
    b.unary(OpKind::Exp, x); // dead
    b.markOutput(live);
    auto g = b.finish();
    EXPECT_EQ(g.operatorCount(), 2);
    auto out = DeadCodeElim().run(g);
    EXPECT_EQ(out.operatorCount(), 1);
    EXPECT_EQ(out.countKind(OpKind::Exp), 0);
}

TEST(Dce, KeepsEverythingWhenAllLive)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({4}));
    auto y = b.unary(OpKind::Relu, x);
    b.markOutput(y);
    auto g = b.finish();
    auto out = DeadCodeElim().run(g);
    EXPECT_EQ(out.operatorCount(), g.operatorCount());
}

TEST(IdentityElim, DropsIdentityAndNoopTransforms)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 3}));
    auto i1 = b.unary(OpKind::Identity, x);
    auto r = b.reshape(i1, {2, 3});          // same shape -> no-op
    auto t = b.transpose(r, {0, 1});         // identity perm -> no-op
    auto y = b.unary(OpKind::Relu, t);
    b.markOutput(y);
    auto g = b.finish();
    auto out = IdentityElim().run(g);
    EXPECT_EQ(out.operatorCount(), 1);
    EXPECT_EQ(out.countKind(OpKind::Reshape), 0);
}

TEST(IdentityElim, KeepsRealTransforms)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 3}));
    auto t = b.transpose(x, {1, 0});
    b.markOutput(t);
    auto g = b.finish();
    auto out = IdentityElim().run(g);
    EXPECT_EQ(out.countKind(OpKind::Transpose), 1);
}

TEST(PassManager, RunsInSequenceAndVerifies)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({4}));
    auto i = b.unary(OpKind::Identity, x);
    auto y = b.unary(OpKind::Relu, i);
    b.unary(OpKind::Exp, i); // dead
    b.markOutput(y);
    auto g = b.finish();

    PassManager pm;
    pm.add(std::make_unique<IdentityElim>());
    pm.add(std::make_unique<DeadCodeElim>());
    auto out = pm.run(g);
    EXPECT_EQ(out.operatorCount(), 1);
}

TEST(Rewrite, PreservesSemantics)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({3, 4}));
    auto i = b.unary(OpKind::Identity, x);
    auto y = b.binary(OpKind::Add, i, x);
    b.markOutput(y);
    auto g = b.finish();

    auto rewritten = IdentityElim().run(g);

    exec::Executor ex(7);
    auto in = ex.randomTensor(Shape({3, 4}), 1);
    auto ref = ex.runOutputs(g, {{g.inputIds()[0], in}})[0];
    auto got =
        ex.runOutputs(rewritten, {{rewritten.inputIds()[0], in}})[0];
    EXPECT_EQ(exec::maxAbsDiff(ref, got), 0.0f);
}

TEST(Rewrite, PreservesConstantPayloads)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({4, 2}));
    auto idx = b.constantData("idx", Shape({2}), {3, 1});
    auto i = b.unary(OpKind::Identity, x);
    auto y = b.gather(i, idx, 0);
    b.markOutput(y);
    auto g = b.finish();
    auto out = IdentityElim().run(g);
    // The gather's constant index data must survive the rewrite.
    bool found = false;
    for (const auto &n : out.nodes()) {
        if (n.kind == OpKind::Constant && n.attrs.has("data")) {
            EXPECT_EQ(n.attrs.getInts("data"),
                      (std::vector<std::int64_t>{3, 1}));
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Cse, MergesDuplicateOpsAndLiteralConstants)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({4}));
    auto g1 = b.unary(OpKind::Gelu, x);
    auto g2 = b.unary(OpKind::Gelu, x); // duplicate op
    auto c1 = b.constantData("a", Shape({4}), {1, 2, 3, 4},
                             ir::DType::F16);
    auto c2 = b.constantData("b", Shape({4}), {1, 2, 3, 4},
                             ir::DType::F16); // duplicate payload
    auto y = b.binary(OpKind::Add, b.binary(OpKind::Add, g1, g2),
                      b.binary(OpKind::Add, c1, c2));
    b.markOutput(y);
    auto g = b.finish();

    PassStats stats;
    auto out = CommonSubexprElim().run(g, stats);
    EXPECT_TRUE(stats.changed);
    EXPECT_EQ(stats.nodesRemoved, 2);
    EXPECT_EQ(DeadCodeElim().run(out).countKind(OpKind::Gelu), 1);

    exec::Executor ex(7);
    auto ref = ex.runOutputs(g, exec::makeSeededInputs(g, ex));
    auto got = ex.runOutputs(out, exec::makeSeededInputs(out, ex));
    EXPECT_EQ(exec::maxRelDiff(ref, got), 0.0f);
}

TEST(Cse, MergesCommutedAddAndMulOperands)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({4}));
    auto g1 = b.unary(OpKind::Gelu, x);
    auto s1 = b.unary(OpKind::Sigmoid, x);
    // Same commutative op, operands in opposite order: one value.
    auto a1 = b.binary(OpKind::Add, g1, s1);
    auto a2 = b.binary(OpKind::Add, s1, g1);
    auto m1 = b.binary(OpKind::Mul, g1, s1);
    auto m2 = b.binary(OpKind::Mul, s1, g1);
    // Sub is NOT commutative and must stay duplicated.
    auto d1 = b.binary(OpKind::Sub, g1, s1);
    auto d2 = b.binary(OpKind::Sub, s1, g1);
    auto y = b.binary(
        OpKind::Add, b.binary(OpKind::Add, a1, a2),
        b.binary(OpKind::Add, b.binary(OpKind::Mul, m1, m2),
                 b.binary(OpKind::Mul, d1, d2)));
    b.markOutput(y);
    auto g = b.finish();

    PassStats stats;
    auto out = CommonSubexprElim().run(g, stats);
    EXPECT_TRUE(stats.changed);
    EXPECT_EQ(stats.nodesRemoved, 2); // a2 -> a1, m2 -> m1, not d2

    exec::Executor ex(7);
    auto ref = ex.runOutputs(g, exec::makeSeededInputs(g, ex));
    auto got = ex.runOutputs(out, exec::makeSeededInputs(out, ex));
    EXPECT_EQ(exec::maxRelDiff(ref, got), 0.0f);
}

TEST(Cse, NeverMergesSynthesizedConstants)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({4, 4}));
    // Identical shape/dtype, but distinct value streams: these are
    // different weights and must never be merged.
    auto w1 = b.constant("w1", Shape({4, 4}));
    auto w2 = b.constant("w2", Shape({4, 4}));
    auto y = b.binary(OpKind::Add, b.matmul(x, w1), b.matmul(x, w2));
    b.markOutput(y);
    auto g = b.finish();

    PassStats stats;
    CommonSubexprElim().run(g, stats);
    EXPECT_FALSE(stats.changed);
}

TEST(Cse, KeepsLiteralConstantsApartByShapeAndDtype)
{
    GraphBuilder b;
    const std::vector<std::int64_t> payload = {1, 2, 3, 4};
    auto c1 = b.constantData("a", Shape({4}), payload, ir::DType::F16);
    auto c2 = b.constantData("b", Shape({2, 2}), payload, ir::DType::F16);
    auto c3 = b.constantData("c", Shape({4}), payload, ir::DType::I32);
    auto c4 = b.constantData("d", Shape({4}), payload, ir::DType::F16);
    for (auto c : {c1, c2, c3, c4})
        b.markOutput(c);
    auto g = b.finish();

    PassStats stats;
    auto out = CommonSubexprElim().run(g, stats);
    EXPECT_EQ(stats.nodesRemoved, 1); // only d merges into a
    EXPECT_EQ(out.outputIds()[3], out.outputIds()[0]);
    EXPECT_NE(out.outputIds()[1], out.outputIds()[0]);
    EXPECT_NE(out.outputIds()[2], out.outputIds()[0]);
}

TEST(Cse, KeepsOperatorsApartByAttributes)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 3, 4}));
    auto attrs = [](std::vector<std::pair<std::string,
                                          std::vector<std::int64_t>>> kv) {
        ir::Attrs a;
        for (auto &[k, v] : kv)
            a.set(k, v);
        return a;
    };
    const std::vector<ir::ValueId> kept = {
        b.transpose(x, {0, 2, 1}),
        b.transpose(x, {1, 0, 2}),
        b.softmax(x, 1),
        b.softmax(x, 2),
        // An extra key, and one list split across two keys.
        b.addNode(OpKind::Softmax, {x}, attrs({{"axis", {2}}, {"k", {0}}})),
        b.addNode(OpKind::Relu, {x}, attrs({{"a", {1, 2}}, {"b", {}}})),
        b.addNode(OpKind::Relu, {x}, attrs({{"a", {1}}, {"b", {2}}})),
    };
    auto dup = b.softmax(x, 2); // the one true duplicate
    for (auto v : kept)
        b.markOutput(v);
    b.markOutput(dup);
    auto g = b.finish();

    PassStats stats;
    auto out = CommonSubexprElim().run(g, stats);
    EXPECT_EQ(stats.nodesRemoved, 1);
    const auto &outs = out.outputIds();
    EXPECT_EQ(outs.back(), outs[3]);
    for (std::size_t i = 0; i < kept.size(); ++i)
        for (std::size_t j = i + 1; j < kept.size(); ++j)
            EXPECT_NE(outs[i], outs[j]) << i << " vs " << j;
}

/** A graph every pass inspects and none rewrites. */
ir::Graph
settledGraph()
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 3}));
    auto idx = b.constantData("idx", Shape({2}), {1, 0});
    auto t = b.transpose(x, {1, 0});
    auto s = b.binary(OpKind::Add, b.gather(t, idx, 0),
                      b.constant("bias", Shape({2, 2})));
    b.markOutput(b.unary(OpKind::Relu, s));
    return b.finish();
}

TEST(PassContract, UnchangedGraphKeepsItsNodeBuffer)
{
    for (const std::string &name : PassManager::passNames()) {
        SCOPED_TRACE(name);
        ir::Graph g = settledGraph();
        const ir::Node *buffer = g.nodes().data();
        PassStats stats;
        ir::Graph out = PassManager::create(name)->run(std::move(g), stats);
        EXPECT_FALSE(stats.changed);
        EXPECT_EQ(stats.total(), 0);
        EXPECT_EQ(out.nodes().data(), buffer);
    }
    // A sweep that changes nothing moves the graph through every pass.
    ir::Graph g = settledGraph();
    const ir::Node *buffer = g.nodes().data();
    PipelineStats stats;
    ir::Graph out =
        PassManager::defaultPipeline().runToFixedPoint(std::move(g), &stats);
    EXPECT_FALSE(stats.changed());
    EXPECT_EQ(stats.iterations, 1);
    EXPECT_EQ(out.nodes().data(), buffer);
}

TEST(ConstantFoldPass, FoldsGatherOverLiteralTable)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2}));
    auto table = b.constantData("t", Shape({4}), {10, 20, 30, 40},
                                ir::DType::F16);
    auto idx = b.constantData("i", Shape({2}), {3, 0});
    auto y = b.binary(OpKind::Add, x, b.gather(table, idx, 0));
    b.markOutput(y);
    auto g = b.finish();

    PassStats stats;
    auto out = ConstantFold().run(g, stats);
    EXPECT_TRUE(stats.changed);
    EXPECT_EQ(stats.nodesFolded, 1);
    out = DeadCodeElim().run(out);
    EXPECT_EQ(out.countKind(OpKind::Gather), 0);

    exec::Executor ex(7);
    auto ref = ex.runOutputs(g, exec::makeSeededInputs(g, ex));
    auto got = ex.runOutputs(out, exec::makeSeededInputs(out, ex));
    EXPECT_EQ(exec::maxRelDiff(ref, got), 0.0f);
}

TEST(ConstantFoldPass, DerivedGatherRecipeIsSeedInvariant)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({3}));
    auto table = b.constant("t", Shape({8})); // synthesized
    auto idx = b.constantData("i", Shape({3}), {5, 2, 5});
    auto y = b.binary(OpKind::Add, x, b.gather(table, idx, 0));
    b.markOutput(y);
    auto g = b.finish();

    PassStats stats;
    auto out = DeadCodeElim().run(ConstantFold().run(g, stats));
    EXPECT_EQ(stats.nodesFolded, 1);
    EXPECT_EQ(out.countKind(OpKind::Gather), 0);

    // The fold is a recipe over the table's stream, so it holds
    // under any executor seed -- not just the one compiled with.
    for (std::uint64_t seed : {7u, 99u, 31337u}) {
        exec::Executor ex(seed);
        auto ref = ex.runOutputs(g, exec::makeSeededInputs(g, ex));
        auto got = ex.runOutputs(out, exec::makeSeededInputs(out, ex));
        EXPECT_EQ(exec::maxRelDiff(ref, got), 0.0f) << "seed " << seed;
    }
}

TEST(Algebraic, DropsNoopsAndCollapsesChains)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 3}));
    ir::Attrs sa;
    sa.set("scale_milli", std::int64_t(1000)); // multiply by one
    auto s = b.addNode(OpKind::Scale, {x}, std::move(sa), "noop");
    auto z = b.constantData("zero", Shape({2, 3}),
                            std::vector<std::int64_t>(6, 0),
                            ir::DType::F16);
    auto a = b.binary(OpKind::Add, s, z); // add literal zero
    auto r = b.reshape(b.reshape(a, {6}), {2, 3});     // reshape chain
    auto t = b.transpose(b.transpose(r, {1, 0}), {1, 0}); // identity
    auto y = b.unary(OpKind::Relu, b.concat({t}, 0));
    b.markOutput(y);
    auto g = b.finish();

    PassStats stats;
    auto out = AlgebraicSimplify().run(g, stats);
    EXPECT_TRUE(stats.changed);
    EXPECT_GT(stats.total(), 0);
    // Everything but the Relu simplifies away (the reshape chain
    // collapses to a same-shape reshape identity-elim then drops).
    out = PassManager::defaultPipeline().runToFixedPoint(out);
    EXPECT_EQ(out.operatorCount(), 1);
    EXPECT_EQ(out.countKind(OpKind::Transpose), 0);
    EXPECT_EQ(out.countKind(OpKind::Concat), 0);
    EXPECT_EQ(out.countKind(OpKind::Scale), 0);

    exec::Executor ex(7);
    auto ref = ex.runOutputs(g, exec::makeSeededInputs(g, ex));
    auto got = ex.runOutputs(out, exec::makeSeededInputs(out, ex));
    EXPECT_EQ(exec::maxRelDiff(ref, got), 0.0f);
}

TEST(ConvBnFoldPass, FoldsAndPreservesNumericsAcrossSeeds)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({1, 4, 6, 6}));
    auto w = b.constant("w", Shape({8, 4, 3, 3}));
    auto conv = b.conv2d(x, w, 1, 1);
    auto scale = b.constant("bn_scale", Shape({8, 1, 1}));
    auto bias = b.constant("bn_bias", Shape({8, 1, 1}));
    auto y = b.unary(OpKind::Relu, b.batchNorm(conv, scale, bias));
    b.markOutput(y);
    auto g = b.finish();

    PassStats stats;
    auto out = DeadCodeElim().run(ConvBatchNormFold().run(g, stats));
    EXPECT_TRUE(stats.changed);
    EXPECT_EQ(stats.nodesFolded, 1);
    EXPECT_EQ(out.countKind(OpKind::BatchNorm), 0);
    EXPECT_EQ(out.countKind(OpKind::Conv2d), 1);
    // The folded conv carries the BN bias as a third input.
    for (const auto &n : out.nodes()) {
        if (n.kind == OpKind::Conv2d) {
            EXPECT_EQ(n.inputs.size(), 3u);
        }
    }

    for (std::uint64_t seed : {7u, 99u, 31337u}) {
        exec::Executor ex(seed);
        auto ref = ex.runOutputs(g, exec::makeSeededInputs(g, ex));
        auto got = ex.runOutputs(out, exec::makeSeededInputs(out, ex));
        EXPECT_LE(exec::maxRelDiff(ref, got), 1e-5f) << "seed " << seed;
    }
}

TEST(ConvBnFoldPass, SkipsConvWithSecondConsumer)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({1, 4, 6, 6}));
    auto w = b.constant("w", Shape({8, 4, 3, 3}));
    auto conv = b.conv2d(x, w, 1, 1);
    auto scale = b.constant("bn_scale", Shape({8, 1, 1}));
    auto bias = b.constant("bn_bias", Shape({8, 1, 1}));
    auto bn = b.batchNorm(conv, scale, bias);
    // The raw conv output escapes: folding would change it.
    auto y = b.binary(OpKind::Add, bn, conv);
    b.markOutput(y);
    auto g = b.finish();

    PassStats stats;
    ConvBatchNormFold().run(g, stats);
    EXPECT_FALSE(stats.changed);
}

TEST(PassManagerRegistry, CreatesByNameAndRejectsUnknown)
{
    for (const std::string &name : PassManager::passNames()) {
        auto pass = PassManager::create(name);
        ASSERT_NE(pass, nullptr);
        EXPECT_EQ(pass->name(), name);
    }
    EXPECT_THROW(PassManager::create("nosuch"), FatalError);
}

} // namespace
} // namespace smartmem::opt
