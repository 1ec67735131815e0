/**
 * @file
 * Unit + property tests for index expressions and IndexMaps -- the
 * index-comprehension machinery of Section 3.2.1.
 */
#include <gtest/gtest.h>

#include "index/expr.h"
#include "index/index_map.h"
#include "ir/graph.h"
#include <functional>

#include "support/rng.h"

namespace smartmem::index {
namespace {

using ir::GraphBuilder;
using ir::OpKind;
using ir::Shape;

TEST(Expr, EvalBasics)
{
    // (v0 * 8 + v1) / 4
    Expr e = makeDiv(makeAdd(makeMul(makeVar(0), makeConst(8)),
                             makeVar(1)), 4);
    EXPECT_EQ(evalExpr(e, {2, 5}), (2 * 8 + 5) / 4);
}

TEST(Expr, RangeAnalysis)
{
    Expr e = makeAdd(makeMul(makeVar(0), makeConst(8)), makeVar(1));
    Range r = exprRange(e, {4, 8});
    EXPECT_EQ(r.lo, 0);
    EXPECT_EQ(r.hi, 3 * 8 + 7);
}

TEST(Expr, PaperStrengthReductionRule)
{
    // i % Ca % Cb -> i % Cb when Ca % Cb == 0 (Section 3.2.1 example).
    Expr e = makeMod(makeMod(makeVar(0), 32), 8);
    Expr s = simplifyExpr(e, {1000});
    EXPECT_EQ(exprToString(s), "(v0 % 8)");
}

TEST(Expr, ModNoOpWhenRangeSmall)
{
    Expr e = makeMod(makeVar(0), 64);
    Expr s = simplifyExpr(e, {16});
    EXPECT_EQ(exprToString(s), "v0");
}

TEST(Expr, DivToZeroWhenRangeSmall)
{
    Expr e = makeDiv(makeVar(0), 64);
    Expr s = simplifyExpr(e, {16});
    EXPECT_EQ(exprToString(s), "0");
}

TEST(Expr, DivOfDivMerges)
{
    Expr e = makeDiv(makeDiv(makeVar(0), 4), 8);
    Expr s = simplifyExpr(e, {1000});
    EXPECT_EQ(exprToString(s), "(v0 / 32)");
}

TEST(Expr, MulAddDivSplits)
{
    // (v0*8 + v1)/8 with v1 < 8 -> v0.
    Expr e = makeDiv(makeAdd(makeMul(makeVar(0), makeConst(8)),
                             makeVar(1)), 8);
    Expr s = simplifyExpr(e, {100, 8});
    EXPECT_EQ(exprToString(s), "v0");
}

TEST(Expr, MulAddModSplits)
{
    // (v0*8 + v1)%8 with v1 < 8 -> v1.
    Expr e = makeMod(makeAdd(makeMul(makeVar(0), makeConst(8)),
                             makeVar(1)), 8);
    Expr s = simplifyExpr(e, {100, 8});
    EXPECT_EQ(exprToString(s), "v1");
}

TEST(Expr, SimplifyIsValuePreserving_Random)
{
    // Random expression trees: simplified form must agree everywhere.
    smartmem::Rng rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::int64_t> extents = {
            rng.uniformInt(1, 12), rng.uniformInt(1, 12),
            rng.uniformInt(1, 12)};
        // Build a random tree of depth <= 5.
        std::function<Expr(int)> gen = [&](int depth) -> Expr {
            if (depth == 0 || rng.chance(0.3)) {
                if (rng.chance(0.5))
                    return makeVar(static_cast<int>(rng.pickIndex(3)));
                return makeConst(rng.uniformInt(0, 9));
            }
            switch (rng.pickIndex(4)) {
              case 0:
                return makeAdd(gen(depth - 1), gen(depth - 1));
              case 1:
                return makeMul(gen(depth - 1),
                               makeConst(rng.uniformInt(1, 9)));
              case 2:
                return makeDiv(gen(depth - 1), rng.uniformInt(1, 9));
              default:
                return makeMod(gen(depth - 1), rng.uniformInt(1, 9));
            }
        };
        Expr e = gen(5);
        Expr s = simplifyExpr(e, extents);
        EXPECT_LE(divModCount(s), divModCount(e));
        for (int pt = 0; pt < 20; ++pt) {
            std::vector<std::int64_t> vars = {
                rng.uniformInt(0, extents[0] - 1),
                rng.uniformInt(0, extents[1] - 1),
                rng.uniformInt(0, extents[2] - 1)};
            ASSERT_EQ(evalExpr(e, vars), evalExpr(s, vars))
                << exprToString(e) << " vs " << exprToString(s);
        }
    }
}

TEST(Expr, SubstituteReplacesVars)
{
    Expr e = makeAdd(makeVar(0), makeMul(makeVar(1), makeConst(3)));
    Expr r = substitute(e, {makeConst(2), makeVar(0)});
    EXPECT_EQ(evalExpr(r, {5}), 2 + 5 * 3);
}

TEST(Expr, LookupEvaluatesTable)
{
    auto table = std::make_shared<const std::vector<std::int64_t>>(
        std::vector<std::int64_t>{7, 5, 3});
    Expr e = makeLookup(table, makeVar(0));
    EXPECT_EQ(evalExpr(e, {2}), 3);
}

// ---------------------------------------------------------------
// IndexMap: per-operator maps validated against reference semantics.
// ---------------------------------------------------------------

/** Reference: the input coordinate holding out element (row-major
 *  data-preserving reshape). */
std::vector<std::int64_t>
reshapeRef(const std::vector<std::int64_t> &out_coord,
           const Shape &out_shape, const Shape &in_shape)
{
    return ir::delinearize(ir::linearize(out_coord, out_shape),
                           in_shape);
}

TEST(IndexMap, ReshapeMatchesRowMajorReference)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 256, 4}));
    auto y = b.reshape(x, {16, 8, 4, 4});
    b.markOutput(y);
    auto g = b.finish();
    IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer))
                     .simplified();
    for (std::int64_t i = 0; i < 16 * 8 * 4 * 4; ++i) {
        auto oc = ir::delinearize(i, Shape({16, 8, 4, 4}));
        EXPECT_EQ(m.apply(oc),
                  reshapeRef(oc, Shape({16, 8, 4, 4}),
                             Shape({2, 256, 4})));
    }
}

TEST(IndexMap, TransposeMatchesPermutation)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({3, 4, 5}));
    auto y = b.transpose(x, {2, 0, 1});
    b.markOutput(y);
    auto g = b.finish();
    IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer));
    // out[i,j,k] = in[j,k,i]  (out dim 0 carries in dim 2, etc.)
    EXPECT_EQ(m.apply({4, 2, 3}), (std::vector<std::int64_t>{2, 3, 4}));
}

TEST(IndexMap, SliceOffsets)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({4, 10}));
    auto y = b.slice(x, {1}, {3}, {7});
    b.markOutput(y);
    auto g = b.finish();
    IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer));
    EXPECT_EQ(m.apply({2, 0}), (std::vector<std::int64_t>{2, 3}));
}

TEST(IndexMap, GatherUsesConstantIndices)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({10, 3}));
    auto idx = b.constantData("idx", Shape({4}), {9, 0, 2, 2});
    auto y = b.gather(x, idx, 0);
    b.markOutput(y);
    auto g = b.finish();
    IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer));
    EXPECT_EQ(m.apply({0, 1}), (std::vector<std::int64_t>{9, 1}));
    EXPECT_EQ(m.apply({3, 2}), (std::vector<std::int64_t>{2, 2}));
}

TEST(IndexMap, DepthToSpaceThenSpaceToDepthIsIdentity)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({1, 8, 4, 4}));
    auto y = b.depthToSpace(x, 2);
    auto z = b.spaceToDepth(y, 2);
    b.markOutput(z);
    auto g = b.finish();
    IndexMap m1 = IndexMap::fromNode(g, g.node(g.value(y).producer));
    IndexMap m2 = IndexMap::fromNode(g, g.node(g.value(z).producer));
    IndexMap comp = m2.composedWith(m1).simplified();
    EXPECT_TRUE(comp.isIdentity()) << comp.toString();
}

TEST(IndexMap, ReshapeInverseComposesToIdentity)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({6, 10}));
    auto y = b.reshape(x, {2, 3, 10});
    auto z = b.reshape(y, {6, 10});
    b.markOutput(z);
    auto g = b.finish();
    IndexMap m1 = IndexMap::fromNode(g, g.node(g.value(y).producer));
    IndexMap m2 = IndexMap::fromNode(g, g.node(g.value(z).producer));
    EXPECT_TRUE(m2.composedWith(m1).isIdentity());
}

TEST(IndexMap, SimplificationReducesDivMods)
{
    // Figure 3's stack: Reshape [2,256,4] -> [16,8,4,4] then a
    // Transpose; strength reduction must shrink the index arithmetic.
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 256, 4}));
    auto y = b.reshape(x, {16, 8, 4, 4});
    auto z = b.transpose(y, {0, 2, 1, 3});
    b.markOutput(z);
    auto g = b.finish();
    IndexMap m1 = IndexMap::fromNode(g, g.node(g.value(y).producer));
    IndexMap m2 = IndexMap::fromNode(g, g.node(g.value(z).producer));
    IndexMap comp = m2.composedWith(m1);
    IndexMap simp = comp.simplified();
    EXPECT_LT(simp.divModCount(), comp.divModCount());
    // And it is still value-correct.
    for (std::int64_t i = 0; i < comp.outputShape().numElements();
         i += 7) {
        auto oc = ir::delinearize(i, comp.outputShape());
        EXPECT_EQ(simp.apply(oc), comp.apply(oc));
    }
}

TEST(IndexMap, DependencyClassification)
{
    // Figure 3: reshape [2,256,4] -> [16,8,4,4] creates split/merge
    // dependencies.
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 256, 4}));
    auto y = b.reshape(x, {16, 8, 4, 4});
    b.markOutput(y);
    auto g = b.finish();
    IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer))
                     .simplified();
    // in dim 2 (extent 4) maps from the last out var: identity-ish or
    // split; in dim 1 (256) merges several out vars.
    EXPECT_EQ(m.classify(1), DepKind::Merge);
    EXPECT_EQ(m.classify(2), DepKind::Identity);
}

TEST(IndexMap, IdentityDetection)
{
    IndexMap m = IndexMap::identity(Shape({3, 4}));
    EXPECT_TRUE(m.isIdentity());
    EXPECT_EQ(m.divModCount(), 0);
}

} // namespace
} // namespace smartmem::index
