/**
 * @file
 * Unit tests for the IR: operator kinds, shapes, layouts, graph
 * building, shape inference and MAC counting.
 */
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <utility>

#include "index/index_map.h"
#include "ir/graph.h"
#include "ir/layout.h"
#include "ir/macs.h"
#include "ir/shape.h"
#include "ir/shape_infer.h"
#include "support/error.h"

namespace smartmem::ir {
namespace {

TEST(OpKind, NamesSpellEnumeratorsAndRoundTrip)
{
    const std::pair<OpKind, const char *> kinds[] = {
        {OpKind::Input, "Input"},
        {OpKind::Constant, "Constant"},
        {OpKind::Conv2d, "Conv2d"},
        {OpKind::DepthwiseConv2d, "DepthwiseConv2d"},
        {OpKind::GroupConv2d, "GroupConv2d"},
        {OpKind::MatMul, "MatMul"},
        {OpKind::BatchMatMul, "BatchMatMul"},
        {OpKind::LayerNorm, "LayerNorm"},
        {OpKind::InstanceNorm, "InstanceNorm"},
        {OpKind::BatchNorm, "BatchNorm"},
        {OpKind::Softmax, "Softmax"},
        {OpKind::ReduceSum, "ReduceSum"},
        {OpKind::ReduceMean, "ReduceMean"},
        {OpKind::ReduceMax, "ReduceMax"},
        {OpKind::MaxPool2d, "MaxPool2d"},
        {OpKind::AvgPool2d, "AvgPool2d"},
        {OpKind::GlobalAvgPool, "GlobalAvgPool"},
        {OpKind::Relu, "Relu"},
        {OpKind::Gelu, "Gelu"},
        {OpKind::Silu, "Silu"},
        {OpKind::Sigmoid, "Sigmoid"},
        {OpKind::Tanh, "Tanh"},
        {OpKind::Exp, "Exp"},
        {OpKind::Sqrt, "Sqrt"},
        {OpKind::Neg, "Neg"},
        {OpKind::Identity, "Identity"},
        {OpKind::Scale, "Scale"},
        {OpKind::Add, "Add"},
        {OpKind::Sub, "Sub"},
        {OpKind::Mul, "Mul"},
        {OpKind::Div, "Div"},
        {OpKind::Reshape, "Reshape"},
        {OpKind::Transpose, "Transpose"},
        {OpKind::DepthToSpace, "DepthToSpace"},
        {OpKind::SpaceToDepth, "SpaceToDepth"},
        {OpKind::Gather, "Gather"},
        {OpKind::Slice, "Slice"},
        {OpKind::Concat, "Concat"},
        {OpKind::Pad, "Pad"},
        {OpKind::FusedAttention, "FusedAttention"},
    };
    ASSERT_EQ(std::size(kinds), static_cast<std::size_t>(kLastOpKind) + 1);
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
        const auto &[kind, name] = kinds[i];
        EXPECT_EQ(kind, static_cast<OpKind>(i)) << name;
        EXPECT_EQ(opKindName(kind), name);
        EXPECT_EQ(opKindFromName(name), kind);
    }
    EXPECT_FALSE(isOpKindName("Relu6"));
    EXPECT_THROW(opKindFromName("Relu6"), smartmem::FatalError);
}

TEST(OpKind, IndexMapEliminatesExactlyTheDataMovementOps)
{
    const std::set<OpKind> eliminable = {
        OpKind::Reshape, OpKind::Transpose, OpKind::DepthToSpace,
        OpKind::SpaceToDepth, OpKind::Slice, OpKind::Gather,
        OpKind::Identity};
    for (int k = 0; k <= static_cast<int>(kLastOpKind); ++k) {
        const auto kind = static_cast<OpKind>(k);
        EXPECT_EQ(index::IndexMap::isEliminable(kind),
                  eliminable.count(kind) == 1)
            << opKindName(kind);
    }
}

TEST(Shape, BasicProperties)
{
    Shape s({2, 3, 4});
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s.numElements(), 24);
    EXPECT_EQ(s.dim(1), 3);
    EXPECT_EQ(s.toString(), "[2, 3, 4]");
}

TEST(Shape, RejectsZeroExtent)
{
    EXPECT_THROW(Shape({2, 0}), smartmem::FatalError);
}

TEST(Shape, RowMajorStrides)
{
    Shape s({2, 3, 4});
    auto strides = s.rowMajorStrides();
    EXPECT_EQ(strides, (std::vector<std::int64_t>{12, 4, 1}));
}

TEST(Shape, LinearizeDelinearizeRoundTrip)
{
    Shape s({3, 5, 7});
    for (std::int64_t i = 0; i < s.numElements(); ++i) {
        auto c = delinearize(i, s);
        EXPECT_EQ(linearize(c, s), i);
    }
}

TEST(Shape, BroadcastRules)
{
    EXPECT_EQ(broadcastShapes(Shape({4, 1}), Shape({1, 5})),
              Shape({4, 5}));
    EXPECT_EQ(broadcastShapes(Shape({2, 3}), Shape({3})), Shape({2, 3}));
    EXPECT_THROW(broadcastShapes(Shape({2}), Shape({3})),
                 smartmem::FatalError);
}

TEST(Layout, RowMajorStridesMatchShape)
{
    Shape s({2, 3, 4});
    Layout l = Layout::rowMajor(3);
    EXPECT_EQ(l.strides(s), s.rowMajorStrides());
    EXPECT_EQ(l.storageElements(s), 24);
    EXPECT_TRUE(l.isContiguous(2));
    EXPECT_FALSE(l.isContiguous(0));
}

TEST(Layout, PackedPadsToMultipleOf4)
{
    Shape s({1, 6, 5});
    Layout l = Layout::packed(3, 1);
    // 6 channels -> 2 blocks of 4 -> 8 padded.
    EXPECT_EQ(l.storageElements(s), 1 * 8 * 5);
    EXPECT_TRUE(l.isContiguous(1));
}

TEST(Layout, PackedOffsetInterleavesLanes)
{
    Shape s({1, 8, 3});
    Layout l = Layout::packed(3, 1);
    // Element (0, c, x): lane = c%4 is the innermost axis.
    std::int64_t o0 = physicalOffset({0, 0, 0}, s, l);
    std::int64_t o1 = physicalOffset({0, 1, 0}, s, l);
    EXPECT_EQ(o1 - o0, 1); // next lane is adjacent
    std::int64_t o4 = physicalOffset({0, 4, 0}, s, l);
    EXPECT_GT(o4 - o0, 1); // next block is far
}

TEST(Layout, WithOrderPutsChosenDimInnermost)
{
    Shape s({4, 6, 8});
    Layout l = Layout::withOrder({0, 2, 1});
    auto strides = l.strides(s);
    EXPECT_EQ(strides[1], 1); // dim 1 innermost
    EXPECT_EQ(l.innermostDim(), 1);
}

TEST(Layout, TextureLayoutValidates)
{
    Layout t = Layout::texture(3, 1, 2, 2);
    EXPECT_EQ(t.space(), MemSpace::Texture);
    EXPECT_EQ(t.texDimX(), 2);
    EXPECT_EQ(t.texDimY(), 1);
    EXPECT_NO_THROW(t.validate(3));
}

TEST(Layout, OffsetsAreUniqueBijection)
{
    Shape s({3, 5, 7});
    for (const Layout &l :
         {Layout::rowMajor(3), Layout::packed(3, 1),
          Layout::withOrder({2, 0, 1}), Layout::texture(3, 0, 2, 2)}) {
        std::set<std::int64_t> seen;
        for (std::int64_t i = 0; i < s.numElements(); ++i) {
            auto off = physicalOffset(delinearize(i, s), s, l);
            EXPECT_TRUE(seen.insert(off).second)
                << "duplicate offset in " << l.toString();
            EXPECT_GE(off, 0);
            EXPECT_LT(off, l.storageElements(s));
        }
    }
}

TEST(GraphBuilder, BuildsAndVerifiesSmallGraph)
{
    GraphBuilder b;
    ValueId x = b.input("x", Shape({1, 8, 16, 16}));
    ValueId w = b.constant("w", Shape({4, 8, 3, 3}));
    ValueId y = b.conv2d(x, w, 1, 1);
    ValueId z = b.unary(OpKind::Relu, y);
    b.markOutput(z);
    Graph g = b.finish();
    EXPECT_EQ(g.operatorCount(), 2);
    EXPECT_EQ(g.value(z).shape, Shape({1, 4, 16, 16}));
}

TEST(GraphBuilder, ConsumersAndTopoOrder)
{
    GraphBuilder b;
    ValueId x = b.input("x", Shape({4, 4}));
    ValueId a = b.unary(OpKind::Relu, x);
    ValueId c = b.binary(OpKind::Add, a, x);
    b.markOutput(c);
    Graph g = b.finish();
    auto consumers = g.consumers(x);
    EXPECT_EQ(consumers.size(), 2u);
    auto topo = g.topoOrder();
    EXPECT_EQ(topo.size(), g.nodes().size());
}

TEST(GraphBuilder, ConsumerIndexMatchesConsumers)
{
    GraphBuilder b;
    ValueId x = b.input("x", Shape({4, 4}));
    ValueId a = b.unary(OpKind::Relu, x);
    ValueId sq = b.binary(OpKind::Mul, a, a); // one consumer, twice
    ValueId c = b.binary(OpKind::Add, sq, x);
    b.unary(OpKind::Exp, x);                  // dead, still a consumer
    b.markOutput(c);
    Graph g = b.finish();
    const ir::ConsumerIndex index(g);
    for (const ir::Value &v : g.values()) {
        SCOPED_TRACE("value " + std::to_string(v.id));
        const auto range = index.of(v.id);
        EXPECT_EQ(std::vector<ir::NodeId>(range.begin(), range.end()),
                  g.consumers(v.id));
    }
    EXPECT_EQ(index.of(x).size(), 3u);
    EXPECT_EQ(index.of(a).size(), 1u);
    EXPECT_EQ(index.of(c).size(), 0u);
}

TEST(ShapeInfer, ConvWindowArithmetic)
{
    Attrs a;
    a.set("stride", 2).set("pad", 1).set("groups", 1);
    Shape out = inferShape(OpKind::Conv2d,
                           {Shape({1, 3, 224, 224}), Shape({64, 3, 7, 7})},
                           Attrs(a).set("stride", 2).set("pad", 3));
    EXPECT_EQ(out, Shape({1, 64, 112, 112}));
}

TEST(ShapeInfer, ConvRejectsChannelMismatch)
{
    Attrs a;
    a.set("stride", 1).set("pad", 0).set("groups", 1);
    EXPECT_THROW(
        inferShape(OpKind::Conv2d,
                   {Shape({1, 3, 8, 8}), Shape({4, 5, 3, 3})}, a),
        smartmem::FatalError);
}

TEST(ShapeInfer, MatMulShapes)
{
    Attrs a;
    a.set("transB", 0);
    EXPECT_EQ(inferShape(OpKind::MatMul,
                         {Shape({2, 5, 8}), Shape({8, 3})}, a),
              Shape({2, 5, 3}));
    Attrs t;
    t.set("transB", 1);
    EXPECT_EQ(inferShape(OpKind::BatchMatMul,
                         {Shape({4, 5, 8}), Shape({4, 9, 8})}, t),
              Shape({4, 5, 9}));
}

TEST(ShapeInfer, ReshapeChecksElementCount)
{
    Attrs a;
    a.set("shape", std::vector<std::int64_t>{4, 5});
    EXPECT_THROW(inferShape(OpKind::Reshape, {Shape({3, 7})}, a),
                 smartmem::FatalError);
}

TEST(ShapeInfer, TransposePermutes)
{
    Attrs a;
    a.set("perm", std::vector<std::int64_t>{2, 0, 1});
    EXPECT_EQ(inferShape(OpKind::Transpose, {Shape({2, 3, 4})}, a),
              Shape({4, 2, 3}));
}

TEST(ShapeInfer, DepthSpaceRoundTrip)
{
    Attrs a;
    a.set("block", 2);
    Shape in({1, 8, 4, 4});
    Shape mid = inferShape(OpKind::DepthToSpace, {in}, a);
    EXPECT_EQ(mid, Shape({1, 2, 8, 8}));
    EXPECT_EQ(inferShape(OpKind::SpaceToDepth, {mid}, a), in);
}

TEST(ShapeInfer, GatherInsertIndexDims)
{
    Attrs a;
    a.set("axis", 0);
    EXPECT_EQ(inferShape(OpKind::Gather,
                         {Shape({10, 6}), Shape({3, 2})}, a),
              Shape({3, 2, 6}));
}

TEST(ShapeInfer, SliceAndConcatAndPad)
{
    Attrs s;
    s.set("axes", std::vector<std::int64_t>{1})
        .set("starts", std::vector<std::int64_t>{2})
        .set("ends", std::vector<std::int64_t>{5});
    EXPECT_EQ(inferShape(OpKind::Slice, {Shape({2, 8})}, s),
              Shape({2, 3}));

    Attrs c;
    c.set("axis", 1);
    EXPECT_EQ(inferShape(OpKind::Concat,
                         {Shape({2, 3}), Shape({2, 5})}, c),
              Shape({2, 8}));

    Attrs p;
    p.set("pads", std::vector<std::int64_t>{0, 0, 1, 2});
    EXPECT_EQ(inferShape(OpKind::Pad, {Shape({2, 3})}, p),
              Shape({2, 6}));
}

TEST(ShapeInfer, PadRejectsNegativeEntries)
{
    // [0, 0, 1, -1] keeps the shape but shifts the row: it must not
    // pass for an all-zero pad.
    for (std::vector<std::int64_t> pads :
         {std::vector<std::int64_t>{0, 0, 1, -1},
          std::vector<std::int64_t>{0, 0, 2, -1},
          std::vector<std::int64_t>{-1, 0, 0, 0}}) {
        Attrs p;
        p.set("pads", pads);
        EXPECT_THROW(inferShape(OpKind::Pad, {Shape({2, 4})}, p),
                     FatalError);
        GraphBuilder b;
        ValueId x = b.input("x", Shape({2, 4}));
        EXPECT_THROW(b.pad(x, pads), FatalError);
    }
}

TEST(Macs, ConvAndMatMulCounts)
{
    GraphBuilder b;
    ValueId x = b.input("x", Shape({1, 8, 4, 4}));
    ValueId w = b.constant("w", Shape({16, 8, 3, 3}));
    ValueId y = b.conv2d(x, w, 1, 1);
    b.markOutput(y);
    Graph g = b.finish();
    // out 1x16x4x4 elements, each needing 8*3*3 MACs.
    EXPECT_EQ(graphMacs(g), 16 * 4 * 4 * 8 * 3 * 3);
}

TEST(Macs, LayoutOpsAreFree)
{
    GraphBuilder b;
    ValueId x = b.input("x", Shape({2, 6}));
    ValueId y = b.transpose(x, {1, 0});
    ValueId z = b.reshape(y, {12});
    b.markOutput(z);
    Graph g = b.finish();
    EXPECT_EQ(graphMacs(g), 0);
    EXPECT_EQ(g.layoutTransformCount(), 2);
}

TEST(Graph, PrintedFormContainsOps)
{
    GraphBuilder b;
    ValueId x = b.input("x", Shape({2, 6}));
    b.markOutput(b.unary(OpKind::Relu, x));
    Graph g = b.finish();
    auto s = g.toString();
    EXPECT_NE(s.find("Relu"), std::string::npos);
}

} // namespace
} // namespace smartmem::ir
