/**
 * @file
 * Tests for the functional reference executor: each kernel against
 * hand-computed expectations.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "exec/executor.h"
#include "ir/graph.h"
#include "support/error.h"

namespace smartmem::exec {
namespace {

using ir::GraphBuilder;
using ir::OpKind;
using ir::Shape;

Tensor
fill(const Shape &s, std::vector<float> data)
{
    Tensor t(s);
    for (std::size_t i = 0; i < data.size(); ++i)
        t.at(static_cast<std::int64_t>(i)) = data[i];
    return t;
}

/** Run a single-op graph on explicit inputs. */
template <typename BuildFn>
Tensor
run1(BuildFn &&build, const std::vector<std::pair<Shape, Tensor>> &ins)
{
    GraphBuilder b;
    std::vector<ir::ValueId> ids;
    for (std::size_t i = 0; i < ins.size(); ++i)
        ids.push_back(b.input("in" + std::to_string(i), ins[i].first));
    ir::ValueId out = build(b, ids);
    b.markOutput(out);
    auto g = b.finish();
    Executor ex(1);
    std::map<ir::ValueId, Tensor> env;
    for (std::size_t i = 0; i < ins.size(); ++i)
        env[ids[i]] = ins[i].second;
    return ex.runOutputs(g, env)[0];
}

TEST(Exec, ElementwiseFormulas)
{
    // Every unary kind on x = {-2, -0.5, 0, 1.5}, against values
    // computed by hand in double precision.
    const Shape s({4});
    const Tensor x = fill(s, {-2, -0.5f, 0, 1.5f});
    struct UnaryCase
    {
        OpKind kind;
        std::int64_t scaleMilli; // 0 = attribute absent
        std::vector<float> want;
    };
    const std::vector<UnaryCase> unary = {
        {OpKind::Relu, 0, {0, 0, 0, 1.5f}},
        // The tanh form 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715x^3))),
        // not the erf form x * Phi(x) (-0.0455003 at x = -2).
        {OpKind::Gelu, 0, {-0.04540231f, -0.154286f, 0, 1.399572f}},
        {OpKind::Silu, 0, {-0.2384058f, -0.1887703f, 0, 1.226362f}},
        {OpKind::Sigmoid, 0, {0.1192029f, 0.3775407f, 0.5f, 0.8175745f}},
        {OpKind::Tanh, 0, {-0.9640276f, -0.4621172f, 0, 0.9051483f}},
        {OpKind::Exp, 0, {0.1353353f, 0.6065307f, 1, 4.481689f}},
        // Negative inputs clamp to 0 instead of producing NaN.
        {OpKind::Sqrt, 0, {0, 0, 0, 1.224745f}},
        {OpKind::Neg, 0, {2, 0.5f, 0, -1.5f}},
        {OpKind::Identity, 0, {-2, -0.5f, 0, 1.5f}},
        {OpKind::Scale, 0, {-2, -0.5f, 0, 1.5f}},
        {OpKind::Scale, 2500, {-5, -1.25f, 0, 3.75f}},
    };
    for (const UnaryCase &c : unary) {
        SCOPED_TRACE(ir::opKindName(c.kind) + " scale_milli " +
                     std::to_string(c.scaleMilli));
        ir::Attrs attrs;
        if (c.scaleMilli != 0)
            attrs.set("scale_milli", c.scaleMilli);
        Tensor y = run1(
            [&](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
                return b.addNode(c.kind, {v[0]}, attrs);
            },
            {{s, x}});
        for (std::int64_t i = 0; i < 4; ++i)
            EXPECT_NEAR(y.at(i), c.want[static_cast<std::size_t>(i)],
                        1e-5);
    }

    // Every binary kind with the [3] operand broadcast on either side,
    // which pins the operand order of Sub and Div.
    const Shape wide({2, 3});
    const Shape row({3});
    const Tensor a = fill(wide, {1, 2, 3, 4, 5, 6});
    const Tensor c = fill(row, {2, 4, 8});
    struct BinaryCase
    {
        OpKind kind;
        std::vector<float> wideOpRow; // a op c
        std::vector<float> rowOpWide; // c op a
    };
    const std::vector<BinaryCase> binary = {
        {OpKind::Add, {3, 6, 11, 6, 9, 14}, {3, 6, 11, 6, 9, 14}},
        {OpKind::Sub, {-1, -2, -5, 2, 1, -2}, {1, 2, 5, -2, -1, 2}},
        {OpKind::Mul, {2, 8, 24, 8, 20, 48}, {2, 8, 24, 8, 20, 48}},
        {OpKind::Div, {0.5f, 0.5f, 0.375f, 2, 1.25f, 0.75f},
         {2, 2, 2.6666667f, 0.5f, 0.8f, 1.3333333f}},
    };
    for (const BinaryCase &bc : binary) {
        SCOPED_TRACE(ir::opKindName(bc.kind));
        auto op = [&](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.binary(bc.kind, v[0], v[1]);
        };
        Tensor y = run1(op, {{wide, a}, {row, c}});
        Tensor yr = run1(op, {{row, c}, {wide, a}});
        for (std::int64_t i = 0; i < 6; ++i) {
            const auto w = static_cast<std::size_t>(i);
            EXPECT_NEAR(y.at(i), bc.wideOpRow[w], 1e-6);
            EXPECT_NEAR(yr.at(i), bc.rowOpWide[w], 1e-6);
        }
    }
}

TEST(Exec, AddBroadcastsTrailingDims)
{
    Shape sa({2, 3});
    Shape sb({3});
    Tensor a = fill(sa, {1, 2, 3, 4, 5, 6});
    Tensor c = fill(sb, {10, 20, 30});
    Tensor y = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.binary(OpKind::Add, v[0], v[1]);
        },
        {{sa, a}, {sb, c}});
    EXPECT_EQ(y.at({0, 0}), 11);
    EXPECT_EQ(y.at({1, 2}), 36);
}

TEST(Exec, MatMulKnownValues)
{
    Shape sa({2, 3});
    Shape sb({3, 2});
    Tensor a = fill(sa, {1, 2, 3, 4, 5, 6});
    Tensor w = fill(sb, {7, 8, 9, 10, 11, 12});
    Tensor y = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.matmul(v[0], v[1]);
        },
        {{sa, a}, {sb, w}});
    EXPECT_EQ(y.at({0, 0}), 1 * 7 + 2 * 9 + 3 * 11);
    EXPECT_EQ(y.at({1, 1}), 4 * 8 + 5 * 10 + 6 * 12);
}

TEST(Exec, MatMulTransBMatchesManual)
{
    Shape sa({1, 2, 3});
    Shape sb({1, 2, 3});
    Tensor a = fill(sa, {1, 2, 3, 4, 5, 6});
    Tensor c = fill(sb, {1, 0, 1, 0, 1, 0});
    Tensor y = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.batchMatMul(v[0], v[1], /*trans_b=*/true);
        },
        {{sa, a}, {sb, c}});
    // y[0,i,j] = sum_k a[i,k] * c[j,k]
    EXPECT_EQ(y.at({0, 0, 0}), 1 + 3);
    EXPECT_EQ(y.at({0, 1, 1}), 5);
}

TEST(Exec, Conv2dIdentityKernel)
{
    Shape xs({1, 1, 3, 3});
    Tensor x = fill(xs, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    GraphBuilder b;
    auto xi = b.input("x", xs);
    auto w = b.constantData("w", Shape({1, 1, 1, 1}), {2}, ir::DType::F16);
    auto y = b.conv2d(xi, w, 1, 0);
    b.markOutput(y);
    auto g = b.finish();
    Executor ex(1);
    auto out = ex.runOutputs(g, {{xi, x}})[0];
    EXPECT_EQ(out.at({0, 0, 1, 1}), 10); // 5 * 2
}

TEST(Exec, Conv2dSumKernelWithPadding)
{
    Shape xs({1, 1, 2, 2});
    Tensor x = fill(xs, {1, 2, 3, 4});
    GraphBuilder b;
    auto xi = b.input("x", xs);
    auto w = b.constantData("w", Shape({1, 1, 3, 3}),
                            {1, 1, 1, 1, 1, 1, 1, 1, 1},
                            ir::DType::F16);
    auto y = b.conv2d(xi, w, 1, 1);
    b.markOutput(y);
    auto g = b.finish();
    Executor ex(1);
    auto out = ex.runOutputs(g, {{xi, x}})[0];
    EXPECT_EQ(out.at({0, 0, 0, 0}), 1 + 2 + 3 + 4); // corner sees all
}

TEST(Exec, DepthwiseConvActsPerChannel)
{
    Shape xs({1, 2, 1, 2});
    Tensor x = fill(xs, {1, 2, 10, 20});
    GraphBuilder b;
    auto xi = b.input("x", xs);
    auto w = b.constantData("w", Shape({2, 1, 1, 1}), {3, 5},
                            ir::DType::F16);
    auto y = b.depthwiseConv2d(xi, w, 1, 0);
    b.markOutput(y);
    auto g = b.finish();
    Executor ex(1);
    auto out = ex.runOutputs(g, {{xi, x}})[0];
    EXPECT_EQ(out.at({0, 0, 0, 0}), 3);
    EXPECT_EQ(out.at({0, 1, 0, 1}), 100);
}

TEST(Exec, SoftmaxRowsSumToOne)
{
    Shape s({2, 5});
    Executor ex(3);
    Tensor x = ex.randomTensor(s, 1);
    Tensor y = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.softmax(v[0], 1);
        },
        {{s, x}});
    for (int r = 0; r < 2; ++r) {
        float sum = 0;
        for (int c = 0; c < 5; ++c)
            sum += y.at({r, c});
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Exec, SoftmaxMiddleAxis)
{
    Shape s({2, 3, 4});
    Executor ex(5);
    Tensor x = ex.randomTensor(s, 2);
    Tensor y = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.softmax(v[0], 1);
        },
        {{s, x}});
    for (int i = 0; i < 2; ++i) {
        for (int k = 0; k < 4; ++k) {
            float sum = 0;
            for (int j = 0; j < 3; ++j)
                sum += y.at({i, j, k});
            EXPECT_NEAR(sum, 1.0f, 1e-5f);
        }
    }
}

TEST(Exec, LayerNormNormalizesLastDim)
{
    Shape s({1, 4});
    Tensor x = fill(s, {1, 2, 3, 4});
    GraphBuilder b;
    auto xi = b.input("x", s);
    auto gamma = b.constantData("g", Shape({4}), {1, 1, 1, 1},
                                ir::DType::F16);
    auto beta = b.constantData("be", Shape({4}), {0, 0, 0, 0},
                               ir::DType::F16);
    auto y = b.layerNorm(xi, gamma, beta);
    b.markOutput(y);
    auto g = b.finish();
    Executor ex(1);
    auto out = ex.runOutputs(g, {{xi, x}})[0];
    float mean = 0;
    for (int i = 0; i < 4; ++i)
        mean += out.at(i);
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_LT(out.at(0), 0.0f);
    EXPECT_GT(out.at(3), 0.0f);
}

TEST(Exec, ReduceVariants)
{
    Shape s({2, 3});
    Tensor x = fill(s, {1, 2, 3, 4, 5, 6});
    Tensor sum = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.reduce(OpKind::ReduceSum, v[0], {1}, true);
        },
        {{s, x}});
    EXPECT_EQ(sum.at({0, 0}), 6);
    EXPECT_EQ(sum.at({1, 0}), 15);
    Tensor mx = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.reduce(OpKind::ReduceMax, v[0], {0}, false);
        },
        {{s, x}});
    EXPECT_EQ(mx.at(2), 6);
    Tensor mean = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.reduce(OpKind::ReduceMean, v[0], {0, 1}, false);
        },
        {{s, x}});
    EXPECT_NEAR(mean.at(0), 3.5f, 1e-6f);
}

TEST(Exec, PoolsAndGlobalPool)
{
    Shape s({1, 1, 2, 2});
    Tensor x = fill(s, {1, 2, 3, 4});
    Tensor mx = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.maxPool2d(v[0], 2, 2, 0);
        },
        {{s, x}});
    EXPECT_EQ(mx.at(0), 4);
    Tensor gap = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.globalAvgPool(v[0]);
        },
        {{s, x}});
    EXPECT_NEAR(gap.at(0), 2.5f, 1e-6f);
}

TEST(Exec, TransposeMovesData)
{
    Shape s({2, 3});
    Tensor x = fill(s, {1, 2, 3, 4, 5, 6});
    Tensor y = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.transpose(v[0], {1, 0});
        },
        {{s, x}});
    EXPECT_EQ(y.shape(), Shape({3, 2}));
    EXPECT_EQ(y.at({0, 1}), 4);
    EXPECT_EQ(y.at({2, 0}), 3);
}

TEST(Exec, ReshapePreservesRowMajorOrder)
{
    Shape s({2, 3});
    Tensor x = fill(s, {1, 2, 3, 4, 5, 6});
    Tensor y = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.reshape(v[0], {3, 2});
        },
        {{s, x}});
    for (std::int64_t i = 0; i < 6; ++i)
        EXPECT_EQ(y.at(i), x.at(i));
}

TEST(Exec, ConcatAndSliceInverse)
{
    Shape s({2, 2});
    Tensor a = fill(s, {1, 2, 3, 4});
    Tensor c = fill(s, {5, 6, 7, 8});
    Tensor y = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            auto cat = b.concat({v[0], v[1]}, 1);
            return b.slice(cat, {1}, {2}, {4});
        },
        {{s, a}, {s, c}});
    for (std::int64_t i = 0; i < 4; ++i)
        EXPECT_EQ(y.at(i), c.at(i));
}

TEST(Exec, PadInsertsZeros)
{
    Shape s({1, 2});
    Tensor x = fill(s, {3, 4});
    Tensor y = run1(
        [](GraphBuilder &b, const std::vector<ir::ValueId> &v) {
            return b.pad(v[0], {0, 0, 1, 1});
        },
        {{s, x}});
    EXPECT_EQ(y.shape(), Shape({1, 4}));
    EXPECT_EQ(y.at({0, 0}), 0);
    EXPECT_EQ(y.at({0, 1}), 3);
    EXPECT_EQ(y.at({0, 3}), 0);
}

TEST(Exec, GatherPicksRows)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({3, 2}));
    auto idx = b.constantData("i", Shape({2}), {2, 0});
    auto y = b.gather(x, idx, 0);
    b.markOutput(y);
    auto g = b.finish();
    Executor ex(1);
    Tensor data = fill(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
    auto out = ex.runOutputs(g, {{x, data}})[0];
    EXPECT_EQ(out.at({0, 0}), 5);
    EXPECT_EQ(out.at({1, 1}), 2);
}

TEST(Exec, ConstantsAreDeterministicPerSeed)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2}));
    auto c = b.constant("c", Shape({2}));
    auto y = b.binary(OpKind::Add, x, c);
    b.markOutput(y);
    auto g = b.finish();
    Executor ex1(99), ex2(99), ex3(100);
    Tensor zero = fill(Shape({2}), {0, 0});
    auto a = ex1.runOutputs(g, {{x, zero}})[0];
    auto bb = ex2.runOutputs(g, {{x, zero}})[0];
    auto cc = ex3.runOutputs(g, {{x, zero}})[0];
    EXPECT_EQ(a.at(0), bb.at(0));
    EXPECT_NE(a.at(0), cc.at(0));
}

TEST(Exec, MissingInputIsFatal)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2}));
    b.markOutput(b.unary(OpKind::Relu, x));
    auto g = b.finish();
    Executor ex(1);
    EXPECT_THROW(ex.runOutputs(g, {}), smartmem::FatalError);
}

TEST(Exec, MaxAbsDiffRequiresSameShape)
{
    Tensor a(Shape({2}));
    Tensor c(Shape({3}));
    EXPECT_THROW(maxAbsDiff(a, c), smartmem::FatalError);
}

} // namespace
} // namespace smartmem::exec
