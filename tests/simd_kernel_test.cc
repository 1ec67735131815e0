/**
 * @file
 * SIMD dispatch, tile-parameter resolution, and layout-native kernel
 * tests for the blocked CPU backend.
 *
 * Five layers:
 *  - exec/simd_dispatch.h: detection, the SMARTMEM_SIMD override
 *    (including fatal diagnostics for unknown/unavailable levels),
 *    and exec::resolveTileParams() over DeviceProfile calibration.
 *  - kernel-level pinning: GEMM/conv micro-kernels consuming packed
 *    (vec4) and texture-order operands through native strided views
 *    must produce byte-identical results to the same kernel run on
 *    relayout-unpacked row-major buffers, at every dispatch level
 *    reachable on the host.
 *  - backend-level: the 18-model zoo matches the reference executor
 *    at every reachable dispatch level (stages 0 and 3), outputs are
 *    byte-identical across thread counts, and CpuBackendStats report
 *    the active level, resolved tiles, and native-view counters.
 *  - reductions, pools and pad, which read any stored placement
 *    through offset tables, and fused element-wise epilogues: their
 *    outputs equal the reference kernels' bit for bit, in kernel
 *    calls, in single-op plans, and on special values (signed
 *    zeros, infinities, NaN, denormals, huge magnitudes).
 *  - masked rows: softmax (bit-equal across backends) and fused
 *    attention read zeros for rows of -inf, their true softmax for
 *    rows of -3e38, and NaN for a row holding a NaN score.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "exec/cpu_backend.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "exec/simd_dispatch.h"
#include "ir/graph.h"
#include "ir/layout.h"
#include "ir/shape.h"
#include "models/models.h"
#include "runtime/memory_pool.h"
#include "support/error.h"
#include "support/thread_pool.h"
#include "simd_env_guard.h"

namespace smartmem {
namespace {

using exec::SimdLevel;
using exec::TileParams;

constexpr std::uint64_t kSeed = 4242;
constexpr float kTolerance = 1e-4f;

// -------------------------------------------------------------------
// Dispatch
// -------------------------------------------------------------------

TEST(SimdDispatch, LevelNamesRoundTripThroughParse)
{
    for (SimdLevel lv : {SimdLevel::Scalar, SimdLevel::Neon,
                         SimdLevel::Avx2, SimdLevel::Avx512}) {
        auto parsed = exec::parseSimdLevel(exec::simdLevelName(lv));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, lv);
    }
    EXPECT_FALSE(exec::parseSimdLevel("avx99").has_value());
    EXPECT_FALSE(exec::parseSimdLevel("").has_value());
}

TEST(SimdDispatch, ScalarIsAlwaysAvailable)
{
    const auto &avail = exec::availableSimdLevels();
    EXPECT_NE(
        std::find(avail.begin(), avail.end(), SimdLevel::Scalar),
        avail.end());
}

TEST(SimdDispatch, DetectedLevelIsAvailable)
{
    const auto &avail = exec::availableSimdLevels();
    EXPECT_NE(
        std::find(avail.begin(), avail.end(), exec::detectSimdLevel()),
        avail.end());
}

TEST(SimdDispatch, EnvOverridesEachAvailableLevel)
{
    for (SimdLevel lv : exec::availableSimdLevels()) {
        SimdEnvGuard guard(exec::simdLevelName(lv));
        EXPECT_EQ(exec::activeSimdLevel(), lv)
            << exec::simdLevelName(lv);
    }
}

TEST(SimdDispatch, NoOverrideUsesDetection)
{
    SimdEnvGuard guard(nullptr);
    EXPECT_EQ(exec::activeSimdLevel(), exec::detectSimdLevel());
}

TEST(SimdDispatch, UnknownEnvLevelIsFatal)
{
    SimdEnvGuard guard("avx99");
    EXPECT_THROW(exec::activeSimdLevel(), FatalError);
}

TEST(SimdDispatch, UnavailableLevelIsFatal)
{
    const auto &avail = exec::availableSimdLevels();
    for (SimdLevel lv : {SimdLevel::Neon, SimdLevel::Avx2,
                         SimdLevel::Avx512}) {
        if (std::find(avail.begin(), avail.end(), lv) != avail.end())
            continue;
        SimdEnvGuard guard(exec::simdLevelName(lv));
        EXPECT_THROW(exec::activeSimdLevel(), FatalError)
            << exec::simdLevelName(lv);
        return;
    }
    GTEST_SKIP() << "every known level is executable on this host";
}

// -------------------------------------------------------------------
// Tile resolution
// -------------------------------------------------------------------

TEST(TileResolution, MobileProfilesKeepHistoricalDefaults)
{
    // simdWidth 4 clamps to rowTile 8; unknown L1 defaults to 32 KiB
    // -> kBlock 256: exactly the constants the backend hard-coded
    // before calibration existed.
    const TileParams t = exec::resolveTileParams(device::adreno740());
    EXPECT_EQ(t.rowTile, 8);
    EXPECT_EQ(t.kBlock, 256);
}

TEST(TileResolution, CalibrationFieldsWin)
{
    device::DeviceProfile dev = device::adreno740();
    dev.gemmRowTile = 12;
    dev.gemmKBlock = 333;
    const TileParams t = exec::resolveTileParams(dev);
    EXPECT_EQ(t.rowTile, 12);
    EXPECT_EQ(t.kBlock, 333);
}

TEST(TileResolution, DerivedFromSimdWidthAndL1)
{
    device::DeviceProfile dev = device::adreno740();
    dev.simdWidth = 32;
    dev.l1CacheBytes = 65536;
    const TileParams t = exec::resolveTileParams(dev);
    EXPECT_EQ(t.rowTile, 16); // clamp(32, 8, 16)
    EXPECT_EQ(t.kBlock, 256); // clamp(65536 / (16 * 16), 64, 1024)
}

TEST(TileResolution, InsaneCalibrationIsSanitized)
{
    device::DeviceProfile dev = device::adreno740();
    dev.gemmRowTile = 1000000;
    dev.gemmKBlock = 1;
    const TileParams t = exec::resolveTileParams(dev);
    EXPECT_EQ(t.rowTile, exec::kMaxRowTile);
    EXPECT_EQ(t.kBlock, 16);
}

// -------------------------------------------------------------------
// Kernel-level native layout views
// -------------------------------------------------------------------

/** Deterministic pseudo-random fill. */
void
fill(std::vector<float> &v, std::uint32_t seed)
{
    std::uint32_t s = seed * 2654435761u + 1u;
    for (float &x : v) {
        s = s * 1664525u + 1013904223u;
        x = static_cast<float>(s >> 8) / 16777216.0f - 0.5f;
    }
}

/** Pack a row-major tensor into `layout` (the relayoutCopy the
 *  backend would otherwise run), padding zero-filled. */
std::vector<float>
packTensor(const std::vector<float> &src, const ir::Shape &shape,
           const ir::Layout &layout)
{
    std::vector<float> dst(
        static_cast<std::size_t>(layout.storageElements(shape)), 0.0f);
    std::vector<std::int64_t> coord(
        static_cast<std::size_t>(shape.rank()), 0);
    for (std::int64_t i = 0; i < shape.numElements(); ++i) {
        dst[static_cast<std::size_t>(
            ir::physicalOffset(coord, shape, layout))] =
            src[static_cast<std::size_t>(i)];
        for (int d = shape.rank() - 1; d >= 0; --d) {
            const auto di = static_cast<std::size_t>(d);
            if (++coord[di] < shape.dim(d))
                break;
            coord[di] = 0;
        }
    }
    return dst;
}

/** Inverse of packTensor: physical -> row-major. */
std::vector<float>
unpackTensor(const std::vector<float> &phys, const ir::Shape &shape,
             const ir::Layout &layout)
{
    std::vector<float> dst(
        static_cast<std::size_t>(shape.numElements()), 0.0f);
    std::vector<std::int64_t> coord(
        static_cast<std::size_t>(shape.rank()), 0);
    for (std::int64_t i = 0; i < shape.numElements(); ++i) {
        dst[static_cast<std::size_t>(i)] = phys[static_cast<std::size_t>(
            ir::physicalOffset(coord, shape, layout))];
        for (int d = shape.rank() - 1; d >= 0; --d) {
            const auto di = static_cast<std::size_t>(d);
            if (++coord[di] < shape.dim(d))
                break;
            coord[di] = 0;
        }
    }
    return dst;
}

TEST(NativeKernelViews, FlatTextureBMatchesUnpackedBitwise)
{
    // B [k, n] in flat texture order: the packed x axis has raw
    // stride 4, so the native view is padded row-major -- rows of
    // stride 4*ceil(n/4), consumable by the vector kernels directly.
    const std::int64_t m = 13, kk = 29, n = 27; // n % 4 != 0: padding
    const ir::Shape bShape({kk, n});
    const ir::Layout bTex = ir::Layout::texture(2, 0, 1, 1);
    std::vector<float> a(static_cast<std::size_t>(m * kk));
    std::vector<float> b(static_cast<std::size_t>(kk * n));
    fill(a, 7);
    fill(b, 11);
    const std::vector<float> bPhys = packTensor(b, bShape, bTex);
    const auto bStr = bTex.strides(bShape);
    ASSERT_EQ(bStr[1], 4); // packed innermost: affine after
                           // normalization, stride 1

    const TileParams tiles;
    for (SimdLevel lv : exec::availableSimdLevels()) {
        SCOPED_TRACE(exec::simdLevelName(lv));
        std::vector<float> cRow(static_cast<std::size_t>(m * n), -1.0f);
        std::vector<float> cNat(static_cast<std::size_t>(m * n), -2.0f);
        exec::MatView av{a.data(), kk, 1, 0, nullptr};
        exec::MatView bRowMajor{b.data(), n, 1, 0, nullptr};
        exec::MatView bNative{bPhys.data(), bStr[0], 1, 0, nullptr};
        exec::MatMutView cv1{cRow.data(), n, 1, 0, nullptr};
        exec::MatMutView cv2{cNat.data(), n, 1, 0, nullptr};
        exec::blockedMatMul(av, bRowMajor, cv1, 1, m, n, kk, false, lv,
                            tiles);
        exec::blockedMatMul(av, bNative, cv2, 1, m, n, kk, false, lv,
                            tiles);
        EXPECT_EQ(std::memcmp(cRow.data(), cNat.data(),
                              cRow.size() * sizeof(float)),
                  0);
    }
}

TEST(NativeKernelViews, PackedBatchDimAMatchesUnpackedBitwise)
{
    // A [batch, m, k] with the *batch* dim vec4-packed: matrix dims
    // stay affine, only the per-batch base offset changes.
    const std::int64_t batch = 6, m = 9, kk = 17, n = 8;
    const ir::Shape aShape({batch, m, kk});
    const ir::Layout aPacked = ir::Layout::packed(3, 0);
    std::vector<float> a(static_cast<std::size_t>(batch * m * kk));
    std::vector<float> b(static_cast<std::size_t>(batch * kk * n));
    fill(a, 3);
    fill(b, 5);
    const std::vector<float> aPhys = packTensor(a, aShape, aPacked);
    const auto aStr = aPacked.strides(aShape);
    std::vector<std::int64_t> aOff(static_cast<std::size_t>(batch));
    for (std::int64_t bi = 0; bi < batch; ++bi)
        aOff[static_cast<std::size_t>(bi)] =
            ir::physicalOffset({bi, 0, 0}, aShape, aPacked);

    const TileParams tiles;
    for (SimdLevel lv : exec::availableSimdLevels()) {
        SCOPED_TRACE(exec::simdLevelName(lv));
        std::vector<float> cRow(static_cast<std::size_t>(batch * m * n),
                                0.0f);
        std::vector<float> cNat(static_cast<std::size_t>(batch * m * n),
                                1.0f);
        exec::MatView avRow{a.data(), kk, 1, m * kk, nullptr};
        exec::MatView avNat{aPhys.data(), aStr[1], aStr[2], 0,
                            aOff.data()};
        exec::MatView bv{b.data(), n, 1, kk * n, nullptr};
        exec::MatMutView cv1{cRow.data(), n, 1, m * n, nullptr};
        exec::MatMutView cv2{cNat.data(), n, 1, m * n, nullptr};
        exec::blockedMatMul(avRow, bv, cv1, batch, m, n, kk, false, lv,
                            tiles);
        exec::blockedMatMul(avNat, bv, cv2, batch, m, n, kk, false, lv,
                            tiles);
        EXPECT_EQ(std::memcmp(cRow.data(), cNat.data(),
                              cRow.size() * sizeof(float)),
                  0);
    }
}

TEST(NativeKernelViews, FlatTextureCStoreMatchesRowMajorBitwise)
{
    // GEMM writing straight into a padded flat-texture output.
    const std::int64_t m = 11, kk = 23, n = 21;
    const ir::Shape cShape({m, n});
    const ir::Layout cTex = ir::Layout::texture(2, 0, 1, 1);
    const auto cStr = cTex.strides(cShape);
    std::vector<float> a(static_cast<std::size_t>(m * kk));
    std::vector<float> b(static_cast<std::size_t>(kk * n));
    fill(a, 13);
    fill(b, 17);

    const TileParams tiles;
    for (SimdLevel lv : exec::availableSimdLevels()) {
        SCOPED_TRACE(exec::simdLevelName(lv));
        std::vector<float> cRow(static_cast<std::size_t>(m * n), 0.0f);
        std::vector<float> cPhys(
            static_cast<std::size_t>(cTex.storageElements(cShape)),
            0.0f);
        exec::MatView av{a.data(), kk, 1, 0, nullptr};
        exec::MatView bv{b.data(), n, 1, 0, nullptr};
        exec::MatMutView cv1{cRow.data(), n, 1, 0, nullptr};
        exec::MatMutView cv2{cPhys.data(), cStr[0], 1, 0, nullptr};
        exec::blockedMatMul(av, bv, cv1, 1, m, n, kk, false, lv, tiles);
        exec::blockedMatMul(av, bv, cv2, 1, m, n, kk, false, lv, tiles);
        const std::vector<float> cBack =
            unpackTensor(cPhys, cShape, cTex);
        EXPECT_EQ(std::memcmp(cRow.data(), cBack.data(),
                              cRow.size() * sizeof(float)),
                  0);
    }
}

TEST(NativeKernelViews, Nc4hw4ConvInputAndOutputMatchBitwise)
{
    // Conv with NC4HW4 (packed channel) activation in AND out: the
    // im2col pass reads the packed input through PlaneLayout, and the
    // GEMM scatters rows at packed channel offsets (pixel stride 4).
    const std::int64_t nb = 2, ic = 6, h = 9, w = 7;
    const std::int64_t oc = 5, kh = 3, kw = 3, stride = 1, pad = 1;
    const std::int64_t oh = h, ow = w;
    const ir::Shape xShape({nb, ic, h, w});
    const ir::Shape oShape({nb, oc, oh, ow});
    const ir::Layout nchw4 = ir::Layout::packed(4, 1);
    std::vector<float> x(
        static_cast<std::size_t>(nb * ic * h * w));
    std::vector<float> wgt(
        static_cast<std::size_t>(oc * ic * kh * kw));
    std::vector<float> bias(static_cast<std::size_t>(oc));
    fill(x, 19);
    fill(wgt, 23);
    fill(bias, 29);
    const std::vector<float> xPhys = packTensor(x, xShape, nchw4);
    const auto xStr = nchw4.strides(xShape);
    const auto oStr = nchw4.strides(oShape);
    const exec::PlaneLayout xlNat{xStr[0], xStr[1], xStr[2], xStr[3],
                                  true};
    const exec::PlaneLayout olNat{oStr[0], oStr[1], oStr[2], oStr[3],
                                  true};
    ASSERT_EQ(olNat.sh, olNat.sw * ow); // pixel-linear: required

    const exec::PlaneLayout xlRow =
        exec::PlaneLayout::rowMajor(ic, h, w);
    const exec::PlaneLayout olRow =
        exec::PlaneLayout::rowMajor(oc, oh, ow);

    const TileParams tiles;
    runtime::BufferPool pool;
    for (SimdLevel lv : exec::availableSimdLevels()) {
        SCOPED_TRACE(exec::simdLevelName(lv));
        std::vector<float> outRow(
            static_cast<std::size_t>(nb * oc * oh * ow), 0.0f);
        std::vector<float> outPhys(
            static_cast<std::size_t>(nchw4.storageElements(oShape)),
            0.0f);
        exec::blockedConv2d(x.data(), xlRow, wgt.data(), outRow.data(),
                            olRow, nb, ic, h, w, oc, oh, ow, kh, kw,
                            stride, pad, 1, bias.data(), oc, lv, tiles,
                            pool);
        exec::blockedConv2d(xPhys.data(), xlNat, wgt.data(),
                            outPhys.data(), olNat, nb, ic, h, w, oc, oh,
                            ow, kh, kw, stride, pad, 1, bias.data(), oc,
                            lv, tiles, pool);
        const std::vector<float> outBack =
            unpackTensor(outPhys, oShape, nchw4);
        EXPECT_EQ(std::memcmp(outRow.data(), outBack.data(),
                              outRow.size() * sizeof(float)),
                  0);
    }
}

TEST(NativeKernelViews, DepthwisePackedPlanesMatchBitwise)
{
    const std::int64_t nb = 2, c = 6, h = 8, w = 10;
    const std::int64_t kh = 3, kw = 3, stride = 1, pad = 1;
    const std::int64_t oh = h, ow = w;
    const ir::Shape xShape({nb, c, h, w});
    const ir::Shape oShape({nb, c, oh, ow});
    const ir::Layout nchw4 = ir::Layout::packed(4, 1);
    std::vector<float> x(static_cast<std::size_t>(nb * c * h * w));
    std::vector<float> wgt(static_cast<std::size_t>(c * kh * kw));
    fill(x, 31);
    fill(wgt, 37);
    const std::vector<float> xPhys = packTensor(x, xShape, nchw4);
    const auto xStr = nchw4.strides(xShape);
    const auto oStr = nchw4.strides(oShape);
    const exec::PlaneLayout xlNat{xStr[0], xStr[1], xStr[2], xStr[3],
                                  true};
    const exec::PlaneLayout olNat{oStr[0], oStr[1], oStr[2], oStr[3],
                                  true};

    std::vector<float> outRow(
        static_cast<std::size_t>(nb * c * oh * ow), 0.0f);
    std::vector<float> outPhys(
        static_cast<std::size_t>(nchw4.storageElements(oShape)), 0.0f);
    exec::blockedDepthwiseConv2d(
        x.data(), exec::PlaneLayout::rowMajor(c, h, w), wgt.data(),
        outRow.data(), exec::PlaneLayout::rowMajor(c, oh, ow), nb, c, h,
        w, oh, ow, kh, kw, stride, pad);
    exec::blockedDepthwiseConv2d(xPhys.data(), xlNat, wgt.data(),
                                 outPhys.data(), olNat, nb, c, h, w, oh,
                                 ow, kh, kw, stride, pad);
    const std::vector<float> outBack =
        unpackTensor(outPhys, oShape, nchw4);
    EXPECT_EQ(std::memcmp(outRow.data(), outBack.data(),
                          outRow.size() * sizeof(float)),
              0);
}

// -------------------------------------------------------------------
// Reductions, pools and pad: in-place reads, reference bytes
// -------------------------------------------------------------------

/** One reduction, pool or pad applied to a graph's input `x`. */
struct TableReadCase
{
    std::string name;
    std::function<ir::ValueId(ir::GraphBuilder &, ir::ValueId)> op;
};

/** The seven kinds over odd parameters: each reduction over axes {1},
 *  {3} (the last) and {1, 2} with keepdims 0 and 1, 3x3 pools of
 *  stride 2 and pad 1, the global pool, and asymmetric pads. */
std::vector<TableReadCase>
tableReadCases()
{
    using ir::GraphBuilder;
    using ir::ValueId;
    std::vector<TableReadCase> cases;
    for (ir::OpKind kind : {ir::OpKind::ReduceSum, ir::OpKind::ReduceMean,
                            ir::OpKind::ReduceMax}) {
        for (const std::vector<std::int64_t> &axes :
             {std::vector<std::int64_t>{1}, {3}, {1, 2}}) {
            for (bool keep : {false, true}) {
                std::string name = ir::opKindName(kind) + " axes";
                for (std::int64_t a : axes)
                    name += " " + std::to_string(a);
                cases.push_back({name + (keep ? " keepdims" : ""),
                                 [=](GraphBuilder &b, ValueId x) {
                                     return b.reduce(kind, x, axes, keep);
                                 }});
            }
        }
    }
    cases.push_back({"MaxPool2d k3 s2 p1", [](GraphBuilder &b, ValueId x) {
                         return b.maxPool2d(x, 3, 2, 1);
                     }});
    cases.push_back({"AvgPool2d k3 s2 p1", [](GraphBuilder &b, ValueId x) {
                         return b.avgPool2d(x, 3, 2, 1);
                     }});
    cases.push_back({"GlobalAvgPool", [](GraphBuilder &b, ValueId x) {
                         return b.globalAvgPool(x);
                     }});
    cases.push_back({"Pad 0,1 1,0 2,1 0,3", [](GraphBuilder &b, ValueId x) {
                         return b.pad(x, {0, 1, 1, 0, 2, 1, 0, 3});
                     }});
    return cases;
}

/** Input x of shape xs, the case's op, its result the one output. */
ir::Graph
singleOpGraph(const TableReadCase &c, const ir::Shape &xs)
{
    ir::GraphBuilder b;
    b.markOutput(c.op(b, b.input("x", xs)));
    return b.finish();
}

/** Offset tables of `shape` stored in `layout`, each entry the
 *  ir::physicalOffset of a point with one nonzero coordinate. */
exec::DimTables
offsetTables(const ir::Shape &shape, const ir::Layout &layout)
{
    exec::DimTables t(static_cast<std::size_t>(shape.rank()));
    for (int d = 0; d < shape.rank(); ++d) {
        std::vector<std::int64_t> coord(
            static_cast<std::size_t>(shape.rank()), 0);
        for (std::int64_t c = 0; c < shape.dim(d); ++c) {
            coord[static_cast<std::size_t>(d)] = c;
            t[static_cast<std::size_t>(d)].push_back(
                ir::physicalOffset(coord, shape, layout));
        }
    }
    return t;
}

/** `node`'s blocked kernel, called with the arguments the cpu-blocked
 *  backend decodes from the node. */
void
runTableReadKernel(const ir::Graph &g, const ir::Node &node, const float *x,
             const exec::DimTables &xt, float *out)
{
    const ir::Shape &xs = g.value(node.inputs[0]).shape;
    const ir::Shape &os = g.value(node.output).shape;
    if (node.kind == ir::OpKind::Pad) {
        exec::blockedPad(x, xt, xs, node.attrs.getInts("pads"), out, os);
    } else if (node.kind == ir::OpKind::GlobalAvgPool) {
        exec::blockedReduce(ir::OpKind::ReduceMean, x, xt, xs, {2, 3},
                            out);
    } else if (ir::opInfo(node.kind).category == ir::OpCategory::Reduce) {
        exec::blockedReduce(node.kind, x, xt, xs,
                            node.attrs.getInts("axes"), out);
    } else {
        const std::int64_t kernel = node.attrs.getInt("kernel");
        exec::blockedPool2d(node.kind, x, xt, xs, kernel,
                            node.attrs.getInt("stride", kernel),
                            node.attrs.getInt("pad", 0), os, out);
    }
}

TEST(TableReadKernels, InPlaceReadsMatchReferenceBytes)
{
    // Row-major, NC4HW4, and H packed in a texture, the placement tiny
    // ResNext stores its global pool's input in.
    const std::vector<ir::Layout> placements = {
        ir::Layout::rowMajor(4), ir::Layout::packed(4, 1),
        ir::Layout::texture(4, 1, 3, 2)};
    // The odd shape, and one large enough to split across 4 threads.
    for (const ir::Shape &xs :
         {ir::Shape({2, 6, 7, 5}), ir::Shape({3, 12, 41, 37})}) {
        std::vector<float> xv(static_cast<std::size_t>(xs.numElements()));
        fill(xv, 41);
        exec::Tensor xRow(xs);
        std::copy(xv.begin(), xv.end(), xRow.data());
        for (const TableReadCase &c : tableReadCases()) {
            const ir::Graph g = singleOpGraph(c, xs);
            const ir::Node &node =
                g.node(g.value(g.outputIds()[0]).producer);
            const exec::Tensor ref = exec::evalNode(g, node, {&xRow});
            const auto bytes =
                static_cast<std::size_t>(ref.numElements()) * sizeof(float);
            for (const ir::Layout &layout : placements) {
                const std::vector<float> xPhys = packTensor(xv, xs, layout);
                const exec::DimTables xt = offsetTables(xs, layout);
                // The kernels are baseline code at every level; the
                // loop pins that.
                for (SimdLevel lv : exec::availableSimdLevels()) {
                    SimdEnvGuard guard(exec::simdLevelName(lv));
                    for (int threads : {1, 4}) {
                        support::ThreadBudgetGuard budget(threads);
                        std::vector<float> out(
                            static_cast<std::size_t>(ref.numElements()),
                            123.0f);
                        runTableReadKernel(g, node, xPhys.data(), xt,
                                           out.data());
                        EXPECT_EQ(std::memcmp(out.data(), ref.data(), bytes),
                                  0)
                            << c.name << " " << xs.toString() << " "
                            << layout.toString() << " "
                            << exec::simdLevelName(lv) << " threads "
                            << threads;
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------------------
// Backend integration
// -------------------------------------------------------------------

TEST(CpuBackendSimd, StatsReportLevelAndTiles)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    exec::Executor ex(kSeed);
    auto plan = core::compileStage(g, dev, 3);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);

    exec::CpuBackendOptions o;
    o.threads = 1;
    o.seed = kSeed;
    exec::CpuBackendStats stats;
    exec::CpuBackend(o).run(plan, inputs, &stats);
    EXPECT_EQ(stats.simdLevel, exec::activeSimdLevel());
    EXPECT_EQ(stats.tileRowTile, 8); // kernel defaults echoed
    EXPECT_EQ(stats.tileKBlock, 256);

    o.gemmRowTile = 16;
    o.gemmKBlock = 512;
    exec::CpuBackend(o).run(plan, inputs, &stats);
    EXPECT_EQ(stats.tileRowTile, 16);
    EXPECT_EQ(stats.tileKBlock, 512);
}

TEST(CpuBackendSimd, ForcedLevelIsReportedAndExecutes)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("ViT", 1);
    exec::Executor ex(kSeed);
    auto plan = core::compileStage(g, dev, 3);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);
    auto ref = ex.runOutputs(plan.graph, inputs);
    for (SimdLevel lv : exec::availableSimdLevels()) {
        SimdEnvGuard guard(exec::simdLevelName(lv));
        exec::CpuBackendOptions o;
        o.threads = 1;
        o.seed = kSeed;
        exec::CpuBackendStats stats;
        auto got = exec::CpuBackend(o).run(plan, inputs, &stats);
        EXPECT_EQ(stats.simdLevel, lv);
        EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance)
            << exec::simdLevelName(lv);
    }
}

TEST(CpuBackendSimd, ZooUsesNativeLayoutViews)
{
    // Stage-3 plans keep values in packed/texture layouts; across the
    // zoo at least some GEMM/conv kernels must consume them in place
    // instead of paying an unpack relayout.
    auto dev = device::adreno740();
    std::int64_t views = 0, stores = 0;
    for (const auto &name : models::evaluationModels()) {
        auto g = models::buildTinyVariant(name, 1);
        exec::Executor ex(kSeed);
        auto plan = core::compileStage(g, dev, 3);
        auto inputs = exec::makeSeededInputs(plan.graph, ex);
        exec::CpuBackendOptions o;
        o.threads = 1;
        o.seed = kSeed;
        exec::CpuBackendStats stats;
        exec::CpuBackend(o).run(plan, inputs, &stats);
        views += stats.nativeLayoutViews;
        stores += stats.nativeLayoutStores;
    }
    EXPECT_GT(views, 0);
    EXPECT_GT(stores, 0);
}

class ZooSimdParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ZooSimdParity, EveryReachableLevelMatchesReference)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant(GetParam(), 1);
    exec::Executor ex(kSeed);
    for (int stage : {0, 3}) {
        auto plan = core::compileStage(g, dev, stage);
        auto inputs = exec::makeSeededInputs(plan.graph, ex);
        auto ref = ex.runOutputs(plan.graph, inputs);
        for (SimdLevel lv : exec::availableSimdLevels()) {
            SimdEnvGuard guard(exec::simdLevelName(lv));
            exec::CpuBackendOptions serial;
            serial.threads = 1;
            serial.seed = kSeed;
            auto got = exec::CpuBackend(serial).run(plan, inputs);
            EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance)
                << GetParam() << " stage " << stage << " "
                << exec::simdLevelName(lv);

            // Byte-identical across thread counts at a fixed level.
            exec::CpuBackendOptions pooled = serial;
            pooled.threads = 3;
            auto got3 = exec::CpuBackend(pooled).run(plan, inputs);
            ASSERT_EQ(got.size(), got3.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(
                    std::memcmp(got[i].data(), got3[i].data(),
                                static_cast<std::size_t>(
                                    got[i].numElements()) *
                                    sizeof(float)),
                    0)
                    << GetParam() << " stage " << stage << " "
                    << exec::simdLevelName(lv);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooSimdParity,
    ::testing::ValuesIn(models::evaluationModels()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// -------------------------------------------------------------------
// Plans: the cpu-blocked backend against the reference executor, bit
// for bit
// -------------------------------------------------------------------

/** Bitwise equality of every output element, any two NaNs equal;
 *  the message names the first difference. */
::testing::AssertionResult
sameBits(const std::vector<exec::Tensor> &ref,
         const std::vector<exec::Tensor> &got)
{
    if (ref.size() != got.size())
        return ::testing::AssertionFailure() << "output counts differ";
    for (std::size_t t = 0; t < ref.size(); ++t) {
        if (ref[t].shape() != got[t].shape())
            return ::testing::AssertionFailure()
                   << "output " << t << " shapes differ";
        for (std::int64_t i = 0; i < ref[t].numElements(); ++i) {
            const float a = ref[t].at(i);
            const float b = got[t].at(i);
            if ((std::isnan(a) && std::isnan(b)) ||
                std::memcmp(&a, &b, sizeof(float)) == 0)
                continue;
            return ::testing::AssertionFailure()
                   << "output " << t << " element " << i
                   << ": reference " << a << ", cpu-blocked " << b;
        }
    }
    return ::testing::AssertionSuccess();
}

/**
 * Compile `g` at stages 0 and 3 and run each plan on the cpu-blocked
 * backend at every reachable SIMD level with 1 and 4 threads; every
 * run must reproduce the reference executor's output bits.  Returns
 * the stats of the last run, a stage-3 one.
 */
exec::CpuBackendStats
expectReferenceBits(const ir::Graph &g,
                    const std::map<ir::ValueId, exec::Tensor> &inputs,
                    const std::string &what)
{
    const exec::Executor ex(kSeed);
    const auto ref = ex.runOutputs(g, inputs);
    exec::CpuBackendStats stats;
    for (int stage : {0, 3}) {
        const auto plan = core::compileStage(g, device::adreno740(), stage);
        for (SimdLevel lv : exec::availableSimdLevels()) {
            SimdEnvGuard guard(exec::simdLevelName(lv));
            for (int threads : {1, 4}) {
                exec::CpuBackendOptions o;
                o.threads = threads;
                o.seed = kSeed;
                EXPECT_TRUE(
                    sameBits(ref, exec::CpuBackend(o).run(plan, inputs,
                                                          &stats)))
                    << what << " stage " << stage << " "
                    << exec::simdLevelName(lv) << " threads " << threads;
            }
        }
    }
    return stats;
}

TEST(TableReadKernels, SingleOpPlansMatchReferenceBytes)
{
    for (const TableReadCase &c : tableReadCases()) {
        const ir::Graph g = singleOpGraph(c, ir::Shape({2, 6, 7, 5}));
        expectReferenceBits(
            g, exec::makeSeededInputs(g, exec::Executor(kSeed)), c.name);
    }
}

TEST(TableReadKernels, StoredInputsAreReadInPlace)
{
    // A 1x1 conv stores the op's input in the texture layout stage 3
    // picks for it, and the op reads that buffer in place.  The conv
    // also feeds a Neg output, an exact sign flip, so the op's bits are
    // checked against its reference kernel run on exactly that input.
    for (const TableReadCase &c : tableReadCases()) {
        ir::GraphBuilder b;
        const ir::ValueId x = b.input("x", ir::Shape({2, 6, 7, 5}));
        const ir::ValueId conv =
            b.conv2d(x, b.constant("w", ir::Shape({6, 6, 1, 1})), 1, 0);
        b.markOutput(b.unary(ir::OpKind::Neg, conv));
        b.markOutput(c.op(b, conv));
        const auto plan =
            core::compileStage(b.finish(), device::adreno740(), 3);
        const ir::Graph &g = plan.graph;
        const ir::Node &node = g.node(g.value(g.outputIds()[1]).producer);
        const auto inputs = exec::makeSeededInputs(g, exec::Executor(kSeed));
        for (SimdLevel lv : exec::availableSimdLevels()) {
            SimdEnvGuard guard(exec::simdLevelName(lv));
            for (int threads : {1, 4}) {
                exec::CpuBackendOptions o;
                o.threads = threads;
                o.seed = kSeed;
                exec::CpuBackendStats stats;
                const auto got = exec::CpuBackend(o).run(plan, inputs, &stats);
                exec::Tensor opInput = got[0];
                for (std::int64_t i = 0; i < opInput.numElements(); ++i)
                    opInput.at(i) = -opInput.at(i);
                EXPECT_TRUE(sameBits({exec::evalNode(g, node, {&opInput})},
                                     {got[1]}))
                    << c.name << " " << exec::simdLevelName(lv)
                    << " threads " << threads;
                // The op's read is the run's one native view.
                EXPECT_EQ(stats.nativeLayoutViews, 1) << c.name;
            }
        }
    }
}

/** Signed zeros, infinities, NaN, denormals and huge magnitudes, with
 *  ordinary values between them. */
const std::vector<float> &
specialValues()
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    static const std::vector<float> values = {
        0.0f,   -0.0f, kInf,   -kInf,  std::nanf(""), 1e-40f, -3e-42f,
        3e38f,  -3e38f, -1e31f, 1.5f,   -0.75f,        2.0f,   -3.0f,
        0.25f};
    return values;
}

/** Every graph input filled from specialValues(), each input starting
 *  at another offset so that operands pair up differently. */
std::map<ir::ValueId, exec::Tensor>
specialInputs(const ir::Graph &g)
{
    const std::vector<float> &sv = specialValues();
    std::map<ir::ValueId, exec::Tensor> inputs;
    for (std::size_t k = 0; k < g.inputIds().size(); ++k) {
        const ir::ValueId id = g.inputIds()[k];
        exec::Tensor t(g.value(id).shape);
        for (std::int64_t i = 0; i < t.numElements(); ++i)
            t.at(i) = sv[static_cast<std::size_t>(i * 7 + 4 * k) % sv.size()];
        inputs.emplace(id, std::move(t));
    }
    return inputs;
}

TEST(SpecialValues, EpilogueStepsMatchReferenceBits)
{
    // Relu anchors one kernel; its epilogue is a reversed Sub with a
    // broadcast operand of period 5, Gelu, and a self-operand Mul.
    {
        ir::GraphBuilder b;
        const ir::ValueId x = b.input("x", ir::Shape({2, 3, 5}));
        const ir::ValueId y = b.input("y", ir::Shape({5}));
        const ir::ValueId r = b.unary(ir::OpKind::Relu, x);
        const ir::ValueId s = b.binary(ir::OpKind::Sub, y, r);
        const ir::ValueId gl = b.unary(ir::OpKind::Gelu, s);
        b.markOutput(b.binary(ir::OpKind::Mul, gl, gl));
        const ir::Graph g = b.finish();
        EXPECT_EQ(expectReferenceBits(g, specialInputs(g), "Relu chain")
                      .fusedEpilogueOps,
                  3);
    }
    // Every other unary kind, a scalar Div, a same-shape reversed Add
    // and a broadcast Mul of period 15.
    {
        ir::GraphBuilder b;
        const ir::ValueId x = b.input("x", ir::Shape({2, 3, 5}));
        const ir::ValueId s = b.input("s", ir::Shape({1}));
        const ir::ValueId z = b.input("z", ir::Shape({2, 3, 5}));
        const ir::ValueId w = b.input("w", ir::Shape({3, 5}));
        ir::ValueId v = b.unary(ir::OpKind::Neg, x);
        v = b.binary(ir::OpKind::Div, v, s);
        v = b.binary(ir::OpKind::Add, z, v);
        v = b.unary(ir::OpKind::Sqrt, v);
        v = b.binary(ir::OpKind::Mul, v, w);
        ir::Attrs scale;
        scale.set("scale_milli", 2500);
        v = b.addNode(ir::OpKind::Scale, {v}, scale);
        for (ir::OpKind kind : {ir::OpKind::Silu, ir::OpKind::Sigmoid,
                                ir::OpKind::Tanh, ir::OpKind::Exp})
            v = b.unary(kind, v);
        b.markOutput(v);
        const ir::Graph g = b.finish();
        EXPECT_EQ(expectReferenceBits(g, specialInputs(g), "Neg chain")
                      .fusedEpilogueOps,
                  9);
    }
}

TEST(SpecialValues, ReductionsPoolsAndPadMatchReferenceBits)
{
    for (const TableReadCase &c : tableReadCases()) {
        const ir::Graph g = singleOpGraph(c, ir::Shape({2, 6, 7, 5}));
        expectReferenceBits(g, specialInputs(g), c.name);
    }
}

TEST(SpecialValues, AllNegativeInfinityRowMaxIsNegativeInfinity)
{
    // ReduceMax and MaxPool2d seed their maximum with -inf: a row or
    // window of -inf reads -inf, and one of -3e38 reads -3e38, on both
    // backends.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    auto expectMaxima = [](const ir::Graph &g,
                           const std::map<ir::ValueId, exec::Tensor> &in,
                           const std::string &what) {
        expectReferenceBits(g, in, what);
        exec::CpuBackendOptions o;
        o.seed = kSeed;
        const auto ref = exec::Executor(kSeed).runOutputs(g, in);
        const auto got = exec::CpuBackend(o).run(
            core::compileStage(g, device::adreno740(), 3), in);
        for (const auto &out : {ref[0], got[0]}) {
            EXPECT_EQ(out.at(0), -kInf) << what;
            EXPECT_EQ(out.at(1), -3e38f) << what;
        }
    };
    {
        // Row 0 is -inf, row 1 -3e38, row 2 mixed.
        ir::GraphBuilder b;
        const ir::ValueId x = b.input("x", ir::Shape({3, 4}));
        b.markOutput(b.reduce(ir::OpKind::ReduceMax, x, {1}, false));
        const ir::Graph g = b.finish();
        auto inputs = specialInputs(g);
        exec::Tensor &xt = inputs.begin()->second;
        for (std::int64_t i = 0; i < 4; ++i) {
            xt.at(i) = -kInf;
            xt.at(4 + i) = -3e38f;
        }
        expectMaxima(g, inputs, "ReduceMax");
    }
    {
        // 2x2 windows of stride 2 over a 4x4 plane: window (0, 0) is
        // -inf, window (0, 1) -3e38, the bottom two mixed.
        ir::GraphBuilder b;
        const ir::ValueId x = b.input("x", ir::Shape({1, 1, 4, 4}));
        b.markOutput(b.maxPool2d(x, 2, 2, 0));
        const ir::Graph g = b.finish();
        auto inputs = specialInputs(g);
        exec::Tensor &xt = inputs.begin()->second;
        for (std::int64_t y = 0; y < 2; ++y) {
            for (std::int64_t xo = 0; xo < 2; ++xo) {
                xt.at({0, 0, y, xo}) = -kInf;
                xt.at({0, 0, y, 2 + xo}) = -3e38f;
            }
        }
        expectMaxima(g, inputs, "MaxPool2d");
    }
}

/** Softmax rows holding -inf, all -inf, all -3e38, a NaN, and +-3e38
 *  mixes: each row is five scores. */
const std::vector<std::vector<float>> &
maskedSoftmaxRows()
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float nan = std::nanf("");
    static const std::vector<std::vector<float>> rows = {
        {-kInf, 1.5f, -kInf, 0.25f, -0.75f},
        {-kInf, -kInf, -kInf, -kInf, -kInf},
        {-3e38f, -3e38f, -3e38f, -3e38f, -3e38f},
        {-kInf, -3e38f, -kInf, -3e38f, -kInf},
        {1.5f, nan, 2.0f, -3.0f, 0.25f},
        {-kInf, -kInf, nan, -kInf, -kInf},
        {3e38f, -3e38f, 0.0f, 3e38f, -1e31f},
        {-3e38f, -2e38f, -3e38f, 3e38f, -kInf}};
    return rows;
}

/** The masked-row rule in double: a NaN score makes a NaN row, a row
 *  of -inf reads zeros, any other row its softmax. */
std::vector<double>
expectedSoftmax(const std::vector<float> &row)
{
    double mx = -std::numeric_limits<double>::infinity();
    for (float x : row) {
        if (std::isnan(x))
            return std::vector<double>(row.size(), std::nan(""));
        mx = std::max(mx, static_cast<double>(x));
    }
    std::vector<double> out(row.size(), 0.0);
    if (mx == -std::numeric_limits<double>::infinity())
        return out;
    double sum = 0;
    for (std::size_t e = 0; e < row.size(); ++e) {
        out[e] = std::exp(static_cast<double>(row[e]) - mx);
        sum += out[e];
    }
    for (double &o : out)
        o /= sum;
    return out;
}

/** NaN where `want` is NaN, exactly 0 where it is 0, else within
 *  `tol` of it. */
void
expectMaskedRowValue(float got, double want, double tol,
                     const std::string &what)
{
    if (std::isnan(want))
        EXPECT_TRUE(std::isnan(got)) << what << ": " << got;
    else if (want == 0.0)
        EXPECT_EQ(got, 0.0f) << what;
    else
        EXPECT_NEAR(got, want, tol) << what;
}

TEST(SpecialValues, MaskedSoftmaxRowsOnBothBackends)
{
    // Each row of maskedSoftmaxRows() as a last-axis row of [8, 5] and
    // as a middle-axis row of [2, 5, 4] (row r at outer r / 4, inner
    // r % 4).  Both backends run softmaxRow, so they agree bit for
    // bit; the expected values pin the rule.
    const auto &rows = maskedSoftmaxRows();
    const std::int64_t extent = 5;
    for (bool lastAxis : {true, false}) {
        const ir::Shape shape = lastAxis ? ir::Shape({8, extent})
                                         : ir::Shape({2, extent, 4});
        const std::int64_t inner = lastAxis ? 1 : 4;
        auto at = [&](std::size_t r, std::int64_t e) {
            const auto ri = static_cast<std::int64_t>(r);
            return ri / inner * extent * inner + e * inner + ri % inner;
        };
        ir::GraphBuilder b;
        b.markOutput(b.softmax(b.input("x", shape), 1));
        const ir::Graph g = b.finish();
        auto inputs = specialInputs(g);
        exec::Tensor &xt = inputs.begin()->second;
        for (std::size_t r = 0; r < rows.size(); ++r)
            for (std::int64_t e = 0; e < extent; ++e)
                xt.at(at(r, e)) = rows[r][static_cast<std::size_t>(e)];

        const std::string what =
            lastAxis ? "Softmax last axis" : "Softmax middle axis";
        expectReferenceBits(g, inputs, what);
        const auto ref = exec::Executor(kSeed).runOutputs(g, inputs);
        for (std::size_t r = 0; r < rows.size(); ++r) {
            const std::vector<double> want = expectedSoftmax(rows[r]);
            for (std::int64_t e = 0; e < extent; ++e)
                expectMaskedRowValue(
                    ref[0].at(at(r, e)), want[static_cast<std::size_t>(e)],
                    1e-6,
                    what + " row " + std::to_string(r) + " element " +
                        std::to_string(e));
        }
    }
}

TEST(SpecialValues, MaskedAttentionRowsOnBothBackends)
{
    // FusedAttention over q [2, 9, 4], k [2, 37, 4], v [2, 37, 3] with
    // an input bias [9, 37] whose rows carry the special scores.  The
    // 16-key block variant sweeps rows 3, 5 and 8 through blocks that
    // are masked before (or after) their live scores.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float nan = std::nanf("");
    const std::int64_t batch = 2, n = 9, m = 37, dk = 4, dv = 3;
    ir::GraphBuilder b;
    ir::Attrs half;
    half.set("scale_milli", 500);
    b.markOutput(b.addNode(ir::OpKind::FusedAttention,
                           {b.input("q", ir::Shape({batch, n, dk})),
                            b.input("k", ir::Shape({batch, m, dk})),
                            b.input("v", ir::Shape({batch, m, dv})),
                            b.input("bias", ir::Shape({n, m}))},
                           half));
    const ir::Graph g = b.finish();

    std::map<ir::ValueId, exec::Tensor> inputs;
    for (std::size_t k = 0; k < 3; ++k) {
        const ir::ValueId id = g.inputIds()[k];
        exec::Tensor t(g.value(id).shape);
        std::vector<float> vals(static_cast<std::size_t>(t.numElements()));
        fill(vals, 7 + static_cast<std::uint32_t>(k));
        std::copy(vals.begin(), vals.end(), t.data());
        inputs.emplace(id, std::move(t));
    }
    exec::Tensor bias(ir::Shape({n, m}));
    std::vector<float> ordinary(static_cast<std::size_t>(n * m));
    fill(ordinary, 11);
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < m; ++j) {
            const float o = ordinary[static_cast<std::size_t>(i * m + j)];
            const float row[9] = {
                -kInf,                         // fully masked
                -3e38f,                        // uniform
                j == 20 ? nan : o,             // one NaN
                j < 20 ? -kInf : o,            // masked first blocks
                j == 30 || j == 5 ? 3e38f : -3e38f,
                j == 33 ? nan : -kInf,         // NaN among -inf
                j == 36 ? o : -kInf,           // only the last key
                o,                             // ordinary
                j < 16 ? -3e38f : -kInf};      // first block, uniform
            bias.at({i, j}) = row[i];
        }
    }
    inputs.emplace(g.inputIds()[3], std::move(bias));

    // What each row must read: zeros, NaN, or the mean of some V rows
    // (rows 3 and 7 are checked against the reference only).
    const exec::Tensor &v = inputs.at(g.inputIds()[2]);
    auto meanOfV = [&](std::int64_t bi, std::int64_t d,
                       const std::vector<std::int64_t> &js) {
        double sum = 0;
        for (std::int64_t j : js)
            sum += v.at({bi, j, d});
        return sum / static_cast<double>(js.size());
    };
    std::vector<std::int64_t> allKeys, firstBlock;
    for (std::int64_t j = 0; j < m; ++j) {
        allKeys.push_back(j);
        if (j < 16)
            firstBlock.push_back(j);
    }
    auto expectRows = [&](const exec::Tensor &out, const std::string &what) {
        for (std::int64_t bi = 0; bi < batch; ++bi) {
            for (std::int64_t d = 0; d < dv; ++d) {
                const double want[9] = {0.0,
                                        meanOfV(bi, d, allKeys),
                                        std::nan(""),
                                        -1.0, // not pinned
                                        meanOfV(bi, d, {5, 30}),
                                        std::nan(""),
                                        meanOfV(bi, d, {36}),
                                        -1.0, // not pinned
                                        meanOfV(bi, d, firstBlock)};
                for (std::int64_t i = 0; i < n; ++i) {
                    if (i == 3 || i == 7)
                        continue;
                    expectMaskedRowValue(out.at({bi, i, d}), want[i], 1e-5,
                                         what + " batch " +
                                             std::to_string(bi) + " row " +
                                             std::to_string(i));
                }
            }
        }
    };

    const auto ref = exec::Executor(kSeed).runOutputs(g, inputs);
    expectRows(ref[0], "reference");
    for (int stage : {0, 3}) {
        const auto plan = core::compileStage(g, device::adreno740(), stage);
        for (SimdLevel lv : exec::availableSimdLevels()) {
            SimdEnvGuard guard(exec::simdLevelName(lv));
            for (int threads : {1, 4}) {
                for (std::int64_t kBlock : {0, 16}) {
                    exec::CpuBackendOptions o;
                    o.threads = threads;
                    o.seed = kSeed;
                    o.gemmKBlock = kBlock;
                    const std::string what =
                        "stage " + std::to_string(stage) + " " +
                        exec::simdLevelName(lv) + " threads " +
                        std::to_string(threads) + " kBlock " +
                        std::to_string(kBlock);
                    exec::CpuBackendStats stats;
                    const auto got =
                        exec::CpuBackend(o).run(plan, inputs, &stats);
                    EXPECT_EQ(stats.fusedAttentionKernels, 1) << what;
                    expectRows(got[0], what);
                    for (std::int64_t e = 0; e < ref[0].numElements(); ++e)
                        expectMaskedRowValue(
                            got[0].at(e), ref[0].at(e),
                            kTolerance * (1.0 + std::fabs(ref[0].at(e))),
                            what + " element " + std::to_string(e));
                }
            }
        }
    }
}

} // namespace
} // namespace smartmem
