/**
 * @file
 * SIMD dispatch, tile-parameter resolution, and layout-native kernel
 * tests for the blocked CPU backend.
 *
 * Three layers:
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
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "exec/cpu_backend.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "exec/simd_dispatch.h"
#include "ir/layout.h"
#include "ir/shape.h"
#include "models/models.h"
#include "runtime/memory_pool.h"
#include "support/error.h"
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

    exec::ParallelRunner par(1);
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
                            tiles, par);
        exec::blockedMatMul(av, bNative, cv2, 1, m, n, kk, false, lv,
                            tiles, par);
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

    exec::ParallelRunner par(1);
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
                            tiles, par);
        exec::blockedMatMul(avNat, bv, cv2, batch, m, n, kk, false, lv,
                            tiles, par);
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

    exec::ParallelRunner par(1);
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
        exec::blockedMatMul(av, bv, cv1, 1, m, n, kk, false, lv, tiles,
                            par);
        exec::blockedMatMul(av, bv, cv2, 1, m, n, kk, false, lv, tiles,
                            par);
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

    exec::ParallelRunner par(1);
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
                            par, pool);
        exec::blockedConv2d(xPhys.data(), xlNat, wgt.data(),
                            outPhys.data(), olNat, nb, ic, h, w, oc, oh,
                            ow, kh, kw, stride, pad, 1, bias.data(), oc,
                            lv, tiles, par, pool);
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

    exec::ParallelRunner par(1);
    std::vector<float> outRow(
        static_cast<std::size_t>(nb * c * oh * ow), 0.0f);
    std::vector<float> outPhys(
        static_cast<std::size_t>(nchw4.storageElements(oShape)), 0.0f);
    exec::blockedDepthwiseConv2d(
        x.data(), exec::PlaneLayout::rowMajor(c, h, w), wgt.data(),
        outRow.data(), exec::PlaneLayout::rowMajor(c, oh, ow), nb, c, h,
        w, oh, ow, kh, kw, stride, pad, par);
    exec::blockedDepthwiseConv2d(xPhys.data(), xlNat, wgt.data(),
                                 outPhys.data(), olNat, nb, c, h, w, oh,
                                 ow, kh, kw, stride, pad, par);
    const std::vector<float> outBack =
        unpackTensor(outPhys, oShape, nchw4);
    EXPECT_EQ(std::memcmp(outRow.data(), outBack.data(),
                          outRow.size() * sizeof(float)),
              0);
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

} // namespace
} // namespace smartmem
