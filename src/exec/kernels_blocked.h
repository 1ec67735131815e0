/**
 * @file
 * Cache-blocked, multi-threaded CPU kernels for the cpu-blocked
 * execution backend, with runtime-dispatched SIMD inner loops.
 *
 * The element-wise and normalization kernels operate on raw row-major
 * float arrays.  The GEMM and convolution kernels additionally accept
 * strided *views* (MatView / PlaneLayout), and the reduction, pooling
 * and pad kernels per-dimension offset tables (DimTables), so the
 * backend can hand them tensors in the plan's packed (vec4) or
 * texture-order physical layouts directly -- the stride arithmetic
 * that used to live only in relayoutCopy runs in the kernels' load
 * paths instead of forcing a repack at the kernel boundary.
 *
 * Element-wise loops, reductions and pools are plain baseline-ISA
 * code: they never run under a `target("avx2,fma")` or avx512
 * attribute, where the compiler could contract a*b+c into an FMA and
 * change bytes.  They vectorize, if at all, across independent
 * outputs, so every output sees the reference kernel's operations in
 * the reference's order.
 *
 * Inner loops dispatch over exec::SimdLevel (AVX2 / AVX-512 / NEON
 * micro-kernels behind runtime CPU detection, see simd_dispatch.h);
 * the portable scalar blocked loop is the always-correct fallback.
 * Blocking factors come from TileParams, resolved from the target
 * DeviceProfile rather than hard-coded.
 *
 * Work is split by support::parallelFor into static contiguous ranges
 * on the process-wide pool, as many as the calling thread's budget
 * allows; each element is written by exactly one range, and
 * per-element accumulation order is fixed (ascending k) regardless of
 * partitioning -- so at a fixed SimdLevel results are byte-identical
 * at every thread count, the determinism guarantee
 * tests/cpu_backend_test.cc pins.
 */
#ifndef SMARTMEM_EXEC_KERNELS_BLOCKED_H
#define SMARTMEM_EXEC_KERNELS_BLOCKED_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "exec/simd_dispatch.h"
#include "ir/graph.h"
#include "support/error.h"

namespace smartmem::runtime {
class BufferPool;
}

namespace smartmem::device {
struct DeviceProfile;
}

namespace smartmem::exec {

/**
 * GEMM blocking factors.  Resolved per device via resolveTileParams;
 * the defaults reproduce the backend's original constants.  Values
 * are sanitized on use: rowTile is clamped to [1, kMaxRowTile] and
 * kBlock to [16, 1 << 20].
 */
struct TileParams
{
    std::int64_t rowTile = 8; ///< A-row tile height per task
    std::int64_t kBlock = 256; ///< reduction panel width kept in L1
};

/** Upper bound on TileParams::rowTile (per-task row-offset scratch is
 *  stack-allocated at this size). */
constexpr std::int64_t kMaxRowTile = 128;

/**
 * Tile parameters for a device: explicit `gemm_row_tile` /
 * `gemm_k_block` calibration fields win when set (> 0); otherwise
 * rowTile derives from simdWidth (clamped to [8, 16]) and kBlock from
 * l1CacheBytes (32 KiB assumed when unset) so one row tile's A panel
 * plus the B panel fit in L1: kBlock = l1 / (16 * rowTile), clamped
 * to [64, 1024].  The built-in mobile profiles (simdWidth 4, no L1
 * field) resolve to the historical {8, 256}.
 */
TileParams resolveTileParams(const device::DeviceProfile &dev);

/**
 * Read-only strided matrix operand for blockedMatMul: element
 * (bi, r, j) lives at data[off(bi) + r * rs + j * cs].  Per-batch
 * offsets come from batchOff when non-null (native packed/texture
 * batch dims), else bi * batchStride.  A row-major [batch, m, k]
 * tensor is {data, k, 1, m * k, nullptr}.
 */
struct MatView
{
    const float *data = nullptr;
    std::int64_t rs = 0;                     ///< row stride (elements)
    std::int64_t cs = 1;                     ///< column stride
    std::int64_t batchStride = 0;
    const std::int64_t *batchOff = nullptr;  ///< optional, size batch

    std::int64_t off(std::int64_t bi) const
    {
        return batchOff != nullptr ? batchOff[bi] : bi * batchStride;
    }
};

/** Mutable counterpart of MatView (the C operand). */
struct MatMutView
{
    float *data = nullptr;
    std::int64_t rs = 0;
    std::int64_t cs = 1;
    std::int64_t batchStride = 0;
    const std::int64_t *batchOff = nullptr;

    std::int64_t off(std::int64_t bi) const
    {
        return batchOff != nullptr ? batchOff[bi] : bi * batchStride;
    }
};

/**
 * Strided accessor for a [N, C, H, W] tensor in its physical layout.
 * The channel dimension may be vec4-packed (NC4HW4 buffer or texture
 * order), in which case its offset contribution is
 * (c / 4) * sc + c % 4; all other dims are affine.  Row-major is
 * {C*H*W, H*W, W, 1, false}.
 */
struct PlaneLayout
{
    std::int64_t sn = 0; ///< batch stride
    std::int64_t sc = 0; ///< channel stride (block stride when packed)
    std::int64_t sh = 0; ///< row stride
    std::int64_t sw = 1; ///< column stride
    bool packedC = false;

    std::int64_t planeOff(std::int64_t n, std::int64_t c) const
    {
        const std::int64_t coff =
            packedC ? (c / 4) * sc + c % 4 : c * sc;
        return n * sn + coff;
    }

    static PlaneLayout rowMajor(std::int64_t c, std::int64_t h,
                                std::int64_t w)
    {
        return PlaneLayout{c * h * w, h * w, w, 1, false};
    }
};

/**
 * C[b] = A[b] x B[b or shared]: batched matmul over strided views
 * with register-tiled SIMD inner loops (dispatch on `simd`, scalar
 * fallback for layouts the vector path cannot address: the B and C
 * column strides must be 1 for the vectorized non-transposed path,
 * the A and B column strides 1 for the vectorized transB path).
 * Logical shapes: A [batch, m, k]; B [k, n] ([n, k] when transB,
 * row stride still MatView::rs); C [batch, m, n].  Parallel over
 * batch x row blocks; per-element accumulation is ascending-k, so
 * output bytes are independent of thread count and tile parameters
 * at a fixed SimdLevel.
 */
void blockedMatMul(const MatView &a, const MatView &b,
                   const MatMutView &c, std::int64_t batch,
                   std::int64_t m, std::int64_t n, std::int64_t k,
                   bool transB, SimdLevel simd, const TileParams &tiles);

/**
 * Grouped/standard conv via im2col + blocked GEMM, reading x and
 * writing out through PlaneLayout views (so NC4HW4 / texture-order
 * operands are consumed natively).  Logical shapes: x [N, IC, H, W],
 * w [OC, IC/groups, KH, KW] row-major, out [N, OC, OH, OW].  The
 * output layout must be pixel-linear: ol.sh == ol.sw * ow (row-major
 * and NC4HW4 both are; the caller falls back to a row-major buffer
 * otherwise).  When bias is non-null, bias[c % biasLen] is added to
 * every output pixel of channel c after the GEMM.  The im2col panel
 * comes from `scratch` and is released before returning.  Parallel
 * over column-panel rows and output channels.
 */
void blockedConv2d(const float *x, const PlaneLayout &xl, const float *w,
                   float *out, const PlaneLayout &ol,
                   std::int64_t n_batch, std::int64_t ic, std::int64_t h,
                   std::int64_t wdim, std::int64_t oc, std::int64_t oh,
                   std::int64_t ow, std::int64_t kh, std::int64_t kw,
                   std::int64_t stride, std::int64_t pad,
                   std::int64_t groups, const float *bias,
                   std::int64_t biasLen, SimdLevel simd,
                   const TileParams &tiles, runtime::BufferPool &scratch);

/** Depthwise conv, direct-tiled through PlaneLayout views; parallel
 *  over (n, c) planes. */
void blockedDepthwiseConv2d(const float *x, const PlaneLayout &xl,
                            const float *w, float *out,
                            const PlaneLayout &ol, std::int64_t n_batch,
                            std::int64_t c, std::int64_t h,
                            std::int64_t wdim, std::int64_t oh,
                            std::int64_t ow, std::int64_t kh,
                            std::int64_t kw, std::int64_t stride,
                            std::int64_t pad);

/**
 * Scalar unary application: the one definition of every unary kind,
 * shared by the reference kernels, blockedUnary and the epilogue
 * steps.  `scale` is Scale's factor (scaleFactor(node)); other kinds
 * ignore it.  Inline so that the per-kind loops, which pass a
 * constant kind, compile to the formula alone.
 */
inline float
applyUnaryScalar(ir::OpKind kind, float x, float scale)
{
    switch (kind) {
      case ir::OpKind::Relu:    return x > 0 ? x : 0;
      case ir::OpKind::Gelu:
        return 0.5f * x * (1.0f + std::tanh(0.7978845608f *
                                            (x + 0.044715f * x * x * x)));
      case ir::OpKind::Silu:    return x / (1.0f + std::exp(-x));
      case ir::OpKind::Sigmoid: return 1.0f / (1.0f + std::exp(-x));
      case ir::OpKind::Tanh:    return std::tanh(x);
      case ir::OpKind::Exp:     return std::exp(x);
      case ir::OpKind::Sqrt:    return std::sqrt(std::max(x, 0.0f));
      case ir::OpKind::Neg:     return -x;
      case ir::OpKind::Identity: return x;
      case ir::OpKind::Scale:   return x * scale;
      default:
        smPanic("applyUnaryScalar on non-unary kind");
    }
}

/** Scalar binary application: the one definition of every binary
 *  kind, shared by the reference kernels, blockedBinary and the
 *  epilogue steps. */
inline float
applyBinaryScalar(ir::OpKind kind, float a, float b)
{
    switch (kind) {
      case ir::OpKind::Add: return a + b;
      case ir::OpKind::Sub: return a - b;
      case ir::OpKind::Mul: return a * b;
      case ir::OpKind::Div: return a / b;
      default:
        smPanic("applyBinaryScalar on non-binary kind");
    }
}

/** The factor a Scale node multiplies by: its `scale_milli`
 *  attribute / 1000, or 1 when absent. */
float scaleFactor(const ir::Node &node);

/** y[i] = unary(x[i]) over n elements, parallel over ranges; `scale`
 *  as for applyUnaryScalar.  x may alias y. */
void blockedUnary(ir::OpKind kind, float scale, const float *x, float *y,
                  std::int64_t n);

/**
 * Broadcast binary out = a op b over row-major operands whose shapes
 * broadcast to outShape.  Same-shape operands run the element-wise
 * loop the epilogue steps use; the general path walks an odometer
 * with zero strides on broadcast dimensions.  Parallel over ranges of
 * the output.
 */
void blockedBinary(ir::OpKind kind, const float *a, const float *b,
                   float *out, const ir::Shape &outShape,
                   const ir::Shape &aShape, const ir::Shape &bShape);

/**
 * One element-wise op folded into its producer's epilogue: a unary
 * kind, or a binary kind whose other operand is the value itself
 * (selfOperand) or `other`, read as other[i % otherModulo] at
 * row-major index i (1: a scalar; the element count: same shape).
 */
struct EpilogueStep
{
    ir::OpKind kind = ir::OpKind::Identity;
    float scale = 1.0f;           ///< Scale's factor
    const float *other = nullptr; ///< binary operand unless selfOperand
    std::int64_t otherModulo = 1;
    bool reversed = false;        ///< v = other op v (v was operand 1)
    bool selfOperand = false;     ///< v = v op v
};

/**
 * Apply `steps` in order to data[0, n) in place.  Each step runs as
 * one loop over a cache-sized block, chosen once per step by kind and
 * operand shape; a broadcast operand is walked in rows of
 * otherModulo, never with a per-element modulo.  Every element sees
 * the steps' formulas in step order, as applying the nodes one at a
 * time would, so bytes do not depend on blocking or thread count.
 * Parallel over ranges.
 */
void blockedEpilogue(const std::vector<EpilogueStep> &steps, float *data,
                     std::int64_t n);

/**
 * Per-dimension offset tables of a tensor in its stored layout:
 * element (c_0, ..., c_{r-1}) lives at sum over d of tables[d][c_d].
 * Every layout with at most one vec4-packed dimension has them, so a
 * kernel that reads through them reads any stored placement in place.
 */
using DimTables = std::vector<std::vector<std::int64_t>>;

/**
 * ReduceSum / ReduceMean / ReduceMax of x (shape xs, read through its
 * offset tables) over `axes`, into `out`, row-major over the kept
 * dimensions.  evalReduce's arithmetic: each output accumulates its
 * reduced coordinates in ascending row-major order from 0 (sums) or
 * -inf (ReduceMax, with std::max), and ReduceMean divides the
 * finished sum once by the product of the extents `axes` lists.
 * Parallel over outputs.
 */
void blockedReduce(ir::OpKind kind, const float *x, const DimTables &xt,
                   const ir::Shape &xs,
                   const std::vector<std::int64_t> &axes, float *out);

/**
 * MaxPool2d / AvgPool2d of x [N, C, H, W] (read through its offset
 * tables) into row-major out [N, C, OH, OW].  evalPool's arithmetic:
 * per output, the in-range taps in ascending (dy, dx) order; the max
 * seeds -inf, the average divides by the tap count (at least 1).
 * Parallel over (n, c) planes.
 */
void blockedPool2d(ir::OpKind kind, const float *x, const DimTables &xt,
                   const ir::Shape &xs, std::int64_t kernel,
                   std::int64_t stride, std::int64_t pad,
                   const ir::Shape &os, float *out);

/**
 * Zero padding of x (shape xs, read through its offset tables) into
 * row-major out (shape os); pads holds (begin, end) per dimension.
 * Zeroes out, then copies each input row to its begin-shifted place.
 * Parallel over rows.
 */
void blockedPad(const float *x, const DimTables &xt, const ir::Shape &xs,
                const std::vector<std::int64_t> &pads, float *out,
                const ir::Shape &os);

/**
 * Weight of one softmax or attention score, exp(score - rowMax), with
 * the row maximum taken by std::max from a -inf seed.  While that
 * maximum is still -inf no exp runs: a -inf score weighs 0 and a NaN
 * score (std::max skips it) stays NaN, so a fully masked row's weights
 * sum to 0 and a NaN score poisons its row's sum.
 */
inline float
softmaxWeight(float score, float rowMax)
{
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    if (rowMax == kNegInf)
        return score == kNegInf ? 0.0f : score;
    return std::exp(score - rowMax);
}

/**
 * Softmax of one row of `extent` scores `stride` floats apart, the one
 * definition both backends run: softmaxWeight() over the sum of the
 * row's weights.  A fully masked row (every score -inf) reads zeros;
 * a NaN score makes its row NaN.  out may alias x.
 */
void softmaxRow(const float *x, float *out, std::int64_t extent,
                std::int64_t stride);

/** Softmax over `axis`: softmaxRow() on every slice, parallel over
 *  the outer slices. */
void blockedSoftmax(const float *x, float *out, const ir::Shape &shape,
                    int axis);

/**
 * Streaming fused attention: out = softmax(scale * Q.K^T + bias) . V
 * without materializing the [n, m] score matrix.  Each output row is
 * produced by one online-softmax sweep over k-blocks of
 * TileParams::kBlock keys: the block's scores come from the
 * SIMD-dispatched dot micro-kernel, a running row maximum rescales the
 * partial accumulator and denominator (exp(oldMax - newMax)), and the
 * probability-weighted V rows are folded in with a register-tiled
 * four-row GEMM over the exp'd score blocks of a query-row quad.
 * Peak live scratch per worker is 4 * (kBlock + dv) floats.
 *
 * Operands are row-major: q [batch, n, dk], k [batch, m, dk],
 * v [batch, m, dv], optional bias [n, m] (biasBatched selects a
 * per-batch [batch, n, m] plane), out [batch, n, dv].
 *
 * Parallel over batch x row tiles; every row is swept in ascending-j
 * order with block boundaries fixed by `tiles` alone, so output bytes
 * are independent of thread count at a fixed SimdLevel.
 *
 * Masked rows follow softmaxRow(): the running maximum starts at -inf,
 * scores are weighed by softmaxWeight(), and a row whose weights sum
 * to 0 (every score -inf) writes zeros; a NaN score makes its row NaN.
 */
void blockedFusedAttention(const float *q, const float *k, const float *v,
                           const float *bias, bool biasBatched,
                           float scale, float *out, std::int64_t batch,
                           std::int64_t n, std::int64_t dk,
                           std::int64_t m, std::int64_t dv,
                           SimdLevel simd, const TileParams &tiles);

/** LayerNorm over the last dim with optional gamma/beta, parallel
 *  over outer slices. */
void blockedLayerNorm(const float *x, const float *gamma,
                      std::int64_t gammaLen, const float *beta,
                      std::int64_t betaLen, float *out,
                      std::int64_t outer, std::int64_t inner);

/** InstanceNorm over H,W per (N,C) plane, parallel over planes. */
void blockedInstanceNorm(const float *x, float *out, std::int64_t nc,
                         std::int64_t hw);

/** Folded-stats BatchNorm (per-channel affine), parallel over (n,c). */
void blockedBatchNorm(const float *x, const float *scale,
                      std::int64_t scaleLen, const float *bias,
                      std::int64_t biasLen, float *out, std::int64_t n,
                      std::int64_t c, std::int64_t hw);

} // namespace smartmem::exec

#endif // SMARTMEM_EXEC_KERNELS_BLOCKED_H
