/**
 * @file
 * Cache-blocked, thread-pooled CPU kernels for the cpu-blocked
 * execution backend, with runtime-dispatched SIMD inner loops.
 *
 * The element-wise and normalization kernels operate on raw row-major
 * float arrays.  The GEMM and convolution kernels additionally accept
 * strided *views* (MatView / PlaneLayout) so the backend can hand them
 * tensors in the plan's packed (vec4) or texture-order physical
 * layouts directly -- the stride arithmetic that used to live only in
 * relayoutCopy runs in the micro-kernel load/store paths instead of
 * forcing a repack at the kernel boundary.
 *
 * Inner loops dispatch over exec::SimdLevel (AVX2 / AVX-512 / NEON
 * micro-kernels behind runtime CPU detection, see simd_dispatch.h);
 * the portable scalar blocked loop is the always-correct fallback.
 * Blocking factors come from TileParams, resolved from the target
 * DeviceProfile rather than hard-coded.
 *
 * Work is split into static contiguous ranges, each element written
 * by exactly one worker, and per-element accumulation order is fixed
 * (ascending k) regardless of partitioning -- so at a fixed SimdLevel
 * results are byte-identical at every thread count, the determinism
 * guarantee tests/cpu_backend_test.cc pins.
 */
#ifndef SMARTMEM_EXEC_KERNELS_BLOCKED_H
#define SMARTMEM_EXEC_KERNELS_BLOCKED_H

#include <cstdint>
#include <functional>
#include <memory>

#include "exec/simd_dispatch.h"
#include "ir/graph.h"
#include "support/thread_pool.h"

namespace smartmem::runtime {
class BufferPool;
}

namespace smartmem::device {
struct DeviceProfile;
}

namespace smartmem::exec {

/**
 * Static-partition parallel driver over an index range.  Owns a
 * fixed-size support::ThreadPool for its lifetime (the cpu-blocked
 * backend builds one runner per run), reused across every kernel
 * launch of that run, so per-kernel overhead is one submit/wait
 * round, not thread creation.
 */
class ParallelRunner
{
  public:
    /** @param threads  0 = SMARTMEM_THREADS env / hardware default. */
    explicit ParallelRunner(int threads);
    ~ParallelRunner();

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    int threads() const { return threads_; }

    /**
     * Invoke fn(begin, end) over a static partition of [0, n) into at
     * most threads() contiguous ranges of at least `grain` indices.
     * Ranges depend only on (n, grain, threads()); each index is
     * processed by exactly one invocation.  Serial (single inline
     * call) when the range is small or the runner has one thread.
     * The first exception (lowest range) is rethrown after all ranges
     * finish.
     */
    void run(std::int64_t n, std::int64_t grain,
             const std::function<void(std::int64_t, std::int64_t)> &fn)
        const;

  private:
    std::unique_ptr<support::ThreadPool> pool_; // null when serial
    int threads_ = 1;
};

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
                   bool transB, SimdLevel simd, const TileParams &tiles,
                   const ParallelRunner &par);

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
                   const TileParams &tiles, const ParallelRunner &par,
                   runtime::BufferPool &scratch);

/** Depthwise conv, direct-tiled through PlaneLayout views; parallel
 *  over (n, c) planes. */
void blockedDepthwiseConv2d(const float *x, const PlaneLayout &xl,
                            const float *w, float *out,
                            const PlaneLayout &ol, std::int64_t n_batch,
                            std::int64_t c, std::int64_t h,
                            std::int64_t wdim, std::int64_t oh,
                            std::int64_t ow, std::int64_t kh,
                            std::int64_t kw, std::int64_t stride,
                            std::int64_t pad, const ParallelRunner &par);

/** y[i] = unary(x[i]) over n elements, parallel over ranges.  `node`
 *  supplies attribute-dependent kinds (Scale).  x may alias y. */
void blockedUnary(ir::OpKind kind, const ir::Node &node, const float *x,
                  float *y, std::int64_t n, const ParallelRunner &par);

/** Scalar unary application: the one definition of every unary
 *  kind, shared by the reference kernels and the epilogue fuser. */
float applyUnaryScalar(ir::OpKind kind, float x, const ir::Node &node);

/** Scalar binary application: the one definition of every binary
 *  kind, shared by the reference kernels and the epilogue fuser. */
float applyBinaryScalar(ir::OpKind kind, float a, float b);

/**
 * Broadcast binary out = a op b where `a` has the output shape and
 * `b` broadcasts per bStride: for every output index i the right
 * operand is b[broadcastOffset(i)].  Fast paths: same-shape
 * (linear), scalar, and trailing-suffix broadcast; the generic path
 * walks an odometer.  Parallel over ranges of the output.
 */
void blockedBinary(ir::OpKind kind, const float *a, const float *b,
                   float *out, const ir::Shape &outShape,
                   const ir::Shape &aShape, const ir::Shape &bShape,
                   const ParallelRunner &par);

/** Softmax over `axis` (reference semantics), parallel over slices. */
void blockedSoftmax(const float *x, float *out, const ir::Shape &shape,
                    int axis, const ParallelRunner &par);

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
 */
void blockedFusedAttention(const float *q, const float *k, const float *v,
                           const float *bias, bool biasBatched,
                           float scale, float *out, std::int64_t batch,
                           std::int64_t n, std::int64_t dk,
                           std::int64_t m, std::int64_t dv,
                           SimdLevel simd, const TileParams &tiles,
                           const ParallelRunner &par);

/** LayerNorm over the last dim with optional gamma/beta, parallel
 *  over outer slices. */
void blockedLayerNorm(const float *x, const float *gamma,
                      std::int64_t gammaLen, const float *beta,
                      std::int64_t betaLen, float *out,
                      std::int64_t outer, std::int64_t inner,
                      const ParallelRunner &par);

/** InstanceNorm over H,W per (N,C) plane, parallel over planes. */
void blockedInstanceNorm(const float *x, float *out, std::int64_t nc,
                         std::int64_t hw, const ParallelRunner &par);

/** Folded-stats BatchNorm (per-channel affine), parallel over (n,c). */
void blockedBatchNorm(const float *x, const float *scale,
                      std::int64_t scaleLen, const float *bias,
                      std::int64_t biasLen, float *out, std::int64_t n,
                      std::int64_t c, std::int64_t hw,
                      const ParallelRunner &par);

} // namespace smartmem::exec

#endif // SMARTMEM_EXEC_KERNELS_BLOCKED_H
