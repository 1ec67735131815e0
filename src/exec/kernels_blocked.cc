#include "exec/kernels_blocked.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "device/device_profile.h"
#include "runtime/memory_pool.h"
#include "support/error.h"
#include "support/thread_pool.h"

#if SMARTMEM_SIMD_X86
#include <immintrin.h>
#endif
#if SMARTMEM_SIMD_NEON
#include <arm_neon.h>
#endif

namespace smartmem::exec {

using support::parallelFor;

float
scaleFactor(const ir::Node &node)
{
    return static_cast<float>(node.attrs.getInt("scale_milli", 1000)) /
           1000.0f;
}

// -------------------------------------------------------------------
// Tile parameters
// -------------------------------------------------------------------

TileParams
resolveTileParams(const device::DeviceProfile &dev)
{
    TileParams t;
    if (dev.gemmRowTile > 0) {
        t.rowTile = dev.gemmRowTile;
    } else {
        t.rowTile = std::clamp<std::int64_t>(dev.simdWidth, 8, 16);
    }
    t.rowTile = std::clamp<std::int64_t>(t.rowTile, 1, kMaxRowTile);
    if (dev.gemmKBlock > 0) {
        t.kBlock = dev.gemmKBlock;
    } else {
        const std::int64_t l1 =
            dev.l1CacheBytes > 0 ? dev.l1CacheBytes : 32 * 1024;
        t.kBlock = std::clamp<std::int64_t>(
            l1 / (16 * t.rowTile), 64, 1024);
    }
    t.kBlock = std::clamp<std::int64_t>(t.kBlock, 16, 1 << 20);
    return t;
}

// -------------------------------------------------------------------
// GEMM micro-kernels.
//
// All block kernels compute, for rows r in [0, rows) and columns j in
// [0, n), C[cOff[r] + j*ccs] (+)= sum over kk in [k0, k1) of
// A[r*ars + kk*acs] * B[kk*brs + j*bcs], overwriting C when `first`
// (the k0 == 0 panel).  Per-element accumulation order is ascending
// kk in every variant, so a given (SimdLevel, shape) produces the
// same bytes under any tiling or thread partition.  The vector
// kernels require bcs == 1 (the driver falls back to scalar
// otherwise); strided C is handled with lane-wise load/store, which
// amortizes over a whole k-block.
// -------------------------------------------------------------------

namespace {

using i64 = std::int64_t;

void
gemmBlockScalar(const float *a, i64 ars, i64 acs, const float *b,
                i64 brs, i64 bcs, float *c, const i64 *cOff, i64 ccs,
                i64 rows, i64 n, i64 k0, i64 k1, bool first)
{
    if (first) {
        for (i64 r = 0; r < rows; ++r) {
            float *crow = c + cOff[r];
            if (ccs == 1) {
                std::memset(crow, 0,
                            static_cast<std::size_t>(n) * sizeof(float));
            } else {
                for (i64 j = 0; j < n; ++j)
                    crow[j * ccs] = 0;
            }
        }
    }
    if (bcs == 1 && ccs == 1) {
        for (i64 kk = k0; kk < k1; ++kk) {
            const float *brow = b + kk * brs;
            for (i64 r = 0; r < rows; ++r) {
                const float av = a[r * ars + kk * acs];
                float *crow = c + cOff[r];
                for (i64 j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
        return;
    }
    for (i64 kk = k0; kk < k1; ++kk) {
        const float *brow = b + kk * brs;
        for (i64 r = 0; r < rows; ++r) {
            const float av = a[r * ars + kk * acs];
            float *crow = c + cOff[r];
            for (i64 j = 0; j < n; ++j)
                crow[j * ccs] += av * brow[j * bcs];
        }
    }
}

float
dotScalar(const float *x, const float *y, i64 k)
{
    float acc = 0;
    for (i64 kk = 0; kk < k; ++kk)
        acc += x[kk] * y[kk];
    return acc;
}

#if SMARTMEM_SIMD_X86

__attribute__((target("avx2,fma"))) inline __m256
avx2LoadC(const float *p, i64 ccs)
{
    if (ccs == 1)
        return _mm256_loadu_ps(p);
    alignas(32) float tmp[8];
    for (int j = 0; j < 8; ++j)
        tmp[j] = p[j * ccs];
    return _mm256_load_ps(tmp);
}

__attribute__((target("avx2,fma"))) inline void
avx2StoreC(float *p, i64 ccs, __m256 v)
{
    if (ccs == 1) {
        _mm256_storeu_ps(p, v);
        return;
    }
    alignas(32) float tmp[8];
    _mm256_store_ps(tmp, v);
    for (int j = 0; j < 8; ++j)
        p[j * ccs] = tmp[j];
}

/** 4x16 register-tiled AVX2+FMA block kernel (requires bcs == 1). */
__attribute__((target("avx2,fma"))) void
gemmBlockAvx2(const float *a, i64 ars, i64 acs, const float *b, i64 brs,
              float *c, const i64 *cOff, i64 ccs, i64 rows, i64 n,
              i64 k0, i64 k1, bool first)
{
    const i64 nv = n & ~i64{15};
    for (i64 j0 = 0; j0 < nv; j0 += 16) {
        i64 r = 0;
        for (; r + 4 <= rows; r += 4) {
            const float *a0 = a + (r + 0) * ars;
            const float *a1 = a + (r + 1) * ars;
            const float *a2 = a + (r + 2) * ars;
            const float *a3 = a + (r + 3) * ars;
            float *c0 = c + cOff[r + 0] + j0 * ccs;
            float *c1 = c + cOff[r + 1] + j0 * ccs;
            float *c2 = c + cOff[r + 2] + j0 * ccs;
            float *c3 = c + cOff[r + 3] + j0 * ccs;
            __m256 s00, s01, s10, s11, s20, s21, s30, s31;
            if (first) {
                s00 = s01 = s10 = s11 = _mm256_setzero_ps();
                s20 = s21 = s30 = s31 = _mm256_setzero_ps();
            } else {
                s00 = avx2LoadC(c0, ccs);
                s01 = avx2LoadC(c0 + 8 * ccs, ccs);
                s10 = avx2LoadC(c1, ccs);
                s11 = avx2LoadC(c1 + 8 * ccs, ccs);
                s20 = avx2LoadC(c2, ccs);
                s21 = avx2LoadC(c2 + 8 * ccs, ccs);
                s30 = avx2LoadC(c3, ccs);
                s31 = avx2LoadC(c3 + 8 * ccs, ccs);
            }
            for (i64 kk = k0; kk < k1; ++kk) {
                const float *brow = b + kk * brs + j0;
                const __m256 b0 = _mm256_loadu_ps(brow);
                const __m256 b1 = _mm256_loadu_ps(brow + 8);
                __m256 av = _mm256_set1_ps(a0[kk * acs]);
                s00 = _mm256_fmadd_ps(av, b0, s00);
                s01 = _mm256_fmadd_ps(av, b1, s01);
                av = _mm256_set1_ps(a1[kk * acs]);
                s10 = _mm256_fmadd_ps(av, b0, s10);
                s11 = _mm256_fmadd_ps(av, b1, s11);
                av = _mm256_set1_ps(a2[kk * acs]);
                s20 = _mm256_fmadd_ps(av, b0, s20);
                s21 = _mm256_fmadd_ps(av, b1, s21);
                av = _mm256_set1_ps(a3[kk * acs]);
                s30 = _mm256_fmadd_ps(av, b0, s30);
                s31 = _mm256_fmadd_ps(av, b1, s31);
            }
            avx2StoreC(c0, ccs, s00);
            avx2StoreC(c0 + 8 * ccs, ccs, s01);
            avx2StoreC(c1, ccs, s10);
            avx2StoreC(c1 + 8 * ccs, ccs, s11);
            avx2StoreC(c2, ccs, s20);
            avx2StoreC(c2 + 8 * ccs, ccs, s21);
            avx2StoreC(c3, ccs, s30);
            avx2StoreC(c3 + 8 * ccs, ccs, s31);
        }
        for (; r < rows; ++r) {
            const float *ar = a + r * ars;
            float *cr = c + cOff[r] + j0 * ccs;
            __m256 s0, s1;
            if (first) {
                s0 = s1 = _mm256_setzero_ps();
            } else {
                s0 = avx2LoadC(cr, ccs);
                s1 = avx2LoadC(cr + 8 * ccs, ccs);
            }
            for (i64 kk = k0; kk < k1; ++kk) {
                const float *brow = b + kk * brs + j0;
                const __m256 av = _mm256_set1_ps(ar[kk * acs]);
                s0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), s0);
                s1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), s1);
            }
            avx2StoreC(cr, ccs, s0);
            avx2StoreC(cr + 8 * ccs, ccs, s1);
        }
    }
    if (nv < n)
        gemmBlockScalar(a, ars, acs, b + nv, brs, 1, c + nv * ccs,
                        cOff, ccs, rows, n - nv, k0, k1, first);
}

__attribute__((target("avx512f"))) inline __m512
avx512LoadC(const float *p, i64 ccs, __mmask16 mask)
{
    if (ccs == 1)
        return _mm512_maskz_loadu_ps(mask, p);
    alignas(64) float tmp[16] = {};
    for (int j = 0; j < 16; ++j)
        if (mask & (1u << j))
            tmp[j] = p[j * ccs];
    return _mm512_load_ps(tmp);
}

__attribute__((target("avx512f"))) inline void
avx512StoreC(float *p, i64 ccs, __mmask16 mask, __m512 v)
{
    if (ccs == 1) {
        _mm512_mask_storeu_ps(p, mask, v);
        return;
    }
    alignas(64) float tmp[16];
    _mm512_store_ps(tmp, v);
    for (int j = 0; j < 16; ++j)
        if (mask & (1u << j))
            p[j * ccs] = tmp[j];
}

/** 4x32 register-tiled AVX-512F block kernel (requires bcs == 1);
 *  the column tail runs 16-wide under a lane mask. */
__attribute__((target("avx512f"))) void
gemmBlockAvx512(const float *a, i64 ars, i64 acs, const float *b,
                i64 brs, float *c, const i64 *cOff, i64 ccs, i64 rows,
                i64 n, i64 k0, i64 k1, bool first)
{
    const i64 nv = n & ~i64{31};
    for (i64 j0 = 0; j0 < nv; j0 += 32) {
        i64 r = 0;
        for (; r + 4 <= rows; r += 4) {
            const float *a0 = a + (r + 0) * ars;
            const float *a1 = a + (r + 1) * ars;
            const float *a2 = a + (r + 2) * ars;
            const float *a3 = a + (r + 3) * ars;
            float *c0 = c + cOff[r + 0] + j0 * ccs;
            float *c1 = c + cOff[r + 1] + j0 * ccs;
            float *c2 = c + cOff[r + 2] + j0 * ccs;
            float *c3 = c + cOff[r + 3] + j0 * ccs;
            __m512 s00, s01, s10, s11, s20, s21, s30, s31;
            if (first) {
                s00 = s01 = s10 = s11 = _mm512_setzero_ps();
                s20 = s21 = s30 = s31 = _mm512_setzero_ps();
            } else {
                s00 = avx512LoadC(c0, ccs, 0xFFFF);
                s01 = avx512LoadC(c0 + 16 * ccs, ccs, 0xFFFF);
                s10 = avx512LoadC(c1, ccs, 0xFFFF);
                s11 = avx512LoadC(c1 + 16 * ccs, ccs, 0xFFFF);
                s20 = avx512LoadC(c2, ccs, 0xFFFF);
                s21 = avx512LoadC(c2 + 16 * ccs, ccs, 0xFFFF);
                s30 = avx512LoadC(c3, ccs, 0xFFFF);
                s31 = avx512LoadC(c3 + 16 * ccs, ccs, 0xFFFF);
            }
            for (i64 kk = k0; kk < k1; ++kk) {
                const float *brow = b + kk * brs + j0;
                const __m512 b0 = _mm512_loadu_ps(brow);
                const __m512 b1 = _mm512_loadu_ps(brow + 16);
                __m512 av = _mm512_set1_ps(a0[kk * acs]);
                s00 = _mm512_fmadd_ps(av, b0, s00);
                s01 = _mm512_fmadd_ps(av, b1, s01);
                av = _mm512_set1_ps(a1[kk * acs]);
                s10 = _mm512_fmadd_ps(av, b0, s10);
                s11 = _mm512_fmadd_ps(av, b1, s11);
                av = _mm512_set1_ps(a2[kk * acs]);
                s20 = _mm512_fmadd_ps(av, b0, s20);
                s21 = _mm512_fmadd_ps(av, b1, s21);
                av = _mm512_set1_ps(a3[kk * acs]);
                s30 = _mm512_fmadd_ps(av, b0, s30);
                s31 = _mm512_fmadd_ps(av, b1, s31);
            }
            avx512StoreC(c0, ccs, 0xFFFF, s00);
            avx512StoreC(c0 + 16 * ccs, ccs, 0xFFFF, s01);
            avx512StoreC(c1, ccs, 0xFFFF, s10);
            avx512StoreC(c1 + 16 * ccs, ccs, 0xFFFF, s11);
            avx512StoreC(c2, ccs, 0xFFFF, s20);
            avx512StoreC(c2 + 16 * ccs, ccs, 0xFFFF, s21);
            avx512StoreC(c3, ccs, 0xFFFF, s30);
            avx512StoreC(c3 + 16 * ccs, ccs, 0xFFFF, s31);
        }
        for (; r < rows; ++r) {
            const float *ar = a + r * ars;
            float *cr = c + cOff[r] + j0 * ccs;
            __m512 s0, s1;
            if (first) {
                s0 = s1 = _mm512_setzero_ps();
            } else {
                s0 = avx512LoadC(cr, ccs, 0xFFFF);
                s1 = avx512LoadC(cr + 16 * ccs, ccs, 0xFFFF);
            }
            for (i64 kk = k0; kk < k1; ++kk) {
                const float *brow = b + kk * brs + j0;
                const __m512 av = _mm512_set1_ps(ar[kk * acs]);
                s0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow), s0);
                s1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 16), s1);
            }
            avx512StoreC(cr, ccs, 0xFFFF, s0);
            avx512StoreC(cr + 16 * ccs, ccs, 0xFFFF, s1);
        }
    }
    for (i64 j0 = nv; j0 < n; j0 += 16) {
        const int lanes = static_cast<int>(std::min<i64>(16, n - j0));
        const __mmask16 mask =
            lanes == 16 ? static_cast<__mmask16>(0xFFFF)
                        : static_cast<__mmask16>((1u << lanes) - 1);
        for (i64 r = 0; r < rows; ++r) {
            const float *ar = a + r * ars;
            float *cr = c + cOff[r] + j0 * ccs;
            __m512 s0 = first ? _mm512_setzero_ps()
                              : avx512LoadC(cr, ccs, mask);
            for (i64 kk = k0; kk < k1; ++kk) {
                const float *brow = b + kk * brs + j0;
                const __m512 av = _mm512_set1_ps(ar[kk * acs]);
                s0 = _mm512_fmadd_ps(
                    av, _mm512_maskz_loadu_ps(mask, brow), s0);
            }
            avx512StoreC(cr, ccs, mask, s0);
        }
    }
}

__attribute__((target("avx2,fma"))) float
dotAvx2(const float *x, const float *y, i64 k)
{
    __m256 s0 = _mm256_setzero_ps();
    __m256 s1 = _mm256_setzero_ps();
    i64 kk = 0;
    for (; kk + 16 <= k; kk += 16) {
        s0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk),
                             _mm256_loadu_ps(y + kk), s0);
        s1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk + 8),
                             _mm256_loadu_ps(y + kk + 8), s1);
    }
    if (kk + 8 <= k) {
        s0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk),
                             _mm256_loadu_ps(y + kk), s0);
        kk += 8;
    }
    const __m256 s = _mm256_add_ps(s0, s1);
    const __m128 lo = _mm256_castps256_ps128(s);
    const __m128 hi = _mm256_extractf128_ps(s, 1);
    __m128 q = _mm_add_ps(lo, hi);
    q = _mm_add_ps(q, _mm_movehl_ps(q, q));
    q = _mm_add_ss(q, _mm_shuffle_ps(q, q, 1));
    float acc = _mm_cvtss_f32(q);
    for (; kk < k; ++kk)
        acc += x[kk] * y[kk];
    return acc;
}

__attribute__((target("avx512f"))) float
dotAvx512(const float *x, const float *y, i64 k)
{
    __m512 s0 = _mm512_setzero_ps();
    __m512 s1 = _mm512_setzero_ps();
    i64 kk = 0;
    for (; kk + 32 <= k; kk += 32) {
        s0 = _mm512_fmadd_ps(_mm512_loadu_ps(x + kk),
                             _mm512_loadu_ps(y + kk), s0);
        s1 = _mm512_fmadd_ps(_mm512_loadu_ps(x + kk + 16),
                             _mm512_loadu_ps(y + kk + 16), s1);
    }
    for (; kk < k; kk += 16) {
        const int lanes = static_cast<int>(std::min<i64>(16, k - kk));
        const __mmask16 mask =
            lanes == 16 ? static_cast<__mmask16>(0xFFFF)
                        : static_cast<__mmask16>((1u << lanes) - 1);
        s0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, x + kk),
                             _mm512_maskz_loadu_ps(mask, y + kk), s0);
    }
    // Reduce via memory: GCC 12's _mm512_reduce_add_ps (and the zmm
    // lane-extract intrinsics generally) route through
    // _mm512_undefined_ps and trip -Wuninitialized under -Werror.
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, _mm512_add_ps(s0, s1));
    float acc = 0.0f;
    for (int i = 0; i < 16; ++i)
        acc += lanes[i];
    return acc;
}

#endif // SMARTMEM_SIMD_X86

#if SMARTMEM_SIMD_NEON

inline float32x4_t
neonLoadC(const float *p, i64 ccs)
{
    if (ccs == 1)
        return vld1q_f32(p);
    float tmp[4];
    for (int j = 0; j < 4; ++j)
        tmp[j] = p[j * ccs];
    return vld1q_f32(tmp);
}

inline void
neonStoreC(float *p, i64 ccs, float32x4_t v)
{
    if (ccs == 1) {
        vst1q_f32(p, v);
        return;
    }
    float tmp[4];
    vst1q_f32(tmp, v);
    for (int j = 0; j < 4; ++j)
        p[j * ccs] = tmp[j];
}

/** 4x8 register-tiled NEON block kernel (requires bcs == 1). */
void
gemmBlockNeon(const float *a, i64 ars, i64 acs, const float *b, i64 brs,
              float *c, const i64 *cOff, i64 ccs, i64 rows, i64 n,
              i64 k0, i64 k1, bool first)
{
    const i64 nv = n & ~i64{7};
    for (i64 j0 = 0; j0 < nv; j0 += 8) {
        i64 r = 0;
        for (; r + 4 <= rows; r += 4) {
            const float *a0 = a + (r + 0) * ars;
            const float *a1 = a + (r + 1) * ars;
            const float *a2 = a + (r + 2) * ars;
            const float *a3 = a + (r + 3) * ars;
            float *c0 = c + cOff[r + 0] + j0 * ccs;
            float *c1 = c + cOff[r + 1] + j0 * ccs;
            float *c2 = c + cOff[r + 2] + j0 * ccs;
            float *c3 = c + cOff[r + 3] + j0 * ccs;
            float32x4_t s00, s01, s10, s11, s20, s21, s30, s31;
            if (first) {
                s00 = s01 = s10 = s11 = vdupq_n_f32(0);
                s20 = s21 = s30 = s31 = vdupq_n_f32(0);
            } else {
                s00 = neonLoadC(c0, ccs);
                s01 = neonLoadC(c0 + 4 * ccs, ccs);
                s10 = neonLoadC(c1, ccs);
                s11 = neonLoadC(c1 + 4 * ccs, ccs);
                s20 = neonLoadC(c2, ccs);
                s21 = neonLoadC(c2 + 4 * ccs, ccs);
                s30 = neonLoadC(c3, ccs);
                s31 = neonLoadC(c3 + 4 * ccs, ccs);
            }
            for (i64 kk = k0; kk < k1; ++kk) {
                const float *brow = b + kk * brs + j0;
                const float32x4_t b0 = vld1q_f32(brow);
                const float32x4_t b1 = vld1q_f32(brow + 4);
                float32x4_t av = vdupq_n_f32(a0[kk * acs]);
                s00 = vfmaq_f32(s00, av, b0);
                s01 = vfmaq_f32(s01, av, b1);
                av = vdupq_n_f32(a1[kk * acs]);
                s10 = vfmaq_f32(s10, av, b0);
                s11 = vfmaq_f32(s11, av, b1);
                av = vdupq_n_f32(a2[kk * acs]);
                s20 = vfmaq_f32(s20, av, b0);
                s21 = vfmaq_f32(s21, av, b1);
                av = vdupq_n_f32(a3[kk * acs]);
                s30 = vfmaq_f32(s30, av, b0);
                s31 = vfmaq_f32(s31, av, b1);
            }
            neonStoreC(c0, ccs, s00);
            neonStoreC(c0 + 4 * ccs, ccs, s01);
            neonStoreC(c1, ccs, s10);
            neonStoreC(c1 + 4 * ccs, ccs, s11);
            neonStoreC(c2, ccs, s20);
            neonStoreC(c2 + 4 * ccs, ccs, s21);
            neonStoreC(c3, ccs, s30);
            neonStoreC(c3 + 4 * ccs, ccs, s31);
        }
        for (; r < rows; ++r) {
            const float *ar = a + r * ars;
            float *cr = c + cOff[r] + j0 * ccs;
            float32x4_t s0, s1;
            if (first) {
                s0 = s1 = vdupq_n_f32(0);
            } else {
                s0 = neonLoadC(cr, ccs);
                s1 = neonLoadC(cr + 4 * ccs, ccs);
            }
            for (i64 kk = k0; kk < k1; ++kk) {
                const float *brow = b + kk * brs + j0;
                const float32x4_t av = vdupq_n_f32(ar[kk * acs]);
                s0 = vfmaq_f32(s0, av, vld1q_f32(brow));
                s1 = vfmaq_f32(s1, av, vld1q_f32(brow + 4));
            }
            neonStoreC(cr, ccs, s0);
            neonStoreC(cr + 4 * ccs, ccs, s1);
        }
    }
    if (nv < n)
        gemmBlockScalar(a, ars, acs, b + nv, brs, 1, c + nv * ccs,
                        cOff, ccs, rows, n - nv, k0, k1, first);
}

float
dotNeon(const float *x, const float *y, i64 k)
{
    float32x4_t s0 = vdupq_n_f32(0);
    float32x4_t s1 = vdupq_n_f32(0);
    i64 kk = 0;
    for (; kk + 8 <= k; kk += 8) {
        s0 = vfmaq_f32(s0, vld1q_f32(x + kk), vld1q_f32(y + kk));
        s1 = vfmaq_f32(s1, vld1q_f32(x + kk + 4), vld1q_f32(y + kk + 4));
    }
    float acc = vaddvq_f32(vaddq_f32(s0, s1));
    for (; kk < k; ++kk)
        acc += x[kk] * y[kk];
    return acc;
}

#endif // SMARTMEM_SIMD_NEON

/**
 * Full strided GEMM driver: row tiles x k-blocks over the per-level
 * block kernels.  `cOff` holds one absolute element offset per row
 * (so packed/texture output channel bases need no uniform stride).
 */
void
gemmStrided(SimdLevel simd, const TileParams &tiles, const float *a,
            i64 ars, i64 acs, const float *b, i64 brs, i64 bcs, float *c,
            const i64 *cOff, i64 ccs, i64 rows, i64 n, i64 k)
{
    const SimdLevel level = bcs == 1 ? simd : SimdLevel::Scalar;
    for (i64 r0 = 0; r0 < rows; r0 += tiles.rowTile) {
        const i64 rcnt = std::min(tiles.rowTile, rows - r0);
        const float *ar = a + r0 * ars;
        const i64 *co = cOff + r0;
        for (i64 k0 = 0; k0 < k; k0 += tiles.kBlock) {
            const i64 k1 = std::min(k0 + tiles.kBlock, k);
            const bool first = k0 == 0;
            switch (level) {
#if SMARTMEM_SIMD_X86
              case SimdLevel::Avx512:
                gemmBlockAvx512(ar, ars, acs, b, brs, c, co, ccs, rcnt,
                                n, k0, k1, first);
                break;
              case SimdLevel::Avx2:
                gemmBlockAvx2(ar, ars, acs, b, brs, c, co, ccs, rcnt, n,
                              k0, k1, first);
                break;
#endif
#if SMARTMEM_SIMD_NEON
              case SimdLevel::Neon:
                gemmBlockNeon(ar, ars, acs, b, brs, c, co, ccs, rcnt, n,
                              k0, k1, first);
                break;
#endif
              default:
                gemmBlockScalar(ar, ars, acs, b, brs, bcs, c, co, ccs,
                                rcnt, n, k0, k1, first);
                break;
            }
        }
    }
}

/** Contiguous dot kernel for the active level (transB inner loop). */
float (*
dotKernel(SimdLevel simd))(const float *, const float *, i64)
{
    switch (simd) {
#if SMARTMEM_SIMD_X86
      case SimdLevel::Avx512: return dotAvx512;
      case SimdLevel::Avx2: return dotAvx2;
#endif
#if SMARTMEM_SIMD_NEON
      case SimdLevel::Neon: return dotNeon;
#endif
      default: return dotScalar;
    }
}

/**
 * C[rows x n] += A[rows x k] * B[k x n] through the register-tiled
 * block kernels (accumulating).  This is attention's probability-
 * weighted V fold: the accumulators stay in vector registers for a
 * whole column chunk and every V row is read once per row quad.
 */
void
gemmAccum(SimdLevel simd, const float *a, i64 ars, const float *b,
          i64 brs, float *c, const i64 *cOff, i64 rows, i64 n, i64 k)
{
    switch (simd) {
#if SMARTMEM_SIMD_X86
      case SimdLevel::Avx512:
        gemmBlockAvx512(a, ars, 1, b, brs, c, cOff, 1, rows, n, 0, k,
                        false);
        return;
      case SimdLevel::Avx2:
        gemmBlockAvx2(a, ars, 1, b, brs, c, cOff, 1, rows, n, 0, k,
                      false);
        return;
#endif
#if SMARTMEM_SIMD_NEON
      case SimdLevel::Neon:
        gemmBlockNeon(a, ars, 1, b, brs, c, cOff, 1, rows, n, 0, k,
                      false);
        return;
#endif
      default:
        gemmBlockScalar(a, ars, 1, b, brs, 1, c, cOff, 1, rows, n, 0,
                        k, false);
    }
}

TileParams
sanitizeTiles(const TileParams &tiles)
{
    TileParams t;
    t.rowTile = std::clamp<i64>(tiles.rowTile, 1, kMaxRowTile);
    t.kBlock = std::clamp<i64>(tiles.kBlock, 16, 1 << 20);
    return t;
}

} // namespace

void
blockedMatMul(const MatView &a, const MatView &b, const MatMutView &c,
              std::int64_t batch, std::int64_t m, std::int64_t n,
              std::int64_t k, bool transB, SimdLevel simd,
              const TileParams &tilesIn)
{
    const TileParams tiles = sanitizeTiles(tilesIn);
    // Parallel grain: whole batch items when the batch is large
    // (attention's windowed BatchMatMuls), row blocks otherwise.
    const std::int64_t row_blocks =
        (m + tiles.rowTile - 1) / tiles.rowTile;
    const std::int64_t tasks = batch * row_blocks;
    const bool dotVec = a.cs == 1 && b.cs == 1;
    float (*const dot)(const float *, const float *, i64) =
        dotVec ? dotKernel(simd) : nullptr;
    parallelFor(tasks, 1, [&](std::int64_t t0, std::int64_t t1) {
        std::array<i64, kMaxRowTile> cOff;
        for (std::int64_t t = t0; t < t1; ++t) {
            const std::int64_t bi = t / row_blocks;
            const std::int64_t i0 = (t % row_blocks) * tiles.rowTile;
            const std::int64_t rows = std::min(tiles.rowTile, m - i0);
            const float *ap = a.data + a.off(bi) + i0 * a.rs;
            const float *bp = b.data + b.off(bi);
            float *cp = c.data + c.off(bi) + i0 * c.rs;
            for (i64 r = 0; r < rows; ++r)
                cOff[static_cast<std::size_t>(r)] = r * c.rs;
            if (transB) {
                for (i64 r = 0; r < rows; ++r) {
                    const float *arow = ap + r * a.rs;
                    float *crow = cp + r * c.rs;
                    if (dot != nullptr) {
                        for (i64 j = 0; j < n; ++j)
                            crow[j * c.cs] = dot(arow, bp + j * b.rs, k);
                    } else {
                        for (i64 j = 0; j < n; ++j) {
                            const float *brow = bp + j * b.rs;
                            float acc = 0;
                            for (i64 kk = 0; kk < k; ++kk)
                                acc += arow[kk * a.cs] *
                                       brow[kk * b.cs];
                            crow[j * c.cs] = acc;
                        }
                    }
                }
            } else {
                gemmStrided(simd, tiles, ap, a.rs, a.cs, bp, b.rs, b.cs,
                            cp, cOff.data(), c.cs, rows, n, k);
            }
        }
    });
}

void
blockedFusedAttention(const float *q, const float *k, const float *v,
                      const float *bias, bool biasBatched, float scale,
                      float *out, std::int64_t batch, std::int64_t n,
                      std::int64_t dk, std::int64_t m, std::int64_t dv,
                      SimdLevel simd, const TileParams &tilesIn)
{
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    const TileParams tiles = sanitizeTiles(tilesIn);
    const i64 jBlock = std::min(tiles.kBlock, m);
    const i64 row_blocks = (n + tiles.rowTile - 1) / tiles.rowTile;
    const i64 tasks = batch * row_blocks;
    float (*const dot)(const float *, const float *, i64) =
        dotKernel(simd);
    // Query rows are processed in quads: one key/V block sweep feeds
    // four rows' online-softmax states, so every K row is reused four
    // times from L1 and the V fold runs as a 4-row register-tiled
    // GEMM.  Each row's arithmetic is independent and identically
    // ordered, so the quad width never changes output bytes.
    constexpr i64 kQRows = 4;
    parallelFor(tasks, 1, [&](std::int64_t t0, std::int64_t t1) {
        std::vector<float> sbuf(
            static_cast<std::size_t>(kQRows * jBlock));
        std::vector<float> acc(static_cast<std::size_t>(kQRows * dv));
        const i64 accOff[kQRows] = {0, dv, 2 * dv, 3 * dv};
        for (std::int64_t t = t0; t < t1; ++t) {
            const i64 bi = t / row_blocks;
            const i64 i0 = (t % row_blocks) * tiles.rowTile;
            const i64 i1 = std::min(i0 + tiles.rowTile, n);
            const float *kp = k + bi * m * dk;
            const float *vp = v + bi * m * dv;
            const float *bp =
                bias != nullptr
                    ? bias + (biasBatched ? bi * n * m : 0)
                    : nullptr;
            for (i64 i = i0; i < i1; i += kQRows) {
                const i64 rows = std::min(kQRows, i1 - i);
                float mx[kQRows], denom[kQRows];
                for (i64 r = 0; r < rows; ++r) {
                    mx[r] = kNegInf;
                    denom[r] = 0;
                }
                std::fill(acc.begin(), acc.end(), 0.0f);
                // Online softmax: one ascending sweep over key
                // blocks; a rising row maximum rescales the partial
                // sums so no score row is ever materialized.
                for (i64 j0 = 0; j0 < m; j0 += jBlock) {
                    const i64 cnt = std::min(jBlock, m - j0);
                    for (i64 r = 0; r < rows; ++r) {
                        const float *qrow = q + (bi * n + i + r) * dk;
                        float *srow =
                            sbuf.data() +
                            static_cast<std::size_t>(r * jBlock);
                        float bmx = kNegInf;
                        for (i64 j = 0; j < cnt; ++j) {
                            float s = scale *
                                      dot(qrow, kp + (j0 + j) * dk, dk);
                            if (bp != nullptr)
                                s += bp[(i + r) * m + j0 + j];
                            srow[j] = s;
                            bmx = std::max(bmx, s);
                        }
                        if (bmx > mx[r]) {
                            const float rs = std::exp(mx[r] - bmx);
                            denom[r] *= rs;
                            float *arow =
                                acc.data() +
                                static_cast<std::size_t>(r * dv);
                            for (i64 d = 0; d < dv; ++d)
                                arow[d] *= rs;
                            mx[r] = bmx;
                        }
                        for (i64 j = 0; j < cnt; ++j) {
                            const float e = softmaxWeight(srow[j], mx[r]);
                            srow[j] = e;
                            denom[r] += e;
                        }
                    }
                    gemmAccum(simd, sbuf.data(), jBlock, vp + j0 * dv,
                              dv, acc.data(), accOff, rows, dv, cnt);
                }
                for (i64 r = 0; r < rows; ++r) {
                    float *orow = out + (bi * n + i + r) * dv;
                    if (denom[r] == 0.0f) { // fully masked row
                        std::fill(orow, orow + dv, 0.0f);
                        continue;
                    }
                    const float *arow =
                        acc.data() + static_cast<std::size_t>(r * dv);
                    const float inv = 1.0f / denom[r];
                    for (i64 d = 0; d < dv; ++d)
                        orow[d] = arow[d] * inv;
                }
            }
        }
    });
}

// -------------------------------------------------------------------
// Convolution
// -------------------------------------------------------------------

void
blockedConv2d(const float *x, const PlaneLayout &xl, const float *w,
              float *out, const PlaneLayout &ol, std::int64_t n_batch,
              std::int64_t ic, std::int64_t h, std::int64_t wdim,
              std::int64_t oc, std::int64_t oh, std::int64_t ow,
              std::int64_t kh, std::int64_t kw, std::int64_t stride,
              std::int64_t pad, std::int64_t groups, const float *bias,
              std::int64_t biasLen, SimdLevel simd,
              const TileParams &tilesIn, runtime::BufferPool &scratch)
{
    SM_ASSERT(ol.sh == ol.sw * ow,
              "blockedConv2d output layout must be pixel-linear");
    const TileParams tiles = sanitizeTiles(tilesIn);
    const std::int64_t icg = ic / groups;
    const std::int64_t ocg = oc / groups;
    const std::int64_t cols = oh * ow;
    const std::int64_t col_rows = icg * kh * kw;
    float *col = scratch.allocateFloats(col_rows * cols);
    std::vector<i64> rowOff(static_cast<std::size_t>(ocg));

    for (std::int64_t n = 0; n < n_batch; ++n) {
        for (std::int64_t g = 0; g < groups; ++g) {
            // im2col: row r = (c, dy, dx) over output pixels, reading
            // x through its physical layout (vec4-packed channels and
            // padded/texture-order rows stay in place).
            parallelFor(col_rows, 4, [&](std::int64_t r0, std::int64_t r1) {
                for (std::int64_t r = r0; r < r1; ++r) {
                    const std::int64_t c = r / (kh * kw);
                    const std::int64_t dy = (r / kw) % kh;
                    const std::int64_t dx = r % kw;
                    const float *xplane =
                        x + xl.planeOff(n, g * icg + c);
                    float *crow = col + r * cols;
                    for (std::int64_t y = 0; y < oh; ++y) {
                        const std::int64_t iy = y * stride + dy - pad;
                        float *dst = crow + y * ow;
                        if (iy < 0 || iy >= h) {
                            std::memset(dst, 0,
                                        static_cast<std::size_t>(ow) *
                                            sizeof(float));
                            continue;
                        }
                        const float *xrow = xplane + iy * xl.sh;
                        if (stride == 1 && xl.sw == 1) {
                            // Contiguous middle, zero-padded edges.
                            for (std::int64_t xo = 0; xo < ow; ++xo) {
                                const std::int64_t ix = xo + dx - pad;
                                dst[xo] = (ix < 0 || ix >= wdim)
                                              ? 0.0f
                                              : xrow[ix];
                            }
                        } else {
                            for (std::int64_t xo = 0; xo < ow; ++xo) {
                                const std::int64_t ix =
                                    xo * stride + dx - pad;
                                dst[xo] = (ix < 0 || ix >= wdim)
                                              ? 0.0f
                                              : xrow[ix * xl.sw];
                            }
                        }
                    }
                }
            });
            // GEMM: out[g-channels][pixels] = W[ocg x col_rows] * col,
            // writing each channel at its (possibly packed) base.
            const float *wg = w + g * ocg * col_rows;
            for (std::int64_t o = 0; o < ocg; ++o)
                rowOff[static_cast<std::size_t>(o)] =
                    ol.planeOff(n, g * ocg + o);
            parallelFor(ocg, 1, [&](std::int64_t o0, std::int64_t o1) {
                gemmStrided(simd, tiles, wg + o0 * col_rows, col_rows,
                            1, col, cols, 1, out, rowOff.data() + o0,
                            ol.sw, o1 - o0, cols, col_rows);
                if (bias != nullptr) {
                    for (std::int64_t o = o0; o < o1; ++o) {
                        const float bv =
                            bias[(g * ocg + o) % biasLen];
                        float *orow =
                            out + rowOff[static_cast<std::size_t>(o)];
                        for (std::int64_t p = 0; p < cols; ++p)
                            orow[p * ol.sw] += bv;
                    }
                }
            });
        }
    }
    scratch.release(col);
}

void
blockedDepthwiseConv2d(const float *x, const PlaneLayout &xl,
                       const float *w, float *out, const PlaneLayout &ol,
                       std::int64_t n_batch, std::int64_t c,
                       std::int64_t h, std::int64_t wdim, std::int64_t oh,
                       std::int64_t ow, std::int64_t kh, std::int64_t kw,
                       std::int64_t stride, std::int64_t pad)
{
    parallelFor(n_batch * c, 1, [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
            const std::int64_t n = p / c;
            const std::int64_t ch = p % c;
            const float *xp = x + xl.planeOff(n, ch);
            const float *wp = w + ch * kh * kw;
            float *op = out + ol.planeOff(n, ch);
            for (std::int64_t y = 0; y < oh; ++y) {
                for (std::int64_t xo = 0; xo < ow; ++xo) {
                    float acc = 0;
                    for (std::int64_t dy = 0; dy < kh; ++dy) {
                        const std::int64_t iy = y * stride + dy - pad;
                        if (iy < 0 || iy >= h)
                            continue;
                        const float *xrow = xp + iy * xl.sh;
                        const float *wrow = wp + dy * kw;
                        for (std::int64_t dx = 0; dx < kw; ++dx) {
                            const std::int64_t ix =
                                xo * stride + dx - pad;
                            if (ix < 0 || ix >= wdim)
                                continue;
                            acc += xrow[ix * xl.sw] * wrow[dx];
                        }
                    }
                    op[y * ol.sh + xo * ol.sw] = acc;
                }
            }
        }
    });
}

// -------------------------------------------------------------------
// Element-wise
//
// One loop per kind: the kind is a template argument, so the inline
// formula compiles to its arithmetic alone, and a caller picks the
// loop once per call or epilogue step, never per element.
// -------------------------------------------------------------------

namespace {

/** y[i] = K(x[i]) over [0, n); x may alias y. */
template <ir::OpKind K>
void
unaryLoop(const float *x, float *y, i64 n, float scale)
{
    for (i64 i = 0; i < n; ++i)
        y[i] = applyUnaryScalar(K, x[i], scale);
}

/** y[i] = K(a[i], b[i]) over [0, n) with n > 0, where a scalar
 *  operand (kScalarA / kScalarB) is its element 0 for every i.  A
 *  vector operand may alias y; a scalar one never does, so it is read
 *  once. */
template <ir::OpKind K, bool kScalarA, bool kScalarB>
void
binaryLoop(const float *a, const float *b, float *y, i64 n)
{
    const float a0 = kScalarA ? a[0] : 0.0f;
    const float b0 = kScalarB ? b[0] : 0.0f;
    for (i64 i = 0; i < n; ++i)
        y[i] = applyBinaryScalar(K, kScalarA ? a0 : a[i],
                                 kScalarB ? b0 : b[i]);
}

using UnaryLoop = void (*)(const float *, float *, i64, float);
using BinaryLoop = void (*)(const float *, const float *, float *, i64);

/** One binary kind's loops, by which operand is a scalar. */
struct BinaryLoops
{
    BinaryLoop vectors = nullptr;
    BinaryLoop scalarA = nullptr;
    BinaryLoop scalarB = nullptr;
};

template <ir::OpKind K>
BinaryLoops
binaryLoops()
{
    return {binaryLoop<K, false, false>, binaryLoop<K, true, false>,
            binaryLoop<K, false, true>};
}

UnaryLoop
unaryLoopFor(ir::OpKind kind)
{
    switch (kind) {
      case ir::OpKind::Relu:     return unaryLoop<ir::OpKind::Relu>;
      case ir::OpKind::Gelu:     return unaryLoop<ir::OpKind::Gelu>;
      case ir::OpKind::Silu:     return unaryLoop<ir::OpKind::Silu>;
      case ir::OpKind::Sigmoid:  return unaryLoop<ir::OpKind::Sigmoid>;
      case ir::OpKind::Tanh:     return unaryLoop<ir::OpKind::Tanh>;
      case ir::OpKind::Exp:      return unaryLoop<ir::OpKind::Exp>;
      case ir::OpKind::Sqrt:     return unaryLoop<ir::OpKind::Sqrt>;
      case ir::OpKind::Neg:      return unaryLoop<ir::OpKind::Neg>;
      case ir::OpKind::Identity: return unaryLoop<ir::OpKind::Identity>;
      case ir::OpKind::Scale:    return unaryLoop<ir::OpKind::Scale>;
      default:
        smPanic("no unary loop for " + ir::opKindName(kind));
    }
}

BinaryLoops
binaryLoopsFor(ir::OpKind kind)
{
    switch (kind) {
      case ir::OpKind::Add: return binaryLoops<ir::OpKind::Add>();
      case ir::OpKind::Sub: return binaryLoops<ir::OpKind::Sub>();
      case ir::OpKind::Mul: return binaryLoops<ir::OpKind::Mul>();
      case ir::OpKind::Div: return binaryLoops<ir::OpKind::Div>();
      default:
        smPanic("no binary loop for " + ir::opKindName(kind));
    }
}

/** Row-major strides of `s` broadcast against outShape: 0 where s has
 *  extent 1 or lacks the (leading) dimension. */
std::vector<std::int64_t>
broadcastStrides(const ir::Shape &outShape, const ir::Shape &s)
{
    const int orank = outShape.rank();
    const int srank = s.rank();
    std::vector<std::int64_t> own = s.rowMajorStrides();
    std::vector<std::int64_t> strides(static_cast<std::size_t>(orank), 0);
    for (int d = 0; d < srank; ++d) {
        if (s.dim(d) != 1)
            strides[static_cast<std::size_t>(d + orank - srank)] =
                own[static_cast<std::size_t>(d)];
    }
    return strides;
}

} // namespace

void
blockedUnary(ir::OpKind kind, float scale, const float *x, float *y,
             std::int64_t n)
{
    const UnaryLoop loop = unaryLoopFor(kind);
    parallelFor(n, 4096, [&](std::int64_t i0, std::int64_t i1) {
        loop(x + i0, y + i0, i1 - i0, scale);
    });
}

void
blockedEpilogue(const std::vector<EpilogueStep> &steps, float *data,
                std::int64_t n)
{
    struct StepLoops
    {
        UnaryLoop unary = nullptr; ///< null for a binary step
        BinaryLoops binary;
    };
    std::vector<StepLoops> loops(steps.size());
    for (std::size_t s = 0; s < steps.size(); ++s) {
        if (ir::isUnaryElementwise(steps[s].kind))
            loops[s].unary = unaryLoopFor(steps[s].kind);
        else
            loops[s].binary = binaryLoopsFor(steps[s].kind);
    }
    // Every step passes over one 4 KiB block while it is in L1.
    constexpr i64 kBlock = 1024;
    parallelFor(n, 4096, [&](std::int64_t e0, std::int64_t e1) {
        for (i64 b0 = e0; b0 < e1; b0 += kBlock) {
            const i64 len = std::min(kBlock, e1 - b0);
            float *v = data + b0;
            for (std::size_t s = 0; s < steps.size(); ++s) {
                const EpilogueStep &st = steps[s];
                const StepLoops &lp = loops[s];
                if (lp.unary != nullptr) {
                    lp.unary(v, v, len, st.scale);
                } else if (st.selfOperand) {
                    lp.binary.vectors(v, v, v, len);
                } else if (st.otherModulo == 1) {
                    if (st.reversed)
                        lp.binary.scalarA(st.other, v, v, len);
                    else
                        lp.binary.scalarB(v, st.other, v, len);
                } else {
                    // Rows of `other`: only the first run of a block
                    // can start mid-row.
                    i64 j = b0 % st.otherModulo;
                    for (i64 e = 0; e < len;) {
                        const i64 run =
                            std::min(len - e, st.otherModulo - j);
                        const float *o = st.other + j;
                        if (st.reversed)
                            lp.binary.vectors(o, v + e, v + e, run);
                        else
                            lp.binary.vectors(v + e, o, v + e, run);
                        e += run;
                        j = 0;
                    }
                }
            }
        }
    });
}

void
blockedBinary(ir::OpKind kind, const float *a, const float *b, float *out,
              const ir::Shape &outShape, const ir::Shape &aShape,
              const ir::Shape &bShape)
{
    const std::int64_t n = outShape.numElements();

    // Fast path: both operands elementwise-identical to the output.
    if (aShape == outShape && bShape == outShape) {
        const BinaryLoop loop = binaryLoopsFor(kind).vectors;
        parallelFor(n, 4096, [&](std::int64_t i0, std::int64_t i1) {
            loop(a + i0, b + i0, out + i0, i1 - i0);
        });
        return;
    }

    // General broadcast: odometer over output coordinates with
    // zero-stride dims on the broadcast operand(s).
    const auto astr = broadcastStrides(outShape, aShape);
    const auto bstr = broadcastStrides(outShape, bShape);
    const int rank = outShape.rank();
    parallelFor(n, 4096, [&](std::int64_t i0, std::int64_t i1) {
        std::vector<std::int64_t> coord = ir::delinearize(i0, outShape);
        std::int64_t aoff = 0, boff = 0;
        for (int d = 0; d < rank; ++d) {
            aoff += coord[static_cast<std::size_t>(d)] *
                    astr[static_cast<std::size_t>(d)];
            boff += coord[static_cast<std::size_t>(d)] *
                    bstr[static_cast<std::size_t>(d)];
        }
        for (std::int64_t i = i0; i < i1; ++i) {
            out[i] = applyBinaryScalar(kind, a[aoff], b[boff]);
            for (int d = rank - 1; d >= 0; --d) {
                const auto di = static_cast<std::size_t>(d);
                aoff += astr[di];
                boff += bstr[di];
                if (++coord[di] < outShape.dim(d))
                    break;
                aoff -= astr[di] * outShape.dim(d);
                boff -= bstr[di] * outShape.dim(d);
                coord[di] = 0;
            }
        }
    });
}

// -------------------------------------------------------------------
// Normalizations / softmax
// -------------------------------------------------------------------

void
softmaxRow(const float *x, float *out, std::int64_t extent,
           std::int64_t stride)
{
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t e = 0; e < extent; ++e)
        mx = std::max(mx, x[e * stride]);
    float denom = 0;
    for (std::int64_t e = 0; e < extent; ++e)
        denom += softmaxWeight(x[e * stride], mx);
    if (denom == 0.0f) { // fully masked
        for (std::int64_t e = 0; e < extent; ++e)
            out[e * stride] = 0.0f;
        return;
    }
    for (std::int64_t e = 0; e < extent; ++e)
        out[e * stride] = softmaxWeight(x[e * stride], mx) / denom;
}

void
blockedSoftmax(const float *x, float *out, const ir::Shape &shape,
               int axis)
{
    std::int64_t inner = 1;
    for (int i = axis + 1; i < shape.rank(); ++i)
        inner *= shape.dim(i);
    const std::int64_t extent = shape.dim(axis);
    const std::int64_t outer = shape.numElements() / (inner * extent);

    parallelFor(outer, 1, [&](std::int64_t o0, std::int64_t o1) {
        for (std::int64_t o = o0; o < o1; ++o)
            for (std::int64_t i = 0; i < inner; ++i)
                softmaxRow(x + o * extent * inner + i,
                           out + o * extent * inner + i, extent, inner);
    });
}

void
blockedLayerNorm(const float *x, const float *gamma,
                 std::int64_t gammaLen, const float *beta,
                 std::int64_t betaLen, float *out, std::int64_t outer,
                 std::int64_t inner)
{
    // Row-long gamma and beta (every zoo LayerNorm) index directly.
    const bool rowLong = (gamma == nullptr || gammaLen == inner) &&
                         (beta == nullptr || betaLen == inner);
    parallelFor(outer, 1, [&](std::int64_t o0, std::int64_t o1) {
        for (std::int64_t o = o0; o < o1; ++o) {
            const float *xp = x + o * inner;
            float *op = out + o * inner;
            float sum = 0;
            for (std::int64_t i = 0; i < inner; ++i)
                sum += xp[i];
            const float mean = sum / static_cast<float>(inner);
            float var = 0;
            for (std::int64_t i = 0; i < inner; ++i)
                var += (xp[i] - mean) * (xp[i] - mean);
            var /= static_cast<float>(inner);
            const float inv = 1.0f / std::sqrt(var + 1e-5f);
            if (rowLong) {
                for (std::int64_t i = 0; i < inner; ++i) {
                    float v = (xp[i] - mean) * inv;
                    if (gamma)
                        v *= gamma[i];
                    if (beta)
                        v += beta[i];
                    op[i] = v;
                }
                continue;
            }
            for (std::int64_t i = 0; i < inner; ++i) {
                float v = (xp[i] - mean) * inv;
                if (gamma)
                    v *= gamma[i % gammaLen];
                if (beta)
                    v += beta[i % betaLen];
                op[i] = v;
            }
        }
    });
}

void
blockedInstanceNorm(const float *x, float *out, std::int64_t nc,
                    std::int64_t hw)
{
    parallelFor(nc, 1, [&](std::int64_t o0, std::int64_t o1) {
        for (std::int64_t o = o0; o < o1; ++o) {
            const float *xp = x + o * hw;
            float *op = out + o * hw;
            float sum = 0;
            for (std::int64_t i = 0; i < hw; ++i)
                sum += xp[i];
            const float mean = sum / static_cast<float>(hw);
            float var = 0;
            for (std::int64_t i = 0; i < hw; ++i)
                var += (xp[i] - mean) * (xp[i] - mean);
            var /= static_cast<float>(hw);
            const float inv = 1.0f / std::sqrt(var + 1e-5f);
            for (std::int64_t i = 0; i < hw; ++i)
                op[i] = (xp[i] - mean) * inv;
        }
    });
}

void
blockedBatchNorm(const float *x, const float *scale,
                 std::int64_t scaleLen, const float *bias,
                 std::int64_t biasLen, float *out, std::int64_t n,
                 std::int64_t c, std::int64_t hw)
{
    parallelFor(n * c, 1, [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
            const std::int64_t ch = p % c;
            const float g = scale[ch % scaleLen];
            const float b = bias[ch % biasLen];
            const float *xp = x + p * hw;
            float *op = out + p * hw;
            for (std::int64_t i = 0; i < hw; ++i)
                op[i] = xp[i] * g + b;
        }
    });
}

// -------------------------------------------------------------------
// Reductions, pools and pad: inputs read in place through their
// offset tables, one output per loop iteration, each accumulated in
// the reference kernel's order
// -------------------------------------------------------------------

namespace {

/** Offset of every coordinate tuple over `dims` (ascending dimension
 *  indices), in row-major order of those dimensions. */
std::vector<i64>
tupleOffsets(const DimTables &xt, const std::vector<int> &dims)
{
    std::vector<i64> off{0};
    for (int d : dims) {
        const std::vector<i64> &t = xt[static_cast<std::size_t>(d)];
        std::vector<i64> next;
        next.reserve(off.size() * t.size());
        for (i64 o : off)
            for (i64 c : t)
                next.push_back(o + c);
        off = std::move(next);
    }
    return off;
}

} // namespace

void
blockedReduce(ir::OpKind kind, const float *x, const DimTables &xt,
              const ir::Shape &xs, const std::vector<std::int64_t> &axes,
              float *out)
{
    std::vector<bool> reduced(static_cast<std::size_t>(xs.rank()), false);
    i64 count = 1; // evalReduce's divisor: one factor per listed axis
    for (std::int64_t a : axes) {
        reduced[static_cast<std::size_t>(a)] = true;
        count *= xs.dim(static_cast<int>(a));
    }
    std::vector<int> keptDims, reducedDims;
    for (int d = 0; d < xs.rank(); ++d)
        (reduced[static_cast<std::size_t>(d)] ? reducedDims : keptDims)
            .push_back(d);
    const std::vector<i64> base = tupleOffsets(xt, keptDims);
    const std::vector<i64> taps = tupleOffsets(xt, reducedDims);
    const i64 *tap = taps.data();
    const i64 nTaps = static_cast<i64>(taps.size());
    const bool isMax = kind == ir::OpKind::ReduceMax;
    const bool isMean = kind == ir::OpKind::ReduceMean;
    parallelFor(static_cast<i64>(base.size()),
                std::max<i64>(1, 4096 / std::max<i64>(nTaps, 1)),
                [&](std::int64_t o0, std::int64_t o1) {
        for (i64 o = o0; o < o1; ++o) {
            const float *xo = x + base[static_cast<std::size_t>(o)];
            float acc =
                isMax ? -std::numeric_limits<float>::infinity() : 0.0f;
            if (isMax) {
                for (i64 j = 0; j < nTaps; ++j)
                    acc = std::max(acc, xo[tap[j]]);
            } else {
                for (i64 j = 0; j < nTaps; ++j)
                    acc += xo[tap[j]];
            }
            out[o] = isMean ? acc / static_cast<float>(count) : acc;
        }
    });
}

void
blockedPool2d(ir::OpKind kind, const float *x, const DimTables &xt,
              const ir::Shape &xs, std::int64_t kernel,
              std::int64_t stride, std::int64_t pad, const ir::Shape &os,
              float *out)
{
    const bool isMax = kind == ir::OpKind::MaxPool2d;
    const i64 c = os.dim(1);
    const i64 h = xs.dim(2);
    const i64 w = xs.dim(3);
    const i64 oh = os.dim(2);
    const i64 ow = os.dim(3);
    const i64 *ty = xt[2].data();
    const i64 *tx = xt[3].data();
    parallelFor(os.dim(0) * c,
                std::max<i64>(1, 4096 / (oh * ow * kernel * kernel)),
                [&](std::int64_t p0, std::int64_t p1) {
        for (i64 p = p0; p < p1; ++p) {
            const float *plane =
                x + xt[0][static_cast<std::size_t>(p / c)] +
                xt[1][static_cast<std::size_t>(p % c)];
            float *op = out + p * oh * ow;
            for (i64 y = 0; y < oh; ++y) {
                for (i64 xo = 0; xo < ow; ++xo) {
                    float acc = isMax
                        ? -std::numeric_limits<float>::infinity()
                        : 0.0f;
                    i64 cnt = 0;
                    for (i64 dy = 0; dy < kernel; ++dy) {
                        const i64 iy = y * stride + dy - pad;
                        if (iy < 0 || iy >= h)
                            continue;
                        const float *row = plane + ty[iy];
                        for (i64 dx = 0; dx < kernel; ++dx) {
                            const i64 ix = xo * stride + dx - pad;
                            if (ix < 0 || ix >= w)
                                continue;
                            const float v = row[tx[ix]];
                            acc = isMax ? std::max(acc, v) : acc + v;
                            ++cnt;
                        }
                    }
                    op[y * ow + xo] =
                        isMax ? acc
                              : acc / static_cast<float>(
                                          std::max<i64>(cnt, 1));
                }
            }
        }
    });
}

void
blockedPad(const float *x, const DimTables &xt, const ir::Shape &xs,
           const std::vector<std::int64_t> &pads, float *out,
           const ir::Shape &os)
{
    for (std::int64_t p : pads)
        SM_ASSERT(p >= 0, "pad: negative pad");
    std::fill(out, out + os.numElements(), 0.0f);
    if (xs.numElements() == 0)
        return;
    const int outer = std::max(xs.rank() - 1, 0);
    const i64 cols = xs.rank() > 0 ? xs.dim(outer) : 1;
    const i64 zero = 0;
    const i64 *inner = xs.rank() > 0 ? xt.back().data() : &zero;
    const std::vector<i64> ostr = os.rowMajorStrides();
    i64 origin = 0; // where input coordinate 0 lands
    for (int d = 0; d < xs.rank(); ++d)
        origin += pads[static_cast<std::size_t>(2 * d)] *
                  ostr[static_cast<std::size_t>(d)];
    parallelFor(xs.numElements() / cols, std::max<i64>(1, 4096 / cols),
                [&](std::int64_t r0, std::int64_t r1) {
        std::vector<i64> coord(static_cast<std::size_t>(outer));
        i64 rem = r0;
        for (int d = outer; d-- > 0;) {
            coord[static_cast<std::size_t>(d)] = rem % xs.dim(d);
            rem /= xs.dim(d);
        }
        for (i64 r = r0; r < r1; ++r) {
            i64 src = 0;
            i64 dst = origin;
            for (int d = 0; d < outer; ++d) {
                const auto du = static_cast<std::size_t>(d);
                src += xt[du][static_cast<std::size_t>(coord[du])];
                dst += coord[du] * ostr[du];
            }
            for (i64 i = 0; i < cols; ++i)
                out[dst + i] = x[src + inner[i]];
            for (int d = outer; d-- > 0;) {
                const auto du = static_cast<std::size_t>(d);
                if (++coord[du] < xs.dim(d))
                    break;
                coord[du] = 0;
            }
        }
    });
}

} // namespace smartmem::exec
