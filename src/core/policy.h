/**
 * @file
 * Planner policies: what a compiler pipeline is allowed to fuse and how
 * it assigns layouts.  SmartMem and the six baseline frameworks are
 * all expressed as FusionPolicy plus LayoutStrategy presets over one
 * planner, so latency differences in the benchmarks emerge from the
 * decisions themselves.
 */
#ifndef SMARTMEM_CORE_POLICY_H
#define SMARTMEM_CORE_POLICY_H

namespace smartmem::core {

/** Operator-fusion capabilities of a compiler. */
struct FusionPolicy
{
    /** Fuse chains of element-wise (ILI & Variable) operators. */
    bool fuseEltwiseChains = true;

    /** Fuse element-wise epilogues/prologues into ILD & Variable
     *  compute operators (conv+bias+relu style). */
    bool fuseEltwiseIntoIld = true;

    /** Absorb single-consumer element-wise producer chains into the
     *  consuming compute op (DNNFusion-style backward fusion). */
    bool fusePreChains = true;

    /** Allow a MatMul/BatchMatMul to join a group whose ILD content is
     *  purely normalizations (LayerNorm/InstanceNorm prologue into the
     *  matmul kernel); the kernel cost model already prices multi-ILD
     *  kernels, so no backend change is needed. */
    bool fuseNormMatmulPrologue = false;

    /** Maximum element-wise ops fused after a compute seed;
     *  fixed-pattern frameworks (MNN/NCNN/TFLite) allow 1-2. */
    int maxPostOps = 64;

    /** Mark FusedAttention kernels as streaming
     *  (Kernel::streamingAttention): a cost-model fact -- the O(n^2)
     *  score matrix is not charged as memory traffic.  The CPU backend
     *  streams every FusedAttention node either way. */
    bool fuseAttentionBlock = false;

    /** Fuse consecutive layout-transformation operators into a single
     *  data-movement kernel with a composed index map (DNNFusion). */
    bool fuseTransformChains = false;

    /**
     * SmartMem's Layout Transformation Elimination: operators with a
     * Fixed output type are removed entirely; consumers read through
     * the composed, strength-reduced IndexMap (Table 5 / Section 3.2).
     */
    bool eliminateTransforms = false;

    /** Apply strength reduction to composed index maps (Section 3.2.1);
     *  disabling isolates its contribution (Index Comprehension). */
    bool simplifyIndexMaps = true;
};

/** How a compiler assigns physical layouts and memory spaces. */
enum class LayoutStrategy {
    /** Flat row-major buffers everywhere (TFLite-like). */
    RowMajorBuffer,

    /** Channel-packed (C/4-vector) buffers for conv ops, row-major
     *  elsewhere; mismatches repacked (NCNN-like). */
    PackedBuffer,

    /** NC4HW4 texture residency for conv ops, flat buffers for
     *  transformer ops; implicit relayout at every boundary
     *  (MNN-like). */
    Nc4hw4Texture,

    /** Per-op preferred layouts from a fixed menu with transforms at
     *  boundaries, buffers only (TVM ConvertLayout-like). */
    ConvertLayout,

    /** DNNFusion: texture residency like MNN but transformer ops also
     *  read textures; no layout search. */
    FusedTexture,

    /** SmartMem: reduction-dimension guided search over candidate
     *  layouts incl. 2.5D texture mappings (Sections 3.2.2, 3.3). */
    SmartSelect,

    /** Layout selection (Section 3.2.2) without the 2.5D texture-axis
     *  mapping of Section 3.3: candidates choose dimension order and
     *  packing, textures stay in the default flat residency.  This is
     *  the "Layout Selecting" stage of Figure 8. */
    SmartSelectFlatTexture,

    /** SmartSelect restricted to 1D buffers (desktop GPUs, Table 9;
     *  also the "Layout Selecting" stage of Figure 8 before texture
     *  mapping). */
    SmartSelectBufferOnly,
};

} // namespace smartmem::core

#endif // SMARTMEM_CORE_POLICY_H
