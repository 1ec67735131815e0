#include "exec/cpu_backend.h"

#include <cstring>
#include <optional>
#include <utility>

#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "index/index_map.h"
#include "runtime/memory_pool.h"
#include "support/error.h"

namespace smartmem::exec {

using ir::Layout;
using ir::Node;
using ir::OpKind;
using ir::Shape;
using ir::ValueId;
using runtime::ExecutionPlan;
using runtime::Kernel;
using runtime::KernelInput;

namespace {

bool
isRowMajorLayout(const Layout &l)
{
    if (l.packedDim() >= 0)
        return false;
    const auto &ord = l.order();
    for (std::size_t i = 0; i < ord.size(); ++i)
        if (ord[i] != static_cast<int>(i))
            return false;
    return true;
}

/** Offset contribution of logical coordinate c on dimension d. */
inline std::int64_t
dimContribution(std::int64_t c, std::int64_t stride, bool packed)
{
    return packed ? (c / 4) * stride + c % 4 : c * stride;
}

/**
 * Copy `shape` elements between two physical layouts, walking logical
 * coordinates row-major with incrementally maintained offsets (no
 * per-element coordinate vectors or physicalOffset() calls).
 * Parallel over contiguous logical-index ranges: each chunk seeds its
 * offsets from a single delinearize, then walks the same odometer, so
 * every element is written by exactly one worker and the output is
 * byte-identical at any thread count (it is a pure copy).
 */
void
relayoutCopy(const Shape &shape, const float *src, const Layout &srcL,
             float *dst, const Layout &dstL, const ParallelRunner &par)
{
    const std::int64_t total = shape.numElements();
    if (isRowMajorLayout(srcL) && isRowMajorLayout(dstL)) {
        std::memcpy(dst, src,
                    static_cast<std::size_t>(total) * sizeof(float));
        return;
    }
    const int rank = shape.rank();
    const auto sstr = srcL.strides(shape);
    const auto dstr = dstL.strides(shape);
    const int spack = srcL.packedDim();
    const int dpack = dstL.packedDim();
    par.run(total, 4096, [&](std::int64_t i0, std::int64_t i1) {
        std::vector<std::int64_t> coord = ir::delinearize(i0, shape);
        std::int64_t soff = 0, doff = 0;
        for (int d = 0; d < rank; ++d) {
            const auto di = static_cast<std::size_t>(d);
            soff += dimContribution(coord[di], sstr[di], d == spack);
            doff += dimContribution(coord[di], dstr[di], d == dpack);
        }
        for (std::int64_t i = i0; i < i1; ++i) {
            dst[doff] = src[soff];
            for (int d = rank - 1; d >= 0; --d) {
                const auto di = static_cast<std::size_t>(d);
                const std::int64_t c = coord[di];
                soff -= dimContribution(c, sstr[di], d == spack);
                doff -= dimContribution(c, dstr[di], d == dpack);
                if (c + 1 < shape.dim(d)) {
                    coord[di] = c + 1;
                    soff += dimContribution(c + 1, sstr[di], d == spack);
                    doff += dimContribution(c + 1, dstr[di], d == dpack);
                    break;
                }
                coord[di] = 0; // contribution of coordinate 0 is 0
            }
        }
    });
}

/**
 * Strided accessor over a buffer stored in a non-row-major layout.
 * At most one dimension (packedDim) is vec4-packed -- its offset
 * contribution is (c/4)*stride + c%4; every other dim is affine.
 * Normalization: a packed dim whose raw stride equals the pack factor
 * (texture x-axis, packed-innermost) or whose extent fits one lane
 * group contributes exactly c, so it is rewritten to an affine dim of
 * stride 1 -- that is what makes flat-texture operands directly
 * consumable by the SIMD GEMM.
 */
struct NativeView
{
    const float *data = nullptr;
    std::vector<std::int64_t> str;
    int packedDim = -1;
};

NativeView
makeNativeView(const float *data, const Layout &l, const Shape &shape)
{
    NativeView v;
    v.data = data;
    v.str = l.strides(shape);
    v.packedDim = l.packedDim();
    if (v.packedDim >= 0) {
        auto &s = v.str[static_cast<std::size_t>(v.packedDim)];
        if (s == 4 || shape.dim(v.packedDim) <= 4) {
            s = 1;
            v.packedDim = -1;
        }
    }
    return v;
}

/** Physical offset of each flattened leading-dims index (matmul batch
 *  coordinates), honoring a packed batch dim. */
std::vector<std::int64_t>
batchOffsets(const NativeView &vw, const Shape &s, int nBatchDims,
             std::int64_t batch)
{
    std::vector<std::int64_t> off(static_cast<std::size_t>(batch), 0);
    std::vector<std::int64_t> coord(
        static_cast<std::size_t>(nBatchDims), 0);
    for (std::int64_t bi = 0; bi < batch; ++bi) {
        std::int64_t o = 0;
        for (int d = 0; d < nBatchDims; ++d)
            o += dimContribution(coord[static_cast<std::size_t>(d)],
                                 vw.str[static_cast<std::size_t>(d)],
                                 d == vw.packedDim);
        off[static_cast<std::size_t>(bi)] = o;
        for (int d = nBatchDims - 1; d >= 0; --d) {
            const auto di = static_cast<std::size_t>(d);
            if (++coord[di] < s.dim(d))
                break;
            coord[di] = 0;
        }
    }
    return off;
}

/**
 * dst[i] = src[phys(map(coord(i)))]: reproduce an eliminated
 * transformation chain by reading the stored source (in its physical
 * layout) through the composed IndexMap.  Parallel over output
 * ranges; every element is independent.
 */
void
materializeMapped(const index::IndexMap &map, const float *src,
                  const Layout &srcL, const Shape &srcShape, float *dst,
                  const ParallelRunner &par)
{
    const Shape &os = map.outputShape();
    const auto sstr = srcL.strides(srcShape);
    const int spack = srcL.packedDim();
    // Flatten the composed expressions once; the per-element loop
    // then runs postfix programs instead of recursing shared_ptr
    // trees (a 2-4x win on gather/reshape-heavy chains).
    const index::CompiledExprs exprs =
        index::CompiledExprs::compile(map.exprs());
    const int in_rank = srcShape.rank();
    const int out_rank = os.rank();
    par.run(os.numElements(), 1024,
            [&](std::int64_t i0, std::int64_t i1) {
        std::vector<std::int64_t> coord = ir::delinearize(i0, os);
        std::vector<std::int64_t> stack(exprs.stackDepth());
        for (std::int64_t i = i0; i < i1; ++i) {
            std::int64_t off = 0;
            for (int d = 0; d < in_rank; ++d) {
                const std::int64_t c = exprs.eval(d, coord, stack);
                off += dimContribution(
                    c, sstr[static_cast<std::size_t>(d)], d == spack);
            }
            dst[i] = src[off];
            for (int d = out_rank - 1; d >= 0; --d) {
                const auto di = static_cast<std::size_t>(d);
                if (++coord[di] < os.dim(d))
                    break;
                coord[di] = 0;
            }
        }
    });
}

/**
 * If `other` (shape obs) broadcast against `os` reduces to
 * "other[i % m]" for row-major linear index i -- covering same-shape
 * (m = n), scalars (m = 1) and trailing-suffix operands such as bias
 * rows -- return m; otherwise -1.
 */
std::int64_t
suffixBroadcastModulo(const Shape &os, const Shape &obs)
{
    if (obs.rank() > os.rank())
        return -1;
    std::int64_t m = 1;
    int d = os.rank() - 1;
    int od = obs.rank() - 1;
    for (; od >= 0; --od, --d) {
        if (obs.dim(od) == 1 && os.dim(d) != 1)
            break; // rest must broadcast
        if (obs.dim(od) != os.dim(d))
            return -1;
        m *= obs.dim(od);
    }
    for (; od >= 0; --od) {
        if (obs.dim(od) != 1)
            return -1;
    }
    return m;
}

/** One folded element-wise op in a fused epilogue pass. */
struct EpilogueStep
{
    OpKind kind = OpKind::Identity;
    const Node *node = nullptr;   // for attribute-dependent unaries
    const float *other = nullptr; // binary right/left operand
    std::int64_t otherModulo = 1; // other[i % otherModulo]
    bool reversed = false;        // v = other op v (v was operand 1)
    bool selfOperand = false;     // v = v op v
};

/** A value materialized while executing one kernel.  Usually a
 *  row-major scratch view; a kernel whose anchor op stored its result
 *  directly in the kernel's chosen output layout sets inOutLayout so
 *  publishOutput() can skip the repack. */
struct LocalBuf
{
    const float *data = nullptr;
    bool owned = false; // release to the pool at kernel end
    bool inOutLayout = false;
};

/** A stored (value, copy) in its chosen physical layout. */
struct StoredBuf
{
    const float *data = nullptr;
    bool owned = false; // pool-owned (false: borrowed input/constant)
    Layout layout;
};

// -------------------------------------------------------------------
// PlanRunner: one CpuBackend::run() invocation
// -------------------------------------------------------------------

class PlanRunner
{
  public:
    PlanRunner(const ExecutionPlan &plan,
               const std::map<ValueId, Tensor> &inputs,
               const CpuBackendOptions &opts)
        : plan_(plan), graph_(plan.graph), inputs_(inputs),
          par_(opts.threads), simd_(activeSimdLevel()),
          constSynth_(opts.seed), lastUse_(runtime::lastUses(plan))
    {
        if (opts.gemmRowTile > 0)
            tiles_.rowTile = opts.gemmRowTile;
        if (opts.gemmKBlock > 0)
            tiles_.kBlock = opts.gemmKBlock;
    }

    std::vector<Tensor> run(CpuBackendStats *stats_out);

  private:
    const Shape &shapeOf(ValueId v) const
    {
        return graph_.value(v).shape;
    }

    float *alloc(std::int64_t elems)
    {
        return pool_.allocateFloats(elems);
    }

    /** Row-major constant contents, synthesized once and resident for
     *  the whole run (the paper's weights stay in memory). */
    const float *constantData(ValueId v);

    /** The stored buffer for (value, copy), falling back to model
     *  inputs and constants for copy 0. */
    StoredBuf resolveStored(ValueId v, int copy);

    /** Row-major view of `v` inside the current kernel, materializing
     *  substitutes through their read maps on first use. */
    const float *resolveLocal(const Kernel &k, ValueId v);

    /** Strided view of `v`'s *stored* buffer for layout-native
     *  consumption, or nullopt when the value must go through
     *  resolveLocal (already materialized locally, substituted through
     *  a read map, or stored row-major anyway). */
    std::optional<NativeView> tryStoredView(ValueId v);

    /** Stride view of the kernel's output layout when the anchor op
     *  may store into it directly: single-node kernel whose node
     *  produces the kernel output in a non-row-major layout. */
    std::optional<NativeView> tryNativeStore(const Kernel &k,
                                             const Node &node);

    void runRelayoutKernel(const Kernel &k);
    void runComputeKernel(const Kernel &k);
    void evalNodeBlocked(const Kernel &k, const Node &node);
    bool tryFoldEpilogue(const Kernel &k, ValueId cur, const Node &next,
                         EpilogueStep *step);
    void publishOutput(const Kernel &k);
    void releaseDead(std::size_t kernel_idx);

    /** Fallback for rare ops: copy row-major locals into reference
     *  Tensors and reuse exec::evalNode. */
    void evalViaReference(const Kernel &k, const Node &node);

    const ExecutionPlan &plan_;
    const ir::Graph &graph_;
    const std::map<ValueId, Tensor> &inputs_;
    ParallelRunner par_;
    SimdLevel simd_;
    TileParams tiles_;
    Executor constSynth_;
    runtime::BufferPool pool_;
    CpuBackendStats stats_;

    std::map<std::pair<ValueId, int>, std::size_t> lastUse_;
    std::map<std::pair<ValueId, int>, StoredBuf> env_;
    std::map<ValueId, const float *> constants_;

    // Per-kernel state.
    std::map<ValueId, LocalBuf> locals_;
    std::map<ValueId, const KernelInput *> kinBySubstitute_;
};

const float *
PlanRunner::constantData(ValueId v)
{
    auto it = constants_.find(v);
    if (it != constants_.end())
        return it->second;
    Tensor t = constSynth_.synthesizeConstant(graph_, v);
    float *buf = alloc(t.numElements());
    std::memcpy(buf, t.data(),
                static_cast<std::size_t>(t.numElements()) *
                    sizeof(float));
    constants_[v] = buf;
    return buf;
}

StoredBuf
PlanRunner::resolveStored(ValueId v, int copy)
{
    auto it = env_.find({v, copy});
    if (it != env_.end())
        return it->second;
    SM_ASSERT(copy == 0, "missing stored copy of value " +
                             std::to_string(v));
    const Node &producer = graph_.node(graph_.value(v).producer);
    if (producer.kind == OpKind::Input) {
        auto in = inputs_.find(v);
        SM_REQUIRE(in != inputs_.end(),
                   "missing model input: " + producer.name);
        SM_REQUIRE(in->second.shape() == shapeOf(v),
                   "input shape mismatch: " + producer.name);
        return {in->second.data(), false,
                Layout::rowMajor(shapeOf(v).rank())};
    }
    if (producer.kind == OpKind::Constant) {
        return {constantData(v), false,
                Layout::rowMajor(shapeOf(v).rank())};
    }
    smPanic("value " + std::to_string(v) +
            " read before it was produced");
}

const float *
PlanRunner::resolveLocal(const Kernel &k, ValueId v)
{
    auto lit = locals_.find(v);
    if (lit != locals_.end())
        return lit->second.data;

    auto kit = kinBySubstitute_.find(v);
    if (kit != kinBySubstitute_.end()) {
        const KernelInput &in = *kit->second;
        if (in.substitute != in.source) {
            // Eliminated chain: read the stored source through the
            // composed map -- one pass for the whole chain.
            SM_ASSERT(in.readMap.has_value(),
                      "substituted input without a read map");
            const float *src_data = nullptr;
            Layout src_layout = Layout::rowMajor(
                shapeOf(in.source).rank());
            if (in.internalSource) {
                auto sit = locals_.find(in.source);
                SM_ASSERT(sit != locals_.end(),
                          "internal source not yet produced in " +
                              k.name);
                src_data = sit->second.data;
            } else {
                StoredBuf s = resolveStored(in.source, in.sourceCopy);
                src_data = s.data;
                src_layout = s.layout;
            }
            float *dst = alloc(shapeOf(v).numElements());
            materializeMapped(*in.readMap, src_data, src_layout,
                              shapeOf(in.source), dst, par_);
            ++stats_.substitutesMaterialized;
            locals_[v] = {dst, true};
            return dst;
        }
        StoredBuf s = resolveStored(in.source, in.sourceCopy);
        if (isRowMajorLayout(s.layout)) {
            locals_[v] = {s.data, false};
            return s.data;
        }
        // Unpack the chosen physical layout into the compute view.
        const Shape &shape = shapeOf(v);
        float *dst = alloc(shape.numElements());
        relayoutCopy(shape, s.data, s.layout, dst,
                     Layout::rowMajor(shape.rank()), par_);
        stats_.bytesRelayouted +=
            shape.numElements() *
            static_cast<std::int64_t>(sizeof(float));
        locals_[v] = {dst, true};
        return dst;
    }

    // Not an external kernel input: constants (implicit inputs) and,
    // defensively, model inputs.
    const Node &producer = graph_.node(graph_.value(v).producer);
    if (producer.kind == OpKind::Constant)
        return constantData(v);
    if (producer.kind == OpKind::Input) {
        StoredBuf s = resolveStored(v, 0);
        return s.data;
    }
    smPanic("fused node input not available in " + k.name + ": value " +
            std::to_string(v));
}

std::optional<NativeView>
PlanRunner::tryStoredView(ValueId v)
{
    if (locals_.count(v))
        return std::nullopt; // already materialized row-major
    auto kit = kinBySubstitute_.find(v);
    if (kit == kinBySubstitute_.end())
        return std::nullopt; // constant / implicit input (row-major)
    const KernelInput &in = *kit->second;
    if (in.substitute != in.source)
        return std::nullopt; // read-map chain: materialize instead
    StoredBuf s = resolveStored(in.source, in.sourceCopy);
    if (isRowMajorLayout(s.layout))
        return std::nullopt; // zero-copy row-major path is free
    return makeNativeView(s.data, s.layout, shapeOf(v));
}

std::optional<NativeView>
PlanRunner::tryNativeStore(const Kernel &k, const Node &node)
{
    if (k.fusedNodes.size() != 1 || node.output != k.output)
        return std::nullopt;
    if (isRowMajorLayout(k.outLayout))
        return std::nullopt;
    return makeNativeView(nullptr, k.outLayout, shapeOf(node.output));
}

void
PlanRunner::runRelayoutKernel(const Kernel &k)
{
    SM_ASSERT(k.inputs.size() == 1,
              "relayout kernel with != 1 input: " + k.name);
    const KernelInput &in = k.inputs[0];
    StoredBuf src = resolveStored(in.source, in.sourceCopy);
    const Shape &shape = shapeOf(k.output);
    float *dst = alloc(k.outLayout.storageElements(shape));
    relayoutCopy(shape, src.data, src.layout, dst, k.outLayout, par_);
    stats_.bytesRelayouted +=
        shape.numElements() * static_cast<std::int64_t>(sizeof(float));
    ++stats_.relayoutKernels;
    env_[{k.output, k.copyIndex}] = {dst, true, k.outLayout};
}

bool
PlanRunner::tryFoldEpilogue(const Kernel &k, ValueId cur,
                            const Node &next, EpilogueStep *step)
{
    // The folded value must die here: consumed only by `next`, not a
    // graph output, and not the source of any read-map input.
    if (graph_.consumers(cur) != std::vector<ir::NodeId>{next.id})
        return false;
    for (ValueId out : graph_.outputIds())
        if (out == cur)
            return false;
    for (const KernelInput &in : k.inputs)
        if (in.source == cur)
            return false;
    if (shapeOf(next.output) != shapeOf(cur))
        return false;

    if (ir::isUnaryElementwise(next.kind)) {
        if (next.inputs[0] != cur)
            return false;
        *step = EpilogueStep{};
        step->kind = next.kind;
        step->node = &next;
        return true;
    }
    if (!ir::isBinaryElementwise(next.kind))
        return false;
    const bool lhs = next.inputs[0] == cur;
    const bool rhs = next.inputs[1] == cur;
    if (!lhs && !rhs)
        return false;
    *step = EpilogueStep{};
    step->kind = next.kind;
    step->node = &next;
    if (lhs && rhs) {
        step->selfOperand = true;
        return true;
    }
    const ValueId other = lhs ? next.inputs[1] : next.inputs[0];
    const std::int64_t mod =
        suffixBroadcastModulo(shapeOf(cur), shapeOf(other));
    if (mod < 0)
        return false;
    // Resolving may materialize a substitute; that work is needed by
    // the op regardless of how it executes.
    step->other = resolveLocal(k, other);
    step->otherModulo = mod;
    step->reversed = rhs;
    return true;
}

void
PlanRunner::evalNodeBlocked(const Kernel &k, const Node &node)
{
    const Shape &os = shapeOf(node.output);
    switch (ir::opInfo(node.kind).category) {
      case ir::OpCategory::Conv: {
        const Shape &xs = shapeOf(node.inputs[0]);
        const Shape &ws = shapeOf(node.inputs[1]);
        const std::int64_t stride = node.attrs.getInt("stride", 1);
        const std::int64_t pad = node.attrs.getInt("pad", 0);
        const bool depthwise = node.kind == OpKind::DepthwiseConv2d;

        // Input view: consume a stored packed/texture activation
        // in place when only the channel dim (if any) is packed.
        PlaneLayout xl =
            PlaneLayout::rowMajor(xs.dim(1), xs.dim(2), xs.dim(3));
        const float *x = nullptr;
        if (auto nv = tryStoredView(node.inputs[0]);
            nv && xs.rank() == 4 &&
            (nv->packedDim == -1 || nv->packedDim == 1)) {
            x = nv->data;
            xl = PlaneLayout{nv->str[0], nv->str[1], nv->str[2],
                             nv->str[3], nv->packedDim == 1};
            ++stats_.nativeLayoutViews;
        } else {
            x = resolveLocal(k, node.inputs[0]);
        }
        const float *w = resolveLocal(k, node.inputs[1]);
        const float *bias = nullptr;
        std::int64_t biasLen = 1;
        if (node.inputs.size() > 2) {
            // Folded conv+batchnorm bias: per-output-channel add after
            // accumulation, matching evalConv's ordering exactly.
            bias = resolveLocal(k, node.inputs[2]);
            biasLen = shapeOf(node.inputs[2]).numElements();
        }

        // Output view: store straight into the kernel's chosen layout
        // when the im2col GEMM can address it (pixel-linear rows; the
        // channel dim may be vec4-packed).
        PlaneLayout ol =
            PlaneLayout::rowMajor(os.dim(1), os.dim(2), os.dim(3));
        float *out = nullptr;
        bool nativeStore = false;
        if (auto ov = tryNativeStore(k, node);
            ov && os.rank() == 4 &&
            (ov->packedDim == -1 || ov->packedDim == 1) &&
            ov->str[2] == ov->str[3] * os.dim(3)) {
            out = alloc(k.outLayout.storageElements(os));
            ol = PlaneLayout{ov->str[0], ov->str[1], ov->str[2],
                             ov->str[3], ov->packedDim == 1};
            nativeStore = true;
            ++stats_.nativeLayoutStores;
        } else {
            out = alloc(os.numElements());
        }

        if (depthwise) {
            blockedDepthwiseConv2d(x, xl, w, out, ol, xs.dim(0),
                                   xs.dim(1), xs.dim(2), xs.dim(3),
                                   os.dim(2), os.dim(3), ws.dim(2),
                                   ws.dim(3), stride, pad, par_);
            if (bias) {
                for (std::int64_t n = 0; n < os.dim(0); ++n) {
                    for (std::int64_t c = 0; c < os.dim(1); ++c) {
                        const float bv = bias[c % biasLen];
                        float *p = out + ol.planeOff(n, c);
                        for (std::int64_t y = 0; y < os.dim(2); ++y)
                            for (std::int64_t xo = 0; xo < os.dim(3);
                                 ++xo)
                                p[y * ol.sh + xo * ol.sw] += bv;
                    }
                }
            }
        } else {
            const std::int64_t groups = node.attrs.getInt("groups", 1);
            blockedConv2d(x, xl, w, out, ol, xs.dim(0), xs.dim(1),
                          xs.dim(2), xs.dim(3), os.dim(1), os.dim(2),
                          os.dim(3), ws.dim(2), ws.dim(3), stride, pad,
                          groups, bias, biasLen, simd_, tiles_, par_,
                          pool_);
        }
        locals_[node.output] = {out, true, nativeStore};
        return;
      }
      case ir::OpCategory::MatMul: {
        const Shape &as = shapeOf(node.inputs[0]);
        const Shape &bs = shapeOf(node.inputs[1]);
        const bool trans_b = node.attrs.getInt("transB", 0) != 0;
        const std::int64_t m = as.dim(as.rank() - 2);
        const std::int64_t kk = as.dim(as.rank() - 1);
        const std::int64_t n = os.dim(os.rank() - 1);
        std::int64_t batch = 1;
        for (int i = 0; i < os.rank() - 2; ++i)
            batch *= os.dim(i);

        // A stored operand is consumable in place when its matrix
        // dims are affine after normalization (a packed *batch* dim
        // is fine -- it only shifts the per-batch base offset).
        auto matrixDimsAffine = [](const NativeView &nv, int rank) {
            return nv.packedDim != rank - 2 && nv.packedDim != rank - 1;
        };
        auto leadingProduct = [](const Shape &s) {
            std::int64_t p = 1;
            for (int i = 0; i < s.rank() - 2; ++i)
                p *= s.dim(i);
            return p;
        };

        std::vector<std::int64_t> aOff, bOff, cOff;
        MatView av, bv;
        if (auto nv = tryStoredView(node.inputs[0]);
            nv && matrixDimsAffine(*nv, as.rank()) &&
            leadingProduct(as) == batch) {
            const auto r = static_cast<std::size_t>(as.rank());
            av.data = nv->data;
            av.rs = nv->str[r - 2];
            av.cs = nv->str[r - 1];
            aOff = batchOffsets(*nv, as, as.rank() - 2, batch);
            av.batchOff = aOff.data();
            ++stats_.nativeLayoutViews;
        } else {
            av.data = resolveLocal(k, node.inputs[0]);
            av.rs = kk;
            av.cs = 1;
            av.batchStride = m * kk;
        }
        if (auto nv = tryStoredView(node.inputs[1]);
            nv && matrixDimsAffine(*nv, bs.rank()) &&
            (bs.rank() <= 2 || leadingProduct(bs) == batch)) {
            const auto r = static_cast<std::size_t>(bs.rank());
            bv.data = nv->data;
            bv.rs = nv->str[r - 2];
            bv.cs = nv->str[r - 1];
            if (bs.rank() > 2) {
                bOff = batchOffsets(*nv, bs, bs.rank() - 2, batch);
                bv.batchOff = bOff.data();
            } // else: batchStride 0, one shared matrix
            ++stats_.nativeLayoutViews;
        } else {
            bv.data = resolveLocal(k, node.inputs[1]);
            bv.rs = trans_b ? kk : n;
            bv.cs = 1;
            bv.batchStride = bs.rank() > 2 ? kk * n : 0;
        }

        MatMutView cv;
        float *out = nullptr;
        bool nativeStore = false;
        if (auto ov = tryNativeStore(k, node);
            ov && matrixDimsAffine(*ov, os.rank())) {
            const auto r = static_cast<std::size_t>(os.rank());
            out = alloc(k.outLayout.storageElements(os));
            cv.data = out;
            cv.rs = ov->str[r - 2];
            cv.cs = ov->str[r - 1];
            cOff = batchOffsets(*ov, os, os.rank() - 2, batch);
            cv.batchOff = cOff.data();
            nativeStore = true;
            ++stats_.nativeLayoutStores;
        } else {
            out = alloc(os.numElements());
            cv.data = out;
            cv.rs = n;
            cv.cs = 1;
            cv.batchStride = m * n;
        }

        blockedMatMul(av, bv, cv, batch, m, n, kk, trans_b, simd_,
                      tiles_, par_);
        locals_[node.output] = {out, true, nativeStore};
        return;
      }
      case ir::OpCategory::Norm: {
        // x, then the optional scale (LayerNorm gamma, BatchNorm
        // scale) and shift (beta, bias); InstanceNorm has neither.
        const float *x = resolveLocal(k, node.inputs[0]);
        const float *scale = node.inputs.size() > 1
                                 ? resolveLocal(k, node.inputs[1])
                                 : nullptr;
        const float *shift = node.inputs.size() > 2
                                 ? resolveLocal(k, node.inputs[2])
                                 : nullptr;
        const std::int64_t scaleLen =
            scale ? shapeOf(node.inputs[1]).numElements() : 1;
        const std::int64_t shiftLen =
            shift ? shapeOf(node.inputs[2]).numElements() : 1;
        float *out = alloc(os.numElements());
        if (node.kind == OpKind::LayerNorm) {
            const std::int64_t inner = os.dim(os.rank() - 1);
            blockedLayerNorm(x, scale, scaleLen, shift, shiftLen, out,
                             os.numElements() / inner, inner, par_);
        } else if (node.kind == OpKind::InstanceNorm) {
            blockedInstanceNorm(x, out, os.dim(0) * os.dim(1),
                                os.dim(2) * os.dim(3), par_);
        } else {
            blockedBatchNorm(x, scale, scaleLen, shift, shiftLen, out,
                             os.dim(0), os.dim(1), os.dim(2) * os.dim(3),
                             par_);
        }
        locals_[node.output] = {out, true};
        return;
      }
      case ir::OpCategory::Softmax: {
        const float *x = resolveLocal(k, node.inputs[0]);
        int axis = static_cast<int>(
            node.attrs.getInt("axis", os.rank() - 1));
        if (axis < 0)
            axis += os.rank();
        float *out = alloc(os.numElements());
        blockedSoftmax(x, out, os, axis, par_);
        locals_[node.output] = {out, true};
        return;
      }
      case ir::OpCategory::Attention: {
        const Shape &qs = shapeOf(node.inputs[0]);
        const Shape &vs = shapeOf(node.inputs[2]);
        const std::int64_t batch = qs.dim(0);
        const std::int64_t n = qs.dim(1);
        const std::int64_t dk = qs.dim(2);
        const std::int64_t m = vs.dim(1);
        const std::int64_t dv = vs.dim(2);
        const float scale = static_cast<float>(
            node.attrs.getInt("scale_milli", 1000)) / 1000.0f;
        const float *q = resolveLocal(k, node.inputs[0]);
        const float *kd = resolveLocal(k, node.inputs[1]);
        const float *v = resolveLocal(k, node.inputs[2]);
        const float *bias = nullptr;
        bool bias_batched = false;
        if (node.inputs.size() > 3) {
            bias = resolveLocal(k, node.inputs[3]);
            const Shape &bsh = shapeOf(node.inputs[3]);
            bias_batched = bsh.rank() == 3 && bsh.dim(0) > 1;
        }
        float *out = alloc(os.numElements());
        if (k.streamingAttention) {
            blockedFusedAttention(q, kd, v, bias, bias_batched, scale,
                                  out, batch, n, dk, m, dv, simd_,
                                  tiles_, par_);
            ++stats_.fusedAttentionKernels;
            stats_.scoreBytesAvoided +=
                batch * n * m *
                static_cast<std::int64_t>(sizeof(float));
        } else {
            // Materializing fallback (the A/B baseline the streaming
            // kernel is measured against): full score panel, then
            // scale+bias, row softmax, and the V matmul over it.
            float *score = alloc(batch * n * m);
            blockedMatMul({q, dk, 1, n * dk, nullptr},
                          {kd, dk, 1, m * dk, nullptr},
                          {score, m, 1, n * m, nullptr}, batch, n, m,
                          dk, /*transB=*/true, simd_, tiles_, par_);
            const std::int64_t nm = n * m;
            par_.run(batch * nm, 4096,
                     [&](std::int64_t e0, std::int64_t e1) {
                         for (std::int64_t e = e0; e < e1; ++e) {
                             float s = score[e] * scale;
                             if (bias != nullptr)
                                 s += bias[bias_batched ? e : e % nm];
                             score[e] = s;
                         }
                     });
            blockedSoftmax(score, score, Shape({batch, n, m}), 2, par_);
            blockedMatMul({score, m, 1, nm, nullptr},
                          {v, dv, 1, m * dv, nullptr},
                          {out, dv, 1, n * dv, nullptr}, batch, n, dv,
                          m, /*transB=*/false, simd_, tiles_, par_);
            pool_.release(score);
        }
        locals_[node.output] = {out, true};
        return;
      }
      case ir::OpCategory::Unary: {
        const float *x = resolveLocal(k, node.inputs[0]);
        float *out = alloc(os.numElements());
        blockedUnary(node.kind, node, x, out, os.numElements(), par_);
        locals_[node.output] = {out, true};
        return;
      }
      case ir::OpCategory::Binary: {
        const float *a = resolveLocal(k, node.inputs[0]);
        const float *b = resolveLocal(k, node.inputs[1]);
        float *out = alloc(os.numElements());
        blockedBinary(node.kind, a, b, out, os,
                      shapeOf(node.inputs[0]), shapeOf(node.inputs[1]),
                      par_);
        locals_[node.output] = {out, true};
        return;
      }
      case ir::OpCategory::Transform:
      case ir::OpCategory::Select:
        if (ir::opInfo(node.kind).eliminable) {
            // Surviving transformation: one pass through its index map
            // (the same machinery eliminated chains use).
            const float *x = resolveLocal(k, node.inputs[0]);
            const Shape &xs = shapeOf(node.inputs[0]);
            index::IndexMap map =
                index::IndexMap::fromNode(graph_, node).simplified();
            float *out = alloc(os.numElements());
            materializeMapped(map, x, Layout::rowMajor(xs.rank()), xs,
                              out, par_);
            locals_[node.output] = {out, true};
            return;
        }
        if (node.kind == OpKind::Concat) {
            // Block copies per input along the concat axis.
            const int axis = static_cast<int>(node.attrs.getInt("axis"));
            std::int64_t inner = 1;
            for (int d = axis + 1; d < os.rank(); ++d)
                inner *= os.dim(d);
            const std::int64_t outer =
                os.numElements() / (os.dim(axis) * inner);
            float *out = alloc(os.numElements());
            std::int64_t axis_off = 0;
            for (ValueId vin : node.inputs) {
                const float *x = resolveLocal(k, vin);
                const std::int64_t ext = shapeOf(vin).dim(axis);
                const std::int64_t row = ext * inner;
                for (std::int64_t o = 0; o < outer; ++o) {
                    std::memcpy(
                        out + (o * os.dim(axis) + axis_off) * inner,
                        x + o * row,
                        static_cast<std::size_t>(row) * sizeof(float));
                }
                axis_off += ext;
            }
            locals_[node.output] = {out, true};
            return;
        }
        break;
      case ir::OpCategory::Terminal:
      case ir::OpCategory::Reduce:
      case ir::OpCategory::Pool:
        break;
    }
    // No blocked kernel for this op yet: run its reference kernel.
    evalViaReference(k, node);
}

void
PlanRunner::evalViaReference(const Kernel &k, const Node &node)
{
    std::vector<Tensor> held;
    held.reserve(node.inputs.size());
    std::vector<const Tensor *> in_ptrs;
    for (ValueId vin : node.inputs) {
        const float *p = resolveLocal(k, vin);
        Tensor t(shapeOf(vin));
        std::memcpy(t.data(), p,
                    static_cast<std::size_t>(t.numElements()) *
                        sizeof(float));
        held.push_back(std::move(t));
    }
    for (const Tensor &t : held)
        in_ptrs.push_back(&t);
    Tensor out = evalNode(graph_, node, in_ptrs);
    float *buf = alloc(out.numElements());
    std::memcpy(buf, out.data(),
                static_cast<std::size_t>(out.numElements()) *
                    sizeof(float));
    locals_[node.output] = {buf, true};
}

void
PlanRunner::runComputeKernel(const Kernel &k)
{
    locals_.clear();
    kinBySubstitute_.clear();
    for (const KernelInput &in : k.inputs)
        kinBySubstitute_[in.substitute] = &in;

    std::size_t i = 0;
    while (i < k.fusedNodes.size()) {
        const Node &node = graph_.node(k.fusedNodes[i]);
        evalNodeBlocked(k, node);
        ValueId cur = node.output;

        // Fold the following element-wise chain into one in-place
        // epilogue pass over the anchor's output.
        std::vector<EpilogueStep> steps;
        std::size_t j = i + 1;
        while (j < k.fusedNodes.size()) {
            const Node &next = graph_.node(k.fusedNodes[j]);
            EpilogueStep step;
            if (!tryFoldEpilogue(k, cur, next, &step))
                break;
            steps.push_back(step);
            cur = next.output;
            ++j;
        }
        if (!steps.empty()) {
            LocalBuf buf = locals_[node.output];
            SM_ASSERT(buf.owned, "epilogue over a borrowed buffer");
            auto *data = const_cast<float *>(buf.data);
            const std::int64_t n = shapeOf(node.output).numElements();
            par_.run(n, 4096, [&](std::int64_t e0, std::int64_t e1) {
                for (std::int64_t e = e0; e < e1; ++e) {
                    float v = data[e];
                    for (const EpilogueStep &s : steps) {
                        if (s.other) {
                            const float o = s.other[e % s.otherModulo];
                            v = s.reversed
                                    ? applyBinaryScalar(s.kind, o, v)
                                    : applyBinaryScalar(s.kind, v, o);
                        } else if (s.selfOperand) {
                            v = applyBinaryScalar(s.kind, v, v);
                        } else {
                            v = applyUnaryScalar(s.kind, v, *s.node);
                        }
                    }
                    data[e] = v;
                }
            });
            stats_.fusedEpilogueOps +=
                static_cast<int>(steps.size());
            locals_.erase(node.output);
            locals_[cur] = buf;
        }
        i = j;
    }

    publishOutput(k);

    // Return per-kernel scratch to the pool.
    auto out_it = env_.find({k.output, k.copyIndex});
    const float *published =
        out_it != env_.end() ? out_it->second.data : nullptr;
    for (auto &[v, buf] : locals_) {
        if (buf.owned && buf.data != published)
            pool_.release(const_cast<float *>(buf.data));
    }
    locals_.clear();
}

void
PlanRunner::publishOutput(const Kernel &k)
{
    auto it = locals_.find(k.output);
    SM_ASSERT(it != locals_.end(),
              "kernel did not produce its output: " + k.name);
    const Shape &shape = shapeOf(k.output);
    if (it->second.inOutLayout) {
        // Anchor op already wrote the kernel's chosen layout.
        SM_ASSERT(it->second.owned,
                  "native-layout store over a borrowed buffer");
        env_[{k.output, k.copyIndex}] = {it->second.data, true,
                                         k.outLayout};
        return;
    }
    if (isRowMajorLayout(k.outLayout) && it->second.owned) {
        env_[{k.output, k.copyIndex}] = {it->second.data, true,
                                         k.outLayout};
        return;
    }
    float *dst = alloc(k.outLayout.storageElements(shape));
    relayoutCopy(shape, it->second.data, Layout::rowMajor(shape.rank()),
                 dst, k.outLayout, par_);
    if (!isRowMajorLayout(k.outLayout))
        stats_.bytesRelayouted +=
            shape.numElements() *
            static_cast<std::int64_t>(sizeof(float));
    env_[{k.output, k.copyIndex}] = {dst, true, k.outLayout};
}

void
PlanRunner::releaseDead(std::size_t kernel_idx)
{
    for (auto it = env_.begin(); it != env_.end();) {
        auto lu = lastUse_.find(it->first);
        const std::size_t last =
            lu == lastUse_.end() ? kernel_idx : lu->second;
        if (last <= kernel_idx) {
            if (it->second.owned)
                pool_.release(const_cast<float *>(it->second.data));
            it = env_.erase(it);
        } else {
            ++it;
        }
    }
}

std::vector<Tensor>
PlanRunner::run(CpuBackendStats *stats_out)
{
    for (std::size_t i = 0; i < plan_.kernels.size(); ++i) {
        const Kernel &k = plan_.kernels[i];
        if (k.fusedNodes.empty()) {
            SM_ASSERT(k.isLayoutCopy,
                      "empty kernel must be a layout copy: " + k.name);
            runRelayoutKernel(k);
        } else {
            runComputeKernel(k);
        }
        ++stats_.kernelsExecuted;
        releaseDead(i);
    }

    std::vector<Tensor> out;
    out.reserve(plan_.graph.outputIds().size());
    for (ValueId id : plan_.graph.outputIds()) {
        StoredBuf s = resolveStored(id, 0);
        const Shape &shape = shapeOf(id);
        Tensor t(shape);
        if (isRowMajorLayout(s.layout)) {
            std::memcpy(t.data(), s.data,
                        static_cast<std::size_t>(shape.numElements()) *
                            sizeof(float));
        } else {
            relayoutCopy(shape, s.data, s.layout, t.data(),
                         Layout::rowMajor(shape.rank()), par_);
        }
        out.push_back(std::move(t));
    }

    stats_.poolHighWaterBytes = pool_.highWaterBytes();
    stats_.poolReuses = pool_.reuseCount();
    stats_.simdLevel = simd_;
    stats_.tileRowTile = tiles_.rowTile;
    stats_.tileKBlock = tiles_.kBlock;
    if (stats_out)
        *stats_out = stats_;
    return out;
}

} // namespace

CpuBackend::CpuBackend(CpuBackendOptions options)
    : options_(options)
{
}

std::vector<Tensor>
CpuBackend::run(const ExecutionPlan &plan,
                const std::map<ValueId, Tensor> &inputs,
                CpuBackendStats *stats) const
{
    PlanRunner runner(plan, inputs, options_);
    return runner.run(stats);
}

} // namespace smartmem::exec
