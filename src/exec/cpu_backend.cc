#include "exec/cpu_backend.h"

#include <algorithm>
#include <cstring>
#include <mutex>
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

/** table[d][c]: offset contribution of coordinate c on dimension d
 *  of `shape` stored in layout `l`. */
std::vector<std::vector<std::int64_t>>
dimOffsetTables(const Layout &l, const Shape &shape)
{
    const auto str = l.strides(shape);
    std::vector<std::vector<std::int64_t>> t(
        static_cast<std::size_t>(shape.rank()));
    for (int d = 0; d < shape.rank(); ++d) {
        auto &td = t[static_cast<std::size_t>(d)];
        td.resize(static_cast<std::size_t>(shape.dim(d)));
        for (std::int64_t c = 0; c < shape.dim(d); ++c)
            td[static_cast<std::size_t>(c)] = dimContribution(
                c, str[static_cast<std::size_t>(d)], d == l.packedDim());
    }
    return t;
}

/**
 * Length of the unit-stride runs two offset tables over the same
 * `cols` coordinates share: cols when both are contiguous, else 4
 * when both advance by one within every aligned group of four (a
 * vec4-packed dimension against a contiguous one), else 1.
 */
std::int64_t
sharedRun(const std::int64_t *a, const std::int64_t *b, std::int64_t cols)
{
    for (std::int64_t len : {cols, std::int64_t{4}}) {
        bool keeps = len > 1 && cols % len == 0;
        for (std::int64_t x = 0; x < cols && keeps; ++x) {
            const std::int64_t head = x - x % len;
            keeps = a[x] == a[head] + x % len && b[x] == b[head] + x % len;
        }
        if (keeps)
            return len;
    }
    return 1;
}

/**
 * Copy `shape` elements between two physical layouts: unpack, pack,
 * relayout kernels and output extraction.  Walks the rows (every
 * dimension but the innermost) keeping each row's offsets as prefix
 * sums of per-dimension offset tables, so stepping to the next row
 * usually updates one entry, and copies each row in a tight loop over
 * the innermost dimension's tables.  Parallel over row ranges, each
 * chunk seeding its walk from its first row; a pure copy, so the
 * output is byte-identical at any thread count.
 */
void
relayoutCopy(const Shape &shape, const float *src, const Layout &srcL,
             float *dst, const Layout &dstL, const ParallelRunner &par)
{
    const std::int64_t total = shape.numElements();
    if (total == 0)
        return;
    if (isRowMajorLayout(srcL) && isRowMajorLayout(dstL)) {
        std::memcpy(dst, src,
                    static_cast<std::size_t>(total) * sizeof(float));
        return;
    }
    const int outer = shape.rank() - 1; // rank >= 1: not row-major
    const auto st = dimOffsetTables(srcL, shape);
    const auto dt = dimOffsetTables(dstL, shape);
    const std::int64_t cols = shape.dim(outer);
    const std::int64_t *sIn = st.back().data();
    const std::int64_t *dIn = dt.back().data();
    const std::int64_t run = sharedRun(sIn, dIn, cols);
    par.run(total / cols, std::max<std::int64_t>(1, 4096 / cols),
            [&](std::int64_t r0, std::int64_t r1) {
        const auto n = static_cast<std::size_t>(outer);
        // coord: the row's outer coordinates; sPre[d] / dPre[d]: offset
        // of dims [0, d), so sPre[outer] is the row's source offset.
        std::vector<std::int64_t> coord(n), sPre(n + 1, 0), dPre(n + 1, 0);
        std::int64_t rem = r0;
        for (std::size_t d = n; d-- > 0;) {
            coord[d] = rem % shape.dim(static_cast<int>(d));
            rem /= shape.dim(static_cast<int>(d));
        }
        std::size_t from = 0; // first dim whose prefix sums are stale
        for (std::int64_t r = r0; r < r1; ++r) {
            for (std::size_t d = from; d < n; ++d) {
                const auto c = static_cast<std::size_t>(coord[d]);
                sPre[d + 1] = sPre[d] + st[d][c];
                dPre[d + 1] = dPre[d] + dt[d][c];
            }
            const float *s = src + sPre[n];
            float *o = dst + dPre[n];
            if (run == cols) {
                std::memcpy(o, s, static_cast<std::size_t>(cols) *
                                      sizeof(float));
            } else if (run == 4) {
                for (std::int64_t x = 0; x < cols; x += 4) {
                    const float *a = s + sIn[x];
                    float *b = o + dIn[x];
                    b[0] = a[0];
                    b[1] = a[1];
                    b[2] = a[2];
                    b[3] = a[3];
                }
            } else {
                for (std::int64_t x = 0; x < cols; ++x)
                    o[dIn[x]] = s[sIn[x]];
            }
            for (from = n; from-- > 0;) {
                if (++coord[from] < shape.dim(static_cast<int>(from)))
                    break;
                coord[from] = 0;
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
 * A read through an IndexMap lowered to offsets into its source's
 * physical layout: element i of the row-major result is
 * src[offset(i)].  A row is every output coordinate but the
 * innermost.  When every row is its first row shifted,
 * offset(r, x) == rowBase[r] + inner[x], only those two small tables
 * are kept; otherwise `full` holds every element's offset.
 */
struct LoweredRead
{
    std::int64_t cols = 1;
    std::vector<std::int64_t> rowBase;
    std::vector<std::int64_t> inner;
    std::vector<std::int64_t> full; // empty when row-separable
};

/**
 * Evaluate `map` once per output element with the CompiledExprs
 * interpreter, exactly as a per-element gather would, and keep the
 * offsets in the smaller exact form (see LoweredRead).
 */
LoweredRead
lowerRead(const index::IndexMap &map, const Layout &srcL,
          const Shape &srcShape)
{
    const Shape &os = map.outputShape();
    const auto sstr = srcL.strides(srcShape);
    const int spack = srcL.packedDim();
    const index::CompiledExprs exprs =
        index::CompiledExprs::compile(map.exprs());
    const int in_rank = srcShape.rank();
    const int out_rank = os.rank();
    const std::int64_t n = os.numElements();

    LoweredRead rd;
    if (n == 0)
        return rd;
    rd.cols = out_rank > 0 ? os.dim(out_rank - 1) : 1;
    const std::int64_t rows = n / rd.cols;
    std::vector<std::int64_t> coord(static_cast<std::size_t>(out_rank), 0);
    std::vector<std::int64_t> stack(exprs.stackDepth());
    std::vector<std::int64_t> row(static_cast<std::size_t>(rd.cols));
    rd.rowBase.reserve(static_cast<std::size_t>(rows));
    for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t x = 0; x < rd.cols; ++x) {
            if (out_rank > 0)
                coord.back() = x;
            std::int64_t off = 0;
            for (int d = 0; d < in_rank; ++d)
                off += dimContribution(exprs.eval(d, coord, stack),
                                       sstr[static_cast<std::size_t>(d)],
                                       d == spack);
            row[static_cast<std::size_t>(x)] = off;
        }
        if (r == 0) {
            rd.inner = row;
            for (std::int64_t &v : rd.inner)
                v -= row[0];
        }
        bool separable = rd.full.empty();
        for (std::size_t x = 0; x < row.size() && separable; ++x)
            separable = row[x] == row[0] + rd.inner[x];
        if (separable) {
            rd.rowBase.push_back(row[0]);
        } else {
            if (rd.full.empty()) { // first exception: expand earlier rows
                rd.full.reserve(static_cast<std::size_t>(n));
                for (std::int64_t base : rd.rowBase)
                    for (std::int64_t v : rd.inner)
                        rd.full.push_back(base + v);
            }
            rd.full.insert(rd.full.end(), row.begin(), row.end());
        }
        for (int d = out_rank - 2; d >= 0; --d) {
            const auto di = static_cast<std::size_t>(d);
            if (++coord[di] < os.dim(d))
                break;
            coord[di] = 0;
        }
    }
    if (!rd.full.empty()) {
        rd.rowBase = {};
        rd.inner = {};
    }
    return rd;
}

/** dst[i] = src[offset(i)] over a lowered read.  Parallel over output
 *  ranges; a pure gather, so byte-identical at any thread count. */
void
gather(const LoweredRead &rd, const float *src, float *dst,
       const ParallelRunner &par)
{
    if (!rd.full.empty()) {
        const std::int64_t *off = rd.full.data();
        par.run(static_cast<std::int64_t>(rd.full.size()), 1024,
                [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i)
                dst[i] = src[off[i]];
        });
        return;
    }
    const std::int64_t cols = rd.cols;
    const std::int64_t *inner = rd.inner.data();
    par.run(static_cast<std::int64_t>(rd.rowBase.size()),
            std::max<std::int64_t>(1, 1024 / cols),
            [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const float *s = src + rd.rowBase[static_cast<std::size_t>(r)];
            float *o = dst + r * cols;
            for (std::int64_t x = 0; x < cols; ++x)
                o[x] = s[inner[x]];
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

/** A stored (value, copy) and the layout it was stored in. */
struct StoredBuf
{
    const float *data = nullptr;
    const Layout *layout = nullptr;
};

} // namespace

// -------------------------------------------------------------------
// PreparedPlan: everything a run needs that depends only on the plan
// and the seed
// -------------------------------------------------------------------

class PreparedPlan
{
  public:
    /** Slot of a value no kernel stores: a model input or constant,
     *  read row-major. */
    static constexpr std::size_t kBoundary = static_cast<std::size_t>(-1);

    /** Where a kernel input (or graph output) is read from. */
    struct Source
    {
        /** Index of the kernel that stores the value -- the run's
         *  buffer slot for it -- or kBoundary. */
        std::size_t slot = kBoundary;

        /** The layout the value is stored in (row-major for boundary
         *  values and for a kernel's internal sources). */
        Layout layout;

        /** A substituted input's read map, lowered over `layout`. */
        std::optional<LoweredRead> read;
    };

    struct PreparedKernel
    {
        std::vector<Source> inputs; ///< aligned with Kernel::inputs

        /** Slots whose last reader this kernel is, in (value, copy)
         *  order, released once it has run. */
        std::vector<std::size_t> release;
    };

    PreparedPlan(const ExecutionPlan &plan, std::uint64_t seed);

    const ExecutionPlan plan;
    const std::uint64_t seed;
    std::vector<PreparedKernel> kernels; ///< aligned with plan.kernels
    std::vector<Source> outputs;         ///< per graph output

    /** Graph::consumers() of every value, by value id. */
    std::vector<std::vector<ir::NodeId>> consumers;

    /** Surviving eliminable Transform/Select nodes, lowered over their
     *  row-major input. */
    std::map<ir::NodeId, LoweredRead> transforms;

    /** Row-major contents of every constant a kernel reads, by value
     *  id (null elsewhere), resident for the plan's lifetime -- the
     *  paper's weights stay in memory. */
    std::vector<const float *> constants;

  private:
    runtime::BufferPool constantStorage_;
};

PreparedPlan::PreparedPlan(const ExecutionPlan &p, std::uint64_t s)
    : plan(p), seed(s)
{
    const ir::Graph &g = plan.graph;
    const std::size_t nk = plan.kernels.size();
    const Executor synth(seed);

    constants.assign(g.values().size(), nullptr);
    auto addConstant = [&](ValueId v) {
        const auto vi = static_cast<std::size_t>(v);
        if (constants[vi] ||
            g.node(g.value(v).producer).kind != OpKind::Constant)
            return;
        Tensor t = synth.synthesizeConstant(g, v);
        float *buf = constantStorage_.allocateFloats(t.numElements());
        std::memcpy(buf, t.data(),
                    static_cast<std::size_t>(t.numElements()) *
                        sizeof(float));
        constants[vi] = buf;
    };

    std::map<std::pair<ValueId, int>, std::size_t> slotOf;
    for (std::size_t i = 0; i < nk; ++i) {
        const Kernel &k = plan.kernels[i];
        SM_ASSERT(slotOf.emplace(std::make_pair(k.output, k.copyIndex), i)
                      .second,
                  "value " + std::to_string(k.output) + " stored twice");
    }
    // The stored source of (v, copy) for a reader at kernel `reader`.
    auto sourceOf = [&](ValueId v, int copy, std::size_t reader) {
        Source src;
        auto it = slotOf.find({v, copy});
        if (it != slotOf.end() && it->second < reader) {
            src.slot = it->second;
            src.layout = plan.kernels[it->second].outLayout;
            return src;
        }
        SM_ASSERT(copy == 0,
                  "missing stored copy of value " + std::to_string(v));
        const OpKind kind = g.node(g.value(v).producer).kind;
        if (kind != OpKind::Input && kind != OpKind::Constant)
            smPanic("value " + std::to_string(v) +
                    " read before it was produced");
        addConstant(v);
        src.layout = Layout::rowMajor(g.value(v).shape.rank());
        return src;
    };

    kernels.resize(nk);
    for (std::size_t i = 0; i < nk; ++i) {
        const Kernel &k = plan.kernels[i];
        for (const KernelInput &in : k.inputs) {
            const Shape &srcShape = g.value(in.source).shape;
            Source src;
            if (in.internalSource)
                src.layout = Layout::rowMajor(srcShape.rank());
            else
                src = sourceOf(in.source, in.sourceCopy, i);
            if (in.substitute != in.source) {
                SM_ASSERT(in.readMap.has_value(),
                          "substituted input without a read map");
                src.read = lowerRead(*in.readMap, src.layout, srcShape);
            }
            kernels[i].inputs.push_back(std::move(src));
        }
        for (ir::NodeId id : k.fusedNodes) {
            const Node &node = g.node(id);
            for (ValueId v : node.inputs)
                addConstant(v);
            const ir::OpInfo &info = ir::opInfo(node.kind);
            if ((info.category == ir::OpCategory::Transform ||
                 info.category == ir::OpCategory::Select) &&
                info.eliminable) {
                const Shape &xs = g.value(node.inputs[0]).shape;
                transforms.emplace(
                    id, lowerRead(index::IndexMap::fromNode(g, node)
                                      .simplified(),
                                  Layout::rowMajor(xs.rank()), xs));
            }
        }
    }
    for (ValueId id : g.outputIds())
        outputs.push_back(sourceOf(id, 0, nk));

    // Release each stored value after its last reader, or right after
    // its producer when nothing reads it; graph outputs live to the
    // end.  slotOf iterates in (value, copy) order.
    const auto lastUse = runtime::lastUses(plan);
    for (const auto &[key, slot] : slotOf) {
        auto lu = lastUse.find(key);
        const std::size_t at =
            lu == lastUse.end() ? slot : std::max(slot, lu->second);
        if (at < nk)
            kernels[at].release.push_back(slot);
    }

    consumers.resize(g.values().size());
    for (const Node &n : g.nodes()) {
        for (auto it = n.inputs.begin(); it != n.inputs.end(); ++it)
            if (std::find(n.inputs.begin(), it, *it) == it)
                consumers[static_cast<std::size_t>(*it)].push_back(n.id);
    }
}

namespace {

// -------------------------------------------------------------------
// PlanRunner: one run of a prepared plan
// -------------------------------------------------------------------

class PlanRunner
{
  public:
    PlanRunner(const PreparedPlan &prep,
               const std::map<ValueId, Tensor> &inputs,
               const CpuBackendOptions &opts)
        : prep_(prep), plan_(prep.plan), graph_(prep.plan.graph),
          inputs_(inputs), par_(opts.threads), simd_(activeSimdLevel()),
          stored_(prep.plan.kernels.size())
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

    /** A model input or constant (row-major, borrowed). */
    const float *boundaryData(ValueId v);

    /** The stored buffer `src` (prepared for value v) names. */
    StoredBuf resolveStored(const PreparedPlan::Source &src, ValueId v);

    /** Row-major view of `v` inside the current kernel, materializing
     *  substitutes through their lowered reads on first use. */
    const float *resolveLocal(const Kernel &k, ValueId v);

    /** Strided view of `v`'s *stored* buffer for layout-native
     *  consumption, or nullopt when the value must go through
     *  resolveLocal (already materialized locally, substituted through
     *  a read map, or stored row-major anyway). */
    std::optional<NativeView> tryStoredView(const Kernel &k, ValueId v);

    /** Stride view of the kernel's output layout when the anchor op
     *  may store into it directly: single-node kernel whose node
     *  produces the kernel output in a non-row-major layout. */
    std::optional<NativeView> tryNativeStore(const Kernel &k,
                                             const Node &node);

    void runRelayoutKernel(std::size_t ki);
    void runComputeKernel(std::size_t ki);
    void evalNodeBlocked(const Kernel &k, const Node &node);
    bool tryFoldEpilogue(const Kernel &k, ValueId cur, const Node &next,
                         EpilogueStep *step);
    void publishOutput(std::size_t ki);
    void releaseDead(std::size_t ki);

    /** Fallback for rare ops: copy row-major locals into reference
     *  Tensors and reuse exec::evalNode. */
    void evalViaReference(const Kernel &k, const Node &node);

    const PreparedPlan &prep_;
    const ExecutionPlan &plan_;
    const ir::Graph &graph_;
    const std::map<ValueId, Tensor> &inputs_;
    ParallelRunner par_;
    SimdLevel simd_;
    TileParams tiles_;
    runtime::BufferPool pool_;
    CpuBackendStats stats_;

    /** Stored buffers by slot (producing kernel index); pool-owned. */
    std::vector<StoredBuf> stored_;

    // Per-kernel state.
    const PreparedPlan::PreparedKernel *kernelPrep_ = nullptr;
    std::map<ValueId, LocalBuf> locals_;
};

/** Index of the kernel input whose substitute is `v`, or -1. */
int
inputIndex(const Kernel &k, ValueId v)
{
    for (std::size_t i = 0; i < k.inputs.size(); ++i)
        if (k.inputs[i].substitute == v)
            return static_cast<int>(i);
    return -1;
}

const float *
PlanRunner::boundaryData(ValueId v)
{
    const Node &producer = graph_.node(graph_.value(v).producer);
    if (producer.kind == OpKind::Input) {
        auto in = inputs_.find(v);
        SM_REQUIRE(in != inputs_.end(),
                   "missing model input: " + producer.name);
        SM_REQUIRE(in->second.shape() == shapeOf(v),
                   "input shape mismatch: " + producer.name);
        return in->second.data();
    }
    if (producer.kind == OpKind::Constant) {
        const float *c = prep_.constants[static_cast<std::size_t>(v)];
        SM_ASSERT(c, "constant " + std::to_string(v) + " not prepared");
        return c;
    }
    smPanic("value " + std::to_string(v) +
            " read before it was produced");
}

StoredBuf
PlanRunner::resolveStored(const PreparedPlan::Source &src, ValueId v)
{
    if (src.slot == PreparedPlan::kBoundary)
        return {boundaryData(v), &src.layout};
    const StoredBuf &s = stored_[src.slot];
    SM_ASSERT(s.data, "value " + std::to_string(v) + " read after release");
    SM_ASSERT(*s.layout == src.layout,
              "value " + std::to_string(v) +
                  " stored in another layout than prepared");
    return s;
}

const float *
PlanRunner::resolveLocal(const Kernel &k, ValueId v)
{
    auto lit = locals_.find(v);
    if (lit != locals_.end())
        return lit->second.data;

    const int idx = inputIndex(k, v);
    if (idx >= 0) {
        const KernelInput &in = k.inputs[static_cast<std::size_t>(idx)];
        const PreparedPlan::Source &src =
            kernelPrep_->inputs[static_cast<std::size_t>(idx)];
        if (src.read) {
            // Eliminated chain: read the stored source through the
            // lowered composed map -- one pass for the whole chain.
            const float *src_data = nullptr;
            if (in.internalSource) {
                auto sit = locals_.find(in.source);
                SM_ASSERT(sit != locals_.end(),
                          "internal source not yet produced in " +
                              k.name);
                src_data = sit->second.data;
            } else {
                src_data = resolveStored(src, in.source).data;
            }
            float *dst = alloc(shapeOf(v).numElements());
            gather(*src.read, src_data, dst, par_);
            ++stats_.substitutesMaterialized;
            locals_[v] = {dst, true};
            return dst;
        }
        StoredBuf s = resolveStored(src, in.source);
        if (isRowMajorLayout(*s.layout)) {
            locals_[v] = {s.data, false};
            return s.data;
        }
        // Unpack the chosen physical layout into the compute view.
        const Shape &shape = shapeOf(v);
        float *dst = alloc(shape.numElements());
        relayoutCopy(shape, s.data, *s.layout, dst,
                     Layout::rowMajor(shape.rank()), par_);
        stats_.bytesRelayouted +=
            shape.numElements() *
            static_cast<std::int64_t>(sizeof(float));
        locals_[v] = {dst, true};
        return dst;
    }

    // Not an external kernel input: constants (implicit inputs) and,
    // defensively, model inputs.
    const OpKind kind = graph_.node(graph_.value(v).producer).kind;
    if (kind == OpKind::Constant || kind == OpKind::Input)
        return boundaryData(v);
    smPanic("fused node input not available in " + k.name + ": value " +
            std::to_string(v));
}

std::optional<NativeView>
PlanRunner::tryStoredView(const Kernel &k, ValueId v)
{
    if (locals_.count(v))
        return std::nullopt; // already materialized row-major
    const int idx = inputIndex(k, v);
    if (idx < 0)
        return std::nullopt; // constant / implicit input (row-major)
    const PreparedPlan::Source &src =
        kernelPrep_->inputs[static_cast<std::size_t>(idx)];
    if (src.read)
        return std::nullopt; // read-map chain: materialize instead
    StoredBuf s =
        resolveStored(src, k.inputs[static_cast<std::size_t>(idx)].source);
    if (isRowMajorLayout(*s.layout))
        return std::nullopt; // zero-copy row-major path is free
    return makeNativeView(s.data, *s.layout, shapeOf(v));
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
PlanRunner::runRelayoutKernel(std::size_t ki)
{
    const Kernel &k = plan_.kernels[ki];
    SM_ASSERT(k.inputs.size() == 1,
              "relayout kernel with != 1 input: " + k.name);
    StoredBuf src =
        resolveStored(prep_.kernels[ki].inputs[0], k.inputs[0].source);
    const Shape &shape = shapeOf(k.output);
    float *dst = alloc(k.outLayout.storageElements(shape));
    relayoutCopy(shape, src.data, *src.layout, dst, k.outLayout, par_);
    stats_.bytesRelayouted +=
        shape.numElements() * static_cast<std::int64_t>(sizeof(float));
    ++stats_.relayoutKernels;
    stored_[ki] = {dst, &k.outLayout};
}

bool
PlanRunner::tryFoldEpilogue(const Kernel &k, ValueId cur,
                            const Node &next, EpilogueStep *step)
{
    // The folded value must die here: consumed only by `next`, not a
    // graph output, and not the source of any read-map input.
    const auto &consumers = prep_.consumers[static_cast<std::size_t>(cur)];
    if (consumers.size() != 1 || consumers[0] != next.id)
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
        if (auto nv = tryStoredView(k, node.inputs[0]);
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
        if (auto nv = tryStoredView(k, node.inputs[0]);
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
        if (auto nv = tryStoredView(k, node.inputs[1]);
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
            float *out = alloc(os.numElements());
            gather(prep_.transforms.at(node.id), x, out, par_);
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
PlanRunner::runComputeKernel(std::size_t ki)
{
    const Kernel &k = plan_.kernels[ki];
    kernelPrep_ = &prep_.kernels[ki];
    locals_.clear();

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

    publishOutput(ki);

    // Return per-kernel scratch to the pool.
    const float *published = stored_[ki].data;
    for (auto &[v, buf] : locals_) {
        if (buf.owned && buf.data != published)
            pool_.release(const_cast<float *>(buf.data));
    }
    locals_.clear();
}

void
PlanRunner::publishOutput(std::size_t ki)
{
    const Kernel &k = plan_.kernels[ki];
    auto it = locals_.find(k.output);
    SM_ASSERT(it != locals_.end(),
              "kernel did not produce its output: " + k.name);
    const Shape &shape = shapeOf(k.output);
    if (it->second.inOutLayout) {
        // Anchor op already wrote the kernel's chosen layout.
        SM_ASSERT(it->second.owned,
                  "native-layout store over a borrowed buffer");
        stored_[ki] = {it->second.data, &k.outLayout};
        return;
    }
    if (isRowMajorLayout(k.outLayout) && it->second.owned) {
        stored_[ki] = {it->second.data, &k.outLayout};
        return;
    }
    float *dst = alloc(k.outLayout.storageElements(shape));
    relayoutCopy(shape, it->second.data, Layout::rowMajor(shape.rank()),
                 dst, k.outLayout, par_);
    if (!isRowMajorLayout(k.outLayout))
        stats_.bytesRelayouted +=
            shape.numElements() *
            static_cast<std::int64_t>(sizeof(float));
    stored_[ki] = {dst, &k.outLayout};
}

void
PlanRunner::releaseDead(std::size_t ki)
{
    for (std::size_t slot : prep_.kernels[ki].release) {
        pool_.release(const_cast<float *>(stored_[slot].data));
        stored_[slot] = {};
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
            runRelayoutKernel(i);
        } else {
            runComputeKernel(i);
        }
        ++stats_.kernelsExecuted;
        releaseDead(i);
    }

    std::vector<Tensor> out;
    out.reserve(graph_.outputIds().size());
    for (std::size_t i = 0; i < graph_.outputIds().size(); ++i) {
        const ValueId id = graph_.outputIds()[i];
        const StoredBuf s = resolveStored(prep_.outputs[i], id);
        const Shape &shape = shapeOf(id);
        Tensor t(shape);
        relayoutCopy(shape, s.data, *s.layout, t.data(),
                     Layout::rowMajor(shape.rank()), par_);
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

struct CpuBackend::Cache
{
    std::mutex mu;
    std::map<std::string, std::shared_ptr<const PreparedPlan>> plans;
};

CpuBackend::CpuBackend(CpuBackendOptions options)
    : options_(options), cache_(std::make_shared<Cache>())
{
}

std::shared_ptr<const PreparedPlan>
CpuBackend::prepare(const ExecutionPlan &plan) const
{
    return std::make_shared<const PreparedPlan>(plan, options_.seed);
}

std::vector<Tensor>
CpuBackend::run(const ExecutionPlan &plan,
                const std::map<ValueId, Tensor> &inputs,
                CpuBackendStats *stats) const
{
    if (plan.cacheKey.empty())
        return run(*prepare(plan), inputs, stats);
    std::shared_ptr<const PreparedPlan> prepared;
    {
        std::lock_guard<std::mutex> lock(cache_->mu);
        auto it = cache_->plans.find(plan.cacheKey);
        if (it != cache_->plans.end())
            prepared = it->second;
    }
    if (!prepared) {
        // Prepared outside the lock; when callers race on one key,
        // each prepares an identical plan and the first insert wins.
        auto fresh = prepare(plan);
        std::lock_guard<std::mutex> lock(cache_->mu);
        prepared = cache_->plans.emplace(plan.cacheKey, std::move(fresh))
                       .first->second;
    }
    return run(*prepared, inputs, stats);
}

std::vector<Tensor>
CpuBackend::run(const PreparedPlan &prepared,
                const std::map<ValueId, Tensor> &inputs,
                CpuBackendStats *stats) const
{
    SM_REQUIRE(prepared.seed == options_.seed,
               "plan was prepared with constant seed " +
                   std::to_string(prepared.seed) + ", backend uses " +
                   std::to_string(options_.seed));
    PlanRunner runner(prepared, inputs, options_);
    return runner.run(stats);
}

} // namespace smartmem::exec
