#include "exec/cpu_backend.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "index/index_map.h"
#include "runtime/memory_pool.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace smartmem::exec {

using ir::Layout;
using ir::Node;
using ir::OpKind;
using ir::Shape;
using ir::ValueId;
using runtime::ExecutionPlan;
using runtime::Kernel;
using runtime::KernelInput;
using support::parallelFor;

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

/** Index of a buffer in a run's pointer table (PlanRunner): a stored
 *  value, a model input, a constant or a kernel-local value.  The
 *  preparation numbers them; a run only looks them up. */
using Buf = std::size_t;

/** The entry every run keeps null: an absent optional operand. */
constexpr Buf kNone = 0;

/**
 * Strided accessor over buffer `buf` stored in a non-row-major layout.
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
    Buf buf = kNone;
    std::vector<std::int64_t> str;
    int packedDim = -1;
};

NativeView
makeNativeView(Buf buf, const Layout &l, const Shape &shape)
{
    NativeView v;
    v.buf = buf;
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

/** Offset contribution of coordinate c on dimension d of view v. */
inline std::int64_t
contribution(const NativeView &v, std::size_t d, std::int64_t c)
{
    return dimContribution(c, v.str[d], static_cast<int>(d) == v.packedDim);
}

/** table[d][c]: offset contribution of coordinate c on dimension d
 *  of `shape` read through view `v` (normalizing a packed dim keeps
 *  every contribution, so any view of one layout gives its tables). */
DimTables
dimOffsetTables(const NativeView &v, const Shape &shape)
{
    DimTables t(static_cast<std::size_t>(shape.rank()));
    for (std::size_t d = 0; d < t.size(); ++d) {
        t[d].resize(static_cast<std::size_t>(shape.dim(static_cast<int>(d))));
        for (std::size_t c = 0; c < t[d].size(); ++c)
            t[d][c] = contribution(v, d, static_cast<std::int64_t>(c));
    }
    return t;
}

/**
 * A copy of `shape` elements between two physical layouts, prepared
 * once: the strides of both sides and the length of the unit-stride
 * runs they share over the innermost dimension -- cols when both are
 * contiguous, else 4 when both advance by one within every aligned
 * group of four (a vec4-packed dimension against a contiguous one),
 * else 1.  A copy between two row-major layouts is one memcpy.
 */
struct Relayout
{
    Shape shape;
    NativeView src, dst;
    bool rowMajor = false;
    std::int64_t run = 1;
};

Relayout
planRelayout(const Shape &shape, const Layout &srcL, const Layout &dstL)
{
    Relayout rl{shape, makeNativeView(kNone, srcL, shape),
                makeNativeView(kNone, dstL, shape),
                isRowMajorLayout(srcL) && isRowMajorLayout(dstL), 1};
    if (rl.rowMajor)
        return rl;
    const auto in = static_cast<std::size_t>(shape.rank() - 1); // rank >= 1
    const std::int64_t cols = shape.dim(shape.rank() - 1);
    for (std::int64_t len : {cols, std::int64_t{4}}) {
        bool keeps = len > 1 && cols % len == 0;
        for (std::int64_t x = 0; x < cols && keeps; ++x) {
            const std::int64_t head = x - x % len;
            keeps = contribution(rl.src, in, x) ==
                        contribution(rl.src, in, head) + x % len &&
                    contribution(rl.dst, in, x) ==
                        contribution(rl.dst, in, head) + x % len;
        }
        if (keeps) {
            rl.run = len;
            break;
        }
    }
    return rl;
}

/**
 * Copy a prepared Relayout's elements from src to dst: unpack, pack,
 * relayout kernels and output extraction.  Walks the rows (every
 * dimension but the innermost) keeping each row's offsets as prefix
 * sums of per-dimension contributions, so stepping to the next row
 * usually updates one entry, and copies each row in a tight loop over
 * the innermost dimension.  Parallel over row ranges, each chunk
 * seeding its walk from its first row; a pure copy, so the output is
 * byte-identical at any thread count.
 */
void
relayoutCopy(const Relayout &rl, const float *src, float *dst)
{
    const Shape &shape = rl.shape;
    const std::int64_t total = shape.numElements();
    if (rl.rowMajor) {
        std::memcpy(dst, src,
                    static_cast<std::size_t>(total) * sizeof(float));
        return;
    }
    const int outer = shape.rank() - 1;
    const auto n = static_cast<std::size_t>(outer);
    const std::int64_t cols = shape.dim(outer);
    const std::int64_t sStride = rl.src.str[n];
    const std::int64_t dStride = rl.dst.str[n];
    const bool sPacked = rl.src.packedDim == outer;
    const bool dPacked = rl.dst.packedDim == outer;
    parallelFor(total / cols, std::max<std::int64_t>(1, 4096 / cols),
                [&](std::int64_t r0, std::int64_t r1) {
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
                sPre[d + 1] = sPre[d] + contribution(rl.src, d, coord[d]);
                dPre[d + 1] = dPre[d] + contribution(rl.dst, d, coord[d]);
            }
            const float *s = src + sPre[n];
            float *o = dst + dPre[n];
            if (rl.run == cols) {
                std::memcpy(o, s, static_cast<std::size_t>(cols) *
                                      sizeof(float));
            } else if (rl.run == 4) {
                for (std::int64_t x = 0; x < cols; x += 4) {
                    const float *a = s + dimContribution(x, sStride, sPacked);
                    float *b = o + dimContribution(x, dStride, dPacked);
                    b[0] = a[0];
                    b[1] = a[1];
                    b[2] = a[2];
                    b[3] = a[3];
                }
            } else {
                for (std::int64_t x = 0; x < cols; ++x)
                    o[dimContribution(x, dStride, dPacked)] =
                        s[dimContribution(x, sStride, sPacked)];
            }
            for (from = n; from-- > 0;) {
                if (++coord[from] < shape.dim(static_cast<int>(from)))
                    break;
                coord[from] = 0;
            }
        }
    });
}

/** Physical offset of each flattened leading-dims index of `s` (matmul
 *  batch coordinates) in view `vw`, honoring a packed batch dim. */
std::vector<std::int64_t>
batchOffsets(const NativeView &vw, const Shape &s)
{
    std::vector<std::int64_t> off{0};
    for (int d = 0; d + 2 < s.rank(); ++d) {
        std::vector<std::int64_t> next;
        for (std::int64_t o : off)
            for (std::int64_t c = 0; c < s.dim(d); ++c)
                next.push_back(
                    o + contribution(vw, static_cast<std::size_t>(d), c));
        off.swap(next);
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
 * Evaluate `map` for every output element with index::evalExpr,
 * exactly as a per-element gather would, and keep the offsets in the
 * smaller exact form (see LoweredRead).  A source dimension whose
 * expression does not read the innermost output coordinate is
 * constant along a row, so it is evaluated once per row.
 */
LoweredRead
lowerRead(const index::IndexMap &map, const Layout &srcL,
          const Shape &srcShape)
{
    const Shape &os = map.outputShape();
    const auto sstr = srcL.strides(srcShape);
    const int spack = srcL.packedDim();
    const std::vector<index::Expr> &exprs = map.exprs();
    const int in_rank = srcShape.rank();
    const int out_rank = os.rank();
    const std::int64_t n = os.numElements();

    LoweredRead rd;
    if (n == 0)
        return rd;
    rd.cols = out_rank > 0 ? os.dim(out_rank - 1) : 1;
    const std::int64_t rows = n / rd.cols;
    std::vector<std::int64_t> coord(static_cast<std::size_t>(out_rank), 0);
    std::vector<int> rowDims, elemDims;
    for (int d = 0; d < in_rank; ++d) {
        const bool readsInner =
            out_rank > 0 &&
            index::usedVars(exprs[static_cast<std::size_t>(d)])
                .count(out_rank - 1) > 0;
        (readsInner ? elemDims : rowDims).push_back(d);
    }
    auto contribution = [&](int d) {
        const auto du = static_cast<std::size_t>(d);
        return dimContribution(index::evalExpr(exprs[du], coord),
                               sstr[du], d == spack);
    };
    std::vector<std::int64_t> row(static_cast<std::size_t>(rd.cols));
    rd.rowBase.reserve(static_cast<std::size_t>(rows));
    for (std::int64_t r = 0; r < rows; ++r) {
        std::int64_t rowOff = 0;
        for (int d : rowDims)
            rowOff += contribution(d);
        for (std::int64_t x = 0; x < rd.cols; ++x) {
            if (out_rank > 0)
                coord.back() = x;
            std::int64_t off = rowOff;
            for (int d : elemDims)
                off += contribution(d);
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
gather(const LoweredRead &rd, const float *src, float *dst)
{
    if (!rd.full.empty()) {
        const std::int64_t *off = rd.full.data();
        parallelFor(static_cast<std::int64_t>(rd.full.size()), 1024,
                    [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i)
                dst[i] = src[off[i]];
        });
        return;
    }
    const std::int64_t cols = rd.cols;
    const std::int64_t *inner = rd.inner.data();
    parallelFor(static_cast<std::int64_t>(rd.rowBase.size()),
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


// -------------------------------------------------------------------
// Interned constants: one 64-byte-aligned copy of each distinct
// constant, shared by every preparation of a backend that reads it
// -------------------------------------------------------------------

/** A constant's row-major floats in one 64-byte-aligned block (the
 *  BufferPool alignment), zero-padded to a whole number of lines. */
class ConstantBlock
{
  public:
    explicit ConstantBlock(const Tensor &t) : elems_(t.numElements())
    {
        constexpr std::size_t kAlign = runtime::BufferPool::kAlignment;
        const std::size_t used =
            static_cast<std::size_t>(elems_) * sizeof(float);
        bytes_ = std::max(kAlign, (used + kAlign - 1) / kAlign * kAlign);
        data_ = static_cast<float *>(std::aligned_alloc(kAlign, bytes_));
        SM_REQUIRE(data_ != nullptr, "constant store: out of memory");
        std::memcpy(data_, t.data(), used);
        std::memset(reinterpret_cast<char *>(data_) + used, 0,
                    bytes_ - used);
    }
    ~ConstantBlock() { std::free(data_); }
    ConstantBlock(const ConstantBlock &) = delete;
    ConstantBlock &operator=(const ConstantBlock &) = delete;

    const float *data() const { return data_; }
    std::size_t bytes() const { return bytes_; }

    /** Whether this block holds exactly `t`'s floats, bit for bit. */
    bool holds(const Tensor &t) const
    {
        return elems_ == t.numElements() &&
               std::memcmp(data_, t.data(),
                           static_cast<std::size_t>(elems_) *
                               sizeof(float)) == 0;
    }

  private:
    std::int64_t elems_;
    std::size_t bytes_ = 0;
    float *data_ = nullptr;
};

/** FNV-1a over the 64-bit words of a tensor's floats, seeded with
 *  the byte count.  Four interleaved lanes keep four multiplies in
 *  flight (4x faster than one chain); the tail words go to lane 0. */
std::uint64_t
contentHash(const Tensor &t)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    constexpr std::size_t kWord = sizeof(std::uint64_t);
    const auto *p = reinterpret_cast<const unsigned char *>(t.data());
    const std::size_t n =
        static_cast<std::size_t>(t.numElements()) * sizeof(float);
    std::uint64_t lane[4] = {0xcbf29ce484222325ULL ^ n, 1, 2, 3};
    std::size_t i = 0;
    for (; i + 4 * kWord <= n; i += 4 * kWord) {
        for (std::size_t l = 0; l < 4; ++l) {
            std::uint64_t w = 0;
            std::memcpy(&w, p + i + l * kWord, kWord);
            lane[l] = (lane[l] ^ w) * kPrime;
        }
    }
    for (; i < n; i += kWord) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, std::min(kWord, n - i));
        lane[0] = (lane[0] ^ w) * kPrime;
    }
    std::uint64_t h = lane[0];
    for (std::size_t l = 1; l < 4; ++l)
        h = (h ^ lane[l]) * kPrime;
    return h;
}

/**
 * Constants by content.  A lookup hashes the floats and confirms a
 * candidate with memcmp, so only bit-identical constants share a
 * block, whatever rule produced them.  Entries are weak: a block lives
 * while a preparation holds it, and expired entries are swept whenever
 * the map has doubled since the last sweep, so a backend that prepares
 * unkeyed plans forever stays bounded.
 */
class ConstantStore
{
  public:
    /** The resident block holding `t`'s bytes, added if none is. */
    std::shared_ptr<const ConstantBlock> intern(const Tensor &t)
    {
        const std::uint64_t h = contentHash(t);
        std::lock_guard<std::mutex> lock(mu_);
        auto [first, last] = entries_.equal_range(h);
        for (auto it = first; it != last; ++it)
            if (auto block = it->second.lock(); block && block->holds(t))
                return block;
        if (entries_.size() >= 2 * swept_) {
            for (auto it = entries_.begin(); it != entries_.end();)
                it = it->second.expired() ? entries_.erase(it)
                                          : std::next(it);
            swept_ = std::max<std::size_t>(entries_.size(), 64);
        }
        auto block = std::make_shared<const ConstantBlock>(t);
        entries_.emplace(h, block);
        return block;
    }

    /** Bytes of the blocks some preparation still holds. */
    std::int64_t residentBytes() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::int64_t bytes = 0;
        for (const auto &[h, entry] : entries_)
            if (auto block = entry.lock())
                bytes += static_cast<std::int64_t>(block->bytes());
        return bytes;
    }

  private:
    mutable std::mutex mu_;
    std::unordered_multimap<std::uint64_t,
                            std::weak_ptr<const ConstantBlock>>
        entries_;
    std::size_t swept_ = 64; ///< entries_.size() after the last sweep
};

// -------------------------------------------------------------------
// Launch lists: a preparation lowers every kernel of a plan to bound
// steps once, and a run only walks them
// -------------------------------------------------------------------

class PlanRunner;

/** One bound action of a launch: materialize an operand, call a
 *  kernel, apply an epilogue or copy between layouts.  It reaches
 *  buffers through the runner by index, so concurrent runs share it. */
using Step = std::function<void(PlanRunner &)>;

/** One plan kernel, lowered. */
struct Launch
{
    std::vector<Step> steps; ///< in the order a run performs them

    /** Released after the steps: the kernel's scratch by value, then
     *  the stored values it reads last, by (value, copy). */
    std::vector<Buf> release;
};

/** A model input a run reads, checked against the caller's inputs. */
struct ModelInput
{
    Buf buf = kNone;
    ValueId id = 0;
    Shape shape;
    std::string name;
};

/**
 * Everything a run needs that depends only on the plan and the seed.
 * A run reads nothing of the plan it is given but the counts
 * checkMatches compares: the cacheKey contract makes that plan
 * interchangeable with the one prepared.  Concurrent runs share it.
 */
struct PreparedPlan
{
    PreparedPlan(const ExecutionPlan &plan, std::uint64_t seed,
                 ConstantStore &store);

    /** Raise FatalError unless `plan` has the kernel and value counts
     *  of the plan this was prepared from. */
    void checkMatches(const ExecutionPlan &plan) const
    {
        SM_REQUIRE(plan.kernels.size() == launches.size() &&
                       plan.graph.values().size() == valueCount,
                   "plan '" + plan.cacheKey + "' has " +
                       std::to_string(plan.kernels.size()) +
                       " kernels and " +
                       std::to_string(plan.graph.values().size()) +
                       " values, its preparation " +
                       std::to_string(launches.size()) + " and " +
                       std::to_string(valueCount));
    }

    std::vector<Launch> launches;     ///< aligned with plan.kernels
    /** Per graph output: where it is stored, its copy to row-major. */
    std::vector<std::pair<Buf, Relayout>> outputs;
    std::vector<ModelInput> inputs;

    /** A run's buffer table as it starts: constants set, every other
     *  entry (kNone, model inputs, values a run allocates) null. */
    std::vector<const float *> bufs{nullptr};

    /** The interned constants `bufs` points into, resident for the
     *  preparation's lifetime -- the paper's weights stay in memory. */
    std::vector<std::shared_ptr<const ConstantBlock>> constants;

    /** The counters of a run that depend only on the plan. */
    CpuBackendStats counts;

    std::size_t valueCount = 0;
};

/** One run of a prepared plan: its buffer table, pool, SIMD level
 *  and tiles.  Steps reach a run's state only through it. */
class PlanRunner
{
  public:
    PlanRunner(const PreparedPlan &prep, const CpuBackendOptions &opts)
        : simd(activeSimdLevel()), prep_(prep)
    {
        if (opts.gemmRowTile > 0)
            tiles.rowTile = opts.gemmRowTile;
        if (opts.gemmKBlock > 0)
            tiles.kBlock = opts.gemmKBlock;
    }

    std::vector<Tensor> run(const std::map<ValueId, Tensor> &inputs,
                            CpuBackendStats *stats_out);

    const float *operator[](Buf b) const { return bufs_[b]; }

    /** A buffer this run allocated, for writing in place. */
    float *owned(Buf b) const { return const_cast<float *>(bufs_[b]); }

    float *alloc(Buf b, std::int64_t elems)
    {
        float *p = pool.allocateFloats(elems);
        bufs_[b] = p;
        return p;
    }

    const SimdLevel simd;
    TileParams tiles;
    runtime::BufferPool pool;

    /** An epilogue program with this run's operands (scratch). */
    std::vector<EpilogueStep> epilogue;

  private:
    const PreparedPlan &prep_;
    std::vector<const float *> bufs_;
};

std::int64_t
floatBytes(const Shape &shape)
{
    return shape.numElements() * static_cast<std::int64_t>(sizeof(float));
}

/**
 * Lowers a plan into a PreparedPlan.  For each kernel, in the order it
 * runs, it decides how every operand is read and every output stored,
 * which element-wise ops fold into an epilogue and what each attribute
 * holds, and binds each decision into a step.
 */
class Lowering
{
  public:
    Lowering(const ExecutionPlan &plan, std::uint64_t seed,
             ConstantStore &store, PreparedPlan &prep)
        : plan_(plan), g_(plan.graph), synth_(seed), store_(store),
          prep_(prep), counts_(prep.counts)
    {
    }

    void lower();

  private:
    /** Where a kernel input's source is stored, and in what layout
     *  (row-major for boundary values and internal sources). */
    struct Source
    {
        Buf buf = kNone;
        Layout layout;
    };

    /** A value of the kernel being lowered, row-major unless its
     *  anchor op stored it in the kernel's output layout. */
    struct KernelValue
    {
        Buf buf = kNone;
        bool owned = false; ///< allocated by the kernel, released by it
        bool inOutLayout = false;
    };

    const Shape &shapeOf(ValueId v) const { return g_.value(v).shape; }

    Buf newBuf()
    {
        prep_.bufs.push_back(nullptr);
        return prep_.bufs.size() - 1;
    }

    /** A new buffer the kernel allocates for `v`. */
    Buf newValue(ValueId v, bool inOutLayout = false)
    {
        const Buf b = newBuf();
        values_[v] = {b, true, inOutLayout};
        return b;
    }

    /** The buffer of a model input or constant, numbered on first
     *  read; any other value is read before it was produced. */
    Buf boundary(ValueId v)
    {
        Buf &b = boundary_[static_cast<std::size_t>(v)];
        if (b != kNone)
            return b;
        const Node &producer = g_.node(g_.value(v).producer);
        if (producer.kind == OpKind::Input) {
            b = newBuf();
            prep_.inputs.push_back({b, v, shapeOf(v), producer.name});
        } else if (producer.kind == OpKind::Constant) {
            b = newBuf();
            prep_.constants.push_back(
                store_.intern(synth_.synthesizeConstant(g_, v)));
            prep_.bufs[b] = prep_.constants.back()->data();
        } else {
            smPanic("value " + std::to_string(v) +
                    " read before it was produced");
        }
        return b;
    }

    /** The stored source of (v, copy) for a reader at kernel
     *  `reader`. */
    Source sourceOf(ValueId v, int copy, std::size_t reader)
    {
        auto it = slotOf_.find({v, copy});
        if (it != slotOf_.end() && it->second < reader)
            return {slotBuf_[it->second],
                    plan_.kernels[it->second].outLayout};
        SM_ASSERT(copy == 0,
                  "missing stored copy of value " + std::to_string(v));
        return {boundary(v), Layout::rowMajor(shapeOf(v).rank())};
    }

    void copyStep(Buf from, Buf to, std::int64_t toElems, Relayout rl)
    {
        launch_->steps.push_back(
            [from, to, toElems, rl = std::move(rl)](PlanRunner &r) {
                relayoutCopy(rl, r[from], r.alloc(to, toElems));
            });
    }

    /** Index of the kernel input whose substitute is `v`, or -1. */
    int inputOf(ValueId v) const
    {
        for (std::size_t i = 0; i < k_->inputs.size(); ++i)
            if (k_->inputs[i].substitute == v)
                return static_cast<int>(i);
        return -1;
    }

    /** A view of `v` where it is stored when a kernel may read it in
     *  place: an input stored non-row-major, not substituted and not
     *  yet materialized row-major; else nullopt (use operand()). */
    std::optional<NativeView> storedView(ValueId v) const
    {
        const int idx = inputOf(v);
        if (values_.count(v) || idx < 0)
            return std::nullopt;
        const KernelInput &in = k_->inputs[static_cast<std::size_t>(idx)];
        const Source &src = sources_[static_cast<std::size_t>(idx)];
        if (in.substitute != in.source || isRowMajorLayout(src.layout))
            return std::nullopt;
        return makeNativeView(src.buf, src.layout, shapeOf(v));
    }

    /** `v` with offset tables for reading it where it is: its stored
     *  view when storedView finds one, else its row-major operand. */
    std::pair<Buf, DimTables> tableOperand(ValueId v)
    {
        const Shape &shape = shapeOf(v);
        if (auto nv = storedView(v)) {
            ++counts_.nativeLayoutViews;
            return {nv->buf, dimOffsetTables(*nv, shape)};
        }
        const NativeView rowMajor =
            makeNativeView(kNone, Layout::rowMajor(shape.rank()), shape);
        return {operand(v), dimOffsetTables(rowMajor, shape)};
    }

    /** Stride view of the kernel's output layout when the anchor op
     *  may store into it directly: a single-node kernel whose node
     *  produces the kernel output in a non-row-major layout. */
    std::optional<NativeView> outputView(const Node &node) const
    {
        if (k_->fusedNodes.size() != 1 || node.output != k_->output ||
            isRowMajorLayout(k_->outLayout))
            return std::nullopt;
        return makeNativeView(kNone, k_->outLayout, shapeOf(node.output));
    }

    Buf lowerKernel(std::size_t ki);
    void lowerNode(const Node &node);
    bool foldStep(ValueId cur, const Node &next, EpilogueStep *step,
                  Buf *other);
    Buf operand(ValueId v);

    const ExecutionPlan &plan_;
    const ir::Graph &g_;
    const Executor synth_;
    ConstantStore &store_;
    PreparedPlan &prep_;
    CpuBackendStats &counts_;

    std::map<std::pair<ValueId, int>, std::size_t> slotOf_;
    std::vector<Buf> slotBuf_;  ///< by kernel: where its output is stored
    std::vector<Buf> boundary_; ///< by value: model inputs and constants
    std::vector<std::vector<ir::NodeId>> consumers_; ///< by value

    // The kernel being lowered.
    const Kernel *k_ = nullptr;
    Launch *launch_ = nullptr;
    std::vector<Source> sources_; ///< aligned with k_->inputs
    std::map<ValueId, KernelValue> values_;
};

void
Lowering::lower()
{
    const std::size_t nk = plan_.kernels.size();
    const std::size_t nv = g_.values().size();
    for (std::size_t i = 0; i < nk; ++i) {
        const Kernel &k = plan_.kernels[i];
        SM_ASSERT(slotOf_.emplace(std::make_pair(k.output, k.copyIndex), i)
                      .second,
                  "value " + std::to_string(k.output) + " stored twice");
    }
    boundary_.assign(nv, kNone);
    consumers_.resize(nv);
    for (const Node &n : g_.nodes()) {
        for (auto it = n.inputs.begin(); it != n.inputs.end(); ++it)
            if (std::find(n.inputs.begin(), it, *it) == it)
                consumers_[static_cast<std::size_t>(*it)].push_back(n.id);
    }

    prep_.launches.resize(nk);
    slotBuf_.resize(nk);
    for (std::size_t i = 0; i < nk; ++i)
        slotBuf_[i] = lowerKernel(i);
    counts_.kernelsExecuted = static_cast<int>(nk);

    for (ValueId id : g_.outputIds()) {
        const Source src = sourceOf(id, 0, nk);
        const Shape &shape = shapeOf(id);
        prep_.outputs.push_back(
            {src.buf, planRelayout(shape, src.layout,
                                   Layout::rowMajor(shape.rank()))});
    }

    // Release each stored value after its last reader, or right after
    // its producer when nothing reads it; graph outputs live to the
    // end.  slotOf_ iterates in (value, copy) order.
    const auto lastUse = runtime::lastUses(plan_);
    for (const auto &[key, slot] : slotOf_) {
        auto lu = lastUse.find(key);
        const std::size_t at =
            lu == lastUse.end() ? slot : std::max(slot, lu->second);
        if (at < nk)
            prep_.launches[at].release.push_back(slotBuf_[slot]);
    }
}

/** Lower kernel `ki` into launch_; returns the buffer its output is
 *  stored in. */
Buf
Lowering::lowerKernel(std::size_t ki)
{
    const Kernel &k = plan_.kernels[ki];
    const Shape &shape = shapeOf(k.output);
    launch_ = &prep_.launches[ki];
    if (k.fusedNodes.empty()) {
        SM_ASSERT(k.isLayoutCopy && k.inputs.size() == 1,
                  "empty kernel must be a one-input layout copy: " + k.name);
        const Source src =
            sourceOf(k.inputs[0].source, k.inputs[0].sourceCopy, ki);
        const Buf stored = newBuf();
        copyStep(src.buf, stored, k.outLayout.storageElements(shape),
                 planRelayout(shape, src.layout, k.outLayout));
        counts_.bytesRelayouted += floatBytes(shape);
        ++counts_.relayoutKernels;
        return stored;
    }
    k_ = &k;
    values_.clear();
    sources_.clear();
    for (const KernelInput &in : k.inputs)
        sources_.push_back(
            in.internalSource
                ? Source{kNone,
                         Layout::rowMajor(shapeOf(in.source).rank())}
                : sourceOf(in.source, in.sourceCopy, ki));

    std::size_t i = 0;
    while (i < k.fusedNodes.size()) {
        const Node &node = g_.node(k.fusedNodes[i]);
        lowerNode(node);
        ValueId cur = node.output;

        // Fold the following element-wise chain into one in-place
        // epilogue pass over the anchor's output.
        std::vector<EpilogueStep> prog;
        std::vector<Buf> others;
        std::size_t j = i + 1;
        for (; j < k.fusedNodes.size(); ++j) {
            const Node &next = g_.node(k.fusedNodes[j]);
            EpilogueStep step;
            Buf other = kNone;
            if (!foldStep(cur, next, &step, &other))
                break;
            prog.push_back(step);
            others.push_back(other);
            cur = next.output;
        }
        if (!prog.empty()) {
            const KernelValue anchor = values_.at(node.output);
            SM_ASSERT(anchor.owned, "epilogue over a borrowed buffer");
            counts_.fusedEpilogueOps += static_cast<int>(prog.size());
            launch_->steps.push_back(
                [prog = std::move(prog), others = std::move(others),
                 target = anchor.buf,
                 n = shapeOf(node.output).numElements()](PlanRunner &r) {
                    r.epilogue.assign(prog.begin(), prog.end());
                    for (std::size_t s = 0; s < others.size(); ++s)
                        r.epilogue[s].other = r[others[s]];
                    blockedEpilogue(r.epilogue, r.owned(target), n);
                });
            values_.erase(node.output);
            values_[cur] = anchor;
        }
        i = j;
    }

    // Publish: keep the buffer the output was computed in when it is
    // the kernel's own and already in the kernel's layout, else pack
    // it into a new one.  Then release the kernel's scratch.
    auto it = values_.find(k.output);
    SM_ASSERT(it != values_.end(),
              "kernel did not produce its output: " + k.name);
    const KernelValue out = it->second;
    Buf stored = out.buf;
    if (!out.inOutLayout &&
        !(isRowMajorLayout(k.outLayout) && out.owned)) {
        stored = newBuf();
        copyStep(out.buf, stored, k.outLayout.storageElements(shape),
                 planRelayout(shape, Layout::rowMajor(shape.rank()),
                              k.outLayout));
        if (!isRowMajorLayout(k.outLayout))
            counts_.bytesRelayouted += floatBytes(shape);
    }
    for (const auto &[v, val] : values_)
        if (val.owned && val.buf != stored)
            launch_->release.push_back(val.buf);
    return stored;
}

/**
 * Whether `next` folds into the epilogue of the pass producing `cur`,
 * and as what step (a binary step's other operand goes to `other`).
 * `cur` must die there: consumed only by `next`, not a graph output,
 * and not the source of any read-map input.
 */
bool
Lowering::foldStep(ValueId cur, const Node &next, EpilogueStep *step,
                   Buf *other)
{
    const auto &consumers = consumers_[static_cast<std::size_t>(cur)];
    if (consumers.size() != 1 || consumers[0] != next.id)
        return false;
    const auto &outs = g_.outputIds();
    if (std::find(outs.begin(), outs.end(), cur) != outs.end() ||
        shapeOf(next.output) != shapeOf(cur))
        return false;
    for (const KernelInput &in : k_->inputs)
        if (in.source == cur)
            return false;

    step->kind = next.kind;
    if (ir::isUnaryElementwise(next.kind)) {
        step->scale = scaleFactor(next);
        return next.inputs[0] == cur;
    }
    if (!ir::isBinaryElementwise(next.kind))
        return false;
    const bool lhs = next.inputs[0] == cur;
    const bool rhs = next.inputs[1] == cur;
    if (!lhs && !rhs)
        return false;
    if (lhs && rhs) {
        step->selfOperand = true;
        return true;
    }
    const ValueId o = lhs ? next.inputs[1] : next.inputs[0];
    step->otherModulo = suffixBroadcastModulo(shapeOf(cur), shapeOf(o));
    if (step->otherModulo < 0)
        return false;
    // Materializing a substitute here is work the op needs however
    // it executes.
    *other = operand(o);
    step->reversed = rhs;
    return true;
}

/**
 * Row-major buffer of `v` inside the kernel: a value the kernel holds
 * already, a borrowed row-major source, or one materialized on first
 * use -- a substitute gathered through its lowered read map, or a
 * stored input unpacked from its chosen layout.
 */
Buf
Lowering::operand(ValueId v)
{
    const Kernel &k = *k_;
    if (auto it = values_.find(v); it != values_.end())
        return it->second.buf;

    // Not an external kernel input: constants (implicit inputs) and,
    // defensively, model inputs.
    const int idx = inputOf(v);
    if (idx < 0)
        return boundary(v);
    const KernelInput &in = k.inputs[static_cast<std::size_t>(idx)];
    const Source &src = sources_[static_cast<std::size_t>(idx)];
    const Shape &shape = shapeOf(v);
    const std::int64_t n = shape.numElements();
    if (in.substitute != in.source) {
        // Eliminated chain: read the stored source through the lowered
        // composed map -- one pass for the whole chain.
        SM_ASSERT(in.readMap.has_value(),
                  "substituted input without a read map");
        const Buf from = in.internalSource ? operand(in.source) : src.buf;
        const Buf to = newValue(v);
        launch_->steps.push_back(
            [rd = lowerRead(*in.readMap, src.layout, shapeOf(in.source)),
             from, to, n](PlanRunner &r) {
                gather(rd, r[from], r.alloc(to, n));
            });
        ++counts_.substitutesMaterialized;
        return to;
    }
    SM_ASSERT(!in.internalSource,
              "internal source not yet produced in " + k.name);
    if (isRowMajorLayout(src.layout)) {
        values_[v] = {src.buf, false, false};
        return src.buf;
    }
    // Unpack the chosen physical layout into the compute view.
    const Buf to = newValue(v);
    copyStep(src.buf, to, n,
             planRelayout(shape, src.layout, Layout::rowMajor(shape.rank())));
    counts_.bytesRelayouted += floatBytes(shape);
    return to;
}

void
Lowering::lowerNode(const Node &node)
{
    std::vector<Step> &steps = launch_->steps;
    const Shape os = shapeOf(node.output);
    const std::int64_t n = os.numElements();
    switch (ir::opInfo(node.kind).category) {
      case ir::OpCategory::Conv: {
        const Shape xs = shapeOf(node.inputs[0]);
        const Shape ws = shapeOf(node.inputs[1]);
        const std::int64_t stride = node.attrs.getInt("stride", 1);
        const std::int64_t pad = node.attrs.getInt("pad", 0);
        const std::int64_t groups = node.attrs.getInt("groups", 1);
        const bool depthwise = node.kind == OpKind::DepthwiseConv2d;

        // Input view: consume a stored packed/texture activation
        // in place when only the channel dim (if any) is packed.
        PlaneLayout xl =
            PlaneLayout::rowMajor(xs.dim(1), xs.dim(2), xs.dim(3));
        Buf x = kNone;
        if (auto nv = storedView(node.inputs[0]);
            nv && xs.rank() == 4 &&
            (nv->packedDim == -1 || nv->packedDim == 1)) {
            x = nv->buf;
            xl = PlaneLayout{nv->str[0], nv->str[1], nv->str[2],
                             nv->str[3], nv->packedDim == 1};
            ++counts_.nativeLayoutViews;
        } else {
            x = operand(node.inputs[0]);
        }
        const Buf w = operand(node.inputs[1]);
        Buf bias = kNone;
        std::int64_t biasLen = 1;
        if (node.inputs.size() > 2) {
            // Folded conv+batchnorm bias: per-output-channel add after
            // accumulation, matching evalConv's ordering exactly.
            bias = operand(node.inputs[2]);
            biasLen = shapeOf(node.inputs[2]).numElements();
        }

        // Output view: store straight into the kernel's chosen layout
        // when the im2col GEMM can address it (pixel-linear rows; the
        // channel dim may be vec4-packed).
        PlaneLayout ol =
            PlaneLayout::rowMajor(os.dim(1), os.dim(2), os.dim(3));
        std::int64_t outElems = n;
        bool nativeStore = false;
        if (auto ov = outputView(node);
            ov && os.rank() == 4 &&
            (ov->packedDim == -1 || ov->packedDim == 1) &&
            ov->str[2] == ov->str[3] * os.dim(3)) {
            outElems = k_->outLayout.storageElements(os);
            ol = PlaneLayout{ov->str[0], ov->str[1], ov->str[2],
                             ov->str[3], ov->packedDim == 1};
            nativeStore = true;
            ++counts_.nativeLayoutStores;
        }
        const Buf out = newValue(node.output, nativeStore);
        if (!depthwise) {
            steps.push_back([x, xl, w, bias, biasLen, out, outElems, ol, xs,
                             os, ws, stride, pad, groups](PlanRunner &r) {
                blockedConv2d(r[x], xl, r[w], r.alloc(out, outElems), ol,
                              xs.dim(0), xs.dim(1), xs.dim(2), xs.dim(3),
                              os.dim(1), os.dim(2), os.dim(3), ws.dim(2),
                              ws.dim(3), stride, pad, groups, r[bias],
                              biasLen, r.simd, r.tiles, r.pool);
            });
            return;
        }
        steps.push_back([x, xl, w, bias, biasLen, out, outElems, ol, xs, os,
                         ws, stride, pad](PlanRunner &r) {
            float *o = r.alloc(out, outElems);
            blockedDepthwiseConv2d(r[x], xl, r[w], o, ol, xs.dim(0),
                                   xs.dim(1), xs.dim(2), xs.dim(3),
                                   os.dim(2), os.dim(3), ws.dim(2),
                                   ws.dim(3), stride, pad);
            const float *b = r[bias];
            for (std::int64_t bn = 0; b && bn < os.dim(0); ++bn) {
                for (std::int64_t c = 0; c < os.dim(1); ++c) {
                    const float bv = b[c % biasLen];
                    float *p = o + ol.planeOff(bn, c);
                    for (std::int64_t y = 0; y < os.dim(2); ++y)
                        for (std::int64_t xo = 0; xo < os.dim(3); ++xo)
                            p[y * ol.sh + xo * ol.sw] += bv;
                }
            }
        });
        return;
      }
      case ir::OpCategory::MatMul: {
        const Shape &as = shapeOf(node.inputs[0]);
        const bool trans_b = node.attrs.getInt("transB", 0) != 0;
        const std::int64_t m = as.dim(as.rank() - 2);
        const std::int64_t kk = as.dim(as.rank() - 1);
        const std::int64_t nn = os.dim(os.rank() - 1);
        std::int64_t batch = 1;
        for (int i = 0; i < os.rank() - 2; ++i)
            batch *= os.dim(i);

        // An operand of rank > 2 has a matrix per batch, a rank-2 one
        // is shared.  A stored operand is read in place when its matrix
        // dims are affine (a packed batch dim only shifts offsets).
        auto matOperand = [&](ValueId v, MatView *mv,
                              std::vector<std::int64_t> *off) {
            const Shape &s = shapeOf(v);
            const int rk = s.rank();
            const std::int64_t lead = s.numElements() /
                                      (s.dim(rk - 2) * s.dim(rk - 1));
            if (auto nv = storedView(v);
                nv && nv->packedDim < rk - 2 && (rk <= 2 || lead == batch)) {
                mv->rs = nv->str[static_cast<std::size_t>(rk - 2)];
                mv->cs = nv->str[static_cast<std::size_t>(rk - 1)];
                if (rk > 2)
                    *off = batchOffsets(*nv, s);
                ++counts_.nativeLayoutViews;
                return nv->buf;
            }
            mv->rs = s.dim(rk - 1);
            mv->batchStride = rk > 2 ? s.dim(rk - 2) * s.dim(rk - 1) : 0;
            return operand(v);
        };
        MatView av, bv;
        std::vector<std::int64_t> aOff, bOff, cOff;
        const Buf a = matOperand(node.inputs[0], &av, &aOff);
        const Buf b = matOperand(node.inputs[1], &bv, &bOff);

        MatMutView cv;
        cv.rs = nn;
        cv.batchStride = m * nn;
        std::int64_t outElems = n;
        auto ov = outputView(node);
        const bool nativeStore = ov && ov->packedDim < os.rank() - 2;
        if (nativeStore) {
            const auto rk = static_cast<std::size_t>(os.rank());
            outElems = k_->outLayout.storageElements(os);
            cv.rs = ov->str[rk - 2];
            cv.cs = ov->str[rk - 1];
            cOff = batchOffsets(*ov, os);
            ++counts_.nativeLayoutStores;
        }
        const Buf out = newValue(node.output, nativeStore);
        steps.push_back([a, av, aOff = std::move(aOff), b, bv,
                         bOff = std::move(bOff), out, outElems, cv,
                         cOff = std::move(cOff), batch, m, nn, kk,
                         trans_b](PlanRunner &r) {
            MatView va = av;
            MatView vb = bv;
            MatMutView vc = cv;
            va.data = r[a];
            vb.data = r[b];
            vc.data = r.alloc(out, outElems);
            va.batchOff = aOff.empty() ? nullptr : aOff.data();
            vb.batchOff = bOff.empty() ? nullptr : bOff.data();
            vc.batchOff = cOff.empty() ? nullptr : cOff.data();
            blockedMatMul(va, vb, vc, batch, m, nn, kk, trans_b, r.simd,
                          r.tiles);
        });
        return;
      }
      case ir::OpCategory::Norm: {
        // x, then the optional scale (LayerNorm gamma, BatchNorm
        // scale) and shift (beta, bias); InstanceNorm has neither.
        const Buf x = operand(node.inputs[0]);
        const Buf scale =
            node.inputs.size() > 1 ? operand(node.inputs[1]) : kNone;
        const Buf shift =
            node.inputs.size() > 2 ? operand(node.inputs[2]) : kNone;
        const std::int64_t scaleLen =
            scale != kNone ? shapeOf(node.inputs[1]).numElements() : 1;
        const std::int64_t shiftLen =
            shift != kNone ? shapeOf(node.inputs[2]).numElements() : 1;
        const Buf out = newValue(node.output);
        if (node.kind == OpKind::LayerNorm) {
            const std::int64_t inner = os.dim(os.rank() - 1);
            steps.push_back([x, scale, scaleLen, shift, shiftLen, out, n,
                             inner](PlanRunner &r) {
                blockedLayerNorm(r[x], r[scale], scaleLen, r[shift],
                                 shiftLen, r.alloc(out, n), n / inner,
                                 inner);
            });
            return;
        }
        const std::int64_t hw = os.dim(2) * os.dim(3);
        if (node.kind == OpKind::InstanceNorm) {
            steps.push_back([x, out, n, nc = os.dim(0) * os.dim(1),
                             hw](PlanRunner &r) {
                blockedInstanceNorm(r[x], r.alloc(out, n), nc, hw);
            });
            return;
        }
        steps.push_back([x, scale, scaleLen, shift, shiftLen, out, n,
                         bn = os.dim(0), c = os.dim(1), hw](PlanRunner &r) {
            blockedBatchNorm(r[x], r[scale], scaleLen, r[shift], shiftLen,
                             r.alloc(out, n), bn, c, hw);
        });
        return;
      }
      case ir::OpCategory::Softmax: {
        const Buf x = operand(node.inputs[0]);
        int axis = static_cast<int>(
            node.attrs.getInt("axis", os.rank() - 1));
        if (axis < 0)
            axis += os.rank();
        const Buf out = newValue(node.output);
        steps.push_back([x, out, n, os, axis](PlanRunner &r) {
            blockedSoftmax(r[x], r.alloc(out, n), os, axis);
        });
        return;
      }
      case ir::OpCategory::Attention: {
        const Shape &qs = shapeOf(node.inputs[0]);
        const Shape &vs = shapeOf(node.inputs[2]);
        const std::int64_t batch = qs.dim(0);
        const std::int64_t rows = qs.dim(1);
        const std::int64_t m = vs.dim(1);
        const float scale = static_cast<float>(
            node.attrs.getInt("scale_milli", 1000)) / 1000.0f;
        const Buf q = operand(node.inputs[0]);
        const Buf kd = operand(node.inputs[1]);
        const Buf v = operand(node.inputs[2]);
        Buf bias = kNone;
        bool biasBatched = false;
        if (node.inputs.size() > 3) {
            bias = operand(node.inputs[3]);
            const Shape &bsh = shapeOf(node.inputs[3]);
            biasBatched = bsh.rank() == 3 && bsh.dim(0) > 1;
        }
        const Buf out = newValue(node.output);
        // Every launch streams, whatever Kernel::streamingAttention
        // says: the flag tells the cost model whether the score panel
        // is charged, and no run ever materializes it.
        ++counts_.fusedAttentionKernels;
        counts_.scoreBytesAvoided +=
            batch * rows * m * static_cast<std::int64_t>(sizeof(float));
        steps.push_back([q, kd, v, bias, biasBatched, scale, out, n, batch,
                         rows, dk = qs.dim(2), m,
                         dv = vs.dim(2)](PlanRunner &r) {
            blockedFusedAttention(r[q], r[kd], r[v], r[bias], biasBatched,
                                  scale, r.alloc(out, n), batch, rows, dk,
                                  m, dv, r.simd, r.tiles);
        });
        return;
      }
      case ir::OpCategory::Unary: {
        const Buf x = operand(node.inputs[0]);
        const Buf out = newValue(node.output);
        steps.push_back([kind = node.kind, scale = scaleFactor(node), x,
                         out, n](PlanRunner &r) {
            blockedUnary(kind, scale, r[x], r.alloc(out, n), n);
        });
        return;
      }
      case ir::OpCategory::Binary: {
        const Buf a = operand(node.inputs[0]);
        const Buf b = operand(node.inputs[1]);
        const Buf out = newValue(node.output);
        steps.push_back([kind = node.kind, a, b, out, n, os,
                         as = shapeOf(node.inputs[0]),
                         bs = shapeOf(node.inputs[1])](PlanRunner &r) {
            blockedBinary(kind, r[a], r[b], r.alloc(out, n), os, as, bs);
        });
        return;
      }
      case ir::OpCategory::Transform:
      case ir::OpCategory::Select:
        if (ir::opInfo(node.kind).eliminable) {
            // Surviving transformation: one pass through its index map
            // (the same machinery eliminated chains use).
            const Shape &xs = shapeOf(node.inputs[0]);
            const Buf x = operand(node.inputs[0]);
            const Buf out = newValue(node.output);
            steps.push_back(
                [rd = lowerRead(
                     index::IndexMap::fromNode(g_, node).simplified(),
                     Layout::rowMajor(xs.rank()), xs),
                 x, out, n](PlanRunner &r) {
                    gather(rd, r[x], r.alloc(out, n));
                });
            return;
        }
        if (node.kind == OpKind::Concat) {
            // Block copies per input along the concat axis: each input
            // row lands at its axis offset in every output row.
            const int axis = static_cast<int>(node.attrs.getInt("axis"));
            std::int64_t inner = 1;
            for (int d = axis + 1; d < os.rank(); ++d)
                inner *= os.dim(d);
            std::vector<std::pair<Buf, std::int64_t>> parts; // (x, row)
            for (ValueId vin : node.inputs)
                parts.push_back(
                    {operand(vin), shapeOf(vin).dim(axis) * inner});
            const Buf out = newValue(node.output);
            steps.push_back([parts = std::move(parts), out, n,
                             outRow = os.dim(axis) * inner](PlanRunner &r) {
                float *dst = r.alloc(out, n);
                for (const auto &[x, row] : parts) {
                    const float *src = r[x];
                    for (std::int64_t o = 0; o < n / outRow; ++o)
                        std::memcpy(dst + o * outRow, src + o * row,
                                    static_cast<std::size_t>(row) *
                                        sizeof(float));
                    dst += row;
                }
            });
            return;
        }
        if (node.kind == OpKind::Pad) {
            auto [x, xt] = tableOperand(node.inputs[0]);
            const Buf out = newValue(node.output);
            steps.push_back([x = x, xt = std::move(xt),
                             xs = shapeOf(node.inputs[0]),
                             pads = node.attrs.getInts("pads"), out, n,
                             os](PlanRunner &r) {
                blockedPad(r[x], xt, xs, pads, r.alloc(out, n), os);
            });
            return;
        }
        break;
      case ir::OpCategory::Reduce:
      case ir::OpCategory::Pool: {
        const Shape &xs = shapeOf(node.inputs[0]);
        auto [x, xt] = tableOperand(node.inputs[0]);
        const Buf out = newValue(node.output);
        if (ir::opInfo(node.kind).category == ir::OpCategory::Reduce ||
            node.kind == OpKind::GlobalAvgPool) {
            // evalPool's global average is a mean over H and W.
            const bool global = node.kind == OpKind::GlobalAvgPool;
            steps.push_back(
                [kind = global ? OpKind::ReduceMean : node.kind, x = x,
                 xt = std::move(xt), xs,
                 axes = global ? std::vector<std::int64_t>{2, 3}
                               : node.attrs.getInts("axes"),
                 out, n](PlanRunner &r) {
                    blockedReduce(kind, r[x], xt, xs, axes,
                                  r.alloc(out, n));
                });
            return;
        }
        const std::int64_t kernel = node.attrs.getInt("kernel");
        steps.push_back([kind = node.kind, x = x, xt = std::move(xt), xs,
                         kernel, stride = node.attrs.getInt("stride", kernel),
                         pad = node.attrs.getInt("pad", 0), os, out,
                         n](PlanRunner &r) {
            blockedPool2d(kind, r[x], xt, xs, kernel, stride, pad, os,
                          r.alloc(out, n));
        });
        return;
      }
      case ir::OpCategory::Terminal:
        break;
    }
    smPanic("no blocked kernel for " + ir::opKindName(node.kind) +
            " in " + k_->name);
}

PreparedPlan::PreparedPlan(const ExecutionPlan &plan, std::uint64_t seed,
                           ConstantStore &store)
    : valueCount(plan.graph.values().size())
{
    Lowering(plan, seed, store, *this).lower();
}

std::vector<Tensor>
PlanRunner::run(const std::map<ValueId, Tensor> &inputs,
                CpuBackendStats *stats_out)
{
    bufs_ = prep_.bufs;
    for (const ModelInput &in : prep_.inputs) {
        auto it = inputs.find(in.id);
        SM_REQUIRE(it != inputs.end(), "missing model input: " + in.name);
        SM_REQUIRE(it->second.shape() == in.shape,
                   "input shape mismatch: " + in.name);
        bufs_[in.buf] = it->second.data();
    }
    for (const Launch &launch : prep_.launches) {
        for (const Step &step : launch.steps)
            step(*this);
        for (Buf b : launch.release) {
            pool.release(owned(b));
            bufs_[b] = nullptr;
        }
    }

    std::vector<Tensor> out;
    out.reserve(prep_.outputs.size());
    for (const auto &[buf, unpack] : prep_.outputs) {
        Tensor t(unpack.shape);
        relayoutCopy(unpack, bufs_[buf], t.data());
        out.push_back(std::move(t));
    }

    if (stats_out) {
        *stats_out = prep_.counts;
        stats_out->poolHighWaterBytes = pool.highWaterBytes();
        stats_out->poolReuses = pool.reuseCount();
        stats_out->simdLevel = simd;
        stats_out->tileRowTile = tiles.rowTile;
        stats_out->tileKBlock = tiles.kBlock;
    }
    return out;
}

} // namespace

struct CpuBackend::Cache
{
    std::mutex mu; ///< guards plans
    std::map<std::string, std::shared_ptr<const PreparedPlan>> plans;
    ConstantStore constants;
};

CpuBackend::CpuBackend(CpuBackendOptions options)
    : options_(options), cache_(std::make_shared<Cache>())
{
}

std::vector<Tensor>
CpuBackend::run(const ExecutionPlan &plan,
                const std::map<ValueId, Tensor> &inputs,
                CpuBackendStats *stats) const
{
    support::ThreadBudgetGuard budget(options_.threads);
    std::shared_ptr<const PreparedPlan> prepared;
    if (!plan.cacheKey.empty()) {
        std::lock_guard<std::mutex> lock(cache_->mu);
        auto it = cache_->plans.find(plan.cacheKey);
        if (it != cache_->plans.end())
            prepared = it->second;
    }
    if (!prepared) {
        // Prepared outside the lock; when callers race on one key,
        // each prepares an identical plan and the first insert wins.
        prepared = std::make_shared<const PreparedPlan>(
            plan, options_.seed, cache_->constants);
        if (!plan.cacheKey.empty()) {
            std::lock_guard<std::mutex> lock(cache_->mu);
            prepared = cache_->plans.emplace(plan.cacheKey, prepared)
                           .first->second;
        }
    }
    prepared->checkMatches(plan);
    return PlanRunner(*prepared, options_).run(inputs, stats);
}

std::int64_t
CpuBackend::residentConstantBytes() const
{
    return cache_->constants.residentBytes();
}

} // namespace smartmem::exec
