#include "core/layout_select.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "cost/kernel_cost.h"
#include "ir/macs.h"
#include "device/texture.h"
#include "opclass/opclass.h"
#include "opclass/reduction_dims.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace smartmem::core {

using cost::bandwidth;
using cost::findConsumer;
using cost::lineUtilization;
using cost::writeStride;
using ir::Layout;
using ir::MemSpace;
using ir::Shape;
using runtime::ExecutionPlan;
using runtime::Kernel;
using runtime::KernelInput;

namespace {

bool
kernelHasConv(const ir::Graph &g, const Kernel &k)
{
    for (ir::NodeId nid : k.fusedNodes)
        if (ir::isConv(g.node(nid).kind))
            return true;
    return false;
}

bool
kernelHasIld(const ir::Graph &g, const Kernel &k)
{
    for (ir::NodeId nid : k.fusedNodes) {
        if (opclass::classifyOp(g.node(nid).kind) == opclass::ildVariable)
            return true;
    }
    return false;
}

/** Read stride of `in` (with hypothetical layout) for its consumer. */
std::int64_t
consumerReadStride(const ir::Graph &g, const Kernel &consumer,
                   const KernelInput &in, const Layout &layout)
{
    const ir::Node *node = nullptr;
    int idx = 0;
    if (!findConsumer(g, consumer, in.substitute, &node, &idx))
        return 1;
    KernelInput probe = in;
    probe.layout = layout;
    return cost::probeReadStride(g, probe, *node, idx);
}

// -------------------------------------------------------------------
// Fixed-strategy layout menus
// -------------------------------------------------------------------

Layout
nc4hw4Texture(int rank)
{
    // Channels packed into the texel vector; W on the texture X axis.
    SM_ASSERT(rank == 4, "NC4HW4 requires rank 4");
    return Layout::texture(4, /*dim_y=*/2, /*dim_x=*/3, /*packed=*/1);
}

Layout
flatTexture(int rank)
{
    if (rank < 2)
        return Layout::rowMajor(rank);
    return Layout::texture(rank, rank - 2, rank - 1, rank - 1);
}

/** What a fixed-strategy kernel produces. */
Layout
fixedProducedLayout(LayoutStrategy strategy, const ir::Graph &g,
                    const Kernel &k, const device::DeviceProfile &dev,
                    const Layout &primary_input_layout)
{
    const Shape &out = g.value(k.output).shape;
    const int rank = out.rank();
    const bool conv = kernelHasConv(g, k);
    const bool ild = kernelHasIld(g, k);

    switch (strategy) {
      case LayoutStrategy::RowMajorBuffer:
        return Layout::rowMajor(rank);
      case LayoutStrategy::PackedBuffer:
        if (conv && rank == 4)
            return Layout::packed(rank, 1);
        return Layout::rowMajor(rank);
      case LayoutStrategy::ConvertLayout:
        if (conv && rank == 4)
            return Layout::packed(rank, 1);
        return Layout::rowMajor(rank);
      case LayoutStrategy::Nc4hw4Texture:
        if (conv && rank == 4 && dev.hasTexture &&
            device::fitsTexture(out, nc4hw4Texture(rank),
                                dev.maxTextureExtent))
            return nc4hw4Texture(rank);
        if (!ild && !k.isLayoutCopy && rank ==
            primary_input_layout.rank())
            return primary_input_layout; // element-wise: propagate
        return Layout::rowMajor(rank);
      case LayoutStrategy::FusedTexture: {
        if (!dev.hasTexture)
            return Layout::rowMajor(rank);
        Layout cand = conv && rank == 4 ? nc4hw4Texture(rank)
                                        : flatTexture(rank);
        if (cand.space() == MemSpace::Texture &&
            device::fitsTexture(out, cand, dev.maxTextureExtent))
            return cand;
        return Layout::rowMajor(rank);
      }
      default:
        smPanic("fixedProducedLayout on smart strategy");
    }
}

/** What a fixed-strategy kernel demands for a given input, or nullopt
 *  for "reads whatever is stored". */
std::optional<Layout>
fixedRequiredLayout(LayoutStrategy strategy, const ir::Graph &g,
                    const Kernel &k, const KernelInput &in,
                    const device::DeviceProfile &dev)
{
    const Shape &src = g.value(in.source).shape;
    const int rank = src.rank();
    const ir::Node *node = nullptr;
    int idx = 0;
    if (!findConsumer(g, k, in.substitute, &node, &idx))
        return std::nullopt;
    const bool conv_input = ir::isConv(node->kind) && idx == 0;
    const bool transformer_ild =
        opclass::classifyOp(node->kind) == opclass::ildVariable &&
        !ir::isConv(node->kind);

    switch (strategy) {
      case LayoutStrategy::RowMajorBuffer:
        return Layout::rowMajor(rank);
      case LayoutStrategy::PackedBuffer:
        if (conv_input && rank == 4)
            return Layout::packed(rank, 1);
        if (transformer_ild)
            return Layout::rowMajor(rank);
        return std::nullopt;
      case LayoutStrategy::ConvertLayout:
        if (conv_input && rank == 4)
            return Layout::packed(rank, 1);
        if (transformer_ild)
            return Layout::rowMajor(rank);
        return std::nullopt;
      case LayoutStrategy::Nc4hw4Texture:
        if (conv_input && rank == 4 && dev.hasTexture &&
            device::fitsTexture(src, nc4hw4Texture(rank),
                                dev.maxTextureExtent))
            return nc4hw4Texture(rank);
        // MNN evaluates transformer/normalization ops on flat buffers,
        // forcing implicit unpack/repack around them (Figure 1b).
        if (transformer_ild || ir::isLayoutTransform(node->kind))
            return Layout::rowMajor(rank);
        return std::nullopt;
      case LayoutStrategy::FusedTexture:
        if (!dev.hasTexture)
            return Layout::rowMajor(rank);
        if (conv_input && rank == 4 &&
            device::fitsTexture(src, nc4hw4Texture(rank),
                                dev.maxTextureExtent))
            return nc4hw4Texture(rank);
        // DNNFusion keeps transformer ops on textures: no forced
        // unpacking, it reads whatever resident layout exists.
        return std::nullopt;
      default:
        smPanic("fixedRequiredLayout on smart strategy");
    }
}

// -------------------------------------------------------------------
// Shared machinery
// -------------------------------------------------------------------

/** Tracks where each (value, copy) lives while rewriting the plan. */
class LayoutAssigner
{
  public:
    LayoutAssigner(ExecutionPlan &plan, const device::DeviceProfile &dev)
        : plan_(plan), dev_(dev)
    {
        // Model inputs and constants are stored row-major.
        for (const ir::Node &n : plan.graph.nodes()) {
            if (ir::isTerminal(n.kind)) {
                stored_[{n.output, 0}] = Layout::rowMajor(
                    plan.graph.value(n.output).shape.rank());
            }
        }
    }

    const Layout &storedLayout(ir::ValueId v, int copy) const
    {
        auto it = stored_.find({v, copy});
        SM_ASSERT(it != stored_.end(), "no stored layout for value");
        return it->second;
    }

    /** All stored copies of a value. */
    std::vector<std::pair<int, Layout>> copiesOf(ir::ValueId v) const
    {
        std::vector<std::pair<int, Layout>> out;
        for (const auto &[key, layout] : stored_) {
            if (key.first == v)
                out.emplace_back(key.second, layout);
        }
        return out;
    }

    void record(ir::ValueId v, int copy, const Layout &layout)
    {
        stored_[{v, copy}] = layout;
    }

    int nextCopyIndex(ir::ValueId v) const
    {
        int n = 0;
        for (const auto &[key, layout] : stored_) {
            if (key.first == v)
                n = std::max(n, key.second + 1);
        }
        return n;
    }

    /** Emit a relayout kernel converting (v, from_copy) to `layout`;
     *  returns the new copy index. */
    int
    emitCopy(std::vector<Kernel> &out, ir::ValueId v, int from_copy,
             const Layout &layout)
    {
        int idx = nextCopyIndex(v);
        Kernel c;
        c.name = "relayout_" + std::to_string(v) + "_" +
                 std::to_string(idx);
        c.isLayoutCopy = true;
        c.output = v;
        c.copyIndex = idx;
        c.outLayout = layout;
        KernelInput in;
        in.source = v;
        in.substitute = v;
        in.sourceCopy = from_copy;
        in.layout = storedLayout(v, from_copy);
        c.inputs.push_back(std::move(in));
        out.push_back(std::move(c));
        record(v, idx, layout);
        return idx;
    }

    ExecutionPlan &plan_;
    const device::DeviceProfile &dev_;

  private:
    std::map<std::pair<ir::ValueId, int>, Layout> stored_;
};

bool
producesGraphOutput(const ExecutionPlan &plan, const Kernel &k)
{
    for (ir::ValueId out : plan.graph.outputIds())
        if (out == k.output)
            return true;
    return false;
}

// -------------------------------------------------------------------
// Fixed strategies
// -------------------------------------------------------------------

void
assignFixed(ExecutionPlan &plan, LayoutStrategy strategy,
            const device::DeviceProfile &dev)
{
    LayoutAssigner st(plan, dev);
    std::vector<Kernel> out;
    out.reserve(plan.kernels.size());

    for (Kernel k : plan.kernels) {
        Layout primary = Layout::rowMajor(
            plan.graph.value(k.output).shape.rank());
        bool first = true;
        for (KernelInput &in : k.inputs) {
            if (in.internalSource)
                continue;
            Layout stored = st.storedLayout(in.source, 0);
            auto required =
                fixedRequiredLayout(strategy, plan.graph, k, in, dev);
            if (required && !(stored == *required)) {
                // Reuse an existing copy in the required layout.
                int use = -1;
                for (const auto &[ci, l] : st.copiesOf(in.source)) {
                    if (l == *required)
                        use = ci;
                }
                if (use < 0)
                    use = st.emitCopy(out, in.source, 0, *required);
                in.sourceCopy = use;
                in.layout = *required;
            } else {
                in.sourceCopy = 0;
                in.layout = stored;
            }
            if (first) {
                primary = in.layout;
                first = false;
            }
        }
        k.outLayout = producesGraphOutput(plan, k)
            ? Layout::rowMajor(plan.graph.value(k.output).shape.rank())
            : fixedProducedLayout(strategy, plan.graph, k, dev, primary);
        st.record(k.output, 0, k.outLayout);
        out.push_back(std::move(k));
    }
    plan.kernels = std::move(out);
}

// -------------------------------------------------------------------
// SmartMem reduction-dimension selection
// -------------------------------------------------------------------

/** Later kernels reading this value, with the matching input index. */
struct ConsumerRef
{
    std::size_t kernelIdx;
    std::size_t inputIdx;
};

std::vector<ConsumerRef>
consumersOf(const ExecutionPlan &plan, std::size_t producer_idx,
            ir::ValueId value)
{
    std::vector<ConsumerRef> out;
    for (std::size_t i = producer_idx + 1; i < plan.kernels.size(); ++i) {
        const Kernel &k = plan.kernels[i];
        for (std::size_t j = 0; j < k.inputs.size(); ++j) {
            if (!k.inputs[j].internalSource &&
                k.inputs[j].source == value)
                out.push_back({i, j});
        }
    }
    return out;
}

/** Candidate layouts for a value given the requested contiguous dims. */
std::vector<Layout>
smartCandidates(const Shape &shape, const std::vector<int> &requested,
                bool allow_texture, bool texture_axis_mapping,
                const device::DeviceProfile &dev)
{
    const int rank = shape.rank();
    std::vector<Layout> cands;
    cands.push_back(Layout::rowMajor(rank));

    auto add_unique = [&](const Layout &l) {
        for (const Layout &e : cands)
            if (e == l)
                return;
        cands.push_back(l);
    };

    for (int d : requested) {
        if (d < 0 || d >= rank)
            continue;
        // Buffer layout with the requested dim innermost, and its
        // vec4-packed variant (SIMD loads along the reduction dim).
        std::vector<int> order;
        for (int i = 0; i < rank; ++i)
            if (i != d)
                order.push_back(i);
        order.push_back(d);
        add_unique(Layout::withOrder(order));
        add_unique(Layout::withOrder(order, d));
    }

    if (allow_texture && rank >= 2 && !texture_axis_mapping) {
        // Section 3.3 disabled: only the pre-existing default texture
        // residencies are available (flat, and NC4HW4 for rank-4
        // feature maps), with order/packing choice handled above.
        Layout flat = Layout::texture(rank, rank - 2, rank - 1, rank - 1);
        if (device::fitsTexture(shape, flat, dev.maxTextureExtent))
            add_unique(flat);
        if (rank == 4) {
            Layout nchw4 = Layout::texture(4, 2, 3, 1);
            if (device::fitsTexture(shape, nchw4, dev.maxTextureExtent))
                add_unique(nchw4);
        }
    }
    if (allow_texture && rank >= 3 && texture_axis_mapping) {
        // NC4HW4-style: the requested dim rides the texel vector while
        // the two fastest remaining dims take the texture axes --
        // essential when the requested dim is small (e.g. channels of
        // an image stem).
        for (int d : requested) {
            if (d < 0 || d >= rank)
                continue;
            int x = -1, y = -1;
            for (int i = rank - 1; i >= 0 && (x < 0 || y < 0); --i) {
                if (i == d)
                    continue;
                if (x < 0)
                    x = i;
                else
                    y = i;
            }
            if (x >= 0 && y >= 0) {
                Layout t = Layout::texture(rank, y, x, d);
                if (device::fitsTexture(shape, t, dev.maxTextureExtent))
                    add_unique(t);
            }
        }
    }
    if (allow_texture && rank >= 2 && texture_axis_mapping) {
        std::vector<int> req = requested;
        // Deduplicate, preserve order.
        std::vector<int> uniq;
        for (int d : req) {
            if (d >= 0 && d < rank &&
                std::find(uniq.begin(), uniq.end(), d) == uniq.end())
                uniq.push_back(d);
        }
        if (uniq.empty())
            uniq.push_back(rank - 1);
        if (uniq.size() == 1) {
            int d = uniq[0];
            int other = d == rank - 1 ? rank - 2 : rank - 1;
            Layout t = Layout::texture(rank, other, d, d);
            if (device::fitsTexture(shape, t, dev.maxTextureExtent))
                add_unique(t);
        } else {
            // Combine the first two requested dims on the two
            // directly-indexable axes (k = 2, Section 3.2.2 "global").
            int d1 = uniq[0], d2 = uniq[1];
            Layout t1 = Layout::texture(rank, d2, d1, d1);
            Layout t2 = Layout::texture(rank, d1, d2, d2);
            if (device::fitsTexture(shape, t1, dev.maxTextureExtent))
                add_unique(t1);
            if (device::fitsTexture(shape, t2, dev.maxTextureExtent))
                add_unique(t2);
        }
    }
    return cands;
}

void
assignSmart(ExecutionPlan &plan, const device::DeviceProfile &dev,
            bool allow_texture, bool texture_axis_mapping,
            bool allow_redundant_copies)
{
    LayoutAssigner st(plan, dev);
    const ir::Graph &g = plan.graph;
    const std::int64_t line = dev.cacheLineBytes;
    std::vector<Kernel> out;
    out.reserve(plan.kernels.size());

    for (std::size_t ki = 0; ki < plan.kernels.size(); ++ki) {
        Kernel k = plan.kernels[ki];

        // 1. Bind inputs to the best stored copy.  When an ILD kernel
        //    is left with a badly-strided read (typically a model input
        //    stored row-major feeding a channel-reducing conv), emit a
        //    relayout copy if the saved traffic/compute pays for it --
        //    this is the producer-side half of the selection heuristic.
        Layout primary = Layout::rowMajor(
            g.value(k.output).shape.rank());
        bool first = true;
        for (KernelInput &in : k.inputs) {
            if (in.internalSource)
                continue;
            std::int64_t best_stride = -1;
            for (const auto &[ci, layout] : st.copiesOf(in.source)) {
                std::int64_t s = consumerReadStride(g, k, in, layout);
                if (best_stride < 0 || s < best_stride) {
                    best_stride = s;
                    in.sourceCopy = ci;
                    in.layout = layout;
                }
            }
            SM_ASSERT(best_stride >= 0, "input with no stored copy");
            if (best_stride > 8 && kernelHasIld(g, k)) {
                const Shape &src_shape = g.value(in.source).shape;
                const std::int64_t seb =
                    ir::dtypeSize(g.value(in.source).dtype);
                std::vector<int> req{requestedSourceDim(g, k, in)};
                auto alts = smartCandidates(src_shape, req, allow_texture,
                                            texture_axis_mapping, dev);
                // Conv consumers want texture residency (Section 2.3);
                // try texture alternatives first.
                if (kernelHasConv(g, k) && dev.hasTexture) {
                    std::stable_sort(
                        alts.begin(), alts.end(),
                        [](const Layout &a, const Layout &b) {
                            return (a.space() == MemSpace::Texture) >
                                   (b.space() == MemSpace::Texture);
                        });
                }
                for (const Layout &alt : alts) {
                    std::int64_t s_alt =
                        consumerReadStride(g, k, in, alt);
                    if (s_alt > 4)
                        continue;
                    std::int64_t relems =
                        g.value(in.substitute).shape.numElements();
                    double bad = lineUtilization(best_stride, seb, line);
                    double good = lineUtilization(s_alt, seb, line);
                    double saving = static_cast<double>(relems * seb) *
                                    (1.0 / bad - 1.0 / good) /
                                    bandwidth(dev, in.layout.space());
                    // Strided ILD reads also cost compute efficiency.
                    for (ir::NodeId nid : k.fusedNodes) {
                        saving += static_cast<double>(
                                      ir::nodeMacs(g, g.node(nid))) *
                                  0.7 / dev.peakMacsPerSec;
                    }
                    double copy_cost =
                        dev.kernelLaunchSec +
                        2.5 * static_cast<double>(
                                  src_shape.numElements() * seb) /
                            bandwidth(dev, alt.space());
                    if (saving < 1.5 * copy_cost)
                        continue;
                    int idx = st.emitCopy(out, in.source, in.sourceCopy,
                                       alt);
                    in.sourceCopy = idx;
                    in.layout = alt;
                    break;
                }
            }
            if (first) {
                primary = in.layout;
                first = false;
            }
        }

        // 2. Choose the output layout.
        const Shape &out_shape = g.value(k.output).shape;
        const std::int64_t eb = ir::dtypeSize(g.value(k.output).dtype);
        auto consumers = consumersOf(plan, ki, k.output);

        Layout chosen = Layout::rowMajor(out_shape.rank());
        if (producesGraphOutput(plan, k)) {
            // Convention: model outputs leave in flat buffers.
        } else if (!kernelHasIld(g, k) && !k.isLayoutCopy &&
                   primary.rank() == out_shape.rank()) {
            // ILI & Variable: no search (Table 6); propagate producer
            // layout so the element-wise kernel stays relayout-free.
            chosen = primary;
        } else {
            // ILD & Variable (or relayout): reduction-dimension search.
            std::vector<int> requested;
            for (const ConsumerRef &c : consumers) {
                requested.push_back(requestedSourceDim(
                    g, plan.kernels[c.kernelIdx],
                    plan.kernels[c.kernelIdx].inputs[c.inputIdx]));
            }
            auto cands = smartCandidates(out_shape, requested,
                                         allow_texture,
                                         texture_axis_mapping, dev);
            // Scoring a candidate only reads the plan/graph, so the
            // candidates are scored on the pool and the winner picked
            // serially below with the same first-strict-minimum rule
            // -- bit-identical to the serial loop at any thread count.
            auto scoreCandidate = [&](const Layout &cand) {
                double total = 0;
                // Write side (penalized mildly; see Section 3.2.2).
                std::int64_t ws = writeStride(out_shape, cand);
                double wutil = lineUtilization(ws, eb, line);
                total += static_cast<double>(
                             out_shape.numElements() * eb) /
                         (0.5 + 0.5 * wutil) / bandwidth(dev, cand.space());
                // Read side per consumer.
                for (const ConsumerRef &c : consumers) {
                    const Kernel &ck = plan.kernels[c.kernelIdx];
                    const KernelInput &cin = ck.inputs[c.inputIdx];
                    std::int64_t rs =
                        consumerReadStride(g, ck, cin, cand);
                    double rutil = lineUtilization(rs, eb, line);
                    std::int64_t relems =
                        g.value(cin.substitute).shape.numElements();
                    total += static_cast<double>(relems * eb) / rutil /
                             bandwidth(dev, cand.space());
                    std::int64_t cmacs = 0;
                    for (ir::NodeId nid : ck.fusedNodes)
                        cmacs += ir::nodeMacs(g, g.node(nid));
                    // Convolutions streaming from 1D buffers lose the
                    // texture cache path (Section 2.3): charge the
                    // consumer's compute-time loss to the candidate.
                    if (dev.hasTexture &&
                        cand.space() == MemSpace::Buffer &&
                        kernelHasConv(g, ck)) {
                        total += static_cast<double>(cmacs) * 3.0 /
                                 dev.peakMacsPerSec;
                    }
                    // Strided reads stall ILD compute (the simulator's
                    // layout factor); charge that loss too.
                    if (rs > 4 && kernelHasIld(g, ck)) {
                        total += static_cast<double>(cmacs) * 3.0 /
                                 dev.peakMacsPerSec;
                    }
                }
                return total;
            };
            // A grain of 3 keeps fewer than 4 candidates serial.
            std::vector<double> costs(cands.size());
            support::parallelFor(
                static_cast<std::int64_t>(cands.size()), 3,
                [&](std::int64_t c0, std::int64_t c1) {
                    for (std::int64_t ci = c0; ci < c1; ++ci)
                        costs[static_cast<std::size_t>(ci)] =
                            scoreCandidate(
                                cands[static_cast<std::size_t>(ci)]);
                });
            double best_cost = -1;
            for (std::size_t ci = 0; ci < cands.size(); ++ci) {
                if (best_cost < 0 || costs[ci] < best_cost) {
                    best_cost = costs[ci];
                    chosen = cands[ci];
                }
            }
        }
        k.outLayout = chosen;
        st.record(k.output, 0, chosen);
        out.push_back(k);

        // 3. Redundant copies for consumers the chosen layout leaves
        //    badly strided (more than k distinct layout demands,
        //    Section 3.2.2).  A copy is only worth its relayout cost
        //    when the consumer's saved read traffic exceeds it.
        if (!allow_redundant_copies)
            continue;
        int copies_made = 0;
        for (const ConsumerRef &c : consumers) {
            if (copies_made >= 2)
                break;
            const Kernel &ck = plan.kernels[c.kernelIdx];
            const KernelInput &cin = ck.inputs[c.inputIdx];
            std::int64_t s = consumerReadStride(g, ck, cin, chosen);
            if (s <= 8)
                continue;
            // Find an alternative layout that serves this consumer.
            std::vector<int> req{requestedSourceDim(g, ck, cin)};
            auto alts = smartCandidates(out_shape, req, allow_texture,
                                        texture_axis_mapping, dev);
            for (const Layout &alt : alts) {
                if (alt == chosen)
                    continue;
                std::int64_t s_alt = consumerReadStride(g, ck, cin, alt);
                if (s_alt > 4)
                    continue;
                std::int64_t relems =
                    g.value(cin.substitute).shape.numElements();
                double bad_util = lineUtilization(s, eb, line);
                double good_util = lineUtilization(s_alt, eb, line);
                double saving = static_cast<double>(relems * eb) *
                                (1.0 / bad_util - 1.0 / good_util) /
                                bandwidth(dev, chosen.space());
                // A planned copy is a tiled relayout: one read of the
                // chosen layout plus one (penalized) scattered write.
                double copy_cost =
                    dev.kernelLaunchSec +
                    2.5 * static_cast<double>(
                              out_shape.numElements() * eb) /
                        bandwidth(dev, chosen.space());
                if (saving < 1.5 * copy_cost)
                    break; // not worth materializing another layout
                bool exists = false;
                for (const auto &[ci, l] : st.copiesOf(k.output))
                    if (l == alt)
                        exists = true;
                if (!exists) {
                    st.emitCopy(out, k.output, 0, alt);
                    ++copies_made;
                }
                break;
            }
        }
    }
    plan.kernels = std::move(out);
}

} // namespace

int
requestedSourceDim(const ir::Graph &graph, const Kernel &consumer,
                   const KernelInput &input)
{
    const Shape &sub_shape = graph.value(input.substitute).shape;
    const Shape &src_shape = graph.value(input.source).shape;
    const ir::Node *node = nullptr;
    int idx = 0;
    if (!findConsumer(graph, consumer, input.substitute, &node, &idx))
        return src_shape.rank() - 1;
    int pref = opclass::preferredContiguousDim(graph, *node, idx);
    if (pref < 0 || pref >= sub_shape.rank())
        pref = sub_shape.rank() - 1;
    if (!input.readMap)
        return pref;
    if (sub_shape.dim(pref) <= 1)
        return src_shape.rank() - 1;

    std::vector<std::int64_t> c0(
        static_cast<std::size_t>(sub_shape.rank()), 0);
    std::vector<std::int64_t> c1 = c0;
    c1[static_cast<std::size_t>(pref)] = 1;
    auto i0 = input.readMap->apply(c0);
    auto i1 = input.readMap->apply(c1);
    // The source dim moving the least (but nonzero) under a unit step
    // is the one that should be contiguous.
    int best = src_shape.rank() - 1;
    std::int64_t best_delta = -1;
    for (int d = 0; d < src_shape.rank(); ++d) {
        std::int64_t delta = std::llabs(
            i1[static_cast<std::size_t>(d)] -
            i0[static_cast<std::size_t>(d)]);
        if (delta > 0 && (best_delta < 0 || delta < best_delta)) {
            best_delta = delta;
            best = d;
        }
    }
    return best;
}

void
assignLayouts(ExecutionPlan &plan, LayoutStrategy strategy,
              const device::DeviceProfile &dev,
              bool allow_redundant_copies)
{
    switch (strategy) {
      case LayoutStrategy::RowMajorBuffer:
      case LayoutStrategy::PackedBuffer:
      case LayoutStrategy::Nc4hw4Texture:
      case LayoutStrategy::ConvertLayout:
      case LayoutStrategy::FusedTexture:
        assignFixed(plan, strategy, dev);
        return;
      case LayoutStrategy::SmartSelect:
        assignSmart(plan, dev, dev.hasTexture, true,
                    allow_redundant_copies);
        return;
      case LayoutStrategy::SmartSelectFlatTexture:
        assignSmart(plan, dev, dev.hasTexture, false,
                    allow_redundant_copies);
        return;
      case LayoutStrategy::SmartSelectBufferOnly:
        assignSmart(plan, dev, false, false, allow_redundant_copies);
        return;
    }
    smPanic("unhandled layout strategy");
}

} // namespace smartmem::core
