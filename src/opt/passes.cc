/**
 * @file
 * The rewriting passes of the canonicalization pipeline: CSE, constant
 * folding, algebraic simplification, and conv+batchnorm folding.
 *
 * Folding over synthesized constants cannot bake literal payloads at
 * compile time -- the executor seed is chosen at run time -- so folded
 * constants carry *derived recipes* in their attrs (source stream plus
 * the fold's parameters) which exec::Executor::synthesizeConstant
 * evaluates under whatever seed is in use.  See docs/PASSES.md.
 */
#include "opt/pass.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace smartmem::opt {

using ir::Attrs;
using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;
using ir::ValueId;

namespace {

/** A synthesized constant with no folding recipe attached: its stream
 *  can be referenced by a new derived-recipe constant. */
bool
isPlainSynth(const Node &c)
{
    return c.kind == OpKind::Constant && !c.attrs.has("data") &&
           !c.attrs.has("fold_gather_idx") &&
           !c.attrs.has("bnfold_scale_salt");
}

/** The synthesis stream id of a constant (pre- or post-rewrite). */
std::int64_t
constSalt(const Node &c)
{
    return c.attrs.getInt("salt", c.output);
}

bool
isGraphOutput(const Graph &g, ValueId v)
{
    for (ValueId out : g.outputIds())
        if (out == v)
            return true;
    return false;
}

const Node &
producerOf(const Graph &g, ValueId v)
{
    return g.node(g.value(v).producer);
}

/**
 * What CSE merges on: an operator's kind, inputs (redirects followed)
 * and attributes, or a literal constant's dims, dtype and attributes
 * (payload included).  Attribute keys hold no spaces, so equal keys
 * are exactly the nodes whose Attrs::toString() texts also agree.
 */
struct CseKey
{
    OpKind kind;
    ir::DType dtype;                    // literal constants only
    std::vector<std::int64_t> operands; // inputs, or constant dims
    const Attrs *attrs;

    bool operator==(const CseKey &o) const
    {
        return kind == o.kind && dtype == o.dtype &&
               operands == o.operands &&
               attrs->entries() == o.attrs->entries();
    }
};

/** Mixes every integer of the key; attribute names are left to
 *  operator==, since operators of one kind share them. */
struct CseKeyHash
{
    std::size_t operator()(const CseKey &k) const
    {
        std::uint64_t h = static_cast<std::uint64_t>(k.kind) << 8 |
                          static_cast<std::uint64_t>(k.dtype);
        auto mix = [&h](std::uint64_t v) {
            h = (h ^ v) * 0x9e3779b97f4a7c15ull;
            h ^= h >> 29;
        };
        for (std::int64_t v : k.operands)
            mix(static_cast<std::uint64_t>(v));
        for (const auto &entry : k.attrs->entries()) {
            mix(entry.second.size());
            for (std::int64_t v : entry.second)
                mix(static_cast<std::uint64_t>(v));
        }
        return static_cast<std::size_t>(h);
    }
};

} // namespace

// ------------------------------------------------------------------- CSE

Graph
CommonSubexprElim::run(Graph graph, PassStats &stats) const
{
    GraphRewriter rw(graph);
    std::unordered_map<CseKey, ValueId, CseKeyHash> seen;
    for (const Node &n : graph.nodes()) {
        if (n.kind == OpKind::Input)
            continue;
        CseKey key{n.kind, ir::DType::F16, {}, &n.attrs};
        if (n.kind == OpKind::Constant) {
            // Only literal-payload constants merge; synthesized
            // streams are distinct weights by construction.
            if (!n.attrs.has("data"))
                continue;
            const ir::Value &out = graph.value(n.output);
            key.dtype = out.dtype;
            key.operands = out.shape.dims();
        } else {
            key.operands.reserve(n.inputs.size());
            for (ValueId in : n.inputs)
                key.operands.push_back(rw.chase(in));
            // Value-number commutative operands: a+b and b+a share a key.
            if (n.kind == OpKind::Add || n.kind == OpKind::Mul)
                std::sort(key.operands.begin(), key.operands.end());
        }
        auto ins = seen.emplace(std::move(key), n.output);
        if (!ins.second) {
            rw.skip(n.id);
            rw.redirect(n.output, ins.first->second);
            ++stats.nodesRemoved;
        }
    }
    if (rw.skipCount() == 0)
        return graph;
    stats.changed = true;
    return rw.rebuild();
}

// -------------------------------------------------------- constant fold

Graph
ConstantFold::run(Graph graph, PassStats &stats) const
{
    // Decide every fold against the original graph; chains of folds
    // (e.g. Reshape of a folded Gather) converge across fixed-point
    // sweeps.  folds[n] holds the attrs of the Constant replacing n.
    std::vector<std::optional<Attrs>> folds(graph.nodes().size());
    for (const Node &n : graph.nodes()) {
        if (n.kind == OpKind::Gather) {
            const Node &table = producerOf(graph, n.inputs[0]);
            const Node &idx = producerOf(graph, n.inputs[1]);
            if (table.kind != OpKind::Constant ||
                idx.kind != OpKind::Constant || !idx.attrs.has("data"))
                continue;
            if (n.attrs.getInt("axis", 0) != 0 ||
                graph.value(table.output).shape.rank() != 1)
                continue;
            const auto &ids = idx.attrs.getInts("data");
            const std::int64_t count =
                graph.value(table.output).shape.numElements();
            bool in_range = true;
            for (std::int64_t i : ids)
                in_range = in_range && i >= 0 && i < count;
            if (!in_range)
                continue;
            Attrs a;
            if (table.attrs.has("data")) {
                const auto &td = table.attrs.getInts("data");
                std::vector<std::int64_t> out;
                out.reserve(ids.size());
                for (std::int64_t i : ids)
                    out.push_back(td[static_cast<std::size_t>(i)]);
                a.set("data", std::move(out));
            } else if (isPlainSynth(table)) {
                a.set("salt", constSalt(table));
                a.set("fold_gather_idx", ids);
                a.set("fold_gather_count", count);
            } else {
                continue; // already-derived table: leave to next sweep
            }
            folds[static_cast<std::size_t>(n.id)] = std::move(a);
            ++stats.nodesFolded;
        } else if (n.kind == OpKind::Reshape) {
            const Node &c = producerOf(graph, n.inputs[0]);
            if (c.kind != OpKind::Constant)
                continue;
            // The bnfold recipe scales by the leading (output-channel)
            // dimension, so it does not survive reshaping.
            if (c.attrs.has("bnfold_scale_salt"))
                continue;
            // Row-major contents are reshape-invariant for literal,
            // synthesized, and gather-derived constants alike.
            folds[static_cast<std::size_t>(n.id)] = constantAttrs(graph, c);
            ++stats.nodesFolded;
        }
    }
    if (stats.nodesFolded == 0)
        return graph;
    stats.changed = true;

    GraphRewriter rw(graph);
    for (const Node &n : graph.nodes()) {
        auto &fold = folds[static_cast<std::size_t>(n.id)];
        if (!fold) {
            rw.copy(n);
            continue;
        }
        const ir::Value &out = graph.value(n.output);
        rw.map(n.output, rw.builder().constant(n.name + ".fold", out.shape,
                                               out.dtype, std::move(*fold)));
    }
    return rw.finish();
}

// ------------------------------------------------------------ algebraic

Graph
AlgebraicSimplify::run(Graph graph, PassStats &stats) const
{
    GraphRewriter rw(graph); // dropped nodes redirect their outputs
    // Node n reads rewire[n] instead; a non-empty new_perm[n] replaces
    // its Transpose permutation.
    std::vector<ValueId> rewire(graph.nodes().size(), -1);
    std::vector<std::vector<std::int64_t>> new_perm(graph.nodes().size());

    auto literalAll = [&](ValueId v, std::int64_t value) {
        const Node &c = producerOf(graph, v);
        if (c.kind != OpKind::Constant || !c.attrs.has("data"))
            return false;
        for (std::int64_t d : c.attrs.getInts("data"))
            if (d != value)
                return false;
        return true;
    };
    auto sameShape = [&](ValueId a, ValueId b2) {
        return graph.value(a).shape == graph.value(b2).shape;
    };
    auto drop = [&](const Node &n, ValueId to) {
        rw.skip(n.id);
        rw.redirect(n.output, to);
        ++stats.nodesRemoved;
    };

    for (const Node &n : graph.nodes()) {
        switch (n.kind) {
          case OpKind::Scale:
            // Scale is x * (scale_milli/1000): milli == 1000 is *1.
            if (n.attrs.getInt("scale_milli", 1000) == 1000)
                drop(n, n.inputs[0]);
            break;
          case OpKind::Add:
            if (literalAll(n.inputs[1], 0) &&
                sameShape(n.output, n.inputs[0]))
                drop(n, n.inputs[0]);
            else if (literalAll(n.inputs[0], 0) &&
                     sameShape(n.output, n.inputs[1]))
                drop(n, n.inputs[1]);
            break;
          case OpKind::Sub:
            if (literalAll(n.inputs[1], 0) &&
                sameShape(n.output, n.inputs[0]))
                drop(n, n.inputs[0]);
            break;
          case OpKind::Mul:
            if (literalAll(n.inputs[1], 1) &&
                sameShape(n.output, n.inputs[0]))
                drop(n, n.inputs[0]);
            else if (literalAll(n.inputs[0], 1) &&
                     sameShape(n.output, n.inputs[1]))
                drop(n, n.inputs[1]);
            break;
          case OpKind::Div:
            if (literalAll(n.inputs[1], 1) &&
                sameShape(n.output, n.inputs[0]))
                drop(n, n.inputs[0]);
            break;
          case OpKind::Slice:
          case OpKind::Pad:
            // Equal shapes mean a full-range slice / all-zero pad.
            if (sameShape(n.output, n.inputs[0]))
                drop(n, n.inputs[0]);
            break;
          case OpKind::Concat:
            if (n.inputs.size() == 1)
                drop(n, n.inputs[0]);
            break;
          case OpKind::Reshape: {
            // Collapse Reshape chains: read the first non-Reshape
            // ancestor directly; intermediates die under DCE.
            ValueId src = n.inputs[0];
            int hops = 0;
            while (producerOf(graph, src).kind == OpKind::Reshape) {
                src = producerOf(graph, src).inputs[0];
                ++hops;
            }
            if (hops > 0) {
                rewire[static_cast<std::size_t>(n.id)] = src;
                stats.nodesFused += hops;
            }
            break;
          }
          case OpKind::Transpose: {
            const Node &p = producerOf(graph, n.inputs[0]);
            if (p.kind != OpKind::Transpose)
                break;
            // transpose(transpose(x, p), q) == transpose(x, p.q) with
            // (p.q)[j] = p[q[j]].
            const auto &pp = p.attrs.getInts("perm");
            const auto &q = n.attrs.getInts("perm");
            std::vector<std::int64_t> composed(q.size());
            bool identity = true;
            for (std::size_t j = 0; j < q.size(); ++j) {
                composed[j] = pp[static_cast<std::size_t>(q[j])];
                identity =
                    identity &&
                    composed[j] == static_cast<std::int64_t>(j);
            }
            if (identity) {
                drop(n, p.inputs[0]);
            } else {
                rewire[static_cast<std::size_t>(n.id)] = p.inputs[0];
                new_perm[static_cast<std::size_t>(n.id)] =
                    std::move(composed);
                ++stats.nodesFused;
            }
            break;
          }
          default:
            break;
        }
    }
    if (stats.total() == 0) // nothing dropped or rewired
        return graph;
    stats.changed = true;

    for (const Node &n : graph.nodes()) {
        if (rw.skipped(n.id))
            continue;
        const ValueId src = rewire[static_cast<std::size_t>(n.id)];
        if (src < 0) {
            rw.copy(n);
            continue;
        }
        Attrs a = n.attrs;
        auto &perm = new_perm[static_cast<std::size_t>(n.id)];
        if (!perm.empty())
            a.set("perm", std::move(perm));
        rw.map(n.output, rw.builder().addNode(n.kind, {rw(src)},
                                              std::move(a), n.name));
    }
    return rw.finish();
}

// --------------------------------------------------------- conv+bn fold

Graph
ConvBatchNormFold::run(Graph graph, PassStats &stats) const
{
    const ir::ConsumerIndex consumers(graph);
    GraphRewriter rw(graph); // skips each folded conv
    // bn node -> its conv producer, for every fusible pair.
    std::vector<NodeId> fold_conv(graph.nodes().size(), ir::invalidNode);
    for (const Node &bn : graph.nodes()) {
        if (bn.kind != OpKind::BatchNorm)
            continue;
        const Node &conv = producerOf(graph, bn.inputs[0]);
        if (!ir::isConv(conv.kind) || conv.inputs.size() != 2)
            continue;
        if (consumers.of(conv.output).size() != 1 ||
            isGraphOutput(graph, conv.output))
            continue;
        const Node &w = producerOf(graph, conv.inputs[1]);
        const Node &scale = producerOf(graph, bn.inputs[1]);
        const Node &bias = producerOf(graph, bn.inputs[2]);
        // The weight and scale streams feed the derived recipe; the
        // bias constant is passed through untouched, so any constant
        // works there.
        if (!isPlainSynth(w) || !isPlainSynth(scale) ||
            bias.kind != OpKind::Constant)
            continue;
        fold_conv[static_cast<std::size_t>(bn.id)] = conv.id;
        rw.skip(conv.id);
    }
    if (rw.skipCount() == 0)
        return graph;
    stats.changed = true;
    stats.nodesFolded = rw.skipCount();

    ir::GraphBuilder &b = rw.builder();
    for (const Node &n : graph.nodes()) {
        if (rw.skipped(n.id))
            continue; // re-emitted at the BatchNorm's position
        const NodeId conv_id = fold_conv[static_cast<std::size_t>(n.id)];
        if (conv_id == ir::invalidNode) {
            rw.copy(n);
            continue;
        }
        const Node &bn = n;
        const Node &conv = graph.node(conv_id);
        const Node &w = producerOf(graph, conv.inputs[1]);
        const Node &scale = producerOf(graph, bn.inputs[1]);

        Attrs wa;
        wa.set("salt", constSalt(w));
        wa.set("bnfold_scale_salt", constSalt(scale));
        wa.set("bnfold_scale_count",
               graph.value(scale.output).shape.numElements());
        ValueId wid =
            b.constant(w.name + ".bnfold",
                       graph.value(w.output).shape,
                       graph.value(w.output).dtype, std::move(wa));
        const ValueId x = rw(conv.inputs[0]);
        rw.map(bn.output, b.addNode(conv.kind, {x, wid, rw(bn.inputs[2])},
                                    conv.attrs, conv.name));
    }
    return rw.finish();
}

// ---------------------------------------------------- attention fusion

namespace {

/** One recognized attention chain, keyed by its exit BatchMatMul. */
struct AttentionChain
{
    std::vector<NodeId> merged; ///< bmm1, [scale], [add], softmax
    ValueId q = -1;
    ValueId k = -1;
    ValueId v = -1;
    ValueId bias = -1; ///< -1 when the chain has no bias Add
    std::int64_t scaleMilli = 1000;
};

/** Match the chain ending at `bmm2`; nullopt when anything is off. */
std::optional<AttentionChain>
matchAttentionChain(const Graph &g, const ir::ConsumerIndex &consumers,
                    const Node &bmm2)
{
    // An intermediate may only feed the next link of the chain.
    auto soleUse = [&](ValueId v) {
        return consumers.of(v).size() == 1 && !isGraphOutput(g, v);
    };

    if (bmm2.kind != OpKind::BatchMatMul ||
        bmm2.attrs.getInt("transB", 0) != 0)
        return std::nullopt;
    if (g.value(bmm2.inputs[1]).shape.rank() != 3)
        return std::nullopt;

    AttentionChain c;
    c.v = bmm2.inputs[1];

    const Node &sm = producerOf(g, bmm2.inputs[0]);
    if (sm.kind != OpKind::Softmax || !soleUse(sm.output))
        return std::nullopt;
    const ir::Shape &score = g.value(sm.inputs[0]).shape;
    if (score.rank() != 3)
        return std::nullopt;
    std::int64_t axis = sm.attrs.getInt("axis", score.rank() - 1);
    if (axis < 0)
        axis += score.rank();
    if (axis != score.rank() - 1)
        return std::nullopt;
    c.merged.push_back(sm.id);

    const Node *cur = &producerOf(g, sm.inputs[0]);

    // Optional single bias Add of a Constant broadcastable over [N, M].
    if (cur->kind == OpKind::Add) {
        if (!soleUse(cur->output))
            return std::nullopt;
        const Node &lhs = producerOf(g, cur->inputs[0]);
        const Node &rhs = producerOf(g, cur->inputs[1]);
        ValueId bias, score_in;
        if (rhs.kind == OpKind::Constant) {
            bias = cur->inputs[1];
            score_in = cur->inputs[0];
        } else if (lhs.kind == OpKind::Constant) {
            bias = cur->inputs[0];
            score_in = cur->inputs[1];
        } else {
            return std::nullopt;
        }
        const ir::Shape &bs = g.value(bias).shape;
        if (bs.rank() < 2 || bs.rank() > 3 ||
            bs.dim(bs.rank() - 2) != score.dim(1) ||
            bs.dim(bs.rank() - 1) != score.dim(2))
            return std::nullopt;
        if (bs.rank() == 3 && bs.dim(0) != 1 &&
            bs.dim(0) != score.dim(0))
            return std::nullopt;
        c.bias = bias;
        c.merged.push_back(cur->id);
        cur = &producerOf(g, score_in);
    }

    // Optional Scale.  A second Add above it (bias + mask stacks)
    // falls through to the BatchMatMul check below and misses.
    if (cur->kind == OpKind::Scale) {
        if (!soleUse(cur->output))
            return std::nullopt;
        c.scaleMilli = cur->attrs.getInt("scale_milli", 1000);
        c.merged.push_back(cur->id);
        cur = &producerOf(g, cur->inputs[0]);
    }

    if (cur->kind != OpKind::BatchMatMul ||
        cur->attrs.getInt("transB", 0) == 0 ||
        !soleUse(cur->output))
        return std::nullopt;
    if (g.value(cur->inputs[0]).shape.rank() != 3 ||
        g.value(cur->inputs[1]).shape.rank() != 3)
        return std::nullopt;
    c.q = cur->inputs[0];
    c.k = cur->inputs[1];
    c.merged.push_back(cur->id);
    return c;
}

} // namespace

Graph
AttentionFusion::run(Graph graph, PassStats &stats) const
{
    const ir::ConsumerIndex consumers(graph);
    GraphRewriter rw(graph); // skips every merged node
    // exit bmm2 -> its chain
    std::vector<std::optional<AttentionChain>> chains(graph.nodes().size());
    for (const Node &n : graph.nodes()) {
        auto &c = chains[static_cast<std::size_t>(n.id)];
        c = matchAttentionChain(graph, consumers, n);
        if (c)
            for (NodeId id : c->merged)
                rw.skip(id);
    }
    if (rw.skipCount() == 0)
        return graph;
    stats.changed = true;
    stats.nodesFused = rw.skipCount();

    for (const Node &n : graph.nodes()) {
        if (rw.skipped(n.id))
            continue;
        const auto &c = chains[static_cast<std::size_t>(n.id)];
        if (!c) {
            rw.copy(n);
            continue;
        }
        std::vector<ValueId> ins = {rw(c->q), rw(c->k), rw(c->v)};
        if (c->bias >= 0)
            ins.push_back(rw(c->bias));
        Attrs a;
        if (c->scaleMilli != 1000)
            a.set("scale_milli", c->scaleMilli);
        rw.map(n.output,
               rw.builder().addNode(OpKind::FusedAttention, std::move(ins),
                                    std::move(a), n.name + ".attn"));
    }
    return rw.finish();
}

} // namespace smartmem::opt
