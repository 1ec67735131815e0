#include "core/planner.h"

#include <algorithm>
#include <map>
#include <set>

#include "index/index_map.h"
#include "opclass/opclass.h"
#include "support/error.h"

namespace smartmem::core {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;
using ir::ValueId;
using runtime::ExecutionPlan;
using runtime::Kernel;
using runtime::KernelInput;

namespace {

/** Can this node be removed by LTE (index-map elimination)? */
bool
lteCandidate(const Graph &graph, const Node &n)
{
    if (!index::IndexMap::isEliminable(n.kind))
        return false;
    if (n.kind == OpKind::Gather) {
        const ir::Value &idx = graph.value(n.inputs[1]);
        const Node &p = graph.node(idx.producer);
        if (p.kind != OpKind::Constant || !p.attrs.has("data"))
            return false;
    }
    // Values the model returns must be materialized.
    for (ValueId out : graph.outputIds()) {
        if (out == n.output)
            return false;
    }
    return true;
}

/** Per-planner-run mutable state. */
struct PlannerState
{
    const Graph &graph;
    const FusionPolicy &policy;

    std::set<NodeId> eliminated;
    std::map<NodeId, int> groupOf;           // node -> group index
    std::vector<std::vector<NodeId>> groups; // kernels in creation order

    ir::ConsumerIndex consumers;

    explicit PlannerState(const Graph &g, const FusionPolicy &p)
        : graph(g), policy(p), consumers(g)
    {
    }
};

/**
 * Resolve a value backwards through eliminated nodes: returns the first
 * materialized value and the composed IndexMap (consumer coords ->
 * source coords), or no map if the chain is empty.
 */
struct ResolvedInput
{
    ValueId source;
    ValueId substitute;
    std::optional<index::IndexMap> map;
};

/** The first materialized value behind `value`: the source
 *  resolveThroughEliminated() reports, without building its map. */
ValueId
sourceThroughEliminated(const PlannerState &st, ValueId value)
{
    const Graph &g = st.graph;
    ValueId cur = value;
    while (true) {
        const Node &p = g.node(g.value(cur).producer);
        if (st.eliminated.count(p.id) == 0)
            return cur;
        cur = p.inputs[0];
    }
}

ResolvedInput
resolveThroughEliminated(const PlannerState &st, ValueId value)
{
    const Graph &g = st.graph;
    ResolvedInput r;
    r.substitute = value;
    ValueId cur = value;
    std::optional<index::IndexMap> map;
    while (true) {
        const Node &p = g.node(g.value(cur).producer);
        if (st.eliminated.count(p.id) == 0)
            break;
        index::IndexMap m = index::IndexMap::fromNode(g, p);
        map = map ? map->composedWith(m) : m;
        cur = p.inputs[0];
    }
    r.source = cur;
    if (map) {
        if (st.policy.simplifyIndexMaps)
            map = map->simplified();
        r.map = map;
    }
    return r;
}

/** Consumers of `value` that are not eliminated, looking through
 *  eliminated chains. */
void
effectiveConsumers(const PlannerState &st, ValueId value,
                   std::vector<NodeId> *out)
{
    for (NodeId c : st.consumers.of(value)) {
        // Eliminated Gathers keep their index constant as a second
        // input; the constant edge is irrelevant here.
        if (st.eliminated.count(c) > 0) {
            const Node &n = st.graph.node(c);
            if (n.inputs[0] == value)
                effectiveConsumers(st, n.output, out);
        } else {
            out->push_back(c);
        }
    }
}

bool
isEltwise(const Node &n)
{
    return opclass::classifyOp(n.kind) == opclass::iliVariable;
}

bool
isIldVar(const Node &n)
{
    return opclass::classifyOp(n.kind) == opclass::ildVariable;
}

bool
groupHasIld(const PlannerState &st, int g)
{
    for (NodeId nid : st.groups[static_cast<std::size_t>(g)])
        if (isIldVar(st.graph.node(nid)))
            return true;
    return false;
}

/** True if group `g` has ILD content and all of it is normalization
 *  ops -- the shape a norm+matmul prologue fusion may extend. */
bool
groupIldAllNorms(const PlannerState &st, int g)
{
    bool any = false;
    for (NodeId nid : st.groups[static_cast<std::size_t>(g)]) {
        const Node &n = st.graph.node(nid);
        if (!isIldVar(n))
            continue;
        any = true;
        if (ir::opInfo(n.kind).category != ir::OpCategory::Norm)
            return false;
    }
    return any;
}

bool
groupAllTransforms(const PlannerState &st, int g)
{
    for (NodeId nid : st.groups[static_cast<std::size_t>(g)])
        if (!ir::isLayoutTransform(st.graph.node(nid).kind))
            return false;
    return true;
}

int
groupPostOps(const PlannerState &st, int g)
{
    // Element-wise ops after the last ILD op in the group.
    int count = 0;
    for (auto it = st.groups[static_cast<std::size_t>(g)].rbegin();
         it != st.groups[static_cast<std::size_t>(g)].rend(); ++it) {
        if (isIldVar(st.graph.node(*it)))
            break;
        ++count;
    }
    return count;
}

/** Exit value of a group = output of its last node. */
ValueId
groupExit(const PlannerState &st, int g)
{
    return st.graph.node(st.groups[static_cast<std::size_t>(g)].back())
        .output;
}

/**
 * True if `value` (the current exit of group `g`) is consumed, through
 * eliminated chains, by exactly the node `only` and is not a graph
 * output -- the single-exit condition for extending the group.
 */
bool
soleEffectiveConsumer(const PlannerState &st, ValueId value, NodeId only)
{
    for (ValueId out : st.graph.outputIds())
        if (out == value)
            return false;
    std::vector<NodeId> cons;
    effectiveConsumers(st, value, &cons);
    if (cons.size() != 1)
        return false;
    return cons[0] == only;
}

/**
 * Decide whether node `n` may join group `g` which (effectively)
 * produces one of its inputs.  Implements the Table 5 actions under
 * the fusion policy.
 */
bool
canJoin(const PlannerState &st, const Node &n, int g)
{
    const FusionPolicy &pol = st.policy;
    if (ir::isLayoutTransform(n.kind)) {
        // Transform chains only fuse with transform chains (DNNFusion).
        return pol.fuseTransformChains && groupAllTransforms(st, g);
    }
    if (opclass::classifyOp(n.kind) == opclass::iliFixed) {
        // Selection ops (Concat/Pad/surviving Slice/Gather) stay alone.
        return false;
    }
    if (groupAllTransforms(st, g) &&
        !st.groups[static_cast<std::size_t>(g)].empty() &&
        ir::isLayoutTransform(
            st.graph.node(st.groups[static_cast<std::size_t>(g)][0]).kind))
        return false; // never append compute to a copy kernel
    if (isEltwise(n)) {
        if (groupHasIld(st, g)) {
            return pol.fuseEltwiseIntoIld &&
                   groupPostOps(st, g) < pol.maxPostOps;
        }
        return pol.fuseEltwiseChains;
    }
    if (isIldVar(n)) {
        // "Keep both" for ILD+ILD; an ILD may absorb a pure element-wise
        // producer chain ("Try fuse").
        if (pol.fusePreChains && !groupHasIld(st, g))
            return true;
        // Norm+matmul prologue: a matmul may additionally absorb a
        // group whose only ILD content is normalizations (the LayerNorm
        // feeding an MLP linear, say).
        return pol.fuseNormMatmulPrologue && ir::isMatMul(n.kind) &&
               groupIldAllNorms(st, g);
    }
    return false;
}

} // namespace

std::vector<NodeId>
eliminatedNodes(const Graph &graph, const FusionPolicy &policy)
{
    std::vector<NodeId> out;
    if (!policy.eliminateTransforms)
        return out;
    for (const Node &n : graph.nodes()) {
        if (!ir::isTerminal(n.kind) && lteCandidate(graph, n))
            out.push_back(n.id);
    }
    return out;
}

ExecutionPlan
planGraph(const Graph &graph, const FusionPolicy &policy)
{
    PlannerState st(graph, policy);
    for (NodeId nid : eliminatedNodes(graph, policy))
        st.eliminated.insert(nid);

    // ---- grouping ----
    for (NodeId nid : graph.topoOrder()) {
        const Node &n = graph.node(nid);
        if (ir::isTerminal(n.kind) || st.eliminated.count(nid) > 0)
            continue;

        int joined = -1;
        for (ValueId vin : n.inputs) {
            const ValueId source = sourceThroughEliminated(st, vin);
            const Node &p = graph.node(graph.value(source).producer);
            if (ir::isTerminal(p.kind))
                continue;
            auto git = st.groupOf.find(p.id);
            if (git == st.groupOf.end())
                continue;
            int g = git->second;
            // Only extend at the group's exit.
            if (groupExit(st, g) != source)
                continue;
            if (!soleEffectiveConsumer(st, source, nid))
                continue;
            if (!canJoin(st, n, g))
                continue;
            joined = g;
            break;
        }
        if (joined < 0) {
            joined = static_cast<int>(st.groups.size());
            st.groups.emplace_back();
        }
        st.groups[static_cast<std::size_t>(joined)].push_back(nid);
        st.groupOf[nid] = joined;
    }

    // ---- kernel construction ----
    // Launch order: groups sorted by their last (exit) node id.  Node
    // ids are topologically ordered and a group's exit has the group's
    // maximum id, so any producer group's exit precedes every consumer
    // group's exit -- this yields a valid kernel topological order even
    // when late nodes were fused into early groups.
    std::sort(st.groups.begin(), st.groups.end(),
              [](const std::vector<NodeId> &a,
                 const std::vector<NodeId> &b) {
                  return a.back() < b.back();
              });

    ExecutionPlan plan;
    plan.graph = graph;
    for (std::size_t gi = 0; gi < st.groups.size(); ++gi) {
        const auto &group = st.groups[gi];
        Kernel k;
        k.fusedNodes = group;
        const Node &last = graph.node(group.back());
        k.output = last.output;
        k.name = last.name;
        k.outLayout =
            ir::Layout::rowMajor(graph.value(k.output).shape.rank());
        k.isLayoutCopy = groupAllTransforms(st, static_cast<int>(gi));
        if (policy.fuseAttentionBlock) {
            for (NodeId nid : group)
                if (graph.node(nid).kind == OpKind::FusedAttention)
                    k.streamingAttention = true;
        }

        std::set<ValueId> internal;
        for (NodeId nid : group)
            internal.insert(graph.node(nid).output);

        std::set<ValueId> seen_subs;
        for (NodeId nid : group) {
            const Node &n = graph.node(nid);
            for (ValueId vin : n.inputs) {
                if (internal.count(vin) > 0)
                    continue;
                const Node &direct = graph.node(graph.value(vin).producer);
                if (direct.kind == OpKind::Constant)
                    continue; // weights: implicit, cost model handles
                if (seen_subs.count(vin) > 0)
                    continue;
                seen_subs.insert(vin);

                ResolvedInput r = resolveThroughEliminated(st, vin);
                KernelInput in;
                in.source = r.source;
                in.substitute = r.substitute;
                if (r.map && !(r.substitute == r.source))
                    in.readMap = r.map;
                in.internalSource = internal.count(r.source) > 0;
                in.layout = ir::Layout::rowMajor(
                    graph.value(r.source).shape.rank());
                k.inputs.push_back(std::move(in));
            }
        }
        plan.kernels.push_back(std::move(k));
    }
    return plan;
}

} // namespace smartmem::core
