#include "opt/pass.h"

#include <algorithm>
#include <cstdio>

#include "support/error.h"
#include "support/logging.h"
#include "support/strings.h"

namespace smartmem::opt {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;
using ir::ValueId;

// ---------------------------------------------------------------- stats

bool
PipelineStats::changed() const
{
    for (const PassRun &r : runs)
        if (r.stats.changed)
            return true;
    return false;
}

PassStats
PipelineStats::totalFor(const std::string &pass) const
{
    PassStats total;
    for (const PassRun &r : runs) {
        if (r.pass != pass)
            continue;
        total.nodesRemoved += r.stats.nodesRemoved;
        total.nodesFolded += r.stats.nodesFolded;
        total.nodesFused += r.stats.nodesFused;
        total.changed = total.changed || r.stats.changed;
    }
    return total;
}

std::string
PipelineStats::toString() const
{
    // One row per distinct pass, in first-run order.
    std::vector<std::string> order;
    for (const PassRun &r : runs)
        if (std::find(order.begin(), order.end(), r.pass) == order.end())
            order.push_back(r.pass);

    std::string out = "pass            runs  removed  folded  fused\n";
    for (const std::string &p : order) {
        int n_runs = 0;
        for (const PassRun &r : runs)
            if (r.pass == p)
                ++n_runs;
        PassStats t = totalFor(p);
        char line[128];
        std::snprintf(line, sizeof(line), "%-15s %4d  %7d  %6d  %5d\n",
                      p.c_str(), n_runs, t.nodesRemoved, t.nodesFolded,
                      t.nodesFused);
        out += line;
    }
    out += "total: " + std::to_string(operatorsBefore) + " -> " +
           std::to_string(operatorsAfter) + " operators in " +
           std::to_string(iterations) + " iteration" +
           (iterations == 1 ? "" : "s") + "\n";
    return out;
}

// --------------------------------------------------------------- manager

PassManager &
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
    return *this;
}

PassManager &
PassManager::add(const std::string &name)
{
    return add(create(name));
}

namespace {

/** One sweep; appends PassRun records tagged with `iteration`. */
Graph
runSweep(const std::vector<std::unique_ptr<Pass>> &passes, Graph g,
         PipelineStats *stats, int iteration, bool *changed)
{
    for (const auto &p : passes) {
        PassRun run;
        run.pass = p->name();
        run.iteration = iteration;
        run.operatorsBefore = g.operatorCount();
        g = p->run(std::move(g), run.stats);
        if (run.stats.changed) {
            g.verify();
            *changed = true;
        }
        run.operatorsAfter = g.operatorCount();
        SM_DEBUG("pass " << run.pass << ": " << run.operatorsBefore
                         << " -> " << run.operatorsAfter
                         << " operators");
        if (stats != nullptr)
            stats->runs.push_back(std::move(run));
    }
    return g;
}

} // namespace

Graph
PassManager::run(Graph graph, PipelineStats *stats) const
{
    const int before = graph.operatorCount();
    bool changed = false;
    graph = runSweep(passes_, std::move(graph), stats, 0, &changed);
    if (stats != nullptr) {
        stats->iterations = 1;
        stats->operatorsBefore = before;
        stats->operatorsAfter = graph.operatorCount();
    }
    return graph;
}

Graph
PassManager::runToFixedPoint(Graph graph, PipelineStats *stats,
                             int max_iterations) const
{
    const int before = graph.operatorCount();
    int iteration = 0;
    for (; iteration < max_iterations; ++iteration) {
        bool changed = false;
        graph = runSweep(passes_, std::move(graph), stats, iteration,
                         &changed);
        if (!changed) {
            ++iteration;
            break;
        }
    }
    if (stats != nullptr) {
        stats->iterations = iteration;
        stats->operatorsBefore = before;
        stats->operatorsAfter = graph.operatorCount();
    }
    return graph;
}

std::unique_ptr<Pass>
PassManager::create(const std::string &name)
{
    if (name == "identity-elim")
        return std::make_unique<IdentityElim>();
    if (name == "cse")
        return std::make_unique<CommonSubexprElim>();
    if (name == "algebraic")
        return std::make_unique<AlgebraicSimplify>();
    if (name == "const-fold")
        return std::make_unique<ConstantFold>();
    if (name == "conv-bn-fold")
        return std::make_unique<ConvBatchNormFold>();
    if (name == "attention-fusion")
        return std::make_unique<AttentionFusion>();
    if (name == "dce")
        return std::make_unique<DeadCodeElim>();
    smFatal("unknown pass '" + name +
            "' (registered: " + joinStrings(passNames(), ", ") + ")");
}

const std::vector<std::string> &
PassManager::passNames()
{
    static const std::vector<std::string> names = {
        "identity-elim", "cse", "algebraic",
        "const-fold", "conv-bn-fold", "attention-fusion", "dce"};
    return names;
}

PassManager
PassManager::defaultPipeline()
{
    PassManager pm;
    for (const std::string &name : passNames())
        pm.add(name);
    return pm;
}

// --------------------------------------------------------------- rewrite

ir::Attrs
constantAttrs(const Graph &graph, const Node &n)
{
    (void)graph;
    ir::Attrs a = n.attrs;
    // Pin the synthesis stream of this constant before its value id is
    // renumbered; literal payloads need no pinning.
    if (!a.has("data") && !a.has("salt"))
        a.set("salt", static_cast<std::int64_t>(n.output));
    return a;
}

GraphRewriter::GraphRewriter(const Graph &graph)
    : graph_(graph), skipped_(graph.nodes().size(), 0),
      redirect_(graph.values().size(), -1),
      mapped_(graph.values().size(), -1)
{
}

ValueId
GraphRewriter::chase(ValueId v) const
{
    // Every pass redirects to a value produced earlier, so chains end;
    // the bound turns a cyclic redirect into a panic, not a hang.
    for (std::size_t hops = 0;; ++hops) {
        const ValueId next = redirect_[static_cast<std::size_t>(v)];
        if (next < 0)
            return v;
        SM_ASSERT(hops < redirect_.size(), "rewrite: redirect cycle");
        v = next;
    }
}

ValueId
GraphRewriter::operator()(ValueId v) const
{
    const ValueId now = mapped_[static_cast<std::size_t>(chase(v))];
    SM_ASSERT(now >= 0, "rewrite: unresolved value " + std::to_string(v));
    return now;
}

void
GraphRewriter::copy(const Node &n)
{
    const ir::Value &out = graph_.value(n.output);
    switch (n.kind) {
      case OpKind::Input:
        map(n.output, builder_.input(n.name, out.shape, out.dtype));
        break;
      case OpKind::Constant:
        map(n.output, builder_.constant(n.name, out.shape, out.dtype,
                                        constantAttrs(graph_, n)));
        break;
      default: {
        std::vector<ValueId> ins;
        ins.reserve(n.inputs.size());
        for (ValueId in : n.inputs)
            ins.push_back((*this)(in));
        map(n.output,
            builder_.addNode(n.kind, std::move(ins), n.attrs, n.name));
        break;
      }
    }
}

Graph
GraphRewriter::rebuild()
{
    for (const Node &n : graph_.nodes())
        if (!skipped(n.id))
            copy(n);
    return finish();
}

Graph
GraphRewriter::finish()
{
    for (ValueId out : graph_.outputIds())
        builder_.markOutput((*this)(out));
    return builder_.finish();
}

// ---------------------------------------------------------------- passes

Graph
DeadCodeElim::run(Graph graph, PassStats &stats) const
{
    // Mark values reachable backwards from outputs.
    std::vector<char> live(graph.values().size(), 0);
    for (ValueId out : graph.outputIds())
        live[static_cast<std::size_t>(out)] = 1;
    const auto &nodes = graph.nodes();
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
        if (live[static_cast<std::size_t>(it->output)] == 0)
            continue;
        for (ValueId in : it->inputs)
            live[static_cast<std::size_t>(in)] = 1;
    }
    GraphRewriter rw(graph);
    for (const Node &n : nodes) {
        if (live[static_cast<std::size_t>(n.output)] == 0)
            rw.skip(n.id);
    }
    if (rw.skipCount() == 0)
        return graph;
    stats.nodesRemoved = rw.skipCount();
    stats.changed = true;
    return rw.rebuild();
}

Graph
IdentityElim::run(Graph graph, PassStats &stats) const
{
    GraphRewriter rw(graph);
    for (const Node &n : graph.nodes()) {
        bool noop = false;
        if (n.kind == OpKind::Identity) {
            noop = true;
        } else if (n.kind == OpKind::Reshape) {
            noop = graph.value(n.output).shape ==
                   graph.value(n.inputs[0]).shape;
        } else if (n.kind == OpKind::Transpose) {
            const auto &perm = n.attrs.getInts("perm");
            noop = true;
            for (std::size_t i = 0; i < perm.size(); ++i) {
                if (perm[i] != static_cast<std::int64_t>(i))
                    noop = false;
            }
        }
        if (noop) {
            rw.skip(n.id);
            rw.redirect(n.output, n.inputs[0]);
        }
    }
    if (rw.skipCount() == 0)
        return graph;
    stats.nodesRemoved = rw.skipCount();
    stats.changed = true;
    return rw.rebuild();
}

} // namespace smartmem::opt
