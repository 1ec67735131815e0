/**
 * @file
 * Non-panicking structural validation for externally assembled graphs.
 *
 * GraphBuilder establishes every invariant here by construction, so
 * builder-made graphs never need this path; it exists for graphs that
 * arrive as *data* (parsed `.smgraph` files, future importers).  Unlike
 * Graph::verify(), which SM_ASSERTs (an InternalError means a library
 * bug), validation collects one diagnostic per violation so the CLI can
 * print them all and exit 2 -- a bad input file is a user error, not a
 * bug.
 */
#include "ir/graph.h"

#include <algorithm>
#include <set>

#include "ir/shape_infer.h"
#include "support/error.h"
#include "support/strings.h"

namespace smartmem::ir {

namespace {

std::string
valueRef(const GraphParts &parts, ValueId id)
{
    std::string out = "value " + std::to_string(id);
    if (id >= 0 && id < static_cast<ValueId>(parts.values.size()))
        out += " ('" + parts.values[static_cast<std::size_t>(id)].name + "')";
    return out;
}

} // namespace

std::vector<std::string>
validateGraphParts(const GraphParts &parts)
{
    std::vector<std::string> diags;
    const auto n_values = static_cast<ValueId>(parts.values.size());
    const auto n_nodes = static_cast<NodeId>(parts.nodes.size());
    auto valueOk = [&](ValueId id) { return id >= 0 && id < n_values; };

    for (std::size_t i = 0; i < parts.values.size(); ++i) {
        const Value &v = parts.values[i];
        if (v.id != static_cast<ValueId>(i)) {
            diags.push_back("value record " + std::to_string(i) +
                            " has id " + std::to_string(v.id) +
                            " (value ids must be dense and ascending)");
        }
    }

    for (std::size_t i = 0; i < parts.nodes.size(); ++i) {
        const Node &n = parts.nodes[i];
        const std::string where =
            "node " + std::to_string(i) + " ('" + n.name + "')";
        if (n.id != static_cast<NodeId>(i)) {
            diags.push_back("node record " + std::to_string(i) +
                            " has id " + std::to_string(n.id) +
                            " (node ids must be dense and ascending)");
        }
        if (!valueOk(n.output)) {
            diags.push_back(where + ": output value id " +
                            std::to_string(n.output) +
                            " is out of range (dangling value id)");
        } else if (parts.values[static_cast<std::size_t>(n.output)]
                       .producer != static_cast<NodeId>(i)) {
            diags.push_back(
                where + ": " + valueRef(parts, n.output) +
                " records producer " +
                std::to_string(parts.values[static_cast<std::size_t>(
                    n.output)].producer) +
                ", not this node (broken producer back-link)");
        }
        const bool terminal = isTerminal(n.kind);
        if (terminal && !n.inputs.empty()) {
            diags.push_back(where + ": " + opKindName(n.kind) +
                            " node must have no inputs");
        }
        bool inputs_ok = true;
        for (ValueId in : n.inputs) {
            if (!valueOk(in)) {
                diags.push_back(where + ": input value id " +
                                std::to_string(in) +
                                " is out of range (dangling value id)");
                inputs_ok = false;
                continue;
            }
            NodeId p = parts.values[static_cast<std::size_t>(in)].producer;
            if (p == invalidNode || p >= n_nodes) {
                diags.push_back(where + ": input " + valueRef(parts, in) +
                                " has no producing node");
                inputs_ok = false;
            } else if (p >= static_cast<NodeId>(i)) {
                diags.push_back(
                    where + ": input " + valueRef(parts, in) +
                    " is produced by node " + std::to_string(p) +
                    " at or after this node (nodes must be topologically "
                    "ordered; this indicates a cycle)");
                inputs_ok = false;
            }
        }
        if (n.kind == OpKind::Constant && n.attrs.has("data") &&
            valueOk(n.output)) {
            const auto &data = n.attrs.getInts("data");
            auto want = parts.values[static_cast<std::size_t>(n.output)]
                            .shape.numElements();
            if (static_cast<std::int64_t>(data.size()) != want) {
                diags.push_back(
                    where + ": constant \"data\" payload has " +
                    std::to_string(data.size()) + " elements but the " +
                    "output shape holds " + std::to_string(want));
            }
        }
        // Re-run shape inference against the stored output shape; a
        // FatalError from inferShape (unsupported attrs, bad arity) is
        // itself a diagnostic.
        if (!terminal && inputs_ok && valueOk(n.output)) {
            std::vector<Shape> in_shapes;
            for (ValueId in : n.inputs)
                in_shapes.push_back(
                    parts.values[static_cast<std::size_t>(in)].shape);
            try {
                Shape expect = inferShape(n.kind, in_shapes, n.attrs);
                const Shape &stored =
                    parts.values[static_cast<std::size_t>(n.output)].shape;
                if (expect != stored) {
                    diags.push_back(
                        where + ": stored output shape " +
                        stored.toString() +
                        " disagrees with shape inference (" +
                        expect.toString() + ")");
                }
            } catch (const FatalError &err) {
                diags.push_back(where + ": shape inference failed: " +
                                err.what());
            }
        }
    }

    // Every value must come from some node (dense producers are what the
    // node loop checked; this catches values no node claims at all).
    for (std::size_t i = 0; i < parts.values.size(); ++i) {
        const Value &v = parts.values[i];
        NodeId p = v.producer;
        bool produced = p >= 0 && p < n_nodes &&
            parts.nodes[static_cast<std::size_t>(p)].output ==
                static_cast<ValueId>(i);
        if (!produced) {
            diags.push_back(valueRef(parts, static_cast<ValueId>(i)) +
                            " is not the output of any node");
        }
    }

    // Graph inputs must be exactly the Input-node outputs (any order the
    // file records, but nothing missing and nothing extra).
    std::set<ValueId> declared(parts.inputs.begin(), parts.inputs.end());
    if (declared.size() != parts.inputs.size())
        diags.push_back("graph input list contains duplicate value ids");
    for (ValueId id : parts.inputs) {
        if (!valueOk(id)) {
            diags.push_back("graph input value id " + std::to_string(id) +
                            " is out of range");
        } else {
            NodeId p = parts.values[static_cast<std::size_t>(id)].producer;
            bool from_input = p >= 0 && p < n_nodes &&
                parts.nodes[static_cast<std::size_t>(p)].kind ==
                    OpKind::Input;
            if (!from_input) {
                diags.push_back("graph input " + valueRef(parts, id) +
                                " is not produced by an Input node");
            }
        }
    }
    for (const Node &n : parts.nodes) {
        if (n.kind == OpKind::Input && !declared.count(n.output)) {
            diags.push_back("Input node '" + n.name + "' (" +
                            valueRef(parts, n.output) +
                            ") is missing from the graph input list");
        }
    }

    if (parts.outputs.empty())
        diags.push_back("graph declares no outputs");
    for (ValueId id : parts.outputs) {
        if (!valueOk(id)) {
            diags.push_back("graph output value id " + std::to_string(id) +
                            " is out of range (dangling value id)");
        }
    }

    return diags;
}

std::vector<std::string>
validateGraph(const Graph &graph)
{
    GraphParts parts;
    parts.nodes = graph.nodes();
    parts.values = graph.values();
    parts.inputs = graph.inputIds();
    parts.outputs = graph.outputIds();
    return validateGraphParts(parts);
}

Graph
makeGraph(GraphParts parts)
{
    auto diags = validateGraphParts(parts);
    if (!diags.empty()) {
        smFatal("invalid graph (" + std::to_string(diags.size()) +
                " problem" + (diags.size() == 1 ? "" : "s") + "):\n  " +
                joinStrings(diags, "\n  "));
    }
    Graph g;
    g.nodes_ = std::move(parts.nodes);
    g.values_ = std::move(parts.values);
    g.inputs_ = std::move(parts.inputs);
    g.outputs_ = std::move(parts.outputs);
    return g;
}

} // namespace smartmem::ir
