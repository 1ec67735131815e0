/**
 * @file
 * The computational graph: a DAG of single-output operator nodes over
 * typed tensor values.  This is the unit every compiler pipeline
 * (SmartMem and the baselines) consumes and produces.
 */
#ifndef SMARTMEM_IR_GRAPH_H
#define SMARTMEM_IR_GRAPH_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/attrs.h"
#include "ir/dtype.h"
#include "ir/op_kind.h"
#include "ir/shape.h"

namespace smartmem::ir {

using ValueId = std::int32_t;
using NodeId = std::int32_t;

constexpr NodeId invalidNode = -1;

/** A tensor value flowing along a graph edge. */
struct Value
{
    ValueId id = -1;
    std::string name;
    Shape shape;
    DType dtype = DType::F16;
    NodeId producer = invalidNode;
};

/** One operator application. Every node produces exactly one value. */
struct Node
{
    NodeId id = -1;
    OpKind kind = OpKind::Identity;
    std::string name;
    std::vector<ValueId> inputs;
    ValueId output = -1;
    Attrs attrs;
};

/**
 * Raw material for a graph assembled outside GraphBuilder -- the
 * deserializer fills one of these from a parsed `.smgraph` file.
 * validateGraphParts() checks every structural invariant GraphBuilder
 * establishes by construction; makeGraph() enforces them and seals the
 * parts into a Graph.
 */
struct GraphParts
{
    std::vector<Node> nodes;
    std::vector<Value> values;
    std::vector<ValueId> inputs;
    std::vector<ValueId> outputs;
};

class Graph;

/**
 * Non-panicking structural validation for externally assembled graphs:
 * dense ascending node/value ids, producer back-links, topological node
 * order (the cycle check), terminal-node arity, graph input/output
 * well-formedness, constant "data" payload sizes, and shape-inference
 * consistency.  Returns one human-readable diagnostic per violation;
 * empty means the parts form a valid graph.
 */
std::vector<std::string> validateGraphParts(const GraphParts &parts);

/** validateGraphParts over an already-sealed graph. */
std::vector<std::string> validateGraph(const Graph &graph);

/**
 * Seal externally assembled parts into a Graph.  Throws FatalError
 * joining every validateGraphParts() diagnostic if the parts are
 * ill-formed.
 */
Graph makeGraph(GraphParts parts);

/**
 * Computational graph.  Construction goes through GraphBuilder, which
 * performs shape inference; after that the graph is conceptually
 * immutable -- optimization passes build rewritten copies.
 */
class Graph
{
  public:
    const std::vector<Node> &nodes() const { return nodes_; }
    const std::vector<Value> &values() const { return values_; }

    const Node &node(NodeId id) const;
    const Value &value(ValueId id) const;

    /** Graph input / output value ids (model boundary). */
    const std::vector<ValueId> &inputIds() const { return inputs_; }
    const std::vector<ValueId> &outputIds() const { return outputs_; }

    /** Node ids consuming the given value, in node-id order, each
     *  once.  Scans every node: a loop over many values should build
     *  a ConsumerIndex instead. */
    std::vector<NodeId> consumers(ValueId id) const;

    /** Nodes in a topological order (inputs before consumers). */
    std::vector<NodeId> topoOrder() const;

    /**
     * Count of operator nodes, excluding Input/Constant terminals --
     * this is the "#Operators" metric of Table 7.
     */
    int operatorCount() const;

    /** Count of nodes of a given kind. */
    int countKind(OpKind kind) const;

    /** Count of layout-transformation nodes (Table 1 "#Layout transform"). */
    int layoutTransformCount() const;

    /** Structural + shape consistency check; panics on violations. */
    void verify() const;

    /** Multi-line human-readable dump. */
    std::string toString() const;

  private:
    friend class GraphBuilder;
    friend Graph makeGraph(GraphParts parts);

    std::vector<Node> nodes_;
    std::vector<Value> values_;
    std::vector<ValueId> inputs_;
    std::vector<ValueId> outputs_;
};

/**
 * Graph::consumers() of every value, built in one pass over the nodes
 * and stored as one flat array sliced by value id.  The index holds no
 * reference to the graph it was built from.
 */
class ConsumerIndex
{
  public:
    /** The consumers of one value: node ids in node-id order. */
    struct Range
    {
        const NodeId *first;
        const NodeId *last;
        const NodeId *begin() const { return first; }
        const NodeId *end() const { return last; }
        std::size_t size() const
        {
            return static_cast<std::size_t>(last - first);
        }
    };

    explicit ConsumerIndex(const Graph &graph);

    /** Equals graph.consumers(id) for the graph indexed. */
    Range of(ValueId id) const;

  private:
    std::vector<std::size_t> offsets_; // value id -> start in nodes_
    std::vector<NodeId> nodes_;
};

/**
 * Builder with per-op typed helpers.  Every helper runs shape inference
 * (see shape_infer.h) so ill-formed graphs fail at construction.
 */
class GraphBuilder
{
  public:
    GraphBuilder() = default;

    /** Finish building; verifies and returns the graph. */
    Graph finish();

    /** Declare a model input. */
    ValueId input(const std::string &name, const Shape &shape,
                  DType dtype = DType::F16);

    /** Declare a constant (weights); contents are synthesized on demand
     *  unless `attrs` carries an explicit integer "data" payload (used
     *  for Gather index tables). */
    ValueId constant(const std::string &name, const Shape &shape,
                     DType dtype = DType::F16, Attrs attrs = Attrs());

    /** Integer-data constant (e.g. Gather indices). */
    ValueId constantData(const std::string &name, const Shape &shape,
                         std::vector<std::int64_t> data,
                         DType dtype = DType::I32);

    /** Mark a value as a model output. */
    void markOutput(ValueId id);

    /** Generic node insertion (shape-inferred). */
    ValueId addNode(OpKind kind, std::vector<ValueId> inputs, Attrs attrs,
                    const std::string &name = "");

    // ---- Convenience helpers (thin wrappers over addNode) ----
    ValueId conv2d(ValueId x, ValueId w, int stride, int pad,
                   int groups = 1);
    ValueId depthwiseConv2d(ValueId x, ValueId w, int stride, int pad);
    ValueId matmul(ValueId a, ValueId b, bool trans_b = false);
    ValueId batchMatMul(ValueId a, ValueId b, bool trans_b = false);
    ValueId layerNorm(ValueId x, ValueId gamma, ValueId beta);
    ValueId instanceNorm(ValueId x);
    ValueId batchNorm(ValueId x, ValueId scale, ValueId bias);
    ValueId softmax(ValueId x, int axis);
    ValueId reduce(OpKind kind, ValueId x, std::vector<std::int64_t> axes,
                   bool keepdims);
    ValueId maxPool2d(ValueId x, int kernel, int stride, int pad);
    ValueId avgPool2d(ValueId x, int kernel, int stride, int pad);
    ValueId globalAvgPool(ValueId x);
    ValueId unary(OpKind kind, ValueId x);
    ValueId binary(OpKind kind, ValueId a, ValueId b);
    ValueId reshape(ValueId x, std::vector<std::int64_t> new_shape);
    ValueId transpose(ValueId x, std::vector<std::int64_t> perm);
    ValueId depthToSpace(ValueId x, int block);
    ValueId spaceToDepth(ValueId x, int block);
    ValueId gather(ValueId x, ValueId indices, int axis);
    ValueId slice(ValueId x, std::vector<std::int64_t> axes,
                  std::vector<std::int64_t> starts,
                  std::vector<std::int64_t> ends);
    ValueId concat(std::vector<ValueId> xs, int axis);
    ValueId pad(ValueId x, std::vector<std::int64_t> pads);

    const Graph &graph() const { return graph_; }

  private:
    ValueId newValue(const std::string &name, const Shape &shape,
                     DType dtype, NodeId producer);

    Graph graph_;
    int anonCounter_ = 0;
};

} // namespace smartmem::ir

#endif // SMARTMEM_IR_GRAPH_H
