#include "ir/graph.h"

#include <algorithm>
#include <sstream>

#include "ir/shape_infer.h"
#include "support/error.h"

namespace smartmem::ir {

const Node &
Graph::node(NodeId id) const
{
    SM_ASSERT(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
              "node id out of range");
    return nodes_[static_cast<std::size_t>(id)];
}

const Value &
Graph::value(ValueId id) const
{
    SM_ASSERT(id >= 0 && id < static_cast<ValueId>(values_.size()),
              "value id out of range");
    return values_[static_cast<std::size_t>(id)];
}

std::vector<NodeId>
Graph::consumers(ValueId id) const
{
    std::vector<NodeId> out;
    for (const Node &n : nodes_) {
        for (ValueId in : n.inputs) {
            if (in == id) {
                out.push_back(n.id);
                break;
            }
        }
    }
    return out;
}

ConsumerIndex::ConsumerIndex(const Graph &graph)
    : offsets_(graph.values().size() + 1, 0)
{
    // Two passes over the edges: count, then place.  `last` lists each
    // node once per distinct input, as Graph::consumers does.
    std::vector<NodeId> last(graph.values().size(), invalidNode);
    auto visit = [&](auto &&use) {
        for (const Node &n : graph.nodes()) {
            for (ValueId v : n.inputs) {
                auto &seen = last[static_cast<std::size_t>(v)];
                if (seen != n.id) {
                    seen = n.id;
                    use(static_cast<std::size_t>(v), n.id);
                }
            }
        }
    };
    visit([&](std::size_t v, NodeId) { ++offsets_[v + 1]; });
    for (std::size_t v = 1; v < offsets_.size(); ++v)
        offsets_[v] += offsets_[v - 1];
    nodes_.resize(offsets_.back());
    std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    std::fill(last.begin(), last.end(), invalidNode);
    visit([&](std::size_t v, NodeId id) { nodes_[cursor[v]++] = id; });
}

ConsumerIndex::Range
ConsumerIndex::of(ValueId id) const
{
    SM_ASSERT(id >= 0 && static_cast<std::size_t>(id) + 1 < offsets_.size(),
              "value id out of range");
    const NodeId *base = nodes_.data();
    return {base + offsets_[static_cast<std::size_t>(id)],
            base + offsets_[static_cast<std::size_t>(id) + 1]};
}

std::vector<NodeId>
Graph::topoOrder() const
{
    // Nodes are appended in dependency order by the builder, so node id
    // order *is* a topological order; verify() checks this invariant.
    std::vector<NodeId> order(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        order[i] = static_cast<NodeId>(i);
    return order;
}

int
Graph::operatorCount() const
{
    int count = 0;
    for (const Node &n : nodes_) {
        if (!isTerminal(n.kind))
            ++count;
    }
    return count;
}

int
Graph::countKind(OpKind kind) const
{
    int count = 0;
    for (const Node &n : nodes_)
        if (n.kind == kind)
            ++count;
    return count;
}

int
Graph::layoutTransformCount() const
{
    int count = 0;
    for (const Node &n : nodes_)
        if (isLayoutTransform(n.kind))
            ++count;
    return count;
}

void
Graph::verify() const
{
    for (std::size_t i = 0; i < values_.size(); ++i) {
        SM_ASSERT(values_[i].id == static_cast<ValueId>(i),
                  "value id mismatch");
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node &n = nodes_[i];
        SM_ASSERT(n.id == static_cast<NodeId>(i), "node id mismatch");
        SM_ASSERT(n.output >= 0 &&
                  n.output < static_cast<ValueId>(values_.size()),
                  "node output out of range");
        SM_ASSERT(value(n.output).producer == n.id,
                  "output producer back-link broken");
        for (ValueId in : n.inputs) {
            SM_ASSERT(in >= 0 && in < static_cast<ValueId>(values_.size()),
                      "node input out of range");
            NodeId p = value(in).producer;
            SM_ASSERT(p == invalidNode || p < n.id,
                      "node ids are not topologically ordered");
        }
        // Re-run shape inference to confirm stored shapes.
        if (!isTerminal(n.kind)) {
            std::vector<Shape> in_shapes;
            for (ValueId in : n.inputs)
                in_shapes.push_back(value(in).shape);
            Shape expect = inferShape(n.kind, in_shapes, n.attrs);
            SM_ASSERT(expect == value(n.output).shape,
                      "stored shape disagrees with inference at node " +
                      n.name);
        }
    }
    for (ValueId id : outputs_) {
        SM_ASSERT(id >= 0 && id < static_cast<ValueId>(values_.size()),
                  "graph output out of range");
    }
}

std::string
Graph::toString() const
{
    std::ostringstream os;
    os << "graph {\n";
    for (const Node &n : nodes_) {
        os << "  %" << n.output << " = " << opKindName(n.kind) << "(";
        for (std::size_t i = 0; i < n.inputs.size(); ++i) {
            if (i)
                os << ", ";
            os << "%" << n.inputs[i];
        }
        os << ") " << n.attrs.toString() << " : "
           << value(n.output).shape.toString();
        if (!n.name.empty())
            os << "  // " << n.name;
        os << "\n";
    }
    os << "  outputs:";
    for (ValueId id : outputs_)
        os << " %" << id;
    os << "\n}\n";
    return os.str();
}

// ---------------------------------------------------------------------
// GraphBuilder
// ---------------------------------------------------------------------

ValueId
GraphBuilder::newValue(const std::string &name, const Shape &shape,
                       DType dtype, NodeId producer)
{
    Value v;
    v.id = static_cast<ValueId>(graph_.values_.size());
    v.name = name.empty() ? ("v" + std::to_string(v.id)) : name;
    v.shape = shape;
    v.dtype = dtype;
    v.producer = producer;
    graph_.values_.push_back(v);
    return v.id;
}

Graph
GraphBuilder::finish()
{
    graph_.verify();
    return std::move(graph_);
}

ValueId
GraphBuilder::input(const std::string &name, const Shape &shape,
                    DType dtype)
{
    Node n;
    n.id = static_cast<NodeId>(graph_.nodes_.size());
    n.kind = OpKind::Input;
    n.name = name;
    ValueId v = newValue(name, shape, dtype, n.id);
    n.output = v;
    graph_.nodes_.push_back(std::move(n));
    graph_.inputs_.push_back(v);
    return v;
}

ValueId
GraphBuilder::constant(const std::string &name, const Shape &shape,
                       DType dtype, Attrs attrs)
{
    Node n;
    n.id = static_cast<NodeId>(graph_.nodes_.size());
    n.kind = OpKind::Constant;
    n.name = name;
    n.attrs = std::move(attrs);
    ValueId v = newValue(name, shape, dtype, n.id);
    n.output = v;
    graph_.nodes_.push_back(std::move(n));
    return v;
}

ValueId
GraphBuilder::constantData(const std::string &name, const Shape &shape,
                           std::vector<std::int64_t> data, DType dtype)
{
    SM_REQUIRE(static_cast<std::int64_t>(data.size()) ==
               shape.numElements(),
               "constant data size mismatch");
    Attrs a;
    a.set("data", std::move(data));
    return constant(name, shape, dtype, std::move(a));
}

void
GraphBuilder::markOutput(ValueId id)
{
    graph_.outputs_.push_back(id);
}

ValueId
GraphBuilder::addNode(OpKind kind, std::vector<ValueId> inputs, Attrs attrs,
                      const std::string &name)
{
    std::vector<Shape> in_shapes;
    DType dtype = DType::F16;
    for (ValueId in : inputs) {
        in_shapes.push_back(graph_.value(in).shape);
        dtype = graph_.value(in).dtype;
    }
    Shape out_shape = inferShape(kind, in_shapes, attrs);

    Node n;
    n.id = static_cast<NodeId>(graph_.nodes_.size());
    n.kind = kind;
    n.name = name.empty()
        ? (opKindName(kind) + "_" + std::to_string(anonCounter_++)) : name;
    n.inputs = std::move(inputs);
    n.attrs = std::move(attrs);
    ValueId v = newValue("", out_shape, dtype, n.id);
    n.output = v;
    graph_.nodes_.push_back(std::move(n));
    return v;
}

ValueId
GraphBuilder::conv2d(ValueId x, ValueId w, int stride, int pad, int groups)
{
    Attrs a;
    a.set("stride", stride).set("pad", pad).set("groups", groups);
    OpKind kind = groups > 1 ? OpKind::GroupConv2d : OpKind::Conv2d;
    return addNode(kind, {x, w}, a);
}

ValueId
GraphBuilder::depthwiseConv2d(ValueId x, ValueId w, int stride, int pad)
{
    Attrs a;
    a.set("stride", stride).set("pad", pad)
     .set("groups", graph_.value(x).shape.dim(1));
    return addNode(OpKind::DepthwiseConv2d, {x, w}, a);
}

ValueId
GraphBuilder::matmul(ValueId a, ValueId b, bool trans_b)
{
    Attrs attrs;
    attrs.set("transB", trans_b ? 1 : 0);
    return addNode(OpKind::MatMul, {a, b}, attrs);
}

ValueId
GraphBuilder::batchMatMul(ValueId a, ValueId b, bool trans_b)
{
    Attrs attrs;
    attrs.set("transB", trans_b ? 1 : 0);
    return addNode(OpKind::BatchMatMul, {a, b}, attrs);
}

ValueId
GraphBuilder::layerNorm(ValueId x, ValueId gamma, ValueId beta)
{
    return addNode(OpKind::LayerNorm, {x, gamma, beta}, Attrs());
}

ValueId
GraphBuilder::instanceNorm(ValueId x)
{
    return addNode(OpKind::InstanceNorm, {x}, Attrs());
}

ValueId
GraphBuilder::batchNorm(ValueId x, ValueId scale, ValueId bias)
{
    return addNode(OpKind::BatchNorm, {x, scale, bias}, Attrs());
}

ValueId
GraphBuilder::softmax(ValueId x, int axis)
{
    Attrs a;
    a.set("axis", axis);
    return addNode(OpKind::Softmax, {x}, a);
}

ValueId
GraphBuilder::reduce(OpKind kind, ValueId x, std::vector<std::int64_t> axes,
                     bool keepdims)
{
    Attrs a;
    a.set("axes", std::move(axes)).set("keepdims", keepdims ? 1 : 0);
    return addNode(kind, {x}, a);
}

ValueId
GraphBuilder::maxPool2d(ValueId x, int kernel, int stride, int pad)
{
    Attrs a;
    a.set("kernel", kernel).set("stride", stride).set("pad", pad);
    return addNode(OpKind::MaxPool2d, {x}, a);
}

ValueId
GraphBuilder::avgPool2d(ValueId x, int kernel, int stride, int pad)
{
    Attrs a;
    a.set("kernel", kernel).set("stride", stride).set("pad", pad);
    return addNode(OpKind::AvgPool2d, {x}, a);
}

ValueId
GraphBuilder::globalAvgPool(ValueId x)
{
    return addNode(OpKind::GlobalAvgPool, {x}, Attrs());
}

ValueId
GraphBuilder::unary(OpKind kind, ValueId x)
{
    SM_ASSERT(isUnaryElementwise(kind), "unary() with non-unary kind");
    return addNode(kind, {x}, Attrs());
}

ValueId
GraphBuilder::binary(OpKind kind, ValueId a, ValueId b)
{
    SM_ASSERT(isBinaryElementwise(kind), "binary() with non-binary kind");
    return addNode(kind, {a, b}, Attrs());
}

ValueId
GraphBuilder::reshape(ValueId x, std::vector<std::int64_t> new_shape)
{
    Attrs a;
    a.set("shape", std::move(new_shape));
    return addNode(OpKind::Reshape, {x}, a);
}

ValueId
GraphBuilder::transpose(ValueId x, std::vector<std::int64_t> perm)
{
    Attrs a;
    a.set("perm", std::move(perm));
    return addNode(OpKind::Transpose, {x}, a);
}

ValueId
GraphBuilder::depthToSpace(ValueId x, int block)
{
    Attrs a;
    a.set("block", block);
    return addNode(OpKind::DepthToSpace, {x}, a);
}

ValueId
GraphBuilder::spaceToDepth(ValueId x, int block)
{
    Attrs a;
    a.set("block", block);
    return addNode(OpKind::SpaceToDepth, {x}, a);
}

ValueId
GraphBuilder::gather(ValueId x, ValueId indices, int axis)
{
    Attrs a;
    a.set("axis", axis);
    return addNode(OpKind::Gather, {x, indices}, a);
}

ValueId
GraphBuilder::slice(ValueId x, std::vector<std::int64_t> axes,
                    std::vector<std::int64_t> starts,
                    std::vector<std::int64_t> ends)
{
    Attrs a;
    a.set("axes", std::move(axes)).set("starts", std::move(starts))
     .set("ends", std::move(ends));
    return addNode(OpKind::Slice, {x}, a);
}

ValueId
GraphBuilder::concat(std::vector<ValueId> xs, int axis)
{
    Attrs a;
    a.set("axis", axis);
    return addNode(OpKind::Concat, std::move(xs), a);
}

ValueId
GraphBuilder::pad(ValueId x, std::vector<std::int64_t> pads)
{
    Attrs a;
    a.set("pads", std::move(pads));
    return addNode(OpKind::Pad, {x}, a);
}

} // namespace smartmem::ir
