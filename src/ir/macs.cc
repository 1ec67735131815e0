#include "ir/macs.h"

#include "support/error.h"

namespace smartmem::ir {

std::int64_t
nodeMacs(const Graph &graph, const Node &node)
{
    const auto out_elems = graph.value(node.output).shape.numElements();
    switch (opInfo(node.kind).category) {
      case OpCategory::Conv: {
        const Shape &w = graph.value(node.inputs[1]).shape; // OIHW
        // Each output element needs I*KH*KW MACs.
        return out_elems * w.dim(1) * w.dim(2) * w.dim(3);
      }
      case OpCategory::MatMul: {
        const Shape &a = graph.value(node.inputs[0]).shape;
        std::int64_t k = a.dim(a.rank() - 1);
        return out_elems * k;
      }
      case OpCategory::Norm:
      case OpCategory::Softmax:
      case OpCategory::Reduce:
        return graph.value(node.inputs[0]).shape.numElements();
      case OpCategory::Pool: {
        if (node.kind == OpKind::GlobalAvgPool)
            return graph.value(node.inputs[0]).shape.numElements();
        std::int64_t k = node.attrs.getInt("kernel");
        return out_elems * k * k;
      }
      case OpCategory::Attention: {
        // Q.K^T (B*N*M*dk) plus attn.V (B*N*M*dv).
        const Shape &q = graph.value(node.inputs[0]).shape;
        const Shape &v = graph.value(node.inputs[2]).shape;
        const std::int64_t b = q.dim(0);
        const std::int64_t n = q.dim(1);
        const std::int64_t dk = q.dim(2);
        const std::int64_t m = v.dim(1);
        const std::int64_t dv = v.dim(2);
        return b * n * m * (dk + dv);
      }
      default:
        return 0;
    }
}

std::int64_t
graphMacs(const Graph &graph)
{
    std::int64_t total = 0;
    for (const Node &n : graph.nodes())
        total += nodeMacs(graph, n);
    return total;
}

} // namespace smartmem::ir
