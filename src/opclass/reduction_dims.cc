#include "opclass/reduction_dims.h"

namespace smartmem::opclass {

using ir::OpKind;

std::vector<int>
reductionDims(const ir::Graph &graph, const ir::Node &node, int input_idx)
{
    const ir::Shape &in =
        graph.value(node.inputs[static_cast<std::size_t>(input_idx)]).shape;
    switch (ir::opInfo(node.kind).category) {
      case ir::OpCategory::Conv:
        // Depthwise: per-channel window aggregation only.  Otherwise
        // x aggregates over input channels (dim 1) and the window, and
        // w (OIHW) over I, KH, KW.
        if (node.kind == OpKind::DepthwiseConv2d)
            return {2, 3};
        return input_idx == 0 ? std::vector<int>{1}
                              : std::vector<int>{1, 2, 3};
      case ir::OpCategory::MatMul: {
        bool trans_b = node.attrs.getInt("transB", 0) != 0;
        if (input_idx == 0)
            return {in.rank() - 1}; // K is A's last dim
        // B: K is the second-to-last dim, or last when transposed.
        return {trans_b ? in.rank() - 1 : in.rank() - 2};
      }
      case ir::OpCategory::Norm:
        if (node.kind == OpKind::InstanceNorm)
            return {2, 3};
        if (node.kind == OpKind::LayerNorm && input_idx == 0)
            return {in.rank() - 1};
        return {}; // gamma/beta, and BatchNorm's per-channel affine map
      case ir::OpCategory::Softmax: {
        int axis = static_cast<int>(
            node.attrs.getInt("axis", in.rank() - 1));
        if (axis < 0)
            axis += in.rank();
        return {axis};
      }
      case ir::OpCategory::Reduce: {
        std::vector<int> out;
        for (auto a : node.attrs.getInts("axes"))
            out.push_back(static_cast<int>(a));
        return out;
      }
      case ir::OpCategory::Pool:
        return {2, 3};
      case ir::OpCategory::Attention:
        // Q aggregates over dk (last dim); K over dk (last dim); V over
        // the context length M (rank-2 dim); the bias is read-only.
        if (input_idx == 0 || input_idx == 1)
            return {in.rank() - 1};
        if (input_idx == 2)
            return {in.rank() - 2};
        return {};
      default:
        return {};
    }
}

int
preferredContiguousDim(const ir::Graph &graph, const ir::Node &node,
                       int input_idx)
{
    auto dims = reductionDims(graph, node, input_idx);
    if (!dims.empty())
        return dims.front();
    const ir::Shape &in =
        graph.value(node.inputs[static_cast<std::size_t>(input_idx)]).shape;
    return in.rank() - 1;
}

} // namespace smartmem::opclass
