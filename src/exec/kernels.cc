/**
 * @file
 * Naive per-operator kernels for the functional executor.
 *
 * Data-movement operators (Reshape, Transpose, DepthToSpace,
 * SpaceToDepth, Slice, Gather-with-constant-indices) are implemented by
 * materializing the operator's IndexMap; the index module's own tests
 * validate the maps against independent references, so the executor and
 * the elimination pass share one proven definition of these semantics.
 * Element-wise ops likewise share applyUnaryScalar/applyBinaryScalar
 * with the cpu-blocked backend; exec_test pins those formulas against
 * hand-computed values.
 */
#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "index/index_map.h"
#include "support/error.h"

namespace smartmem::exec {

using ir::Node;
using ir::OpKind;
using ir::Shape;

namespace {

Tensor
evalConv(const ir::Graph &graph, const Node &node,
         const Tensor &x, const Tensor &w, const Tensor *bias)
{
    const Shape &xs = x.shape();
    const Shape &ws = w.shape();
    std::int64_t stride = node.attrs.getInt("stride", 1);
    std::int64_t pad = node.attrs.getInt("pad", 0);
    std::int64_t groups = node.attrs.getInt(
        "groups", node.kind == OpKind::DepthwiseConv2d ? xs.dim(1) : 1);

    Shape out_shape = graph.value(node.output).shape;
    Tensor out(out_shape);
    const std::int64_t n_batch = out_shape.dim(0);
    const std::int64_t oc = out_shape.dim(1);
    const std::int64_t oh = out_shape.dim(2);
    const std::int64_t ow = out_shape.dim(3);
    const std::int64_t icg = ws.dim(1); // in-channels per group
    const std::int64_t kh = ws.dim(2);
    const std::int64_t kw = ws.dim(3);
    const std::int64_t ocg = oc / groups; // out-channels per group

    for (std::int64_t n = 0; n < n_batch; ++n) {
        for (std::int64_t o = 0; o < oc; ++o) {
            std::int64_t g = o / ocg;
            // Optional per-output-channel bias (conv+batchnorm folding),
            // added after accumulation like the BN affine it replaces.
            const float bias_v =
                bias ? bias->at(o % bias->numElements()) : 0.0f;
            for (std::int64_t y = 0; y < oh; ++y) {
                for (std::int64_t xo = 0; xo < ow; ++xo) {
                    float acc = 0;
                    for (std::int64_t c = 0; c < icg; ++c) {
                        std::int64_t ic = g * icg + c;
                        for (std::int64_t dy = 0; dy < kh; ++dy) {
                            std::int64_t iy = y * stride + dy - pad;
                            if (iy < 0 || iy >= xs.dim(2))
                                continue;
                            for (std::int64_t dx = 0; dx < kw; ++dx) {
                                std::int64_t ix = xo * stride + dx - pad;
                                if (ix < 0 || ix >= xs.dim(3))
                                    continue;
                                acc += x.at({n, ic, iy, ix}) *
                                       w.at({o, c, dy, dx});
                            }
                        }
                    }
                    out.at({n, o, y, xo}) = acc + bias_v;
                }
            }
        }
    }
    return out;
}

Tensor
evalMatMul(const ir::Graph &graph, const Node &node,
           const Tensor &a, const Tensor &b)
{
    const Shape &as = a.shape();
    const Shape &bs = b.shape();
    bool trans_b = node.attrs.getInt("transB", 0) != 0;
    Shape out_shape = graph.value(node.output).shape;
    Tensor out(out_shape);

    const std::int64_t m = as.dim(as.rank() - 2);
    const std::int64_t k = as.dim(as.rank() - 1);
    const std::int64_t n = out_shape.dim(out_shape.rank() - 1);
    std::int64_t batch = 1;
    for (int i = 0; i < out_shape.rank() - 2; ++i)
        batch *= out_shape.dim(i);
    const bool b_batched = bs.rank() > 2;

    for (std::int64_t bi = 0; bi < batch; ++bi) {
        const float *ap = a.data() + bi * m * k;
        const float *bp = b.data() + (b_batched
            ? bi * k * n : 0);
        float *op = out.data() + bi * m * n;
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
                float acc = 0;
                for (std::int64_t kk = 0; kk < k; ++kk) {
                    float bv = trans_b ? bp[j * k + kk] : bp[kk * n + j];
                    acc += ap[i * k + kk] * bv;
                }
                op[i * n + j] = acc;
            }
        }
    }
    return out;
}

Tensor
evalLayerNorm(const Node &node, const Tensor &x, const Tensor *gamma,
              const Tensor *beta)
{
    (void)node;
    // Normalize over the last dimension.
    const Shape &s = x.shape();
    const std::int64_t inner = s.dim(s.rank() - 1);
    const std::int64_t outer = s.numElements() / inner;
    Tensor out(s);
    for (std::int64_t o = 0; o < outer; ++o) {
        const float *xp = x.data() + o * inner;
        float *op = out.data() + o * inner;
        float sum = 0;
        for (std::int64_t i = 0; i < inner; ++i)
            sum += xp[i];
        float mean = sum / static_cast<float>(inner);
        float var = 0;
        for (std::int64_t i = 0; i < inner; ++i)
            var += (xp[i] - mean) * (xp[i] - mean);
        var /= static_cast<float>(inner);
        float inv = 1.0f / std::sqrt(var + 1e-5f);
        for (std::int64_t i = 0; i < inner; ++i) {
            float v = (xp[i] - mean) * inv;
            if (gamma)
                v *= gamma->at(i % gamma->numElements());
            if (beta)
                v += beta->at(i % beta->numElements());
            op[i] = v;
        }
    }
    return out;
}

Tensor
evalInstanceNorm(const Tensor &x)
{
    // Normalize over H, W per (N, C).
    const Shape &s = x.shape();
    SM_REQUIRE(s.rank() == 4, "instance norm expects rank-4");
    const std::int64_t hw = s.dim(2) * s.dim(3);
    const std::int64_t nc = s.dim(0) * s.dim(1);
    Tensor out(s);
    for (std::int64_t o = 0; o < nc; ++o) {
        const float *xp = x.data() + o * hw;
        float *op = out.data() + o * hw;
        float sum = 0;
        for (std::int64_t i = 0; i < hw; ++i)
            sum += xp[i];
        float mean = sum / static_cast<float>(hw);
        float var = 0;
        for (std::int64_t i = 0; i < hw; ++i)
            var += (xp[i] - mean) * (xp[i] - mean);
        var /= static_cast<float>(hw);
        float inv = 1.0f / std::sqrt(var + 1e-5f);
        for (std::int64_t i = 0; i < hw; ++i)
            op[i] = (xp[i] - mean) * inv;
    }
    return out;
}

Tensor
evalBatchNorm(const Tensor &x, const Tensor &scale, const Tensor &bias)
{
    // Inference-mode affine transform per channel (folded stats).
    const Shape &s = x.shape();
    SM_REQUIRE(s.rank() == 4, "batch norm expects rank-4");
    Tensor out(s);
    const std::int64_t c_extent = s.dim(1);
    const std::int64_t hw = s.dim(2) * s.dim(3);
    for (std::int64_t n = 0; n < s.dim(0); ++n) {
        for (std::int64_t c = 0; c < c_extent; ++c) {
            float g = scale.at(c % scale.numElements());
            float b = bias.at(c % bias.numElements());
            const float *xp = x.data() + (n * c_extent + c) * hw;
            float *op = out.data() + (n * c_extent + c) * hw;
            for (std::int64_t i = 0; i < hw; ++i)
                op[i] = xp[i] * g + b;
        }
    }
    return out;
}

Tensor
evalSoftmax(const Node &node, const Tensor &x)
{
    const Shape &s = x.shape();
    int axis = static_cast<int>(node.attrs.getInt("axis", s.rank() - 1));
    if (axis < 0)
        axis += s.rank();
    SM_REQUIRE(axis >= 0 && axis < s.rank(), "softmax axis out of range");
    std::int64_t inner = 1;
    for (int i = axis + 1; i < s.rank(); ++i)
        inner *= s.dim(i);
    std::int64_t extent = s.dim(axis);
    std::int64_t outer = s.numElements() / (inner * extent);

    Tensor out(s);
    for (std::int64_t o = 0; o < outer; ++o)
        for (std::int64_t i = 0; i < inner; ++i)
            softmaxRow(x.data() + o * extent * inner + i,
                       out.data() + o * extent * inner + i, extent, inner);
    return out;
}

Tensor
evalReduce(const ir::Graph &graph, const Node &node, const Tensor &x)
{
    const Shape &s = x.shape();
    Shape out_shape = graph.value(node.output).shape;
    const auto &axes = node.attrs.getInts("axes");
    std::vector<bool> reduced(static_cast<std::size_t>(s.rank()), false);
    for (auto a : axes)
        reduced[static_cast<std::size_t>(a)] = true;
    bool keepdims = node.attrs.getInt("keepdims", 1) != 0;

    Tensor out(out_shape);
    bool is_max = node.kind == OpKind::ReduceMax;
    if (is_max) {
        for (std::int64_t i = 0; i < out.numElements(); ++i)
            out.at(i) = -std::numeric_limits<float>::infinity();
    }
    std::int64_t reduce_count = 1;
    for (auto a : axes)
        reduce_count *= s.dim(static_cast<int>(a));

    forEachCoord(s, [&](const std::vector<std::int64_t> &coord) {
        std::vector<std::int64_t> ocoord;
        for (int d = 0; d < s.rank(); ++d) {
            if (reduced[static_cast<std::size_t>(d)]) {
                if (keepdims)
                    ocoord.push_back(0);
            } else {
                ocoord.push_back(coord[static_cast<std::size_t>(d)]);
            }
        }
        if (ocoord.empty())
            ocoord.push_back(0);
        float v = x.at(coord);
        float &dst = out.at(ocoord);
        if (is_max)
            dst = std::max(dst, v);
        else
            dst += v;
    });
    if (node.kind == OpKind::ReduceMean) {
        for (std::int64_t i = 0; i < out.numElements(); ++i)
            out.at(i) /= static_cast<float>(reduce_count);
    }
    return out;
}

Tensor
evalPool(const ir::Graph &graph, const Node &node, const Tensor &x)
{
    const Shape &s = x.shape();
    Shape out_shape = graph.value(node.output).shape;
    Tensor out(out_shape);
    bool is_max = node.kind == OpKind::MaxPool2d;
    if (node.kind == OpKind::GlobalAvgPool) {
        // Global pool: average over all H, W.
        for (std::int64_t n = 0; n < s.dim(0); ++n) {
            for (std::int64_t c = 0; c < s.dim(1); ++c) {
                float acc = 0;
                for (std::int64_t y = 0; y < s.dim(2); ++y)
                    for (std::int64_t xx = 0; xx < s.dim(3); ++xx)
                        acc += x.at({n, c, y, xx});
                out.at({n, c, 0, 0}) =
                    acc / static_cast<float>(s.dim(2) * s.dim(3));
            }
        }
        return out;
    }
    const std::int64_t kernel = node.attrs.getInt("kernel");
    const std::int64_t stride = node.attrs.getInt("stride", kernel);
    const std::int64_t pad = node.attrs.getInt("pad", 0);
    for (std::int64_t n = 0; n < out_shape.dim(0); ++n) {
        for (std::int64_t c = 0; c < out_shape.dim(1); ++c) {
            for (std::int64_t y = 0; y < out_shape.dim(2); ++y) {
                for (std::int64_t xo = 0; xo < out_shape.dim(3); ++xo) {
                    float acc = is_max
                        ? -std::numeric_limits<float>::infinity()
                        : 0.0f;
                    std::int64_t cnt = 0;
                    for (std::int64_t dy = 0; dy < kernel; ++dy) {
                        std::int64_t iy = y * stride + dy - pad;
                        if (iy < 0 || iy >= s.dim(2))
                            continue;
                        for (std::int64_t dx = 0; dx < kernel; ++dx) {
                            std::int64_t ix = xo * stride + dx - pad;
                            if (ix < 0 || ix >= s.dim(3))
                                continue;
                            float v = x.at({n, c, iy, ix});
                            if (is_max)
                                acc = std::max(acc, v);
                            else
                                acc += v;
                            ++cnt;
                        }
                    }
                    out.at({n, c, y, xo}) = is_max
                        ? acc
                        : acc / static_cast<float>(std::max<std::int64_t>(
                              cnt, 1));
                }
            }
        }
    }
    return out;
}

Tensor
evalFusedAttention(const ir::Graph &graph, const Node &node,
                   const Tensor &q, const Tensor &k, const Tensor &v,
                   const Tensor *bias)
{
    const Shape &qs = q.shape();
    const Shape &vs = v.shape();
    const std::int64_t batch = qs.dim(0);
    const std::int64_t n = qs.dim(1);
    const std::int64_t dk = qs.dim(2);
    const std::int64_t m = vs.dim(1);
    const std::int64_t dv = vs.dim(2);
    const float scale = static_cast<float>(
        node.attrs.getInt("scale_milli", 1000)) / 1000.0f;
    const bool bias_batched =
        bias != nullptr && bias->shape().rank() == 3 &&
        bias->shape().dim(0) > 1;

    Tensor out(graph.value(node.output).shape);
    std::vector<float> row(static_cast<std::size_t>(m));
    for (std::int64_t b = 0; b < batch; ++b) {
        const float *qp = q.data() + b * n * dk;
        const float *kp = k.data() + b * m * dk;
        const float *vp = v.data() + b * m * dv;
        const float *bp =
            bias ? bias->data() + (bias_batched ? b * n * m : 0)
                 : nullptr;
        float *op = out.data() + b * n * dv;
        for (std::int64_t i = 0; i < n; ++i) {
            float mx = -std::numeric_limits<float>::infinity();
            for (std::int64_t j = 0; j < m; ++j) {
                float acc = 0;
                for (std::int64_t kk = 0; kk < dk; ++kk)
                    acc += qp[i * dk + kk] * kp[j * dk + kk];
                acc *= scale;
                if (bp)
                    acc += bp[i * m + j];
                row[static_cast<std::size_t>(j)] = acc;
                mx = std::max(mx, acc);
            }
            float denom = 0;
            for (std::int64_t j = 0; j < m; ++j) {
                float e = softmaxWeight(row[static_cast<std::size_t>(j)], mx);
                row[static_cast<std::size_t>(j)] = e;
                denom += e;
            }
            for (std::int64_t d = 0; d < dv; ++d)
                op[i * dv + d] = 0;
            if (denom == 0.0f)
                continue; // fully masked: the row stays zero
            for (std::int64_t j = 0; j < m; ++j) {
                float p = row[static_cast<std::size_t>(j)] / denom;
                for (std::int64_t d = 0; d < dv; ++d)
                    op[i * dv + d] += p * vp[j * dv + d];
            }
        }
    }
    return out;
}

/** Materialize a data-movement op via its IndexMap. */
Tensor
evalViaIndexMap(const ir::Graph &graph, const Node &node, const Tensor &x)
{
    index::IndexMap map =
        index::IndexMap::fromNode(graph, node).simplified();
    Tensor out(map.outputShape());
    forEachCoord(map.outputShape(),
                 [&](const std::vector<std::int64_t> &coord) {
        out.at(coord) = x.at(map.apply(coord));
    });
    return out;
}

Tensor
evalConcat(const ir::Graph &graph, const Node &node,
           const std::vector<const Tensor *> &inputs)
{
    Shape out_shape = graph.value(node.output).shape;
    int axis = static_cast<int>(node.attrs.getInt("axis"));
    Tensor out(out_shape);
    std::int64_t offset = 0;
    for (const Tensor *t : inputs) {
        forEachCoord(t->shape(),
                     [&](const std::vector<std::int64_t> &coord) {
            std::vector<std::int64_t> ocoord = coord;
            ocoord[static_cast<std::size_t>(axis)] += offset;
            out.at(ocoord) = t->at(coord);
        });
        offset += t->shape().dim(axis);
    }
    return out;
}

Tensor
evalPad(const ir::Graph &graph, const Node &node, const Tensor &x)
{
    Shape out_shape = graph.value(node.output).shape;
    const auto &pads = node.attrs.getInts("pads");
    Tensor out(out_shape); // zero-filled
    forEachCoord(x.shape(), [&](const std::vector<std::int64_t> &coord) {
        std::vector<std::int64_t> ocoord = coord;
        for (int d = 0; d < x.shape().rank(); ++d)
            ocoord[static_cast<std::size_t>(d)] +=
                pads[static_cast<std::size_t>(2 * d)];
        out.at(ocoord) = x.at(coord);
    });
    return out;
}

Tensor
evalBroadcastBinary(const ir::Graph &graph, const Node &node,
                    const Tensor &a, const Tensor &b)
{
    Shape out_shape = graph.value(node.output).shape;
    Tensor out(out_shape);
    forEachCoord(out_shape, [&](const std::vector<std::int64_t> &coord) {
        // Map output coordinate onto each (possibly lower-rank) input.
        auto pick = [&](const Tensor &t) {
            const Shape &s = t.shape();
            std::vector<std::int64_t> c(
                static_cast<std::size_t>(s.rank()));
            for (int d = 0; d < s.rank(); ++d) {
                std::int64_t oc = coord[static_cast<std::size_t>(
                    d + out_shape.rank() - s.rank())];
                c[static_cast<std::size_t>(d)] =
                    s.dim(d) == 1 ? 0 : oc;
            }
            return t.at(c);
        };
        out.at(coord) = applyBinaryScalar(node.kind, pick(a), pick(b));
    });
    return out;
}

} // namespace

Tensor
evalNode(const ir::Graph &graph, const Node &node,
         const std::vector<const Tensor *> &inputs)
{
    switch (ir::opInfo(node.kind).category) {
      case ir::OpCategory::Terminal:
        smPanic("evalNode on terminal");

      case ir::OpCategory::Conv:
        return evalConv(graph, node, *inputs[0], *inputs[1],
                        inputs.size() > 2 ? inputs[2] : nullptr);

      case ir::OpCategory::MatMul:
        return evalMatMul(graph, node, *inputs[0], *inputs[1]);

      case ir::OpCategory::Norm:
        if (node.kind == OpKind::InstanceNorm)
            return evalInstanceNorm(*inputs[0]);
        if (node.kind == OpKind::BatchNorm)
            return evalBatchNorm(*inputs[0], *inputs[1], *inputs[2]);
        return evalLayerNorm(node, *inputs[0],
                             inputs.size() > 1 ? inputs[1] : nullptr,
                             inputs.size() > 2 ? inputs[2] : nullptr);

      case ir::OpCategory::Softmax:
        return evalSoftmax(node, *inputs[0]);

      case ir::OpCategory::Reduce:
        return evalReduce(graph, node, *inputs[0]);

      case ir::OpCategory::Pool:
        return evalPool(graph, node, *inputs[0]);

      case ir::OpCategory::Unary: {
        Tensor out(inputs[0]->shape());
        const float scale = scaleFactor(node);
        for (std::int64_t i = 0; i < out.numElements(); ++i)
            out.at(i) = applyUnaryScalar(node.kind, inputs[0]->at(i), scale);
        return out;
      }

      case ir::OpCategory::Binary:
        return evalBroadcastBinary(graph, node, *inputs[0], *inputs[1]);

      case ir::OpCategory::Transform:
      case ir::OpCategory::Select:
        if (node.kind == OpKind::Concat)
            return evalConcat(graph, node, inputs);
        if (node.kind == OpKind::Pad)
            return evalPad(graph, node, *inputs[0]);
        return evalViaIndexMap(graph, node, *inputs[0]);

      case ir::OpCategory::Attention:
        return evalFusedAttention(graph, node, *inputs[0], *inputs[1],
                                  *inputs[2],
                                  inputs.size() > 3 ? inputs[3] : nullptr);
    }
    smPanic("unhandled op kind in evalNode");
}

} // namespace smartmem::exec
