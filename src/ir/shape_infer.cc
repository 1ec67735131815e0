#include "ir/shape_infer.h"

#include <algorithm>

#include "support/error.h"

namespace smartmem::ir {

namespace {

/** Output spatial extent of a conv/pool window. */
std::int64_t
windowOut(std::int64_t in, std::int64_t kernel, std::int64_t stride,
          std::int64_t pad)
{
    std::int64_t out = (in + 2 * pad - kernel) / stride + 1;
    SM_REQUIRE(out >= 1, "conv/pool window does not fit input");
    return out;
}

Shape
inferConv(const std::vector<Shape> &in, const Attrs &attrs, bool depthwise)
{
    const Shape &x = in[0]; // NCHW
    const Shape &w = in[1]; // OIHW (I = C/groups)
    SM_REQUIRE(x.rank() == 4 && w.rank() == 4,
               "conv expects rank-4 input and weight");
    std::int64_t stride = attrs.getInt("stride", 1);
    std::int64_t pad = attrs.getInt("pad", 0);
    std::int64_t groups = attrs.getInt("groups", depthwise ? x.dim(1) : 1);
    SM_REQUIRE(x.dim(1) % groups == 0, "conv channels not divisible");
    SM_REQUIRE(w.dim(1) == x.dim(1) / groups,
               "conv weight in-channels mismatch: " + w.toString() +
               " input " + x.toString());
    std::int64_t oh = windowOut(x.dim(2), w.dim(2), stride, pad);
    std::int64_t ow = windowOut(x.dim(3), w.dim(3), stride, pad);
    return Shape({x.dim(0), w.dim(0), oh, ow});
}

Shape
inferMatMul(const std::vector<Shape> &in, const Attrs &attrs, bool batched)
{
    const Shape &a = in[0];
    const Shape &b = in[1];
    bool trans_b = attrs.getInt("transB", 0) != 0;
    SM_REQUIRE(a.rank() >= 2 && b.rank() >= 2, "matmul rank too small");
    std::int64_t m = a.dim(a.rank() - 2);
    std::int64_t k = a.dim(a.rank() - 1);
    std::int64_t bk = trans_b ? b.dim(b.rank() - 1) : b.dim(b.rank() - 2);
    std::int64_t n = trans_b ? b.dim(b.rank() - 2) : b.dim(b.rank() - 1);
    SM_REQUIRE(k == bk, "matmul K mismatch: " + a.toString() + " x " +
               b.toString());
    std::vector<std::int64_t> out;
    if (batched) {
        // Batch dims come from A; B is either matching-batch or unbatched.
        for (int i = 0; i < a.rank() - 2; ++i)
            out.push_back(a.dim(i));
        if (b.rank() > 2) {
            SM_REQUIRE(b.rank() == a.rank(),
                       "batch matmul rank mismatch");
            for (int i = 0; i < b.rank() - 2; ++i)
                SM_REQUIRE(b.dim(i) == a.dim(i),
                           "batch matmul batch-dim mismatch");
        }
    } else {
        for (int i = 0; i < a.rank() - 2; ++i)
            out.push_back(a.dim(i));
        SM_REQUIRE(b.rank() == 2, "matmul weight must be rank 2");
    }
    out.push_back(m);
    out.push_back(n);
    return Shape(out);
}

Shape
inferReduce(const Shape &x, const Attrs &attrs)
{
    const auto &axes = attrs.getInts("axes");
    bool keepdims = attrs.getInt("keepdims", 1) != 0;
    std::vector<bool> reduced(static_cast<std::size_t>(x.rank()), false);
    for (auto a : axes) {
        SM_REQUIRE(a >= 0 && a < x.rank(), "reduce axis out of range");
        reduced[static_cast<std::size_t>(a)] = true;
    }
    std::vector<std::int64_t> out;
    for (int i = 0; i < x.rank(); ++i) {
        if (reduced[static_cast<std::size_t>(i)]) {
            if (keepdims)
                out.push_back(1);
        } else {
            out.push_back(x.dim(i));
        }
    }
    if (out.empty())
        out.push_back(1);
    return Shape(out);
}

Shape
inferPool(const Shape &x, const Attrs &attrs)
{
    SM_REQUIRE(x.rank() == 4, "pool expects rank-4 input");
    std::int64_t kernel = attrs.getInt("kernel");
    std::int64_t stride = attrs.getInt("stride", kernel);
    std::int64_t pad = attrs.getInt("pad", 0);
    return Shape({x.dim(0), x.dim(1),
                  windowOut(x.dim(2), kernel, stride, pad),
                  windowOut(x.dim(3), kernel, stride, pad)});
}

/** Reject an input count outside the kind's OpInfo range. */
void
checkArity(const OpInfo &info, std::size_t n)
{
    const auto lo = static_cast<std::size_t>(info.minInputs);
    const auto hi = static_cast<std::size_t>(info.maxInputs);
    if (n >= lo && n <= hi)
        return;
    std::string want = std::to_string(lo);
    std::size_t last = lo; // the count the phrase ends on
    if (info.maxInputs == kAnyInputs) {
        want = "at least " + want;
    } else if (hi != lo) {
        want += "-" + std::to_string(hi);
        last = hi;
    }
    smFatal(std::string(info.name) + " expects " + want +
            (last == 1 ? " input" : " inputs") + ", got " +
            std::to_string(n));
}

} // namespace

Shape
inferShape(OpKind kind, const std::vector<Shape> &in, const Attrs &attrs)
{
    const OpInfo &info = opInfo(kind);
    checkArity(info, in.size());
    switch (info.category) {
      case OpCategory::Terminal:
        smPanic("terminals have no inferred shape");
      case OpCategory::Conv:
        return inferConv(in, attrs, kind == OpKind::DepthwiseConv2d);
      case OpCategory::MatMul:
        return inferMatMul(in, attrs, kind == OpKind::BatchMatMul);
      case OpCategory::Norm:
      case OpCategory::Softmax:
      case OpCategory::Unary:
        return in[0];
      case OpCategory::Reduce:
        return inferReduce(in[0], attrs);
      case OpCategory::Binary:
        return broadcastShapes(in[0], in[1]);
      case OpCategory::Pool:
      case OpCategory::Transform:
      case OpCategory::Select:
      case OpCategory::Attention:
        break; // one rule per kind below
    }

    switch (kind) {
      case OpKind::MaxPool2d:
      case OpKind::AvgPool2d:
        return inferPool(in[0], attrs);

      case OpKind::GlobalAvgPool:
        SM_REQUIRE(in[0].rank() == 4, "global pool expects rank-4");
        return Shape({in[0].dim(0), in[0].dim(1), 1, 1});

      case OpKind::Reshape: {
        Shape out{attrs.getInts("shape")};
        SM_REQUIRE(out.numElements() == in[0].numElements(),
                   "reshape element count mismatch: " + in[0].toString() +
                   " -> " + out.toString());
        return out;
      }

      case OpKind::Transpose: {
        const auto &perm = attrs.getInts("perm");
        SM_REQUIRE(static_cast<int>(perm.size()) == in[0].rank(),
                   "transpose perm rank mismatch");
        std::vector<std::int64_t> out;
        std::vector<bool> seen(perm.size(), false);
        for (auto p : perm) {
            SM_REQUIRE(p >= 0 && p < in[0].rank() &&
                       !seen[static_cast<std::size_t>(p)],
                       "transpose perm invalid");
            seen[static_cast<std::size_t>(p)] = true;
            out.push_back(in[0].dim(static_cast<int>(p)));
        }
        return Shape(out);
      }

      case OpKind::DepthToSpace: {
        std::int64_t b = attrs.getInt("block");
        const Shape &x = in[0];
        SM_REQUIRE(x.rank() == 4 && x.dim(1) % (b * b) == 0,
                   "depth_to_space channel mismatch");
        return Shape({x.dim(0), x.dim(1) / (b * b), x.dim(2) * b,
                      x.dim(3) * b});
      }

      case OpKind::SpaceToDepth: {
        std::int64_t b = attrs.getInt("block");
        const Shape &x = in[0];
        SM_REQUIRE(x.rank() == 4 && x.dim(2) % b == 0 && x.dim(3) % b == 0,
                   "space_to_depth spatial mismatch");
        return Shape({x.dim(0), x.dim(1) * b * b, x.dim(2) / b,
                      x.dim(3) / b});
      }

      case OpKind::Gather: {
        std::int64_t axis = attrs.getInt("axis");
        const Shape &x = in[0];
        const Shape &idx = in[1];
        SM_REQUIRE(axis >= 0 && axis < x.rank(),
                   "gather axis out of range");
        std::vector<std::int64_t> out;
        for (int i = 0; i < axis; ++i)
            out.push_back(x.dim(i));
        for (int i = 0; i < idx.rank(); ++i)
            out.push_back(idx.dim(i));
        for (int i = static_cast<int>(axis) + 1; i < x.rank(); ++i)
            out.push_back(x.dim(i));
        return Shape(out);
      }

      case OpKind::Slice: {
        const auto &axes = attrs.getInts("axes");
        const auto &starts = attrs.getInts("starts");
        const auto &ends = attrs.getInts("ends");
        SM_REQUIRE(axes.size() == starts.size() &&
                   axes.size() == ends.size(), "slice attr size mismatch");
        std::vector<std::int64_t> out = in[0].dims();
        for (std::size_t i = 0; i < axes.size(); ++i) {
            auto a = axes[i];
            SM_REQUIRE(a >= 0 && a < in[0].rank(),
                       "slice axis out of range");
            SM_REQUIRE(starts[i] >= 0 && ends[i] <= in[0].dim(
                           static_cast<int>(a)) && starts[i] < ends[i],
                       "slice bounds invalid");
            out[static_cast<std::size_t>(a)] = ends[i] - starts[i];
        }
        return Shape(out);
      }

      case OpKind::Concat: {
        std::int64_t axis = attrs.getInt("axis");
        SM_REQUIRE(axis >= 0 && axis < in[0].rank(),
                   "concat axis out of range");
        std::vector<std::int64_t> out = in[0].dims();
        for (std::size_t i = 1; i < in.size(); ++i) {
            SM_REQUIRE(in[i].rank() == in[0].rank(),
                       "concat rank mismatch");
            for (int d = 0; d < in[0].rank(); ++d) {
                if (d == axis)
                    continue;
                SM_REQUIRE(in[i].dim(d) == in[0].dim(d),
                           "concat non-axis dim mismatch");
            }
            out[static_cast<std::size_t>(axis)] +=
                in[i].dim(static_cast<int>(axis));
        }
        return Shape(out);
      }

      case OpKind::FusedAttention: {
        // Q [B, N, dk], K [B, M, dk], V [B, M, dv] -> [B, N, dv];
        // the optional 4th input is a bias broadcastable over [N, M].
        const Shape &q = in[0];
        const Shape &k = in[1];
        const Shape &v = in[2];
        SM_REQUIRE(q.rank() == 3 && k.rank() == 3 && v.rank() == 3,
                   "fused attention expects rank-3 Q/K/V");
        SM_REQUIRE(q.dim(0) == k.dim(0) && q.dim(0) == v.dim(0),
                   "fused attention batch mismatch");
        SM_REQUIRE(q.dim(2) == k.dim(2),
                   "fused attention K-dim mismatch: " + q.toString() +
                   " vs " + k.toString());
        SM_REQUIRE(k.dim(1) == v.dim(1),
                   "fused attention context-length mismatch");
        if (in.size() >= 4) {
            const Shape &bias = in[3];
            SM_REQUIRE(bias.rank() >= 2 &&
                       bias.dim(bias.rank() - 2) == q.dim(1) &&
                       bias.dim(bias.rank() - 1) == k.dim(1),
                       "fused attention bias must broadcast over [N, M]");
            for (int i = 0; i < bias.rank() - 2; ++i)
                SM_REQUIRE(bias.dim(i) == 1 || bias.dim(i) == q.dim(0),
                           "fused attention bias batch mismatch");
        }
        return Shape({q.dim(0), q.dim(1), v.dim(2)});
      }

      case OpKind::Pad: {
        const auto &pads = attrs.getInts("pads"); // before0,after0,...
        SM_REQUIRE(static_cast<int>(pads.size()) == 2 * in[0].rank(),
                   "pad attr size mismatch");
        // Pad only grows: a negative entry would crop, which neither
        // the executors nor AlgebraicSimplify's all-zero rule expect.
        for (std::int64_t p : pads)
            SM_REQUIRE(p >= 0, "pad entries must be non-negative, got " +
                                   std::to_string(p));
        std::vector<std::int64_t> out = in[0].dims();
        for (int d = 0; d < in[0].rank(); ++d) {
            out[static_cast<std::size_t>(d)] +=
                pads[static_cast<std::size_t>(2 * d)] +
                pads[static_cast<std::size_t>(2 * d + 1)];
        }
        return Shape(out);
      }

      default:
        break;
    }
    smPanic("unhandled op kind in shape inference");
}

} // namespace smartmem::ir
