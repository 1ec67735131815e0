#include "index/index_map.h"

#include <sstream>

#include "support/error.h"

namespace smartmem::index {

using ir::OpKind;
using ir::Shape;

std::string
depKindName(DepKind k)
{
    switch (k) {
      case DepKind::Identity: return "identity";
      case DepKind::Split:    return "split";
      case DepKind::Merge:    return "merge";
      case DepKind::Other:    return "other";
    }
    return "?";
}

IndexMap
IndexMap::identity(const Shape &shape)
{
    IndexMap m;
    m.outputShape_ = shape;
    m.inputShape_ = shape;
    for (int i = 0; i < shape.rank(); ++i)
        m.exprs_.push_back(makeVar(i));
    return m;
}

bool
IndexMap::isEliminable(OpKind kind)
{
    return ir::opInfo(kind).eliminable;
}

namespace {

/** Linear index of the output coordinate over `shape` as an Expr. */
Expr
linearExpr(const Shape &shape)
{
    Expr lin = makeConst(0);
    for (int i = 0; i < shape.rank(); ++i) {
        lin = makeAdd(makeMul(lin, makeConst(shape.dim(i))), makeVar(i));
    }
    return lin;
}

/** Delinearize `lin` into per-dimension coordinates of `shape`. */
std::vector<Expr>
delinearizeExpr(const Expr &lin, const Shape &shape)
{
    std::vector<Expr> out(static_cast<std::size_t>(shape.rank()));
    auto strides = shape.rowMajorStrides();
    for (int i = 0; i < shape.rank(); ++i) {
        Expr e = makeDiv(lin, strides[static_cast<std::size_t>(i)]);
        if (i > 0)
            e = makeMod(e, shape.dim(i));
        out[static_cast<std::size_t>(i)] = e;
    }
    return out;
}

} // namespace

IndexMap
IndexMap::fromNode(const ir::Graph &graph, const ir::Node &node)
{
    SM_REQUIRE(isEliminable(node.kind),
               "operator not index-eliminable: " + ir::opKindName(node.kind));
    const Shape &in = graph.value(node.inputs[0]).shape;
    const Shape &out = graph.value(node.output).shape;

    IndexMap m;
    m.outputShape_ = out;
    m.inputShape_ = in;

    switch (node.kind) {
      case OpKind::Identity:
        for (int i = 0; i < out.rank(); ++i)
            m.exprs_.push_back(makeVar(i));
        break;

      case OpKind::Reshape: {
        // Same linear order, different factorization: linearize over the
        // output shape, then delinearize over the input shape.
        Expr lin = linearExpr(out);
        m.exprs_ = delinearizeExpr(lin, in);
        break;
      }

      case OpKind::Transpose: {
        // out dim i carries in dim perm[i]:  in[perm[i]] = out[i].
        const auto &perm = node.attrs.getInts("perm");
        m.exprs_.resize(static_cast<std::size_t>(in.rank()));
        for (int i = 0; i < out.rank(); ++i)
            m.exprs_[static_cast<std::size_t>(perm[
                static_cast<std::size_t>(i)])] = makeVar(i);
        break;
      }

      case OpKind::DepthToSpace: {
        // in: (N, C*b*b, H, W); out: (N, C, H*b, W*b)
        // in_c = out_c*b*b + (out_h % b)*b + (out_w % b)
        std::int64_t b = node.attrs.getInt("block");
        Expr n = makeVar(0), c = makeVar(1), h = makeVar(2), w = makeVar(3);
        Expr in_c = makeAdd(makeMul(c, makeConst(b * b)),
                            makeAdd(makeMul(makeMod(h, b), makeConst(b)),
                                    makeMod(w, b)));
        m.exprs_ = {n, in_c, makeDiv(h, b), makeDiv(w, b)};
        break;
      }

      case OpKind::SpaceToDepth: {
        // in: (N, C, H*b, W*b); out: (N, C*b*b, H, W)
        // in_h = out_h*b + (out_c / b) % b ; in_w = out_w*b + out_c % b
        std::int64_t b = node.attrs.getInt("block");
        std::int64_t cin = in.dim(1);
        Expr n = makeVar(0), c = makeVar(1), h = makeVar(2), w = makeVar(3);
        Expr in_c = makeDiv(c, b * b);
        Expr rem = makeMod(c, b * b);
        // When the channel extent is folded as (C, b, b) row-major the
        // sub-block index is rem = bh*b + bw.
        (void)cin;
        Expr in_h = makeAdd(makeMul(h, makeConst(b)), makeDiv(rem, b));
        Expr in_w = makeAdd(makeMul(w, makeConst(b)), makeMod(rem, b));
        m.exprs_ = {n, in_c, in_h, in_w};
        break;
      }

      case OpKind::Slice: {
        const auto &axes = node.attrs.getInts("axes");
        const auto &starts = node.attrs.getInts("starts");
        m.exprs_.resize(static_cast<std::size_t>(in.rank()));
        for (int i = 0; i < in.rank(); ++i)
            m.exprs_[static_cast<std::size_t>(i)] = makeVar(i);
        for (std::size_t k = 0; k < axes.size(); ++k) {
            auto a = static_cast<std::size_t>(axes[k]);
            if (starts[k] != 0)
                m.exprs_[a] = makeAdd(makeVar(static_cast<int>(a)),
                                      makeConst(starts[k]));
        }
        break;
      }

      case OpKind::Gather: {
        // Constant-index gather: in_axis = table[flattened index coords].
        const ir::Value &idx_val = graph.value(node.inputs[1]);
        const ir::Node &idx_node = graph.node(idx_val.producer);
        SM_REQUIRE(idx_node.kind == OpKind::Constant &&
                   idx_node.attrs.has("data"),
                   "gather elimination requires constant indices");
        auto table = std::make_shared<const std::vector<std::int64_t>>(
            idx_node.attrs.getInts("data"));
        std::int64_t axis = node.attrs.getInt("axis");
        const Shape &idx_shape = idx_val.shape;
        // Output dims: [0,axis) from input, then idx dims, then rest.
        Expr lin = makeConst(0);
        for (int i = 0; i < idx_shape.rank(); ++i) {
            lin = makeAdd(makeMul(lin, makeConst(idx_shape.dim(i))),
                          makeVar(static_cast<int>(axis) + i));
        }
        m.exprs_.resize(static_cast<std::size_t>(in.rank()));
        for (int i = 0; i < static_cast<int>(axis); ++i)
            m.exprs_[static_cast<std::size_t>(i)] = makeVar(i);
        m.exprs_[static_cast<std::size_t>(axis)] = makeLookup(table, lin);
        for (int i = static_cast<int>(axis) + 1; i < in.rank(); ++i) {
            m.exprs_[static_cast<std::size_t>(i)] =
                makeVar(i + idx_shape.rank() - 1);
        }
        break;
      }

      default:
        smPanic("unreachable");
    }
    return m;
}

IndexMap
IndexMap::composedWith(const IndexMap &inner) const
{
    SM_REQUIRE(inputShape_ == inner.outputShape_,
               "index map composition shape mismatch: " +
               inputShape_.toString() + " vs " +
               inner.outputShape_.toString());
    IndexMap out;
    out.outputShape_ = outputShape_;
    out.inputShape_ = inner.inputShape_;
    // inner's variables are coordinates in our input; substitute our
    // expressions for them.
    for (const Expr &e : inner.exprs_)
        out.exprs_.push_back(substitute(e, exprs_));
    return out;
}

IndexMap
IndexMap::simplified() const
{
    IndexMap out;
    out.outputShape_ = outputShape_;
    out.inputShape_ = inputShape_;
    for (const Expr &e : exprs_)
        out.exprs_.push_back(simplifyExpr(e, outputShape_.dims()));
    return out;
}

std::vector<std::int64_t>
IndexMap::apply(const std::vector<std::int64_t> &out_coord) const
{
    std::vector<std::int64_t> in_coord;
    in_coord.reserve(exprs_.size());
    for (const Expr &e : exprs_)
        in_coord.push_back(evalExpr(e, out_coord));
    return in_coord;
}

DepKind
IndexMap::classify(int in_dim) const
{
    const Expr &e = exprs_[static_cast<std::size_t>(in_dim)];
    auto vars = usedVars(e);
    if (vars.empty())
        return DepKind::Other;
    if (vars.size() > 1)
        return DepKind::Merge;
    // Single variable: identity if the expr is the var (+ const);
    // split if it goes through / or %.
    if (e->kind == ExprKind::Var)
        return DepKind::Identity;
    if (e->kind == ExprKind::Add &&
        ((e->lhs->kind == ExprKind::Var &&
          e->rhs->kind == ExprKind::Const) ||
         (e->rhs->kind == ExprKind::Var &&
          e->lhs->kind == ExprKind::Const))) {
        return DepKind::Identity;
    }
    if (smartmem::index::divModCount(e) > 0)
        return DepKind::Split;
    return DepKind::Other;
}

int
IndexMap::divModCount() const
{
    int n = 0;
    for (const Expr &e : exprs_)
        n += smartmem::index::divModCount(e);
    return n;
}

int
IndexMap::totalOps() const
{
    int n = 0;
    for (const Expr &e : exprs_)
        n += exprOps(e);
    return n;
}

bool
IndexMap::isIdentity() const
{
    if (inputShape_ != outputShape_)
        return false;
    IndexMap s = simplified();
    for (int i = 0; i < inputShape_.rank(); ++i) {
        const Expr &e = s.exprs_[static_cast<std::size_t>(i)];
        if (!(e->kind == ExprKind::Var && e->value == i))
            return false;
    }
    return true;
}

IndexMap
IndexMap::parse(const std::string &text)
{
    // Split "<out> -> <in> : [exprs]" at the top-level markers; the
    // shape grammar contains neither "->" nor ":", so the first hits
    // are the real separators.
    const std::size_t arrow = text.find(" -> ");
    const std::size_t colon =
        arrow == std::string::npos ? arrow : text.find(" : ", arrow + 4);
    if (arrow == std::string::npos || colon == std::string::npos)
        smFatal("malformed index map: '" + text + "'");
    IndexMap m;
    m.outputShape_ = Shape::parse(text.substr(0, arrow));
    m.inputShape_ =
        Shape::parse(text.substr(arrow + 4, colon - arrow - 4));
    m.exprs_ = parseExprList(text.substr(colon + 3));
    SM_REQUIRE(static_cast<int>(m.exprs_.size()) ==
               m.inputShape_.rank(),
               "index map arity mismatch: " +
               std::to_string(m.exprs_.size()) + " exprs for input " +
               m.inputShape_.toString());
    for (const Expr &e : m.exprs_) {
        for (int v : usedVars(e)) {
            SM_REQUIRE(v < m.outputShape_.rank(),
                       "index map references v" + std::to_string(v) +
                       " outside output " + m.outputShape_.toString());
        }
    }
    return m;
}

std::string
IndexMap::toString() const
{
    std::ostringstream os;
    os << outputShape_.toString() << " -> " << inputShape_.toString()
       << " : [";
    for (std::size_t i = 0; i < exprs_.size(); ++i) {
        if (i)
            os << ", ";
        os << exprToString(exprs_[i]);
    }
    os << "]";
    return os.str();
}

} // namespace smartmem::index
