/**
 * @file
 * IndexMap: the access function that replaces an eliminated chain of
 * layout-transformation operators (Section 3.2.1, Figure 3).
 *
 * An IndexMap takes a coordinate in the *output* tensor of the chain and
 * yields the coordinate in the chain's *input* tensor holding the same
 * element.  Eliminating operators = composing their maps onto the
 * consumer's reads; strength reduction then simplifies the composed
 * expressions.
 */
#ifndef SMARTMEM_INDEX_INDEX_MAP_H
#define SMARTMEM_INDEX_INDEX_MAP_H

#include <string>
#include <vector>

#include "index/expr.h"
#include "ir/graph.h"
#include "ir/shape.h"

namespace smartmem::index {

/**
 * Index dependency classification of Figure 3: how an input dimension of
 * an eliminated chain relates to the output dimensions.
 */
enum class DepKind {
    Identity, ///< in_dim = one out var (possibly plus a constant)
    Split,    ///< in_dim = out var / C or out var % C
    Merge,    ///< in_dim combines several out vars
    Other,    ///< constant, lookup, or irregular
};

std::string depKindName(DepKind k);

/** Access function from output coordinates to input coordinates. */
class IndexMap
{
  public:
    IndexMap() = default;

    /** Identity map over a shape. */
    static IndexMap identity(const ir::Shape &shape);

    /**
     * The map of a single eliminable operator `node` in `graph`
     * (Reshape, Transpose, DepthToSpace, SpaceToDepth, Slice, Gather
     * with constant indices, Concat is NOT mappable -- multi-input).
     * Fatal for non-eliminable kinds (see isEliminable()).
     */
    static IndexMap fromNode(const ir::Graph &graph, const ir::Node &node);

    /** True if fromNode() supports this operator kind (its
     *  ir::OpInfo::eliminable column). */
    static bool isEliminable(ir::OpKind kind);

    /**
     * Compose: `this` maps B-coords -> A-coords, `inner` maps A-coords
     * -> Z-coords; the result maps B-coords -> Z-coords.  I.e. the
     * returned map is "inner after this" in data-flow order where
     * `inner` is the map of the *earlier* (closer to the data) operator.
     */
    IndexMap composedWith(const IndexMap &inner) const;

    /** Strength-reduce all coordinate expressions. */
    IndexMap simplified() const;

    /** Evaluate on one output coordinate. */
    std::vector<std::int64_t>
    apply(const std::vector<std::int64_t> &out_coord) const;

    /** Classify the dependency feeding input dimension `in_dim`. */
    DepKind classify(int in_dim) const;

    /** Total Div+Mod count across all coordinate expressions. */
    int divModCount() const;

    /** Total arithmetic op count across all coordinate expressions. */
    int totalOps() const;

    /** True if the map is the identity (modulo simplification). */
    bool isIdentity() const;

    const ir::Shape &outputShape() const { return outputShape_; }
    const ir::Shape &inputShape() const { return inputShape_; }
    const std::vector<Expr> &exprs() const { return exprs_; }

    std::string toString() const;

    /**
     * Inverse of toString(): parse "[out] -> [in] : [e0, e1, ...]".
     * Throws FatalError when the text is malformed, the expression
     * count differs from the input rank, or an expression references
     * an output dimension that does not exist.  Together with
     * parseExpr()/Layout::parse() this is what lets ExecutionPlan
     * serialization embed the printed forms verbatim.
     */
    static IndexMap parse(const std::string &text);

  private:
    ir::Shape outputShape_; ///< domain (consumer-side coordinates)
    ir::Shape inputShape_;  ///< codomain (data-side coordinates)
    std::vector<Expr> exprs_; ///< one per input dimension
};

} // namespace smartmem::index

#endif // SMARTMEM_INDEX_INDEX_MAP_H
