/**
 * @file
 * Operator kinds supported by the IR, and the operator table: one
 * OpInfo row per kind stating its name, category, arity, Table 3
 * class, index-map eliminability and cost-model efficiency.
 *
 * The set covers everything needed by the 18 evaluation models of the
 * paper: convolutions, matrix products, normalizations, attention
 * primitives, element-wise ops, and the layout-transformation operators
 * that SmartMem eliminates (Reshape, Transpose, DepthToSpace,
 * SpaceToDepth) plus the selection operators (Gather, Slice, Concat,
 * Pad, Split-as-Slice).
 */
#ifndef SMARTMEM_IR_OP_KIND_H
#define SMARTMEM_IR_OP_KIND_H

#include <limits>
#include <string>

namespace smartmem::ir {

enum class OpKind {
    // Graph terminals.
    Input,
    Constant,

    // Compute: convolutions, matrix products, normalizations, softmax,
    // reductions and pooling.
    Conv2d,
    DepthwiseConv2d,
    GroupConv2d,
    MatMul,
    BatchMatMul,
    LayerNorm,
    InstanceNorm,
    BatchNorm,
    Softmax,
    ReduceSum,
    ReduceMean,
    ReduceMax,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool,

    // Element-wise.
    Relu,
    Gelu,
    Silu,
    Sigmoid,
    Tanh,
    Exp,
    Sqrt,
    Neg,
    Identity,
    Scale,        ///< multiply by scalar attribute
    Add,
    Sub,
    Mul,
    Div,

    // Layout transformations: SmartMem's elimination targets.
    Reshape,
    Transpose,
    DepthToSpace,
    SpaceToDepth,

    // Selection.
    Gather,
    Slice,
    Concat,
    Pad,

    // Fused compute groups produced by the pass pipeline.
    // FusedAttention(Q, K, V[, bias]) = softmax(scale * Q.K^T [+ bias],
    // last axis) . V with scale = attr "scale_milli" / 1000.
    FusedAttention,
};

/** The numerically largest OpKind (keep in sync when appending). */
constexpr OpKind kLastOpKind = OpKind::FusedAttention;

/**
 * Operator family.  Wherever one rule covers every member (the shape
 * of a unary op is its input's, a binary op broadcasts, a transform
 * runs through its IndexMap), consumers dispatch on the category and
 * never list the members.
 */
enum class OpCategory {
    Terminal,  ///< Input, Constant
    Conv,
    MatMul,
    Norm,
    Softmax,
    Reduce,
    Pool,
    Unary,     ///< element-wise, one input
    Binary,    ///< broadcastable element-wise arithmetic
    Transform, ///< pure layout transformation
    Select,    ///< Gather, Slice, Concat, Pad
    Attention, ///< fused compute groups
};

/** OpInfo::maxInputs of a variadic operator (Concat). */
constexpr int kAnyInputs = std::numeric_limits<int>::max();

/**
 * One row of the operator table: what the compiler knows about an
 * operator kind as data.  Per-operator formulas (shape rules, MAC
 * counts, reduction dims, index maps, kernels) stay as switches in
 * their modules.
 */
struct OpInfo
{
    OpKind kind;
    const char *name;
    OpCategory category;
    /** Inclusive input-count range, checked by inferShape. */
    int minInputs;
    int maxInputs;
    /** Table 3: computation speed depends on the input layout (ILD),
     *  else input-layout independent (ILI). */
    bool inputLayoutDependent;
    /** Table 3: output layout fixed by the definition, else variable. */
    bool fixedOutput;
    /** IndexMap can fold the op into its consumer's reads (LTE). */
    bool eliminable;
    /** Cost model: achieved fraction of device peak for MAC work. */
    double efficiency;
};

/** The table row of `kind`. */
const OpInfo &opInfo(OpKind kind);

/** Canonical operator name ("Conv2d"). */
std::string opKindName(OpKind kind);

/** Reverse of opKindName.  Throws FatalError on an unknown name. */
OpKind opKindFromName(const std::string &name);

/** True when `name` is a canonical operator name. */
bool isOpKindName(const std::string &name);

/** True for the graph terminals (Input, Constant). */
bool isTerminal(OpKind kind);

/** True for Reshape/Transpose/DepthToSpace/SpaceToDepth. */
bool isLayoutTransform(OpKind kind);

/** True for the element-wise unary kinds (Relu..Scale). */
bool isUnaryElementwise(OpKind kind);

/** True for broadcastable binary arithmetic (Add/Sub/Mul/Div). */
bool isBinaryElementwise(OpKind kind);

/** True for convolution kinds. */
bool isConv(OpKind kind);

/** True for matrix-product kinds. */
bool isMatMul(OpKind kind);

} // namespace smartmem::ir

#endif // SMARTMEM_IR_OP_KIND_H
