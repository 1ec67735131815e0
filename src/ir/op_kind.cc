#include "ir/op_kind.h"

#include <iterator>
#include <map>

#include "support/error.h"

namespace smartmem::ir {

namespace {

constexpr bool ILD = true;   // input-layout dependent
constexpr bool ILI = false;  // input-layout independent
constexpr bool Fixed = true; // output layout fixed by the definition
constexpr bool Var = false;  // output layout customizable
constexpr bool Elim = true;  // IndexMap-eliminable
constexpr bool Kept = false; // not eliminable

#define SM_OP(kind, cat, lo, hi, dep, flex, elim, eff)                    \
    OpInfo { OpKind::kind, #kind, OpCategory::cat, lo, hi, dep, flex,     \
             elim, eff }

/*
 * Table 3 classes: compute with temporal reuse or a reduction is ILD &
 * Variable; element-wise ops touch each element once, so any layout
 * works and the output order is free (ILI & Variable).  Inference-mode
 * BatchNorm is a folded per-channel affine transform, i.e.
 * element-wise.  Layout transformations move memory, so their speed
 * hinges on the input layout while their output layout is fixed by
 * definition (ILD & Fixed); selection ops are layout-insensitive with
 * the output layout tied to the input (ILI & Fixed).  Terminals are
 * layout-independent fixed sources.
 *
 * Efficiencies are peak fractions on a mobile GPU, calibrated once
 * against the paper's achieved-GMACS band (Table 8 reports ~120-360
 * GMACS on Adreno 740 whose peak is 2 TMACs/s, i.e. 6%-18% of peak end
 * to end) and shared by every framework.  Ops without MACs keep the
 * element-wise 0.05.
 *
 * Conv kinds take an optional bias (conv+batchnorm folding), LayerNorm
 * optional gamma and beta, FusedAttention an optional bias.
 */
constexpr OpInfo kOpTable[] = {
    //    kind             category   inputs  Table 3     elim   eff
    SM_OP(Input,           Terminal,  0, 0, ILI, Fixed, Kept,  0.05),
    SM_OP(Constant,        Terminal,  0, 0, ILI, Fixed, Kept,  0.05),
    SM_OP(Conv2d,          Conv,      2, 3, ILD, Var,   Kept,  0.22),
    SM_OP(DepthwiseConv2d, Conv,      2, 3, ILD, Var,   Kept,  0.08),
    SM_OP(GroupConv2d,     Conv,      2, 3, ILD, Var,   Kept,  0.12),
    SM_OP(MatMul,          MatMul,    2, 2, ILD, Var,   Kept,  0.14),
    SM_OP(BatchMatMul,     MatMul,    2, 2, ILD, Var,   Kept,  0.14),
    SM_OP(LayerNorm,       Norm,      1, 3, ILD, Var,   Kept,  0.08),
    SM_OP(InstanceNorm,    Norm,      1, 1, ILD, Var,   Kept,  0.08),
    SM_OP(BatchNorm,       Norm,      3, 3, ILI, Var,   Kept,  0.08),
    SM_OP(Softmax,         Softmax,   1, 1, ILD, Var,   Kept,  0.08),
    SM_OP(ReduceSum,       Reduce,    1, 1, ILD, Var,   Kept,  0.08),
    SM_OP(ReduceMean,      Reduce,    1, 1, ILD, Var,   Kept,  0.08),
    SM_OP(ReduceMax,       Reduce,    1, 1, ILD, Var,   Kept,  0.08),
    SM_OP(MaxPool2d,       Pool,      1, 1, ILD, Var,   Kept,  0.10),
    SM_OP(AvgPool2d,       Pool,      1, 1, ILD, Var,   Kept,  0.10),
    SM_OP(GlobalAvgPool,   Pool,      1, 1, ILD, Var,   Kept,  0.10),
    SM_OP(Relu,            Unary,     1, 1, ILI, Var,   Kept,  0.05),
    SM_OP(Gelu,            Unary,     1, 1, ILI, Var,   Kept,  0.05),
    SM_OP(Silu,            Unary,     1, 1, ILI, Var,   Kept,  0.05),
    SM_OP(Sigmoid,         Unary,     1, 1, ILI, Var,   Kept,  0.05),
    SM_OP(Tanh,            Unary,     1, 1, ILI, Var,   Kept,  0.05),
    SM_OP(Exp,             Unary,     1, 1, ILI, Var,   Kept,  0.05),
    SM_OP(Sqrt,            Unary,     1, 1, ILI, Var,   Kept,  0.05),
    SM_OP(Neg,             Unary,     1, 1, ILI, Var,   Kept,  0.05),
    SM_OP(Identity,        Unary,     1, 1, ILI, Var,   Elim,  0.05),
    SM_OP(Scale,           Unary,     1, 1, ILI, Var,   Kept,  0.05),
    SM_OP(Add,             Binary,    2, 2, ILI, Var,   Kept,  0.05),
    SM_OP(Sub,             Binary,    2, 2, ILI, Var,   Kept,  0.05),
    SM_OP(Mul,             Binary,    2, 2, ILI, Var,   Kept,  0.05),
    SM_OP(Div,             Binary,    2, 2, ILI, Var,   Kept,  0.05),
    SM_OP(Reshape,         Transform, 1, 1, ILD, Fixed, Elim,  0.05),
    SM_OP(Transpose,       Transform, 1, 1, ILD, Fixed, Elim,  0.05),
    SM_OP(DepthToSpace,    Transform, 1, 1, ILD, Fixed, Elim,  0.05),
    SM_OP(SpaceToDepth,    Transform, 1, 1, ILD, Fixed, Elim,  0.05),
    SM_OP(Gather,          Select,    2, 2, ILI, Fixed, Elim,  0.05),
    SM_OP(Slice,           Select,    1, 1, ILI, Fixed, Elim,  0.05),
    SM_OP(Concat,          Select,    1, kAnyInputs, ILI, Fixed, Kept, 0.05),
    SM_OP(Pad,             Select,    1, 1, ILI, Fixed, Kept,  0.05),
    SM_OP(FusedAttention,  Attention, 3, 4, ILD, Var,   Kept,  0.14),
};

#undef SM_OP

constexpr bool
rowsFollowEnumOrder()
{
    for (std::size_t i = 0; i < std::size(kOpTable); ++i)
        if (kOpTable[i].kind != static_cast<OpKind>(i))
            return false;
    return true;
}

static_assert(std::size(kOpTable) ==
                  static_cast<std::size_t>(kLastOpKind) + 1,
              "one OpInfo row per OpKind");
static_assert(rowsFollowEnumOrder(), "OpInfo rows must follow OpKind order");

const std::map<std::string, OpKind> &
nameTable()
{
    static const std::map<std::string, OpKind> table = [] {
        std::map<std::string, OpKind> t;
        for (const OpInfo &row : kOpTable)
            t.emplace(row.name, row.kind);
        return t;
    }();
    return table;
}

} // namespace

const OpInfo &
opInfo(OpKind kind)
{
    return kOpTable[static_cast<std::size_t>(kind)];
}

std::string
opKindName(OpKind kind)
{
    return opInfo(kind).name;
}

OpKind
opKindFromName(const std::string &name)
{
    auto it = nameTable().find(name);
    if (it == nameTable().end())
        smFatal("unknown op kind '" + name + "'");
    return it->second;
}

bool
isOpKindName(const std::string &name)
{
    return nameTable().count(name) != 0;
}

bool
isTerminal(OpKind kind)
{
    return opInfo(kind).category == OpCategory::Terminal;
}

bool
isLayoutTransform(OpKind kind)
{
    return opInfo(kind).category == OpCategory::Transform;
}

bool
isUnaryElementwise(OpKind kind)
{
    return opInfo(kind).category == OpCategory::Unary;
}

bool
isBinaryElementwise(OpKind kind)
{
    return opInfo(kind).category == OpCategory::Binary;
}

bool
isConv(OpKind kind)
{
    return opInfo(kind).category == OpCategory::Conv;
}

bool
isMatMul(OpKind kind)
{
    return opInfo(kind).category == OpCategory::MatMul;
}

} // namespace smartmem::ir
