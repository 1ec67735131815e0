/**
 * @file
 * SmartMem's operator classification (paper Section 3.1, Tables 3-6).
 *
 * Every operator is placed in one of four quadrants along two axes:
 *   - does computation performance depend on the *input layout*?
 *     (ILD = Input Layout Dependent, ILI = Input Layout Independent)
 *   - is the *output layout* customizable (Variable) or determined by
 *     the operator's definition (Fixed)?
 *
 * The pairwise producer->consumer action table (Table 5) and the
 * resulting-type / layout-search table (Table 6) drive the Layout
 * Transformation Elimination pass.
 */
#ifndef SMARTMEM_OPCLASS_OPCLASS_H
#define SMARTMEM_OPCLASS_OPCLASS_H

#include <string>

#include "ir/op_kind.h"

namespace smartmem::opclass {

/** Input-layout sensitivity of an operator's computation. */
enum class LayoutDep { Dependent, Independent };

/** Output-layout customizability. */
enum class OutputFlex { Variable, Fixed };

/** One quadrant of Table 3. */
struct OpClass
{
    LayoutDep dep = LayoutDep::Independent;
    OutputFlex flex = OutputFlex::Variable;

    bool operator==(const OpClass &o) const
    {
        return dep == o.dep && flex == o.flex;
    }
};

constexpr OpClass ildVariable{LayoutDep::Dependent, OutputFlex::Variable};
constexpr OpClass iliVariable{LayoutDep::Independent, OutputFlex::Variable};
constexpr OpClass ildFixed{LayoutDep::Dependent, OutputFlex::Fixed};
constexpr OpClass iliFixed{LayoutDep::Independent, OutputFlex::Fixed};

/** Classify an operator kind into its quadrant (Table 3), as its
 *  ir::OpInfo row states it. */
OpClass classifyOp(ir::OpKind kind);

/** "ILD & Variable" etc. */
std::string opClassName(OpClass c);

/**
 * Action for a producer(first) -> consumer(second) edge (Table 5).
 * "Eliminate" means replace the operator by index computation folded
 * into the surviving operator (Section 3.2.1).
 */
enum class PairAction {
    KeepBoth,
    TryFuse,
    EliminateSecond,
    EliminateFirst,
    EliminateBoth,
};

PairAction combinationAction(OpClass first, OpClass second);
std::string pairActionName(PairAction a);

/**
 * Resulting operator type after the computation optimization of a pair
 * (Table 6): the preserved/fused operator takes the type of the operand
 * with higher optimization complexity.
 */
OpClass combinedType(OpClass first, OpClass second);

/** Layout search policy after the optimization (Table 6 colors). */
enum class SearchPolicy {
    SearchBoth,
    SearchFused,
    SearchFirst,
    SearchSecond,
    NoSearch,
};

SearchPolicy searchPolicy(OpClass first, OpClass second);
std::string searchPolicyName(SearchPolicy p);

} // namespace smartmem::opclass

#endif // SMARTMEM_OPCLASS_OPCLASS_H
