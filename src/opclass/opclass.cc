#include "opclass/opclass.h"

namespace smartmem::opclass {

using ir::OpKind;

OpClass
classifyOp(OpKind kind)
{
    const ir::OpInfo &info = ir::opInfo(kind);
    return {info.inputLayoutDependent ? LayoutDep::Dependent
                                      : LayoutDep::Independent,
            info.fixedOutput ? OutputFlex::Fixed : OutputFlex::Variable};
}

std::string
opClassName(OpClass c)
{
    std::string s = c.dep == LayoutDep::Dependent ? "ILD" : "ILI";
    s += " & ";
    s += c.flex == OutputFlex::Variable ? "Variable" : "Fixed";
    return s;
}

PairAction
combinationAction(OpClass first, OpClass second)
{
    const bool first_fixed = first.flex == OutputFlex::Fixed;
    const bool second_fixed = second.flex == OutputFlex::Fixed;
    if (first_fixed && second_fixed)
        return PairAction::EliminateBoth;
    if (first_fixed)
        return PairAction::EliminateFirst;
    if (second_fixed)
        return PairAction::EliminateSecond;
    // Both Variable.
    if (first.dep == LayoutDep::Dependent &&
        second.dep == LayoutDep::Dependent)
        return PairAction::KeepBoth;
    return PairAction::TryFuse;
}

std::string
pairActionName(PairAction a)
{
    switch (a) {
      case PairAction::KeepBoth:        return "Keep both";
      case PairAction::TryFuse:         return "Try fuse";
      case PairAction::EliminateSecond: return "Eliminate 2nd";
      case PairAction::EliminateFirst:  return "Eliminate 1st";
      case PairAction::EliminateBoth:   return "Eliminate both";
    }
    return "?";
}

OpClass
combinedType(OpClass first, OpClass second)
{
    // The preserved operator keeps the type of the higher-complexity
    // operand: ILD dominates ILI; Variable operands are the survivors.
    const bool first_fixed = first.flex == OutputFlex::Fixed;
    const bool second_fixed = second.flex == OutputFlex::Fixed;
    if (first_fixed && second_fixed) {
        // Both eliminated; nothing survives.  Report ILI&Fixed as the
        // degenerate "no remaining constraint" type.
        return iliFixed;
    }
    if (first_fixed)
        return second; // second survives
    if (second_fixed)
        return first; // first survives
    // Fused pair: ILD wins over ILI.
    if (first.dep == LayoutDep::Dependent ||
        second.dep == LayoutDep::Dependent)
        return ildVariable;
    return iliVariable;
}

SearchPolicy
searchPolicy(OpClass first, OpClass second)
{
    // Layout search only happens around ILD & Variable operators
    // (Table 6): they are the ones whose performance hinges on layout.
    const bool first_ildv = first == ildVariable;
    const bool second_ildv = second == ildVariable;
    const bool first_fixed = first.flex == OutputFlex::Fixed;
    const bool second_fixed = second.flex == OutputFlex::Fixed;

    if (first_ildv && second_ildv)
        return SearchPolicy::SearchBoth;
    if (first_ildv && second.flex == OutputFlex::Variable)
        return SearchPolicy::SearchFused; // fused with an ILI&Var
    if (second_ildv && first.flex == OutputFlex::Variable)
        return SearchPolicy::SearchFused;
    if (first_ildv && second_fixed)
        return SearchPolicy::SearchFirst; // 2nd eliminated, search 1st
    if (second_ildv && first_fixed)
        return SearchPolicy::SearchSecond; // 1st eliminated, search 2nd
    return SearchPolicy::NoSearch;
}

std::string
searchPolicyName(SearchPolicy p)
{
    switch (p) {
      case SearchPolicy::SearchBoth:   return "Search both";
      case SearchPolicy::SearchFused:  return "Search fused";
      case SearchPolicy::SearchFirst:  return "Search 1st";
      case SearchPolicy::SearchSecond: return "Search 2nd";
      case SearchPolicy::NoSearch:     return "No search";
    }
    return "?";
}

} // namespace smartmem::opclass
