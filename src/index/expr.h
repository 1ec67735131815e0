/**
 * @file
 * Symbolic integer index expressions.
 *
 * These model the index computations that remain after SmartMem fuses a
 * chain of layout-transformation operators into a consumer (Section
 * 3.2.1).  Expressions are built over output-coordinate variables with
 * +, *, floor-division and modulo by constants, plus a Lookup node for
 * Gather indirection.  The simplifier implements the paper's strength
 * reduction rules (e.g. i % Ca % Cb -> i % Cb when Ca % Cb == 0) using
 * value-range analysis over the known dimension extents.  evalExpr is
 * the one evaluator: the CPU backend calls it when it lowers a read
 * map to offset tables, once per prepared plan, never per run.
 */
#ifndef SMARTMEM_INDEX_EXPR_H
#define SMARTMEM_INDEX_EXPR_H

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace smartmem::index {

enum class ExprKind { Const, Var, Add, Mul, Div, Mod, Lookup };

class ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

/** Immutable expression tree node. */
class ExprNode
{
  public:
    ExprKind kind;
    std::int64_t value = 0;          ///< Const value or Var id.
    Expr lhs;                        ///< operands (Add/Mul/Div/Mod/Lookup)
    Expr rhs;
    std::shared_ptr<const std::vector<std::int64_t>> table; ///< Lookup

    explicit ExprNode(ExprKind k) : kind(k) {}
};

// ---- Constructors ----
Expr makeConst(std::int64_t v);
Expr makeVar(int id);
Expr makeAdd(Expr a, Expr b);
Expr makeMul(Expr a, Expr b);
Expr makeDiv(Expr a, std::int64_t divisor);
Expr makeMod(Expr a, std::int64_t modulus);
Expr makeLookup(std::shared_ptr<const std::vector<std::int64_t>> table,
                Expr idx);

/** Inclusive value range. */
struct Range
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

/**
 * Compute the value range of `e` given that variable i ranges over
 * [0, extents[i]).  All generated expressions are non-negative.
 */
Range exprRange(const Expr &e, const std::vector<std::int64_t> &extents);

/** Evaluate with concrete variable values. */
std::int64_t evalExpr(const Expr &e,
                      const std::vector<std::int64_t> &vars);

/**
 * Strength-reduce / simplify under the variable extents.  Applies, among
 * others:
 *   - constant folding, +0 / *1 / *0 / /1 / %1 identities
 *   - x % C  -> x           when max(x) < C
 *   - x / C  -> 0           when max(x) < C
 *   - x % Ca % Cb -> x % Cb when Ca % Cb == 0   (paper Section 3.2.1)
 *   - (x / A) / B -> x / (A*B)
 *   - (x*C + y) / D -> x*(C/D) + y/D  when C % D == 0
 *   - (x*C + y) % D -> y % D          when C % D == 0
 *   - (x*C + y) / D -> x / (D/C)      when D % C == 0 and max(y) < C
 *   - (x*C + y) % D -> (x % (D/C))*C + y  when D % C == 0, max(y) < C
 * Guaranteed value-preserving: tests compare against the unsimplified
 * expression on random points.
 */
Expr simplifyExpr(const Expr &e, const std::vector<std::int64_t> &extents);

/** Substitute vars: var i is replaced by repl[i]. */
Expr substitute(const Expr &e, const std::vector<Expr> &repl);

/** Count of expensive ops (Div + Mod) in the tree -- the paper's target
 *  of strength reduction; used by the cost model and ablation bench. */
int divModCount(const Expr &e);

/** Total node count (all arithmetic ops). */
int exprOps(const Expr &e);

/** Set of variable ids used. */
std::set<int> usedVars(const Expr &e);

/** Printable form, e.g. "((v0*8 + v1) / 4) % 8".  Lookup nodes print
 *  their full table ("lookup{0,2,1}[v1]") so the form is loss-free. */
std::string exprToString(const Expr &e);

/**
 * Inverse of exprToString(): recursive-descent parse of the printed
 * grammar
 *
 *   expr := INT | 'v' INT | '(' expr '+' expr ')' | '(' expr '*' expr ')'
 *         | '(' expr '/' INT ')' | '(' expr '%' INT ')'
 *         | 'lookup' '{' INT (',' INT)* '}' '[' expr ']'
 *
 * parseExpr(exprToString(e)) is structurally equal to e for every
 * expression the library builds.  Throws FatalError on malformed
 * input (trailing garbage, non-positive divisors, empty tables, ...).
 */
Expr parseExpr(const std::string &text);

/** Parse a bracketed, comma-separated expression list "[e0, e1, ...]"
 *  ("[]" yields an empty list).  Commas inside lookup tables are
 *  handled by the grammar, not by naive splitting.  Throws FatalError
 *  on malformed input. */
std::vector<Expr> parseExprList(const std::string &text);

/** Structural equality. */
bool exprEquals(const Expr &a, const Expr &b);

} // namespace smartmem::index

#endif // SMARTMEM_INDEX_EXPR_H
