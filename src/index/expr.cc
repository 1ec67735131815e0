#include "index/expr.h"

#include <algorithm>

#include "support/error.h"
#include "support/strings.h"

namespace smartmem::index {

// ---------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------

Expr
makeConst(std::int64_t v)
{
    auto n = std::make_shared<ExprNode>(ExprKind::Const);
    n->value = v;
    return n;
}

Expr
makeVar(int id)
{
    SM_ASSERT(id >= 0, "negative var id");
    auto n = std::make_shared<ExprNode>(ExprKind::Var);
    n->value = id;
    return n;
}

Expr
makeAdd(Expr a, Expr b)
{
    auto n = std::make_shared<ExprNode>(ExprKind::Add);
    n->lhs = std::move(a);
    n->rhs = std::move(b);
    return n;
}

Expr
makeMul(Expr a, Expr b)
{
    auto n = std::make_shared<ExprNode>(ExprKind::Mul);
    n->lhs = std::move(a);
    n->rhs = std::move(b);
    return n;
}

Expr
makeDiv(Expr a, std::int64_t divisor)
{
    SM_ASSERT(divisor > 0, "division by non-positive constant");
    auto n = std::make_shared<ExprNode>(ExprKind::Div);
    n->lhs = std::move(a);
    n->rhs = makeConst(divisor);
    return n;
}

Expr
makeMod(Expr a, std::int64_t modulus)
{
    SM_ASSERT(modulus > 0, "modulo by non-positive constant");
    auto n = std::make_shared<ExprNode>(ExprKind::Mod);
    n->lhs = std::move(a);
    n->rhs = makeConst(modulus);
    return n;
}

Expr
makeLookup(std::shared_ptr<const std::vector<std::int64_t>> table, Expr idx)
{
    SM_ASSERT(table && !table->empty(), "lookup with empty table");
    auto n = std::make_shared<ExprNode>(ExprKind::Lookup);
    n->table = std::move(table);
    n->lhs = std::move(idx);
    return n;
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

Range
exprRange(const Expr &e, const std::vector<std::int64_t> &extents)
{
    switch (e->kind) {
      case ExprKind::Const:
        return {e->value, e->value};
      case ExprKind::Var: {
        auto id = static_cast<std::size_t>(e->value);
        SM_ASSERT(id < extents.size(), "var id outside extents");
        return {0, extents[id] - 1};
      }
      case ExprKind::Add: {
        Range a = exprRange(e->lhs, extents);
        Range b = exprRange(e->rhs, extents);
        return {a.lo + b.lo, a.hi + b.hi};
      }
      case ExprKind::Mul: {
        Range a = exprRange(e->lhs, extents);
        Range b = exprRange(e->rhs, extents);
        // All generated expressions are non-negative.
        SM_ASSERT(a.lo >= 0 && b.lo >= 0, "negative range in Mul");
        return {a.lo * b.lo, a.hi * b.hi};
      }
      case ExprKind::Div: {
        Range a = exprRange(e->lhs, extents);
        std::int64_t d = e->rhs->value;
        return {a.lo / d, a.hi / d};
      }
      case ExprKind::Mod: {
        Range a = exprRange(e->lhs, extents);
        std::int64_t m = e->rhs->value;
        if (a.hi < m && a.lo >= 0)
            return a; // mod is a no-op on this range
        return {0, m - 1};
      }
      case ExprKind::Lookup: {
        auto [mn, mx] = std::minmax_element(e->table->begin(),
                                            e->table->end());
        return {*mn, *mx};
      }
    }
    smPanic("unhandled expr kind");
}

std::int64_t
evalExpr(const Expr &e, const std::vector<std::int64_t> &vars)
{
    switch (e->kind) {
      case ExprKind::Const:
        return e->value;
      case ExprKind::Var: {
        auto id = static_cast<std::size_t>(e->value);
        SM_ASSERT(id < vars.size(), "var id outside values");
        return vars[id];
      }
      case ExprKind::Add:
        return evalExpr(e->lhs, vars) + evalExpr(e->rhs, vars);
      case ExprKind::Mul:
        return evalExpr(e->lhs, vars) * evalExpr(e->rhs, vars);
      case ExprKind::Div:
        return evalExpr(e->lhs, vars) / e->rhs->value;
      case ExprKind::Mod:
        return evalExpr(e->lhs, vars) % e->rhs->value;
      case ExprKind::Lookup: {
        std::int64_t i = evalExpr(e->lhs, vars);
        SM_ASSERT(i >= 0 &&
                  i < static_cast<std::int64_t>(e->table->size()),
                  "lookup index out of bounds");
        return (*e->table)[static_cast<std::size_t>(i)];
      }
    }
    smPanic("unhandled expr kind");
}

// ---------------------------------------------------------------------
// Simplifier
// ---------------------------------------------------------------------

namespace {

bool
isConst(const Expr &e, std::int64_t v)
{
    return e->kind == ExprKind::Const && e->value == v;
}

/** Match e as (x * C + y); returns true and binds on success. */
bool
matchMulAdd(const Expr &e, Expr &x, std::int64_t &c, Expr &y)
{
    if (e->kind != ExprKind::Add)
        return false;
    const Expr &a = e->lhs;
    const Expr &b = e->rhs;
    if (a->kind == ExprKind::Mul && a->rhs->kind == ExprKind::Const) {
        x = a->lhs;
        c = a->rhs->value;
        y = b;
        return true;
    }
    if (b->kind == ExprKind::Mul && b->rhs->kind == ExprKind::Const) {
        x = b->lhs;
        c = b->rhs->value;
        y = a;
        return true;
    }
    return false;
}

Expr
simplifyRec(const Expr &e, const std::vector<std::int64_t> &extents)
{
    switch (e->kind) {
      case ExprKind::Const:
      case ExprKind::Var:
        return e;

      case ExprKind::Lookup: {
        Expr idx = simplifyRec(e->lhs, extents);
        if (idx->kind == ExprKind::Const)
            return makeConst(
                (*e->table)[static_cast<std::size_t>(idx->value)]);
        return makeLookup(e->table, idx);
      }

      case ExprKind::Add: {
        Expr a = simplifyRec(e->lhs, extents);
        Expr b = simplifyRec(e->rhs, extents);
        if (a->kind == ExprKind::Const && b->kind == ExprKind::Const)
            return makeConst(a->value + b->value);
        if (isConst(a, 0))
            return b;
        if (isConst(b, 0))
            return a;
        // Canonicalize: keep the (x * C) term on the left so the
        // mul-add div/mod patterns match.
        if (b->kind == ExprKind::Mul && b->rhs->kind == ExprKind::Const &&
            !(a->kind == ExprKind::Mul &&
              a->rhs->kind == ExprKind::Const)) {
            std::swap(a, b);
        }
        // Split-merge cancellation rules (inverse reshape/transpose
        // chains compose to these shapes):
        //   (x/C)*C       + x%C         -> x
        //   (x/(D*C))*C   + (x/D)%C     -> x/D
        //   ((x/A)%B)*A   + x%A         -> x%(A*B)
        if (a->kind == ExprKind::Mul &&
            a->rhs->kind == ExprKind::Const) {
            std::int64_t c = a->rhs->value;
            const Expr &head = a->lhs;
            if (head->kind == ExprKind::Div &&
                b->kind == ExprKind::Mod && b->rhs->value == c &&
                head->rhs->value == c &&
                exprEquals(head->lhs, b->lhs)) {
                return head->lhs; // (x/C)*C + x%C
            }
            if (head->kind == ExprKind::Div &&
                b->kind == ExprKind::Mod &&
                b->lhs->kind == ExprKind::Div &&
                b->rhs->value == c &&
                head->rhs->value == b->lhs->rhs->value * c &&
                exprEquals(head->lhs, b->lhs->lhs)) {
                return b->lhs; // (x/(D*C))*C + (x/D)%C
            }
            if (head->kind == ExprKind::Mod &&
                head->lhs->kind == ExprKind::Div &&
                head->lhs->rhs->value == c &&
                b->kind == ExprKind::Mod && b->rhs->value == c &&
                exprEquals(head->lhs->lhs, b->lhs)) {
                // ((x/A)%B)*A + x%A -> x%(A*B)
                return simplifyRec(
                    makeMod(b->lhs, c * head->rhs->value), extents);
            }
            if (head->kind == ExprKind::Div &&
                head->rhs->value == c &&
                head->lhs->kind == ExprKind::Mod &&
                head->lhs->rhs->value % c == 0 &&
                b->kind == ExprKind::Mod && b->rhs->value == c &&
                exprEquals(head->lhs->lhs, b->lhs)) {
                return head->lhs; // ((x%M)/C)*C + x%C -> x%M (C | M)
            }
        }
        return makeAdd(a, b);
      }

      case ExprKind::Mul: {
        Expr a = simplifyRec(e->lhs, extents);
        Expr b = simplifyRec(e->rhs, extents);
        if (a->kind == ExprKind::Const && b->kind == ExprKind::Const)
            return makeConst(a->value * b->value);
        // Canonicalize constants to the right.
        if (a->kind == ExprKind::Const)
            std::swap(a, b);
        if (isConst(b, 0))
            return makeConst(0);
        if (isConst(b, 1))
            return a;
        // (x * C1) * C2 -> x * (C1*C2)
        if (a->kind == ExprKind::Mul && a->rhs->kind == ExprKind::Const &&
            b->kind == ExprKind::Const) {
            return makeMul(a->lhs, makeConst(a->rhs->value * b->value));
        }
        return makeMul(a, b);
      }

      case ExprKind::Div: {
        Expr a = simplifyRec(e->lhs, extents);
        std::int64_t d = e->rhs->value;
        if (d == 1)
            return a;
        if (a->kind == ExprKind::Const)
            return makeConst(a->value / d);
        Range r = exprRange(a, extents);
        if (r.lo >= 0 && r.hi < d)
            return makeConst(0); // value smaller than divisor
        // (x / A) / B -> x / (A*B)
        if (a->kind == ExprKind::Div) {
            return simplifyRec(makeDiv(a->lhs, a->rhs->value * d),
                               extents);
        }
        // (x * C) / D with C % D == 0 -> x * (C/D)
        if (a->kind == ExprKind::Mul &&
            a->rhs->kind == ExprKind::Const && a->rhs->value % d == 0) {
            return simplifyRec(makeMul(a->lhs,
                                       makeConst(a->rhs->value / d)),
                               extents);
        }
        Expr x, y;
        std::int64_t c = 0;
        if (matchMulAdd(a, x, c, y)) {
            // (x*C + y) / D with C % D == 0 -> x*(C/D) + y/D
            if (c % d == 0) {
                return simplifyRec(
                    makeAdd(makeMul(x, makeConst(c / d)), makeDiv(y, d)),
                    extents);
            }
            // (x*C + y) / D with D % C == 0 and max(y) < C -> x / (D/C)
            Range ry = exprRange(y, extents);
            if (c > 0 && d % c == 0 && ry.lo >= 0 && ry.hi < c) {
                return simplifyRec(makeDiv(x, d / c), extents);
            }
        }
        return makeDiv(a, d);
      }

      case ExprKind::Mod: {
        Expr a = simplifyRec(e->lhs, extents);
        std::int64_t m = e->rhs->value;
        if (m == 1)
            return makeConst(0);
        if (a->kind == ExprKind::Const)
            return makeConst(a->value % m);
        Range r = exprRange(a, extents);
        if (r.lo >= 0 && r.hi < m)
            return a; // mod is a no-op (this also covers x%Ca%Cb shrink)
        // x % Ca % Cb -> x % Cb when Ca % Cb == 0  (paper's rule)
        if (a->kind == ExprKind::Mod && a->rhs->value % m == 0) {
            return simplifyRec(makeMod(a->lhs, m), extents);
        }
        // (x * C) % D with C % D == 0 -> 0
        if (a->kind == ExprKind::Mul &&
            a->rhs->kind == ExprKind::Const && a->rhs->value % m == 0) {
            return makeConst(0);
        }
        Expr x, y;
        std::int64_t c = 0;
        if (matchMulAdd(a, x, c, y)) {
            // (x*C + y) % D with C % D == 0 -> y % D
            if (c % m == 0)
                return simplifyRec(makeMod(y, m), extents);
            // (x*C + y) % D with D % C == 0, max(y) < C
            //   -> (x % (D/C))*C + y
            Range ry = exprRange(y, extents);
            if (c > 0 && m % c == 0 && ry.lo >= 0 && ry.hi < c) {
                return simplifyRec(
                    makeAdd(makeMul(makeMod(x, m / c), makeConst(c)), y),
                    extents);
            }
        }
        return makeMod(a, m);
    }
    }
    smPanic("unhandled expr kind");
}

} // namespace

Expr
simplifyExpr(const Expr &e, const std::vector<std::int64_t> &extents)
{
    // Iterate to a fixed point (rules can expose each other); the rule
    // set strictly reduces a (depth, divmod) measure so this terminates.
    Expr cur = e;
    for (int iter = 0; iter < 16; ++iter) {
        Expr next = simplifyRec(cur, extents);
        if (exprEquals(next, cur))
            return next;
        cur = next;
    }
    return cur;
}

Expr
substitute(const Expr &e, const std::vector<Expr> &repl)
{
    switch (e->kind) {
      case ExprKind::Const:
        return e;
      case ExprKind::Var: {
        auto id = static_cast<std::size_t>(e->value);
        SM_ASSERT(id < repl.size(), "substitute: var id out of range");
        return repl[id];
      }
      case ExprKind::Add:
        return makeAdd(substitute(e->lhs, repl), substitute(e->rhs, repl));
      case ExprKind::Mul:
        return makeMul(substitute(e->lhs, repl), substitute(e->rhs, repl));
      case ExprKind::Div:
        return makeDiv(substitute(e->lhs, repl), e->rhs->value);
      case ExprKind::Mod:
        return makeMod(substitute(e->lhs, repl), e->rhs->value);
      case ExprKind::Lookup:
        return makeLookup(e->table, substitute(e->lhs, repl));
    }
    smPanic("unhandled expr kind");
}

int
divModCount(const Expr &e)
{
    int n = 0;
    if (e->kind == ExprKind::Div || e->kind == ExprKind::Mod)
        n = 1;
    if (e->lhs)
        n += divModCount(e->lhs);
    if (e->rhs && e->kind != ExprKind::Div && e->kind != ExprKind::Mod)
        n += divModCount(e->rhs);
    return n;
}

int
exprOps(const Expr &e)
{
    int n = e->kind == ExprKind::Const || e->kind == ExprKind::Var ? 0 : 1;
    if (e->lhs)
        n += exprOps(e->lhs);
    if (e->rhs)
        n += exprOps(e->rhs);
    return n;
}

std::set<int>
usedVars(const Expr &e)
{
    std::set<int> out;
    if (e->kind == ExprKind::Var) {
        out.insert(static_cast<int>(e->value));
        return out;
    }
    if (e->lhs) {
        auto l = usedVars(e->lhs);
        out.insert(l.begin(), l.end());
    }
    if (e->rhs) {
        auto r = usedVars(e->rhs);
        out.insert(r.begin(), r.end());
    }
    return out;
}

std::string
exprToString(const Expr &e)
{
    switch (e->kind) {
      case ExprKind::Const:
        return std::to_string(e->value);
      case ExprKind::Var:
        return "v" + std::to_string(e->value);
      case ExprKind::Add:
        return "(" + exprToString(e->lhs) + " + " + exprToString(e->rhs) +
               ")";
      case ExprKind::Mul:
        return "(" + exprToString(e->lhs) + "*" + exprToString(e->rhs) +
               ")";
      case ExprKind::Div:
        return "(" + exprToString(e->lhs) + " / " +
               std::to_string(e->rhs->value) + ")";
      case ExprKind::Mod:
        return "(" + exprToString(e->lhs) + " % " +
               std::to_string(e->rhs->value) + ")";
      case ExprKind::Lookup:
        return "lookup{" + joinInts(*e->table, ",") + "}[" +
               exprToString(e->lhs) + "]";
    }
    return "?";
}

namespace {

/** Cursor over exprToString() output; every dead end throws FatalError
 *  with the offset, so corrupt plan files report where they broke. */
struct ExprParser
{
    const std::string &text;
    std::size_t pos = 0;

    [[noreturn]] void fail(const std::string &why) const
    {
        smFatal("malformed expr (" + why + " at offset " +
                std::to_string(pos) + "): '" + text + "'");
    }

    void skipSpaces()
    {
        while (pos < text.size() && text[pos] == ' ')
            ++pos;
    }

    void expect(char c)
    {
        if (pos >= text.size() || text[pos] != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    /** Integer literal starting at the cursor, no leading spaces. */
    std::int64_t integer()
    {
        std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
        auto v = parseInt64(text.substr(start, pos - start));
        if (!v)
            fail("expected integer");
        return *v;
    }

    Expr parse()
    {
        skipSpaces();
        if (pos >= text.size())
            fail("expected expression");
        const char c = text[pos];
        if (c == '(') {
            ++pos;
            Expr lhs = parse();
            skipSpaces();
            if (pos >= text.size())
                fail("unterminated expression");
            const char op = text[pos++];
            Expr out;
            if (op == '+' || op == '*') {
                Expr rhs = parse();
                out = op == '+' ? makeAdd(lhs, rhs) : makeMul(lhs, rhs);
            } else if (op == '/' || op == '%') {
                skipSpaces();
                std::int64_t k = integer();
                if (k <= 0)
                    fail("non-positive divisor/modulus");
                out = op == '/' ? makeDiv(lhs, k) : makeMod(lhs, k);
            } else {
                fail("unknown operator");
            }
            skipSpaces();
            expect(')');
            return out;
        }
        if (c == 'v') {
            ++pos;
            std::int64_t id = integer();
            // Bounded before the narrowing cast: a corrupt id must
            // fail, not wrap into a different (valid) variable.
            if (id < 0 || id > (1 << 20))
                fail("variable id out of range");
            return makeVar(static_cast<int>(id));
        }
        if (text.compare(pos, 7, "lookup{") == 0) {
            pos += 7;
            auto table = std::make_shared<std::vector<std::int64_t>>();
            while (true) {
                skipSpaces();
                table->push_back(integer());
                skipSpaces();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                expect('}');
                break;
            }
            expect('[');
            Expr idx = parse();
            skipSpaces();
            expect(']');
            return makeLookup(
                std::shared_ptr<const std::vector<std::int64_t>>(table),
                idx);
        }
        return makeConst(integer());
    }
};

} // namespace

Expr
parseExpr(const std::string &text)
{
    ExprParser p{text};
    Expr e = p.parse();
    p.skipSpaces();
    if (p.pos != text.size())
        p.fail("trailing characters");
    return e;
}

std::vector<Expr>
parseExprList(const std::string &text)
{
    ExprParser p{text};
    p.skipSpaces();
    p.expect('[');
    std::vector<Expr> out;
    p.skipSpaces();
    if (p.pos < text.size() && text[p.pos] == ']') {
        ++p.pos;
    } else {
        while (true) {
            out.push_back(p.parse());
            p.skipSpaces();
            if (p.pos < text.size() && text[p.pos] == ',') {
                ++p.pos;
                continue;
            }
            p.expect(']');
            break;
        }
    }
    p.skipSpaces();
    if (p.pos != text.size())
        p.fail("trailing characters");
    return out;
}

bool
exprEquals(const Expr &a, const Expr &b)
{
    if (a.get() == b.get())
        return true;
    if (a->kind != b->kind || a->value != b->value)
        return false;
    if (a->kind == ExprKind::Lookup && a->table != b->table)
        return false;
    if ((a->lhs == nullptr) != (b->lhs == nullptr))
        return false;
    if ((a->rhs == nullptr) != (b->rhs == nullptr))
        return false;
    if (a->lhs && !exprEquals(a->lhs, b->lhs))
        return false;
    if (a->rhs && !exprEquals(a->rhs, b->rhs))
        return false;
    return true;
}

} // namespace smartmem::index
