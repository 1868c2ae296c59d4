"""Test-only oracles and corpus generators shared by several test modules.

Each oracle checks library code by an independent brute-force route, so it
lives next to the tests rather than in the package.
"""

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from lukra.algebra import FiniteAlgebra, SizeGuardError, epimorphisms, imp_k
from lukra.filters import Congruence, _members
from lukra.fo import (
    FEq,
    FExists,
    FForall,
    FOError,
    FOStructure,
    FPred,
    TermApp,
    TermName,
    _table,
)
from lukra.formulas import (
    BOT,
    TOP,
    Bot,
    Delta,
    Formula,
    FormulaError,
    Imp,
    Top,
    Var,
    _Parser,
    and_,
    imp_k as formula_imp_k,
    not_,
    or_,
)
from lukra.freealg import FreeAlgebra
from lukra.proofs import ByAxiom

# the parsers' name token as a regex, independent of the
# `tok.isascii() and tok.isidentifier()` test the library makes
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def congruences(A: FiniteAlgebra, respect_delta: bool = True) -> list[Congruence]:
    """All congruences by brute-force partition sweep (small carriers only).

    Independent of the filter correspondence; used as an oracle for it.
    """
    if A.size > 8:
        raise SizeGuardError("congruence sweep is limited to 8 elements")
    out = []
    for part in _partitions(A.size):
        imp_map: dict[tuple[int, int], int] = {}
        ok = True
        for x in range(A.size):
            for y in range(A.size):
                key = (part[x], part[y])
                val = part[A.imp[x][y]]
                if imp_map.setdefault(key, val) != val:
                    ok = False
                    break
            if not ok:
                break
        if ok and respect_delta and A.delta is not None:
            delta_map: dict[int, int] = {}
            for x in range(A.size):
                val = part[A.delta[x]]
                if delta_map.setdefault(part[x], val) != val:
                    ok = False
                    break
        if ok:
            out.append(Congruence(partition=tuple(part)))
    return out


def _partitions(n: int):
    """Restricted-growth strings: canonical partitions of {0..n-1}."""
    part = [0] * n

    def rec(i: int, maxblock: int):
        if i == n:
            yield tuple(part)
            return
        for b in range(maxblock + 2):
            part[i] = b
            yield from rec(i + 1, max(maxblock, b))

    yield from rec(1, 0) if n > 0 else iter(())


def is_implicative_filter(A: FiniteAlgebra, S) -> bool:
    """Oracle: top is in S and every x in S, y with x -> y in S has y in S,
    one pass over the table (the check `filters.is_implicative_filter` made
    before it compared S with its MP closure)."""
    members = _members(A, S)
    if A.top not in members:
        return False
    return all(
        A.imp[x][y] not in members or y in members
        for x in members
        for y in range(A.size)
    )


def filter_generated(A: FiniteAlgebra, S) -> tuple[int, ...]:
    """Oracle: the least implicative filter containing S as the whole MP
    fixpoint, each pass over every member's row (the closure
    `filters.filter_generated` made before it closed incrementally)."""
    members = _members(A, S) | {A.top}
    changed = True
    while changed:
        changed = False
        for x in tuple(members):
            row = A.imp[x]
            for y in range(A.size):
                if y not in members and row[y] in members:
                    members.add(y)
                    changed = True
    return tuple(sorted(members))


def all_filters(A: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Oracle: every implicative filter, sorted, as `filters.all_filters`
    found them before: every filter found joined with every principal
    filter not inside it, each join the whole fixpoint of the union."""
    principal = sorted({filter_generated(A, (x,)) for x in range(A.size)})
    found = [filter_generated(A, ())]
    seen = set(found)
    for f in found:
        for p in principal:
            if not set(f).issuperset(p):
                g = filter_generated(A, {*f, *p})
                if g not in seen:
                    seen.add(g)
                    found.append(g)
    return sorted(found)


def k_weak_mp_closed(A: FiniteAlgebra, F, k: int) -> bool:
    """Closure under x, x ->_k y ==> y."""
    members = set(F)
    return all(
        y in members
        for x in members
        for y in range(A.size)
        if imp_k(A, x, y, k) in members
    )


def epi_count_oracle(A, B: FiniteAlgebra) -> int:
    """Number of surjective homomorphisms, by brute-force search."""
    if isinstance(A, FreeAlgebra):
        A = A.algebra
    return len(epimorphisms(A, B))


def random_formula(rng: random.Random, names, depth: int, allow_bot: bool = False) -> Formula:
    """A random formula of the given depth over the given variable names."""
    if depth <= 0:
        pool = list(names) + (["F"] if allow_bot else [])
        pick = rng.choice(pool)
        return BOT if pick == "F" else Var(pick)
    op = rng.choice(["imp", "imp", "delta"])
    if op == "delta":
        return Delta(random_formula(rng, names, depth - 1, allow_bot))
    return Imp(
        random_formula(rng, names, depth - 1, allow_bot),
        random_formula(rng, names, depth - 1, allow_bot),
    )


def rational_grid(step_denominator: int):
    """The grid {0, 1/d, ..., 1} as exact fractions."""
    return [Fraction(i, step_denominator) for i in range(step_denominator + 1)]


# -- the frozen dataclasses that lukra's records replace ------------------------
#
# Each twin is the `dataclass(frozen=True)` a record class of `lukra.records`
# stands in for, with the record's __post_init__ and named like it, so that
# construction, defaults, repr, == and hash can be compared one for one.

def _twin(record):
    def make(cls):
        cls = dataclass(frozen=True)(cls)
        cls.__qualname__ = record.__qualname__
        return cls
    return make


@_twin(Var)
class VarTwin:
    name: str


@_twin(Top)
class TopTwin:
    pass


@_twin(Bot)
class BotTwin:
    pass


@_twin(Imp)
class ImpTwin:
    left: object
    right: object


@_twin(Delta)
class DeltaTwin:
    child: object


@_twin(FiniteAlgebra)
class FiniteAlgebraTwin:
    size: int
    imp: tuple
    top: int
    delta: tuple | None = None
    bottom: int | None = None
    label: str = ""
    __post_init__ = FiniteAlgebra.__post_init__


@_twin(ByAxiom)
class ByAxiomTwin:
    name: str
    level: int | None = None
    substitution: dict | None = field(default=None, compare=False)


@_twin(FOStructure)
class FOStructureTwin:
    domain_size: int
    algebra: FiniteAlgebra
    predicates: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    __post_init__ = FOStructure.__post_init__


def formula_twin(f: Formula):
    """The same term built from the dataclass twins of the formula nodes."""
    if isinstance(f, Var):
        return VarTwin(f.name)
    if isinstance(f, Imp):
        return ImpTwin(formula_twin(f.left), formula_twin(f.right))
    if isinstance(f, Delta):
        return DeltaTwin(formula_twin(f.child))
    return TopTwin() if isinstance(f, Top) else BotTwin()


# -- the recursive parser and term walkers that `formulas` and `fo` replace -----
#
# One Python frame per level of the input or term, so they serve as oracles
# for inputs within the recursion limit only.

class RecursiveParser(_Parser):
    """The precedence parser by recursive descent, one method per level;
    the tokenizer is `formulas._Parser`'s."""

    def formula(self) -> Formula:
        left = self.or_level()
        tok = self.peek()
        if tok is not None and tok.startswith("->"):
            self.next()
            if tok == "->":
                return Imp(left, self.formula())
            return formula_imp_k(left, self.formula(), int(tok[3:-1]))
        return left

    def or_level(self) -> Formula:
        out = self.and_level()
        while self.peek() == "|":
            self.next()
            out = or_(out, self.and_level())
        return out

    def and_level(self) -> Formula:
        out = self.unary()
        while self.peek() == "&":
            self.next()
            out = and_(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "D":
            self.next()
            return Delta(self.unary())
        if tok == "~":
            self.next()
            return not_(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.next()
        if tok == "(":
            out = self.formula()
            self.expect(")")
            return out
        if tok == "T":
            return TOP
        if tok == "F":
            return BOT
        if _NAME_RE.fullmatch(tok):
            return self.name(tok)
        where = self.tokens[self.pos - 1][1]
        raise self.error(f"unexpected token {tok!r} at position {where}")


class RecursiveFirstOrder(RecursiveParser):
    """`RecursiveParser` plus quantifiers, predicate atoms and equality."""

    error = FOError

    def formula(self) -> Formula:
        tok = self.peek()
        if tok in ("forall", "exists"):
            self.next()
            var = self.next()
            if not _NAME_RE.fullmatch(var):
                where = self.tokens[self.pos - 1][1]
                raise FOError(f"bad quantifier variable {var!r} at position {where}")
            body = self.formula()
            return (FForall if tok == "forall" else FExists)(var, body)
        return super().formula()

    def name(self, tok: str) -> Formula:
        if self.peek() == "(" and tok[0].isupper():
            return FPred(tok, self.term_args())
        term = self.term_from(tok)
        self.expect("=")
        return FEq(term, self.term())

    def term_args(self):
        self.expect("(")
        args = [self.term()]
        while self.peek() == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self):
        tok = self.next()
        if not _NAME_RE.fullmatch(tok):
            where = self.tokens[self.pos - 1][1]
            raise FOError(f"bad term {tok!r} at position {where}")
        return self.term_from(tok)

    def term_from(self, tok):
        if self.peek() == "(":
            return TermApp(tok, self.term_args())
        return TermName(tok)


def variables(f: Formula) -> set[str]:
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Imp):
        return variables(f.left) | variables(f.right)
    if isinstance(f, Delta):
        return variables(f.child)
    return set()


def substitute(f: Formula, subst: dict) -> Formula:
    if isinstance(f, Var):
        return subst.get(f.name, f)
    if isinstance(f, Imp):
        return Imp(substitute(f.left, subst), substitute(f.right, subst))
    if isinstance(f, Delta):
        return Delta(substitute(f.child, subst))
    return f


def rational_eval(f: Formula, valuation: dict) -> Fraction:
    """The value of f on [0, 1], raising where `formulas.rational_eval`
    does: at the first bad node in a depth-first walk."""
    if isinstance(f, Var):
        if f.name not in valuation:
            raise FormulaError(f"unassigned variable {f.name!r}")
        x = Fraction(valuation[f.name])
        if not 0 <= x <= 1:
            raise FormulaError(f"value of {f.name!r} outside [0, 1]")
        return x
    if isinstance(f, Imp):
        left = rational_eval(f.left, valuation)
        return min(Fraction(1), 1 - left + rational_eval(f.right, valuation))
    if isinstance(f, Delta):
        return Fraction(rational_eval(f.child, valuation) == 1)
    if isinstance(f, (Top, Bot)):
        return Fraction(isinstance(f, Top))
    raise FormulaError(f"not a formula node: {f!r}")


def to_text(f: Formula) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Delta):
        child = to_text(f.child)
        return f"D ({child})" if isinstance(f.child, Imp) else f"D {child}"
    if isinstance(f, Imp):
        left = to_text(f.left)
        if isinstance(f.left, Imp):
            left = f"({left})"
        return f"{left} -> {to_text(f.right)}"
    raise FormulaError(f"not a formula node: {f!r}")


def mismatch(pattern: Formula, target: Formula, subst: dict) -> str:
    if isinstance(pattern, Var):
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = target
            return ""
        if bound == target:
            return ""
        return (f"metavariable {pattern.name} bound to "
                f"{to_text(bound)!r} but found {to_text(target)!r}")
    if type(pattern) is not type(target):
        return f"expected {to_text(pattern)!r}, found {to_text(target)!r}"
    if isinstance(pattern, Imp):
        return (mismatch(pattern.left, target.left, subst)
                or mismatch(pattern.right, target.right, subst))
    if isinstance(pattern, Delta):
        return mismatch(pattern.child, target.child, subst)
    return ""


def substitute_term(f: Formula, var: str, t) -> Formula:
    def in_term(u):
        if isinstance(u, TermName):
            return t if u.name == var else u
        return TermApp(u.func, tuple(in_term(a) for a in u.args))

    if isinstance(f, FPred):
        return FPred(f.name, tuple(in_term(a) for a in f.args))
    if isinstance(f, FEq):
        return FEq(in_term(f.left), in_term(f.right))
    if isinstance(f, Imp):
        return Imp(substitute_term(f.left, var, t), substitute_term(f.right, var, t))
    if isinstance(f, Delta):
        return Delta(substitute_term(f.child, var, t))
    if isinstance(f, (FForall, FExists)):
        return f if f.var == var else type(f)(f.var, substitute_term(f.body, var, t))
    return f


def fo_eval(f: Formula, S: FOStructure, env: dict[str, int]) -> int:
    """The value of f by recursion over its tree, each quantifier by
    evaluating its body once per domain element.  Errors come in the
    order the compiled evaluator raised them: each node before its
    subterms, left to right."""
    A = S.algebra
    rank = S.order_rank.__getitem__
    least = min(range(A.size), key=rank)

    def term(t, env):
        if isinstance(t, TermName):
            if t.name in env:
                return env[t.name]
            if t.name in S.constants:
                return S.constants[t.name]
            raise FOError(f"unbound name {t.name!r}")
        table = _table(S.functions, t.func, "function", len(t.args))
        return table[tuple(term(a, env) for a in t.args)]

    def value(g, env):
        if isinstance(g, FPred):
            table = _table(S.predicates, g.name, "predicate", len(g.args))
            return table[tuple(term(a, env) for a in g.args)]
        if isinstance(g, FEq):
            return A.top if term(g.left, env) == term(g.right, env) else least
        if isinstance(g, Imp):
            return A.imp[value(g.left, env)][value(g.right, env)]
        if isinstance(g, Delta):
            return A.delta[value(g.child, env)]
        if isinstance(g, Top):
            return A.top
        if isinstance(g, Bot):
            return least
        agg = max if isinstance(g, FExists) else min
        return agg([value(g.body, {**env, g.var: d}) for d in range(S.domain_size)], key=rank)

    return value(f, env)
