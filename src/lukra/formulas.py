"""Propositional term language over the signature {->, D, T, F}.

The same AST serves as the term language for equational checks on finite
algebras and as the formula language of the Hilbert calculi.  Connectives:

* ``a -> b``  residuated implication, right associative
* ``D a``     delta (crisp truth) operator, binds tightest
* ``T`` / ``F``  top / bottom constants
* sugar: ``a | b`` = ``(a -> b) -> b``; ``~a`` = ``a -> F``;
  ``a & b`` = ``~(~a | ~b)``; ``a ->[k] b`` = k-fold iterated implication,
  for k <= IMP_K_LIMIT.

Sugar is eliminated at parse time; the core AST has exactly Var, Top, Bot,
Imp and Delta nodes.  This module is the one term engine: the parser (which
`fo` extends with first-order atoms and quantifiers), the compiler from
terms to evaluation closures (`compile_term`, behind `eval_formula` and
`fo`), the evaluator of equations on value tables of terms and the schema
matcher.  The evaluator interns a batch of equations once
(`EquationBatch`) and tabulates it on any algebra of its signature:
`equation_violations`, behind the law checks, on one algebra, and the
decisions of `logic` on each chain in turn.
"""

from __future__ import annotations

import operator
import re
from array import array
from functools import partial
from itertools import chain, compress, count, islice

from .algebra import SizeGuardError
from .records import Record


class FormulaError(ValueError):
    """Raised for malformed formula text or evaluation errors."""


class Formula(Record):
    pass


# The nodes with fields write their own __init__, __eq__ and __hash__, the
# record base's semantics at the speed of inline code: parsing and
# substitution build a node per connective, and proof construction interns
# whole formulas in dicts.  Each node hashes the tuple of its fields once, when
# built, so hashing is O(1) however deep the term; `_equal` compares with a
# stack of node pairs, so neither walks the term by recursion.
_set = object.__setattr__


class Var(Formula):
    name: str

    def __init__(self, name):
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return self._hash


class Top(Formula):
    pass


class Bot(Formula):
    pass


class Imp(Formula):
    left: Formula
    right: Formula

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((left, right)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _equal(self, other)
        return NotImplemented

    def __hash__(self):
        return self._hash


class Delta(Formula):
    child: Formula

    def __init__(self, child):
        _set(self, "child", child)
        _set(self, "_hash", hash((child,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _equal(self, other)
        return NotImplemented

    def __hash__(self):
        return self._hash


def _equal(a: Formula, b: Formula) -> bool:
    """a == b, walking both terms with a stack of node pairs; unequal hashes
    settle a pair of Imp or Delta nodes without looking below them."""
    stack = [(a, b)]
    pop, push = stack.pop, stack.append
    while stack:
        a, b = pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is Imp:
            if a._hash != b._hash:
                return False
            push((a.right, b.right))
            push((a.left, b.left))
        elif cls is Delta:
            if a._hash != b._hash:
                return False
            push((a.child, b.child))
        elif a != b:
            return False
    return True


TOP = Top()
BOT = Bot()


def var(name: str) -> Var:
    return Var(name)


def imp(a: Formula, b: Formula) -> Imp:
    return Imp(a, b)


def delta(a: Formula) -> Delta:
    return Delta(a)


def imp_k(a: Formula, b: Formula, k: int) -> Formula:
    """k-fold iterated implication: a ->[0] b = b, a ->[k+1] b = a -> (a ->[k] b).

    Refused for k > IMP_K_LIMIT, so every expansion of the sugar is bounded.
    """
    if k < 0:
        raise FormulaError("iterated implication needs k >= 0")
    if k > IMP_K_LIMIT:
        raise FormulaError(f"iterated implication ->[{k}] exceeds the limit k <= {IMP_K_LIMIT}")
    out = b
    for _ in range(k):
        out = Imp(a, out)
    return out


def or_(a: Formula, b: Formula) -> Formula:
    return Imp(Imp(a, b), b)


def not_(a: Formula) -> Formula:
    return Imp(a, BOT)


def and_(a: Formula, b: Formula) -> Formula:
    return not_(or_(not_(a), not_(b)))


def variables(f: Formula) -> set[str]:
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Imp):
        return variables(f.left) | variables(f.right)
    if isinstance(f, Delta):
        return variables(f.child)
    return set()


def uses_bot(f: Formula) -> bool:
    if isinstance(f, Bot):
        return True
    if isinstance(f, Imp):
        return uses_bot(f.left) or uses_bot(f.right)
    if isinstance(f, Delta):
        return uses_bot(f.child)
    return False


def substitute(f: Formula, subst: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for variables."""
    if isinstance(f, Var):
        return subst.get(f.name, f)
    if isinstance(f, Imp):
        return Imp(substitute(f.left, subst), substitute(f.right, subst))
    if isinstance(f, Delta):
        return Delta(substitute(f.child, subst))
    return f


def match(pattern: Formula, target: Formula, subst: dict[str, Formula] | None = None) -> dict[str, Formula] | None:
    """One-way matching: variables of `pattern` are metavariables.

    Returns the (extended) substitution mapping pattern variables to
    subformulas of `target`, or None if there is no match.
    """
    if subst is None:
        subst = {}
    return None if mismatch(pattern, target, subst) else subst


def mismatch(pattern: Formula, target: Formula, subst: dict[str, Formula]) -> str:
    """Match like `match`, extending `subst` in place.

    Returns "" on a match, else the reason the first subterm (left to
    right) where the match breaks down gives.
    """
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


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(->\[\s*\d+\s*\]|->|\||&|~|\(|\)|[A-Za-z_][A-Za-z0-9_]*|\S)"
)
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Largest k accepted in `a ->[k] b` and by `imp_k`: the sugar expands to k
# nested implications, so k bounds the size of the term.
IMP_K_LIMIT = 1000

TOO_DEEP = "formula nested too deeply for the Python recursion limit"

_UNICODE_ALIASES = {
    "→": "->",   # arrow
    "↣": "->",   # rightarrowtail
    "Δ": "D ",   # capital delta
    "⊤": "T",    # top
    "⊥": "F",    # bottom
    "¬": "~",
    "∨": "|",
    "∧": "&",
}


class _Parser:
    """Tokenizer and precedence parser; subclasses extend the atoms."""

    error = FormulaError

    def __init__(self, text: str):
        for uni, ascii_ in _UNICODE_ALIASES.items():
            text = text.replace(uni, ascii_)
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                break
            tok = m.group(1)
            if tok.startswith("->["):
                k = tok[3:-1].strip().lstrip("0") or "0"
                if len(k) > len(str(IMP_K_LIMIT)) or int(k) > IMP_K_LIMIT:
                    raise self.error(f"iterated implication ->[{k}] at position "
                                     f"{m.start(1)} exceeds the limit k <= {IMP_K_LIMIT}")
            self.tokens.append((tok, m.start(1)))
            pos = m.end()
        self.pos = 0

    def run(self) -> Formula:
        """Parse the whole input as one formula."""
        try:
            out = self.formula()
        except RecursionError:
            raise self.error(TOO_DEEP) from None
        if self.peek() is not None:
            tok, where = self.tokens[self.pos]
            raise self.error(f"trailing input {tok!r} at position {where}")
        return out

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            where = self.tokens[self.pos - 1][1]
            raise self.error(f"expected {tok!r} at position {where}, got {got!r}")

    def formula(self) -> Formula:
        left = self.or_level()
        tok = self.peek()
        if tok is not None and tok.startswith("->"):
            self.next()
            if tok == "->":
                return Imp(left, self.formula())
            k = int(tok[3:-1])
            return imp_k(left, self.formula(), k)
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

    def name(self, tok: str) -> Formula:
        """The atom that starts with the name `tok`."""
        return Var(tok)


def parse(text: str) -> Formula:
    """Parse formula text into the core AST (sugar eliminated)."""
    return _Parser(text).run()


def to_text(f: Formula) -> str:
    """Render the core AST; parse(to_text(f)) == f."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Delta):
        child = to_text(f.child)
        if isinstance(f.child, Imp):
            return f"D ({child})"
        return f"D {child}"
    if isinstance(f, Imp):
        left = to_text(f.left)
        if isinstance(f.left, Imp):
            left = f"({left})"
        return f"{left} -> {to_text(f.right)}"
    raise FormulaError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def compile_term(f: Formula, A, names, node=None):
    """Compile a term into a closure over value tuples (the hot path).

    The closure maps a tuple e, where e[i] is the carrier index of the
    variable names[i], to the value of f in the algebra A.  Each node
    becomes one closure with A's tables captured as locals.  When given,
    `node(g, compile)` is tried first on every subterm g and may return its
    closure, which is how first-order atoms and quantifiers compile.

    Raises FormulaError, at the first offending node in pre-order, for a
    variable not in `names`, F without a bottom or D without a delta, and
    for a term nested beyond the recursion limit.
    """
    pos = {name: i for i, name in enumerate(names)}
    imp, delta, top, bottom = A.imp, A.delta, A.top, A.bottom

    def comp(g):
        if node is not None:
            out = node(g, comp)
            if out is not None:
                return out
        if isinstance(g, Var):
            i = pos.get(g.name)
            if i is None:
                raise FormulaError(f"unassigned variable {g.name!r}")
            return lambda e: e[i]
        if isinstance(g, Imp):
            left, right = comp(g.left), comp(g.right)
            return lambda e: imp[left(e)][right(e)]
        if isinstance(g, Delta):
            if delta is None:
                raise FormulaError("formula uses D but the algebra has no delta")
            child = comp(g.child)
            return lambda e: delta[child(e)]
        if isinstance(g, Top):
            return lambda e: top
        if isinstance(g, Bot):
            if bottom is None:
                raise FormulaError("formula uses F but the algebra has no bottom")
            return lambda e: bottom
        raise FormulaError(f"not a formula node: {g!r}")

    try:
        return comp(f)
    except RecursionError:
        raise FormulaError(TOO_DEEP) from None


# bound on the table entries equation_violations holds at once
TABLE_GUARD = 2 * 10**7


def equation_violations(A, equations, every: bool = False,
                        guard: int = TABLE_GUARD) -> list[list[tuple[int, ...]]]:
    """The assignments of a finite algebra A that violate each equation.

    Each equation is (names, lhs, rhs, premises), premises a sequence of
    term pairs.  An assignment e, where e[i] is the carrier index of the
    variable names[i], violates it when every premise pair has equal values
    and lhs and rhs differ.  Returns one list per equation holding its
    violating assignments in lexicographic order: the least one only, or
    all of them with `every`.

    Every distinct subterm of the equations is tabulated once, as a
    row-major table over the variables it uses, sorted by name.  The search
    goes slab by slab of each equation's first variable, in increasing
    order: the subterms that use that variable are tabulated per slab over
    their other variables, shared by every equation with the same first
    variable, and the others are tabulated once and kept across slabs.  So
    a k-variable equation holds about N^(k-1) entries per subterm, and
    without `every` it stops at its first violating slab.  Before any table
    is built, the entries held at once are predicted (every table kept
    across slabs, one slab table of each other subterm, and each equation's
    sides and premises spread over its slab); more than `guard` of them
    raise SizeGuardError.

    Raises FormulaError as `compile_term` does, at the first offending node
    in pre-order of the first offending equation (lhs, rhs, then the
    premise pairs).
    """
    batch = EquationBatch(equations, A.delta is not None, A.bottom is not None)
    batch.check_guard(A.size, guard)
    return batch.violations(A, range(len(batch.plans)), every)


class _Plan(Record):
    """One interned equation.  `slab_var` is names[0], or None when no
    term sees position 0 (a repeated name binds its last position, as in
    `compile_term`); `space` names positions 1.. of an assignment, None
    where no term sees it.  Node ids are in post-order, split by whether
    they use `slab_var`."""
    slab_var: str | None
    width: int
    space: tuple
    fixed_nodes: tuple[int, ...]
    slab_nodes: tuple[int, ...]
    lhs: int
    rhs: int
    premises: tuple[tuple[int, int], ...]


class EquationBatch:
    """Equations interned once, to be tabulated on any finite algebra with
    a delta iff `delta` and a bottom iff `bottom`; raises FormulaError as
    `equation_violations` does.  Each distinct subterm is one node: its key
    is ("v", name), ("t",), ("f",), ("i", left, right) or ("d", child),
    children by node id, and `vars` holds the sorted names it uses.
    """

    def __init__(self, equations, delta: bool, bottom: bool):
        self.delta, self.bottom = delta, bottom
        self.ids, self.keys, self.vars = {}, [], []     # key -> id, id -> key, id -> names
        try:
            self.plans = [self._plan(*equation) for equation in equations]
        except RecursionError:
            raise FormulaError(TOO_DEEP) from None

    def _plan(self, names, lhs, rhs, premises=()) -> _Plan:
        pos = {name: i for i, name in enumerate(names)}
        nodes: dict = {}
        ids = [self._intern(t, pos, nodes) for pair in [(lhs, rhs), *premises] for t in pair]
        s = names[0] if names and pos[names[0]] == 0 else None
        return _Plan(
            slab_var=s, width=len(names),
            space=tuple(name if pos[name] == i else None for i, name in enumerate(names) if i),
            fixed_nodes=tuple(i for i in nodes if s not in self.vars[i]),
            slab_nodes=tuple(i for i in nodes if s in self.vars[i]),
            lhs=ids[0], rhs=ids[1], premises=tuple(zip(ids[2::2], ids[3::2])))

    def _intern(self, f, pos, nodes) -> int:
        if isinstance(f, Var):
            if f.name not in pos:
                raise FormulaError(f"unassigned variable {f.name!r}")
            key, names = ("v", f.name), (f.name,)
        elif isinstance(f, Imp):
            left, right = self._intern(f.left, pos, nodes), self._intern(f.right, pos, nodes)
            key, names = ("i", left, right), tuple(sorted({*self.vars[left], *self.vars[right]}))
        elif isinstance(f, Delta):
            if not self.delta:
                raise FormulaError("formula uses D but the algebra has no delta")
            child = self._intern(f.child, pos, nodes)
            key, names = ("d", child), self.vars[child]
        elif isinstance(f, Top):
            key, names = ("t",), ()
        elif isinstance(f, Bot):
            if not self.bottom:
                raise FormulaError("formula uses F but the algebra has no bottom")
            key, names = ("f",), ()
        else:
            raise FormulaError(f"not a formula node: {f!r}")
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.vars.append(names)
        nodes[i] = None
        return i

    def check_guard(self, n: int, guard: int) -> None:
        """Raise SizeGuardError when the plans' tables on an n-element
        carrier, predicted as `equation_violations` says, exceed `guard`."""
        axes = {}
        for plan in self.plans:
            for i in plan.fixed_nodes:
                axes[i, None] = len(self.vars[i])
            for i in plan.slab_nodes:
                axes[i, plan.slab_var] = len(self.vars[i]) - 1
        entries = (sum(n ** k for k in axes.values())
                   + sum((2 + 2 * len(plan.premises)) * n ** len(plan.space)
                         for plan in self.plans))
        if entries > guard:
            raise SizeGuardError(
                f"predicted {entries} table entries held at once exceed guard {guard}")

    def violations(self, A, which, every: bool = False) -> list[list[tuple[int, ...]]]:
        """The assignments of A, an algebra of the batch's signature, that
        violate each plan in `which`, as `equation_violations` lists them."""
        tables = _TermTables(self, A)
        plans = [self.plans[i] for i in which]
        out = [[] for _ in plans]
        groups: dict = {}
        for i, plan in enumerate(plans):
            groups.setdefault((plan.slab_var, plan.width > 0), []).append(i)
        for (s, sliced), members in groups.items():
            for i in members:
                tables.tabulate(plans[i].fixed_nodes, s, None, tables.fixed)
            for v in range(A.size if sliced else 1):
                slab: dict = {}
                for i in members:
                    if out[i] and not every:
                        continue
                    plan = plans[i]
                    tables.tabulate(plan.slab_nodes, s, v, slab)
                    space = plan.space
                    get = tables.reader(s, slab)
                    left, right = get(plan.lhs, space), get(plan.rhs, space)
                    if left == right:
                        continue
                    hits = map(operator.ne, left, right)
                    for a, b in plan.premises:
                        hits = map(operator.and_, hits, map(operator.eq, get(a, space), get(b, space)))
                    hits = compress(count(), hits)
                    out[i].extend(tables.decode(v, h, plan.width)
                                  for h in (hits if every else islice(hits, 1)))
                if not every and all(out[i] for i in members):
                    break
        return out


class _TermTables:
    """The value tables of a batch's subterms over one finite algebra.

    A table is a pair (axes, data): `data` holds the values of a term
    row-major over the variable names `axes`, so a term that uses no
    variable has one entry.  `data` is `bytes` when every carrier index
    fits a byte (N <= 256), which lets a unary map over it run as
    `bytes.translate`, and an `array` of a wider type otherwise.
    """

    def __init__(self, batch, A):
        self.A, self.n = A, A.size
        self.keys, self.vars = batch.keys, batch.vars
        self.narrow = A.size <= 256
        if self.narrow:
            self.make = bytes
            lift = lambda t: bytes(t).ljust(256, b"\0")  # noqa: E731
        else:
            self.make = partial(array, "H" if A.size <= 65536 else "L")
            lift = tuple
        # lookup tables of the unary maps: rows and columns of imp, and delta
        self.rows = [lift(r) for r in A.imp]
        self.cols = [lift(c) for c in zip(*A.imp)]
        self.delta = lift(A.delta) if A.delta is not None else None
        self.fixed: dict = {}       # node id -> table of a node without its slab variable
        self.spreads: dict = {}     # (axes, target axes) -> index array

    def reader(self, s, slab):
        """get(i, target): the table of node i in `slab` (the slab of s)
        or in `fixed`, spread over the axes `target`."""
        fixed, vars_, spread = self.fixed, self.vars, self.spread

        def get(i, target):
            axes, data = slab[i] if s in vars_[i] else fixed[i]
            return spread(data, axes, target)
        return get

    def tabulate(self, nodes, s, v, memo) -> None:
        """Add to `memo` the tables of the given nodes (children first) that
        it lacks, with the variable s bound to v."""
        A, vars_, keys, fixed, make = self.A, self.vars, self.keys, self.fixed, self.make

        def table(i):
            return memo[i] if s in vars_[i] else fixed[i]

        for i in nodes:
            if i in memo:
                continue
            axes = tuple(x for x in vars_[i] if x != s)
            key = keys[i]
            kind = key[0]
            if kind == "v":
                data = make([v] if key[1] == s else range(self.n))
            elif kind == "t":
                data = make([A.top])
            elif kind == "f":
                data = make([A.bottom])
            elif kind == "d":
                child = table(key[1])[1]
                if self.narrow:
                    data = child.translate(self.delta)
                else:
                    data = make(map(self.delta.__getitem__, child))
            else:
                data = self.imp(axes, table(key[1]), table(key[2]))
            memo[i] = (axes, data)

    def imp(self, axes, left, right):
        """The table of left -> right over `axes`, the union of their axes.

        When one side's axes are a proper prefix of `axes`, the other side
        splits into one block per entry of that side, and each block is a
        unary map by that entry's row (or column) of imp.
        """
        (la, ld), (ra, rd) = left, right
        if self.narrow:
            if len(la) < len(axes) and axes[:len(la)] == la:
                return self._blocks(ld, self.rows, self.spread(rd, ra, axes))
            if len(ra) < len(axes) and axes[:len(ra)] == ra:
                return self._blocks(rd, self.cols, self.spread(ld, la, axes))
        return self.make(map(operator.getitem,
                             map(self.A.imp.__getitem__, self.spread(ld, la, axes)),
                             self.spread(rd, ra, axes)))

    @staticmethod
    def _blocks(keys, tables, data) -> bytes:
        """Block j of `data` (one per entry of `keys`) translated by tables[keys[j]]."""
        m = len(data) // len(keys)
        return b"".join(data[j * m:(j + 1) * m].translate(tables[c]) for j, c in enumerate(keys))

    def spread(self, data, axes, target):
        """The table `data` over `axes` broadcast to `target`, a superset of
        `axes` in any order; a None in `target` is an axis nothing reads."""
        if axes == target:
            return data
        k = len(target) - len(axes)
        if target[k:] == axes:
            return data * self.n ** k
        index = self.spreads.get((axes, target))
        if index is None:
            n = self.n
            stride = {a: n ** (len(axes) - 1 - j) for j, a in enumerate(axes)}
            # grown innermost axis first as a typed array: a list of ints
            # would take about 36 bytes an entry
            index = array("I" if len(data) <= 2**32 else "Q", [0])
            for a in reversed(target):
                step = stride.get(a, 0)
                if step:
                    index = array(index.typecode, chain.from_iterable(
                        map((step * x).__add__, index) for x in range(n)))
                else:
                    index *= n
            self.spreads[(axes, target)] = index
        return self.make(map(data.__getitem__, index))

    def decode(self, v, h, width) -> tuple[int, ...]:
        """The assignment at index h of slab v of a `width`-variable equation."""
        if not width:
            return ()
        digits = []
        for _ in range(width - 1):
            h, d = divmod(h, self.n)
            digits.append(d)
        return (v, *reversed(digits))


def eval_formula(f: Formula, algebra, valuation: dict[str, int]) -> int:
    """Evaluate over a FiniteAlgebra; valuation maps variable names to indices."""
    try:
        return compile_term(f, algebra, list(valuation))(tuple(valuation.values()))
    except RecursionError:
        raise FormulaError(TOO_DEEP) from None


def rational_eval(f: Formula, valuation: dict[str, Fraction]) -> Fraction:
    """Exact evaluation over the unit interval with min{1, 1-x+y} implication.

    D is the crisp operator (1 at 1, else 0); floats are never involved
    because D is discontinuous at 1.  `fractions` is imported here, as no
    CLI verb evaluates over the unit interval.
    """
    from fractions import Fraction

    one, zero = Fraction(1), Fraction(0)

    def value(g):
        if isinstance(g, Var):
            try:
                x = Fraction(valuation[g.name])
            except KeyError:
                raise FormulaError(f"unassigned variable {g.name!r}") from None
            if not zero <= x <= one:
                raise FormulaError(f"value of {g.name!r} outside [0, 1]")
            return x
        if isinstance(g, Top):
            return one
        if isinstance(g, Bot):
            return zero
        if isinstance(g, Imp):
            return min(one, one - value(g.left) + value(g.right))
        if isinstance(g, Delta):
            return one if value(g.child) == one else zero
        raise FormulaError(f"not a formula node: {g!r}")

    return value(f)
