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
Imp and Delta nodes, and repeats an operand of the sugar by reference, so
every walk is a loop over `postorder`, which visits each distinct node once.
This module is the one term engine: the parser (which `fo` extends with
first-order atoms and quantifiers), the compiler from terms to flat
programs (`compile_term`, behind `eval_formula`), the evaluator of
equations on value tables of terms and the schema matcher.  The evaluator
interns a batch of equations once (`EquationBatch`) and tabulates it on any
algebra of its signature: `equation_violations`, behind the law checks, on
one algebra, and the decisions of `logic` on each chain in turn.
"""

from __future__ import annotations

import operator
import re
from array import array
from functools import partial
from itertools import chain, compress, count, islice

from .algebra import AlgebraError, SizeGuardError
from .records import Record


class FormulaError(AlgebraError):
    """Raised for malformed formula text or evaluation errors."""


# A node keeps from its construction `_kids` (its subterms, which every walk
# reads), `_head` (its other fields), its hash and `_size` (its expanded
# tree's node count), so hashing is O(1) however deep the term.  Var, Imp and
# Delta, which parsing builds most, write their own __init__ for speed.
_set = object.__setattr__


class Node(Record):
    """A node of a term, in `fo` also of a first-order term: a field that
    holds a node or a tuple of nodes holds subterms."""

    _kids = _head = ()
    _size = 1

    def __post_init__(self):
        fields = self._key(self)
        kids = tuple(k for v in fields for k in (v if isinstance(v, (tuple, list)) else (v,))
                     if isinstance(k, Node))
        _set(self, "_head", tuple(v for v in fields if not isinstance(v, (Node, tuple, list))))
        _set(self, "_kids", kids)
        _set(self, "_hash", hash(self._head + kids))
        _set(self, "_size", 1 + sum(k._size for k in kids))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _equal(self, other)
        return NotImplemented

    def __hash__(self):
        return self._hash


class Formula(Node):
    pass


class Var(Formula):
    name: str

    def __init__(self, name):
        _set(self, "name", name)
        _set(self, "_head", (name,))
        _set(self, "_hash", hash(self._head))


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
        _set(self, "_kids", (left, right))
        _set(self, "_hash", hash(self._kids))
        _set(self, "_size", left._size + right._size + 1)


class Delta(Formula):
    child: Formula

    def __init__(self, child):
        _set(self, "child", child)
        _set(self, "_kids", (child,))
        _set(self, "_hash", hash(self._kids))
        _set(self, "_size", child._size + 1)


def _equal(a: Node, b: Node) -> bool:
    """a == b by a stack of node pairs, each pair expanded once, so the work
    is bounded by pairs of distinct subterms, not by the expanded trees;
    unequal hashes settle a pair without looking below it."""
    stack, seen = [(a, b)], set()
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__ or a._hash != b._hash or a._head != b._head:
            return False
        if a._kids and (id(a), id(b)) not in seen:
            seen.add((id(a), id(b)))
            if len(a._kids) != len(b._kids):
                return False
            stack.extend(zip(a._kids, b._kids))
    return True


TOP = Top()
BOT = Bot()


def postorder(f: Node, enter=None):
    """Each distinct node of f once, by identity, children before parents,
    left to right, from a stack of (node, iterator over its subterms).
    `enter(g)`, when given, sees each node before its subterms, so in
    pre-order, its calls interleaving with the yields as a depth-first
    walk's visits do."""
    seen = {id(f)}
    if enter is not None:
        enter(f)
    stack = [(f, iter(f._kids))]
    while stack:
        g, kids = stack[-1]
        for k in kids:
            if id(k) in seen:
                continue
            seen.add(id(k))
            if enter is not None:
                enter(k)
            if k._kids:
                stack.append((k, iter(k._kids)))
                break
            yield k
        else:
            stack.pop()
            yield g


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
    return {g.name for g in postorder(f) if g.__class__ is Var}


def uses_bot(f: Formula) -> bool:
    return Bot in map(type, postorder(f))


def substitute(f: Formula, subst: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for variables."""
    out = {}
    for g in postorder(f):
        cls = g.__class__
        out[id(g)] = (subst.get(g.name, g) if cls is Var else
                      cls(*[out[id(k)] for k in g._kids]) if cls in (Imp, Delta) else g)
    return out[id(f)]


def match(pattern: Formula, target: Formula, subst: dict[str, Formula] | None = None) -> dict[str, Formula] | None:
    """One-way matching: variables of `pattern` are metavariables.

    Returns the (extended) substitution mapping pattern variables to
    subformulas of `target`, or None if there is no match.
    """
    if subst is None:
        subst = {}
    return None if mismatch(pattern, target, subst) else subst


def mismatch(pattern: Formula, target: Formula, subst: dict[str, Formula]) -> str:
    """Match like `match`, extending `subst` in place, by a stack of
    (pattern, target) pairs.  Returns "" on a match, else the reason the
    first subterm (left to right) where the match breaks down gives."""
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if p.__class__ is Var:
            bound = subst.setdefault(p.name, t)
            if bound is not t and bound != t:
                return (f"metavariable {p.name} bound to "
                        f"{to_text(bound)!r} but found {to_text(t)!r}")
        elif p.__class__ is not t.__class__:
            return f"expected {to_text(p)!r}, found {to_text(t)!r}"
        else:
            stack.extend(zip(reversed(p._kids), reversed(t._kids)))
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
    """Tokenizer and precedence parser; subclasses extend the atoms
    (`name`) and what may open a formula (`opening`)."""

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
        out = self.formula()
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
        """The formula at the current token.  Loosest first: -> and ->[k]
        (right associative), | and & (left associative), the prefixes D and
        ~.  One loop reads it with a stack of the open constructs: ("(",),
        ("D",), ("~",), (kind, left, token) for kind &, | and ->, and
        ("wrap", wrap, None) for what `opening` read where a formula starts."""
        pending = []
        starts = True
        while True:
            wrap = self.opening() if starts else None
            if wrap is not None:
                pending.append(("wrap", wrap, None))
                continue
            tok = self.next()
            starts = tok == "("
            if tok == "D" or tok == "~" or starts:
                pending.append((tok,))
                continue
            if tok == "T" or tok == "F":
                out = TOP if tok == "T" else BOT
            elif _NAME_RE.fullmatch(tok):
                out = self.name(tok)
            else:
                where = self.tokens[self.pos - 1][1]
                raise self.error(f"unexpected token {tok!r} at position {where}")
            while True:     # close what the atom `out` completes
                kind = pending[-1][0] if pending else None
                if kind == "D" or kind == "~":
                    pending.pop()
                    out = Delta(out) if kind == "D" else not_(out)
                    continue
                if kind == "&":
                    out = and_(pending.pop()[1], out)
                    kind = pending[-1][0] if pending else None
                tok = self.peek()
                if kind == "|" and tok != "&":
                    out = or_(pending.pop()[1], out)
                if tok == "&" or tok == "|" or tok is not None and tok.startswith("->"):
                    pending.append((self.next()[:2], out, tok))
                    starts = tok[0] == "-"
                    break
                while pending and pending[-1][0] in ("->", "wrap"):
                    kind, left, tok = pending.pop()
                    out = (left(out) if kind == "wrap" else Imp(left, out) if tok == "->"
                           else imp_k(left, out, int(tok[3:-1])))
                if not pending:
                    return out
                self.expect(")")
                pending.pop()

    def opening(self):
        """Read a prefix that opens the formula starting here and return
        the function that wraps that formula, or None."""
        return None

    def name(self, tok: str) -> Formula:
        """The atom that starts with the name `tok`."""
        return Var(tok)


def parse(text: str) -> Formula:
    """Parse formula text into the core AST (sugar eliminated)."""
    return _Parser(text).run()


# Most nodes `to_text` writes out; a short text can stand for a huge tree.
TEXT_NODES = 10**6
# Pieces `to_text` joins into one chunk, so its list of pieces stays short.
TEXT_CHUNK = 4096


def to_text(f: Formula) -> str:
    """Render the core AST, from a stack of pieces; parse(to_text(f)) == f.
    More than TEXT_NODES nodes raise FormulaError before any is written."""
    if f._size > TEXT_NODES:
        raise FormulaError(f"formula of {f._size} nodes written out exceeds "
                           f"TEXT_NODES = {TEXT_NODES}")
    chunks, out, stack = [], [], [f]
    while stack:
        g = stack.pop()
        cls = g.__class__
        if cls is Imp:
            left = g.left
            stack += ((g.right, ") -> ", left, "(") if left.__class__ is Imp
                      else (g.right, " -> ", left))
        elif cls is Delta:
            stack += (")", g.child, "D (") if g.child.__class__ is Imp else (g.child, "D ")
        elif cls is str or cls is Var:
            out.append(g if cls is str else g.name)
            if len(out) >= TEXT_CHUNK:
                chunks.append("".join(out))
                out.clear()
        elif cls is Top or cls is Bot:
            out.append("T" if cls is Top else "F")
        else:
            raise FormulaError(f"not a formula node: {g!r}")
    chunks.append("".join(out))
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _checker(names, delta: bool, bottom: bool):
    """The `postorder` hook that refuses, with FormulaError at the first
    offending node in pre-order, a variable not in `names`, D without a
    delta, F without a bottom and a node that is no connective."""
    def check(g):
        cls = g.__class__
        if cls is Var and g.name not in names:
            raise FormulaError(f"unassigned variable {g.name!r}")
        if cls is Delta and not delta:
            raise FormulaError("formula uses D but the algebra has no delta")
        if cls is Bot and not bottom:
            raise FormulaError("formula uses F but the algebra has no bottom")
        if cls not in (Var, Imp, Delta, Top, Bot):
            raise FormulaError(f"not a formula node: {g!r}")
    return check


def compile_term(f: Formula, A, names):
    """Compile a term into a function mapping a tuple e, where e[i] is the
    carrier index of names[i], to the value of f in A: one loop over a
    program of a step per distinct node.  Raises as `_checker` does."""
    pos = {name: i for i, name in enumerate(names)}
    imp, delta = A.imp, A.delta
    # a step (kind, a, b) is e[a] (kind 0), imp of the values of steps a
    # and b (1), delta of step a's value (2) or the constant a (3)
    step, program = {}, []
    for g in postorder(f, _checker(pos, delta is not None, A.bottom is not None)):
        step[id(g)] = len(program)
        cls = g.__class__
        if cls is Imp:
            program.append((1, step[id(g.left)], step[id(g.right)]))
        elif cls is Delta:
            program.append((2, step[id(g.child)], 0))
        else:
            program.append((0, pos[g.name], 0) if cls is Var
                           else (3, A.top if cls is Top else A.bottom, 0))

    def run(e):
        values = []
        for kind, a, b in program:
            values.append(imp[values[a]][values[b]] if kind == 1 else e[a] if kind == 0
                          else delta[values[a]] if kind == 2 else a)
        return values[-1]

    return run


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
        self.plans = [self._plan(*equation) for equation in equations]

    def _plan(self, names, lhs, rhs, premises=()) -> _Plan:
        pos = {name: i for i, name in enumerate(names)}
        nodes: dict = {}
        ids = self._intern([t for pair in [(lhs, rhs), *premises] for t in pair], pos, nodes)
        s = names[0] if names and pos[names[0]] == 0 else None
        return _Plan(
            slab_var=s, width=len(names),
            space=tuple(name if pos[name] == i else None for i, name in enumerate(names) if i),
            fixed_nodes=tuple(i for i in nodes if s not in self.vars[i]),
            slab_nodes=tuple(i for i in nodes if s in self.vars[i]),
            lhs=ids[0], rhs=ids[1], premises=tuple(zip(ids[2::2], ids[3::2])))

    def _intern(self, terms, pos, nodes) -> list[int]:
        """The node ids of the terms, interning their distinct subterms,
        whose ids `nodes` gets in post-order."""
        ids, keys, vars_ = self.ids, self.keys, self.vars
        local = {}      # id(subterm) -> node id
        for f in terms:
            for g in postorder(f):
                cls = g.__class__
                if cls is Imp:
                    key = ("i", local[id(g.left)], local[id(g.right)])
                elif cls is Var and g.name in pos:
                    key = ("v", g.name)
                elif cls is Delta and self.delta:
                    key = ("d", local[id(g.child)])
                elif cls is Top or cls is Bot and self.bottom:
                    key = ("t",) if cls is Top else ("f",)
                else:   # raise at the first offending node in pre-order
                    list(postorder(f, _checker(pos, self.delta, self.bottom)))
                i = ids.get(key)
                if i is None:
                    i = ids[key] = len(keys)
                    keys.append(key)
                    vars_.append((g.name,) if cls is Var else
                                 tuple(sorted({x for k in key[1:] for x in vars_[k]})))
                nodes[i] = None
                local[id(g)] = i
        return [local[id(f)] for f in terms]

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
    return compile_term(f, algebra, list(valuation))(tuple(valuation.values()))


def rational_eval(f: Formula, valuation: dict[str, Fraction]) -> Fraction:
    """Exact evaluation over the unit interval with min{1, 1-x+y} implication.

    D is the crisp operator (1 at 1, else 0); floats are never involved
    because D is discontinuous at 1.  `fractions` is imported here, as no
    CLI verb evaluates over the unit interval.
    """
    from fractions import Fraction

    one, zero = Fraction(1), Fraction(0)
    value = {}
    for g in postorder(f, _checker(valuation, True, True)):
        cls = g.__class__
        if cls is Var:
            x = Fraction(valuation[g.name])
            if not zero <= x <= one:
                raise FormulaError(f"value of {g.name!r} outside [0, 1]")
        elif cls is Imp:
            x = min(one, one - value[id(g.left)] + value[id(g.right)])
        elif cls is Delta:
            x = one if value[id(g.child)] == one else zero
        else:
            x = one if cls is Top else zero
        value[id(g)] = x
    return value[id(f)]
