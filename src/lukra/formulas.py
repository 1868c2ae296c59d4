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
Imp and Delta nodes, one per distinct term, so `==` on terms is `is` and
every walk is a loop over `postorder`, which visits each distinct node once.
This module is the one term engine: the parser (which `fo` extends with
first-order atoms and quantifiers), one fold that evaluates a term in any
algebra given by its operations (`_fold`: a finite algebra in
`eval_formula`, the unit interval in `rational_eval`, the term algebra in
`substitute`), the evaluator of equations on value tables of terms and
the schema matcher.  The evaluator plans a batch of equations once
(`EquationBatch`), grouped by their variable names, and one loop
(`EquationBatch._search`) finds each group's least violations, chunk by
chunk of the values of its leading variables, with `_fold`'s step
(`_steps`) over any value tables: the law checks
(`equation_violations`) run it on the tables of a finite algebra, one
slab per value of the first variable, and the decisions of `logic` on
packed ints of each chain (`algebra._Packing`), with as many leading
variables as the guard needs.  Tables are keyed by the hash-consed nodes
themselves.
"""

from __future__ import annotations

import operator
import re
import weakref
from bisect import bisect_left
from functools import partial
from itertools import chain, compress, count, islice, product

from .algebra import AlgebraError, SizeGuardError, _count_text
from .records import Record


class FormulaError(AlgebraError):
    """Raised for malformed formula text or evaluation errors."""


# Each distinct term is one node (hash-consing): `Node.__new__` returns the
# node the weak table `_CONS` holds for (class, *fields, *their types), or
# builds it there, so `==` is `is`; Imp and Delta, whose fields are nodes,
# leave the types out.  A node keeps `_kids` (its subterms, which every walk
# reads), a structural hash, so sets of terms iterate alike in every run, and
# `_size` (its expanded tree's node count).  Var, Imp and Delta, which parsing
# builds most, have their own `_build` for speed.
_set = object.__setattr__
_CONS: dict = {}    # key -> _Ref to the node


class _Ref(weakref.ref):
    """A weak reference that knows its node's key: a third of the cost of a WeakValueDictionary entry."""
    __slots__ = ("key",)

    def forget(self) -> None:     # called when the node dies
        if _CONS.get(self.key) is self:     # not when a new node took the key
            del _CONS[self.key]


class Node(Record):
    """A node of a term, in `fo` also of a first-order term: a field that
    holds a node or a tuple of nodes holds subterms."""

    _kids = ()
    _size = 1
    _typed = True       # key the fields with their types: Var(1) is not Var(True)

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = tuple(cls._bind(args, kwargs))
        key = (cls, *args, *map(type, args)) if cls._typed else (cls,) + args
        ref = _CONS.get(key)
        if ref is None or (node := ref()) is None:
            node = object.__new__(cls)
            node._build(*args)
            ref = _CONS[key] = _Ref(node, _Ref.forget)
            ref.key = key
        return node

    __init__ = object.__init__      # __new__ has built the node
    __eq__ = object.__eq__          # one node per term

    def _build(self, *fields):
        """Set the fields of a new node and what it keeps from them."""
        for name, value in zip(self._fields, fields):
            _set(self, name, value)
        kids = tuple(k for v in fields for k in (v if isinstance(v, tuple) else (v,))
                     if isinstance(k, Node))
        _set(self, "_kids", kids)
        _set(self, "_hash", hash(fields))
        _set(self, "_size", 1 + sum(k._size for k in kids))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return self.__class__, self._key(self)


class Formula(Node):
    pass


class Var(Formula):
    name: str

    def _build(self, name):
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))


class Top(Formula):
    pass


class Bot(Formula):
    pass


class Imp(Formula):
    left: Formula
    right: Formula
    _typed = False      # nodes, which compare by identity

    def _build(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_kids", (left, right))
        _set(self, "_hash", hash(self._kids))
        _set(self, "_size", left._size + right._size + 1)


class Delta(Formula):
    child: Formula
    _typed = False

    def _build(self, child):
        _set(self, "child", child)
        _set(self, "_kids", (child,))
        _set(self, "_hash", hash(self._kids))
        _set(self, "_size", child._size + 1)


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
    """Simultaneous substitution of formulas for variables: evaluation in
    the term algebra.  A node that is no connective raises FormulaError."""
    return _fold(f, None, lambda g: subst.get(g.name, g), Imp, Delta, TOP, BOT)


def match(pattern: Formula, target: Formula, subst: dict[str, Formula] | None = None) -> dict[str, Formula] | None:
    """One-way matching: variables of `pattern` are metavariables.

    Returns the (extended) substitution mapping pattern variables to
    subformulas of `target`, or None if there is no match.
    """
    if subst is None:
        subst = {}
    return None if _breakdown(pattern, target, subst)[0] else subst


def mismatch(pattern: Formula, target: Formula, subst: dict[str, Formula]) -> str:
    """Match like `match`, extending `subst` in place.  Returns "" on a
    match, else the reason the first subterm (left to right) where the
    match breaks down gives."""
    p, t = _breakdown(pattern, target, subst)
    if p is None:
        return ""
    if p.__class__ is Var:
        return f"metavariable {p.name} bound to {_quoted(subst[p.name])} but found {_quoted(t)}"
    return f"expected {_quoted(p)}, found {_quoted(t)}"


def _breakdown(pattern, target, subst) -> tuple:
    """The first pair of subterms, left to right, where matching breaks
    down, or (None, None), by a stack of (pattern, target) pairs.  Writes
    no text, so `match` also answers for terms too large for `to_text`."""
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if p.__class__ is Var:
            if subst.setdefault(p.name, t) is not t:
                return p, t
        elif p.__class__ is not t.__class__:
            return p, t
        else:
            stack.extend(zip(reversed(p._kids), reversed(t._kids)))
    return None, None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(->\[\s*\d+\s*\]|->|\||&|~|\(|\)|[A-Za-z_][A-Za-z0-9_]*|\S)"
)

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
        for m in _TOKEN_RE.finditer(text):
            tok = m.group(1)
            if tok.startswith("->["):
                k = tok[3:-1].strip().lstrip("0") or "0"
                if len(k) > len(str(IMP_K_LIMIT)) or int(k) > IMP_K_LIMIT:
                    raise self.error(f"iterated implication ->[{k}] at position "
                                     f"{m.start(1)} exceeds the limit k <= {IMP_K_LIMIT}")
            self.tokens.append((tok, m.start(1)))
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
            elif tok.isascii() and tok.isidentifier():
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


def _named(f: Formula, write=to_text) -> str:
    """`write(f)`, or past TEXT_NODES f's node count, so a report or a
    reason can name any term."""
    return write(f) if f._size <= TEXT_NODES else f"a formula of {f._size} nodes"


def _quoted(f: Formula) -> str:
    """The quoted text of f for a reason, named as `_named` does."""
    return _named(f, lambda g: repr(to_text(g)))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _checker(names, delta: bool, bottom: bool):
    """The `postorder` hook that refuses, with FormulaError at the first
    offending node in pre-order, a variable not in `names` (when given),
    D without a delta, F without a bottom and a node that is no connective."""
    def check(g):
        cls = g.__class__
        if cls is Var and names is not None and g.name not in names:
            raise FormulaError(f"unassigned variable {g.name!r}")
        if cls is Delta and not delta:
            raise FormulaError("formula uses D but the algebra has no delta")
        if cls is Bot and not bottom:
            raise FormulaError("formula uses F but the algebra has no bottom")
        if cls not in (Var, Imp, Delta, Top, Bot):
            raise FormulaError(f"not a formula node: {g!r}")
    return check


def _fold(f: Formula, check, var, imp, delta, top, bottom):
    """The value of f in an algebra given by its operations: `var(g)` is a
    variable node's value, `imp(a, b)` and `delta(a)` combine the values of
    the subterms, and `top` and `bottom` are the constants.  One step per
    distinct node, children first; `check` is the `postorder` hook (see
    `_checker`) or None, and a node that is no connective raises
    FormulaError."""
    value = {}
    _steps(postorder(f, check), value, var, imp, delta, top, bottom)
    return value[id(f)]


def _steps(nodes, value, var, imp, delta, top, bottom) -> None:
    """Add to `value`, keyed by id, the value of each of `nodes` (children
    first) that it lacks, in the algebra of `_fold`'s operations."""
    for g in nodes:
        if id(g) in value:
            continue
        cls = g.__class__
        if cls is Imp:
            x = imp(value[id(g.left)], value[id(g.right)])
        elif cls is Var:
            x = var(g)
        elif cls is Delta:
            x = delta(value[id(g.child)])
        elif cls is Top or cls is Bot:
            x = top if cls is Top else bottom
        else:
            raise FormulaError(f"not a formula node: {g!r}")
        value[id(g)] = x


# bound on the table entries a search holds at once: the slab tables
# `check_guard` predicts, or a decision's packed fields per chunk
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

    Before any table is built, the entries the slab-by-slab search holds
    at once are predicted (every table kept across slabs, one slab table
    of each other subterm, and each equation's sides and premises spread
    over its slab); more than `guard` of them raise SizeGuardError.  With
    `every`, each violating assignment kept adds its positions to that
    count, and SizeGuardError is raised as soon as it passes `guard`.

    The equations over the same names are searched together, slab by slab
    of their first variable (`EquationBatch._search`): a subterm that uses
    it is tabulated per slab, over its other variables, and the others
    once.  So a k-variable equation holds about N^(k-1) entries per
    subterm, and without `every` it stops at its first violating slab.
    Up to 256 elements the tables are bytes and each step is a bulk
    operation of `_TermTables` (translates, strided slices, and whole-table
    int operations for the comparison), not a loop over entries; a law
    whose premises fail wherever its sides differ costs each slab a few
    of those int operations.

    Raises FormulaError as `_checker` does, at the first offending node
    in pre-order of the first offending equation (lhs, rhs, then the
    premise pairs).
    """
    batch = EquationBatch(equations, A.delta is not None, A.bottom is not None)
    return batch.violations(A, range(len(batch.plans)), every, guard)


def _union(x: tuple, y: tuple) -> tuple:
    """The sorted union of the sorted name tuples x and y: each name of the
    shorter one is placed into the longer one by bisection, so a chain of
    implications over v names plans in O(v^2) C-level moves, not v sorts."""
    if len(x) < len(y):
        x, y = y, x
    out, at = list(x), 0
    for name in y:
        at = bisect_left(out, name, at)
        if at == len(out) or out[at] != name:
            out.insert(at, name)
    return tuple(out)


class _Plan(Record):
    """One equation over `names`: its terms and their distinct nodes, in post-order."""
    names: tuple
    nodes: tuple[Formula, ...]
    lhs: Formula
    rhs: Formula
    premises: tuple[tuple[Formula, Formula], ...]


class EquationBatch:
    """Equations planned once, to be searched on any finite algebra with
    a delta iff `delta` and a bottom iff `bottom`; raises FormulaError as
    `equation_violations` does.  Terms are hash-consed, so a node is its
    own key: `vars` maps the id of each distinct subterm to the sorted
    names it uses, and the plans hold the nodes, which keeps them alive.
    An equation given with names None is over the sorted names its terms
    use; `groups` maps each names tuple to its plans' indices and distinct
    nodes.  `_search` is the one least-violation search of a group, on
    finite tables in `violations` and on packed ints in `logic`.
    """

    def __init__(self, equations, delta: bool, bottom: bool):
        self.delta, self.bottom = delta, bottom
        self.vars: dict = {}    # node id -> sorted names
        self.plans = [self._plan(*equation) for equation in equations]
        self.groups: dict = {}  # names -> (indices, node id -> node, children first)
        for i, plan in enumerate(self.plans):
            members, nodes = self.groups.setdefault(plan.names, ([], {}))
            members.append(i)
            nodes.update((id(g), g) for g in plan.nodes)

    def _plan(self, names, lhs, rhs, premises=()) -> _Plan:
        """The plan of one equation, from one walk over its terms that fills
        `vars`; `names` None admits every name."""
        vars_, delta, bottom = self.vars, self.delta, self.bottom
        terms = [t for pair in [(lhs, rhs), *premises] for t in pair]
        nodes: dict = {}    # id -> node, in post-order
        for f in terms:
            for g in postorder(f):
                i = id(g)
                nodes[i] = g
                cls = g.__class__
                if cls is Imp:
                    if i not in vars_:
                        x, y = vars_[id(g.left)], vars_[id(g.right)]
                        vars_[i] = x if x == y else _union(x, y)
                elif cls is Var and (names is None or g.name in names):
                    vars_[i] = (g.name,)
                elif cls is Delta and delta:
                    vars_[i] = vars_[id(g.child)]
                elif cls is Top or cls is Bot and bottom:
                    vars_[i] = ()
                else:   # raise at the first offending node in pre-order
                    list(postorder(f, _checker(names, delta, bottom)))
        if names is None:
            names = sorted({x for f in terms for x in vars_[id(f)]})
        return _Plan(names=tuple(names), nodes=tuple(nodes.values()), lhs=lhs, rhs=rhs,
                     premises=tuple(zip(terms[2::2], terms[3::2])))

    def check_guard(self, n: int, guard: int) -> int:
        """The table entries the plans hold at once on an n-element carrier,
        predicted as `equation_violations` says; more than `guard` raise
        SizeGuardError.  A plan's slab name is names[0] unless a later
        position binds it."""
        vars_, axes = self.vars, {}
        for plan in self.plans:
            names = plan.names
            s = names[0] if names and names[0] not in names[1:] else None
            for g in plan.nodes:
                x = vars_[id(g)]
                axes[id(g), s if s in x else None] = len(x) - (s in x)
        entries = (sum(n ** k for k in axes.values())
                   + sum((2 + 2 * len(plan.premises)) * n ** len(plan.names[1:])
                         for plan in self.plans))
        if entries > guard:
            raise SizeGuardError(f"predicted {_count_text(entries)} table entries "
                                 f"held at once exceed guard {guard}")
        return entries

    def violations(self, A, which, every: bool = False,
                   guard: int = TABLE_GUARD) -> list[list[tuple[int, ...]]]:
        """The assignments of A, an algebra of the batch's signature, that
        violate each plan in `which`, as `equation_violations` lists them
        and bounds them by `guard`: `_search` on A's value tables, slab by
        slab of each group's first position, after `check_guard`."""
        held, tables = self.check_guard(A.size, guard), _TermTables(A)
        hits = tables.hits
        if every:   # each witness kept holds its positions too
            def hits(space, plan, value):
                nonlocal held
                for h in tables.hits(space, plan, value):
                    if (held := held + len(plan.names)) > guard:
                        raise SizeGuardError(f"{_count_text(held)} table entries and witness "
                                             f"positions held at once exceed guard {guard}")
                    yield h
        make, carrier = tables.make, range(A.size)
        chosen, found = set(which), {}
        for names, (members, _) in self.groups.items():
            members = [i for i in members if i in chosen]
            if members:
                space = tuple(None if x in names[i + 1:] else x for i, x in enumerate(names))
                found.update(zip(members, self._search(
                    members, A.size, min(1, len(names)),
                    lambda name, i: ((name,), make(carrier)), lambda c: ((), make([c])),
                    (tables.imp, tables._delta, tables.top, tables.bottom),
                    partial(hits, space[1:]), every)))
        return [found[i] for i in which]

    def _search(self, which, size, j, var, const, ops, hits,
                every: bool = False) -> list[list[tuple[int, ...]]]:
        """The least violating assignment, or all of them in lexicographic
        order with `every`, of each plan in `which`, one group's, over v
        names with values in range(size); `ops` is (imp, delta, top, bottom)
        over value tables, as `_steps` takes them.

        Each prefix of values of the first j positions is one chunk, in
        order.  A name bound there (at its last position) is `const(value)`,
        any other `var(name, position)`, a table over the chunk's size^(v-j)
        assignments.  The group's nodes over no bound name are tabulated
        once, the rest per chunk.  `hits(plan, tables)` iterates the indices
        h of the chunk's violations, increasing: (*prefix, *the v - j
        base-size digits of h).
        """
        plans = [self.plans[i] for i in which]
        names = plans[0].names
        pos = {name: i for i, name in enumerate(names)}
        lead = {name: i for name, i in pos.items() if i < j}
        tables = {name: var(name, i) for name, i in pos.items() if i >= j}
        lookup = lambda g: tables[g.name]  # noqa: E731
        nodes = self.groups[names][1].values()
        fixed: dict = {}
        _steps([g for g in nodes if lead.keys().isdisjoint(self.vars[id(g)])] if lead else nodes,
               fixed, lookup, *ops)
        out = [[] for _ in plans]
        width, value = len(names) - j, fixed
        for prefix in product(range(size), repeat=j):
            if lead:    # else every node is in `fixed`
                tables.update((name, const(prefix[i])) for name, i in lead.items())
                value = dict(fixed)
            for found, plan in zip(out, plans):
                if found and not every:
                    continue
                if lead:
                    _steps(plan.nodes, value, lookup, *ops)
                found.extend((*prefix, *_digits(h, size, width))
                             for h in islice(hits(plan, value), None if every else 1))
            if not every and all(out):
                break
        return out


class _TermTables:
    """The value tables of terms over one finite algebra.

    A table is a pair (axes, data): `data` holds the values of a term
    row-major over the sorted variable names `axes`, so a term that uses no
    variable has one entry.  `data` is `bytes` when every carrier index
    fits a byte (N <= BYTE_CARRIER = 256), and an `array` of a wider type
    otherwise, over which every operation maps entry by entry.

    On bytes the operations are bulk: a unary map is one `bytes.translate`
    by a 256-byte lookup table (a row or column of imp, or delta), an
    implication whose side ranges over a prefix or suffix of the result's
    axes is one translate per entry of that side (of a block, or of a
    strided slice), a broadcast repeats the data or each of its entries,
    and `hits` compares sides and premises as big ints.  Sides over the
    same axes, or interleaved ones, pair up entry by entry on every
    carrier, through the rows of imp.
    """

    BYTE_CARRIER = 256      # the largest carrier whose tables are bytes

    def __init__(self, A):
        from array import array     # only law checks load it

        self.A, self.n = A, A.size
        self.narrow = A.size <= self.BYTE_CARRIER
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
        self.top = ((), self.make([A.top]))
        self.bottom = ((), self.make([A.bottom])) if A.bottom is not None else None
        self.spreads: dict = {}     # (axes, target axes) -> index array

    def _delta(self, table):
        """The table of D applied to `table`, over the same axes."""
        axes, data = table
        return axes, (data.translate(self.delta) if self.narrow
                      else self.make(map(self.delta.__getitem__, data)))

    def imp(self, left, right):
        """The table of left -> right, over the sorted union of their axes.

        On bytes, when one side's axes are a proper prefix of that union,
        the other side splits into one block per entry of that side, and
        each block is a unary map by that entry's row (or column) of imp;
        when they are a proper suffix, the other side's entries at a stride
        of that side's length are.
        """
        la, ra = left[0], right[0]
        axes = la if la == ra else tuple(sorted({*la, *ra}))
        k = len(axes)
        if self.narrow:
            for (sa, sd), other, maps in ((left, right, self.rows), (right, left, self.cols)):
                if len(sa) < k:
                    if axes[:len(sa)] == sa:
                        return axes, self._blocks(sd, maps, self.spread(other, axes))
                    if axes[k - len(sa):] == sa:
                        return axes, self._strided(sd, maps, self.spread(other, axes))
        return axes, self.make(map(operator.getitem,
                                   map(self.A.imp.__getitem__, self.spread(left, axes)),
                                   self.spread(right, axes)))

    @staticmethod
    def _blocks(entries, tables, data) -> bytes:
        """Block j of `data` (one per entry) translated by tables[entries[j]]."""
        m = len(data) // len(entries)
        return b"".join(data[j * m:(j + 1) * m].translate(tables[c]) for j, c in enumerate(entries))

    @staticmethod
    def _strided(entries, tables, data) -> bytes:
        """The entries of `data` at j, j + m, j + 2m, ..., for each entry j
        of the m `entries`, translated by tables[entries[j]]."""
        m, out = len(entries), bytearray(len(data))
        for j, c in enumerate(entries):
            out[j::m] = data[j::m].translate(tables[c])
        return bytes(out)

    def spread(self, table, target):
        """The data of `table` broadcast from its axes to `target`, a
        superset of them in any order; a None in `target` is an axis
        nothing reads."""
        axes, data = table
        if axes == target:
            return data
        k = len(target) - len(axes)
        if target[k:] == axes:
            return data * self.n ** k
        if self.narrow and target[:len(axes)] == axes:
            # each entry repeated r times in a row: one run per entry
            r = self.n ** k
            return b"".join([bytes((d,)) * r for d in data])
        index = self.spreads.get((axes, target))
        if index is None:
            from array import array

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

    def hits(self, space, plan, value):
        """The indices, increasing, of the assignments over `space` (as
        `spread` takes it) at which the premises of `plan` hold and its
        sides differ, from the tables `value` of its nodes.

        On bytes each pair of tables is one big-endian int and their XOR is
        nonzero in exactly the bytes where they differ, so the sides' XOR
        with the premises' OR of XORs turns into one byte mask; a law whose
        premises hold at no assignment where its sides differ yields
        nothing after a few whole-table int operations.
        """
        left, right = (self.spread(value[id(t)], space) for t in (plan.lhs, plan.rhs))
        if left == right:
            return ()
        if not self.narrow:
            hits = map(operator.ne, left, right)
            for pair in plan.premises:
                a, b = (self.spread(value[id(t)], space) for t in pair)
                hits = map(operator.and_, hits, map(operator.eq, a, b))
            return compress(count(), hits)
        size = len(left)
        ones = int.from_bytes(b"\1" * size, "big")
        low7 = ones * 0x7F
        # 1 in each byte of v that is nonzero: its top bit or the carry of
        # its low seven bits plus 0x7F, which stays in the byte
        nonzero = lambda v: (((v & low7) + low7 | v) >> 7) & ones  # noqa: E731
        mask = nonzero(int.from_bytes(left, "big") ^ int.from_bytes(right, "big"))
        fails = 0
        for pair in plan.premises:
            a, b = (self.spread(value[id(t)], space) for t in pair)
            if a != b:
                fails |= int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        if fails:
            mask &= ~nonzero(fails)
        if not mask:
            return ()
        return compress(count(), mask.to_bytes(size, "big"))


def _digits(h, n, width) -> tuple[int, ...]:
    """The `width` base-n digits of h, most significant first."""
    digits = []
    for _ in range(width):
        h, d = divmod(h, n)
        digits.append(d)
    return tuple(reversed(digits))


def eval_formula(f: Formula, algebra, valuation: dict[str, int]) -> int:
    """Evaluate over a FiniteAlgebra; valuation maps variable names to indices.
    Raises as `_checker` does."""
    imp, delta = algebra.imp, algebra.delta
    return _fold(f, _checker(valuation, delta is not None, algebra.bottom is not None),
                 lambda g: valuation[g.name], lambda a, b: imp[a][b], lambda a: delta[a],
                 algebra.top, algebra.bottom)


def rational_eval(f: Formula, valuation: dict[str, Fraction]) -> Fraction:
    """Exact evaluation over the unit interval with min{1, 1-x+y} implication.

    D is the crisp operator (1 at 1, else 0); floats are never involved
    because D is discontinuous at 1.  Raises as `_checker` does, and at a
    variable whose value lies outside [0, 1].  `fractions` is imported
    here, as no CLI verb evaluates over the unit interval.
    """
    from fractions import Fraction

    one, zero = Fraction(1), Fraction(0)

    def var(g):
        x = Fraction(valuation[g.name])
        if not zero <= x <= one:
            raise FormulaError(f"value of {g.name!r} outside [0, 1]")
        return x

    return _fold(f, _checker(valuation, True, True), var,
                 lambda a, b: min(one, one - a + b), lambda a: one if a == one else zero,
                 one, zero)
