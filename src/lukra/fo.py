"""First-order semantics over finite structures valued in a chain.

Structures interpret predicates into a finite chain with delta; the
universal and existential quantifiers evaluate as minimum and maximum
over the (finite) domain, which the chain's completeness makes total.
Equality between terms is crisp: top when the values coincide, otherwise
the chain's least element, which is also the value of F.  Only evaluation
ships; there is no first-order proof checking.

Formulas use the propositional grammar of `formulas` (so ``->[k]`` and the
Unicode aliases work here too), with atoms and quantifiers added:

    forall x <formula> | exists x <formula>
    P(t1, ..., tk)           predicate atoms
    t1 = t2                  crisp equality
    terms: variables, constants, f(t1, ..., tk)

``D(...)`` is the delta of a parenthesised formula, not a predicate.
Connectives and constants are the propositional nodes (FImp, FDelta, FTop
and FBot are aliases of them), and atoms, quantifiers and terms are nodes
of the same kind, so `formulas.postorder` walks them all.
"""

from __future__ import annotations

from functools import partial
from itertools import product as iter_product
from operator import getitem as _getitem

from .algebra import (
    AlgebraError,
    FiniteAlgebra,
    SizeGuardError,
    check_entry,
    check_object,
    check_positive,
)
from .formulas import (
    TABLE_GUARD,
    Bot,
    Delta,
    Formula,
    Imp,
    Node,
    Top,
    _NAME_RE,
    _Parser,
    postorder,
)
from .records import Record, field


class FOError(AlgebraError):
    """Malformed first-order input or evaluation failure."""


# -- terms -------------------------------------------------------------------

class TermName(Node):
    """A variable or constant; which one is resolved against the structure."""
    name: str


class TermApp(Node):
    func: str
    args: tuple


# -- formulas ----------------------------------------------------------------

FOFormula = Formula
FTop, FBot, FImp, FDelta = Top, Bot, Imp, Delta


class FPred(Formula):
    name: str
    args: tuple


class FEq(Formula):
    left: object
    right: object


class FForall(Formula):
    var: str
    body: Formula


class FExists(Formula):
    var: str
    body: Formula


class FOStructure(Record):
    """A finite domain with chain-valued predicate tables.

    Predicate tables map argument tuples (domain indices) to carrier
    indices; function tables map to domain indices; constants name domain
    elements.  The algebra must be a chain so meets and joins exist.
    """
    domain_size: int
    algebra: FiniteAlgebra
    predicates: dict[str, dict] = field(factory=dict)
    functions: dict[str, dict] = field(factory=dict)
    constants: dict[str, int] = field(factory=dict)

    def __post_init__(self):
        if self.domain_size < 1:
            raise FOError("domain must be nonempty")
        if not self.algebra.is_chain():
            raise AlgebraError("first-order semantics needs a chain")
        if self.algebra.delta is None:
            raise AlgebraError("first-order semantics needs a delta table")

    @property
    def order_rank(self):
        # chain built by make_chain has index order = derived order; for an
        # arbitrary chain we rank by count of elements below
        return {x: len(self.algebra.below[x]) for x in range(self.algebra.size)}

    @staticmethod
    def from_dict(data: dict) -> "FOStructure":
        """Read a structure file: `domain_size`, `algebra` (read by
        `FiniteAlgebra.from_dict`) and the optional objects `predicates`,
        `functions` and `constants`.

        A symbol is {"arity": k, "table": {...}}, its table keyed by every
        k-tuple of domain indices written "i,j,..." ("" when k = 0).
        Predicate values must be carrier indices, function values and
        constants domain indices, each a true int; the AlgebraError raised
        otherwise names the first offending entry.
        """
        check_object(data, "a structure", ("domain_size", "algebra"))
        d = check_positive(data["domain_size"], "domain_size")
        algebra = FiniteAlgebra.from_dict(data["algebra"])
        digits = len(str(d - 1))

        def symbols(section, kind, n):
            out = {}
            for name, spec in check_object(data.get(section, {}), section).items():
                where = f"{kind} {name}"
                arity = check_object(spec, where, ("arity", "table"))["arity"]
                if type(arity) is not int or arity < 0:
                    raise AlgebraError(f"{where} arity must be a non-negative int, got {arity!r}")
                table = {}
                for key, value in check_object(spec["table"], f"{where} table").items():
                    key = str(key)
                    # int() refuses parts of over 4300 digits
                    args = tuple(int(p) if p.isascii() and p.isdigit() and len(p) <= digits
                                 else -1 for p in (key.split(",") if key else ()))
                    if len(args) != arity or ",".join(map(str, args)) != key or not all(
                            0 <= a < d for a in args):
                        raise AlgebraError(f"{where} key {key!r} must be {arity} "
                                           f"comma-separated indices in 0..{d - 1}")
                    table[args] = check_entry(value, n, f"{where}({key})")
                if not table:
                    raise AlgebraError(f"{where} table is empty")
                # every key has `arity` parts, so the table's size bounds the search
                missing = next((t for t in iter_product(range(d), repeat=arity)
                                if t not in table), None)
                if missing is not None:
                    raise AlgebraError(f"{where}({','.join(map(str, missing))}) is missing")
                out[name] = {"arity": arity, "table": table}
            return out

        return FOStructure(
            domain_size=d,
            algebra=algebra,
            predicates=symbols("predicates", "predicate", algebra.size),
            functions=symbols("functions", "function", d),
            constants={name: check_entry(c, d, f"constant {name}")
                       for name, c in check_object(data.get("constants", {}), "constants").items()},
        )


def _table(symbols: dict, name: str, kind: str, arity: int) -> dict:
    spec = symbols.get(name)
    if spec is None:
        raise FOError(f"unknown {kind} symbol {name!r}")
    if arity != spec["arity"]:
        raise FOError(f"arity mismatch for {name!r}")
    return spec["table"]


def eval_term(t, S: FOStructure, env: dict[str, int]) -> int:
    return _values(t, S, env, TABLE_GUARD)[0]


def fo_eval(f: FOFormula, S: FOStructure, assignment: dict[str, int] | None = None,
            guard: int = TABLE_GUARD) -> int:
    """Truth value (carrier index) of f under the assignment; SizeGuardError
    when more than `guard` values are needed (see `_values`)."""
    env = dict(assignment or {})
    for name, d in env.items():
        check_entry(d, S.domain_size, f"assignment {name}")
    return _values(f, S, env, guard)[0]


_QUANTIFIERS = (FForall, FExists)


def _values(f, S: FOStructure, env: dict[str, int], guard: int) -> list[int]:
    """The value of f, a formula or term, as a list of one.  A node has a
    list per scope (the names quantified above it) it occurs in, over that
    scope's assignments, outermost name first, so a quantifier folds its
    body's list in blocks of the domain size.  Other names are read from
    `env`, then from the constants."""
    D, A = S.domain_size, S.algebra
    rank = S.order_rank.__getitem__
    least = min(range(A.size), key=rank)
    bound = []      # the names quantified above the node `check` sees

    def check(g):
        cls = g.__class__
        if cls is FPred or cls is TermApp:
            _table(S.predicates if cls is FPred else S.functions, g._head[0],
                   "predicate" if cls is FPred else "function", len(g.args))
        elif cls is TermName and g.name not in bound and g.name not in env \
                and g.name not in S.constants:
            raise FOError(f"unbound name {g.name!r}")
        elif cls in _QUANTIFIERS:
            bound.append(g.var)
        elif cls not in (Imp, Delta, Top, Bot, FEq, TermName):
            raise FOError(f"not a formula node: {g!r}")

    order = []
    for g in postorder(f, check):   # a quantifier after its body
        if g.__class__ in _QUANTIFIERS:
            bound.pop()
        order.append(g)
    # scope i is (outer scope, innermost name, depth); 0 is the empty one
    scope, inside, scopes = [(0, None, 0)], {}, {id(f): {0}}
    reads = {}      # (id, scope) -> parent reads of its list still to come
    for g in reversed(order):       # parents first
        for s in scopes[id(g)]:
            if g.__class__ in _QUANTIFIERS:
                if (s, g.var) not in inside:
                    inside[s, g.var] = len(scope)
                    scope.append((s, g.var, scope[s][2] + 1))
                s = inside[s, g.var]
            for k in g._kids:
                scopes.setdefault(id(k), set()).add(s)
                reads[id(k), s] = reads.get((id(k), s), 0) + 1
    cells = 0       # the values to compute, shallowest scopes first
    for s in (s for ss in scopes.values() for s in ss):
        cells += D ** scope[s][2]
        if cells > guard:
            raise SizeGuardError(f"first-order evaluation needs more values than the guard {guard}")

    values = {}     # (id, scope) -> list, freed once its last parent read it
    for g in order:
        cls = g.__class__
        for s in scopes[id(g)]:
            n = D ** scope[s][2]
            inner = inside[s, g.var] if cls in _QUANTIFIERS else s
            kids = [values[id(k), inner] for k in g._kids]
            for k in g._kids:
                key = id(k), inner
                reads[key] -= 1
                if not reads[key]:
                    del values[key]
            if cls is Imp:
                v = list(map(_getitem, map(A.imp.__getitem__, kids[0]), kids[1]))
            elif cls is FPred or cls is TermApp:
                table = (S.predicates if cls is FPred else S.functions)[g._head[0]]["table"]
                v = list(map(table.__getitem__, zip(*kids))) if kids else [table[()]] * n
            elif cls is TermName:
                j, run = s, 1   # the innermost scope binding the name
                while j and scope[j][1] != g.name:
                    j, run = scope[j][0], run * D
                if j:
                    v = [d for d in range(D) for _ in range(run)] * (n // (run * D))
                elif g.name in env or g.name in S.constants:
                    v = [env.get(g.name, S.constants.get(g.name))] * n
                else:
                    raise FOError(f"unbound name {g.name!r}")
            elif cls is FEq:
                v = [A.top if a == b else least for a, b in zip(*kids)]
            elif cls is Delta:
                v = list(map(A.delta.__getitem__, kids[0]))
            elif cls is Top or cls is Bot:
                v = [A.top if cls is Top else least] * n
            else:
                agg = max if cls is FExists else min
                v = [agg(kids[0][i:i + D], key=rank) for i in range(0, n * D, D)]
            values[id(g), s] = v
    return values[id(f), 0]


def substitute_term(f: FOFormula, var: str, t) -> FOFormula:
    """f with every free occurrence of `var` replaced by the term t."""
    out = {}
    for g in postorder(f):
        cls = g.__class__
        kids = [out[id(k)] for k in g._kids]
        if cls is TermName:
            out[id(g)] = t if g.name == var else g
        elif cls is TermApp or cls is FPred:
            out[id(g)] = cls(g._head[0], tuple(kids))
        elif cls is Imp or cls is FEq or cls is Delta:
            out[id(g)] = cls(*kids)
        else:   # a quantifier that binds `var` shields its body
            out[id(g)] = cls(g.var, *kids) if cls in _QUANTIFIERS and g.var != var else g
    return out[id(f)]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _FirstOrder(_Parser):
    """The propositional grammar plus quantifiers, predicate atoms and equality."""

    error = FOError

    def opening(self):
        tok = self.peek()
        if tok != "forall" and tok != "exists":
            return None
        self.next()
        var = self.next()
        if not _NAME_RE.fullmatch(var):
            where = self.tokens[self.pos - 1][1]
            raise FOError(f"bad quantifier variable {var!r} at position {where}")
        return partial(FForall if tok == "forall" else FExists, var)

    def name(self, tok: str) -> Formula:
        # predicate, or a term followed by '='
        if self.peek() == "(" and tok[0].isupper():
            return FPred(tok, self.term(tok).args)
        left = self.term(tok)
        self.expect("=")
        return FEq(left, self.term())

    def term(self, tok: str | None = None):
        """The term that starts with the name `tok`, read already, or at the
        next token; a stack holds the open applications, each as
        (function, arguments so far)."""
        apps = []
        while True:
            if tok is None and not _NAME_RE.fullmatch(tok := self.next()):
                where = self.tokens[self.pos - 1][1]
                raise FOError(f"bad term {tok!r} at position {where}")
            if self.peek() == "(":
                self.next()
                apps.append((tok, []))
                tok = None
                continue
            out, tok = TermName(tok), None
            while apps:
                apps[-1][1].append(out)
                if self.peek() == ",":
                    self.next()
                    break
                self.expect(")")
                func, args = apps.pop()
                out = TermApp(func, tuple(args))
            else:
                return out


def fo_parse(text: str) -> FOFormula:
    """Parse a first-order formula.

    Uppercase-initial names followed by '(' are predicates; everything
    else is a term (variable, constant, or function application), and a
    bare term must take part in an equality atom.
    """
    return _FirstOrder(text).run()
