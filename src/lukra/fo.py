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
and FBot are aliases of them), and `fo_eval` compiles formulas with
`formulas.compile_term`.
"""

from __future__ import annotations

from itertools import product as iter_product

from .algebra import (
    AlgebraError,
    FiniteAlgebra,
    check_entry,
    check_object,
    check_positive,
)
from .formulas import (
    TOO_DEEP,
    Bot,
    Delta,
    Formula,
    FormulaError,
    Imp,
    Top,
    _NAME_RE,
    _Parser,
    compile_term,
)
from .records import Record, field


class FOError(ValueError):
    """Malformed first-order input or evaluation failure."""


# -- terms -------------------------------------------------------------------

class TermName(Record):
    """A variable or constant; which one is resolved against the structure."""
    name: str


class TermApp(Record):
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
                    args = tuple(int(p) if p.isascii() and p.isdigit() else -1
                                 for p in (key.split(",") if key else ()))
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


def _term(t, S: FOStructure, scope: dict[str, int]):
    """Compile a term into a closure over value tuples of domain indices;
    `scope` maps each variable in scope to its position in the tuple."""
    if isinstance(t, TermName):
        i = scope.get(t.name)
        if i is not None:
            return lambda e: e[i]
        if t.name in S.constants:
            c = S.constants[t.name]
            return lambda e: c
        raise FOError(f"unbound name {t.name!r}")
    if isinstance(t, TermApp):
        table = _table(S.functions, t.func, "function", len(t.args))
        args = [_term(a, S, scope) for a in t.args]
        return lambda e: table[tuple([a(e) for a in args])]
    raise FOError(f"not a term: {t!r}")


def eval_term(t, S: FOStructure, env: dict[str, int]) -> int:
    return _term(t, S, {name: i for i, name in enumerate(env)})(tuple(env.values()))


def fo_eval(f: FOFormula, S: FOStructure, assignment: dict[str, int] | None = None) -> int:
    """Truth value (carrier index) of f under the assignment."""
    env = dict(assignment or {})
    for name, d in env.items():
        check_entry(d, S.domain_size, f"assignment {name}")
    A = S.algebra
    rank = S.order_rank.__getitem__
    least = min(range(A.size), key=rank)
    scope = {name: i for i, name in enumerate(env)}

    def node(g, comp):
        if isinstance(g, FPred):
            table = _table(S.predicates, g.name, "predicate", len(g.args))
            args = [_term(a, S, scope) for a in g.args]
            return lambda e: table[tuple([a(e) for a in args])]
        if isinstance(g, FEq):
            left, right, top = _term(g.left, S, scope), _term(g.right, S, scope), A.top
            return lambda e: top if left(e) == right(e) else least
        if isinstance(g, Bot):
            return lambda e: least
        if isinstance(g, (FForall, FExists)):
            # a quantifier rebinds its variable's slot, or opens the next one
            outer = scope.get(g.var)
            i = scope[g.var] = len(scope) if outer is None else outer
            body = comp(g.body)
            if outer is None:
                del scope[g.var]
            agg = max if isinstance(g, FExists) else min
            domain = range(S.domain_size)
            return lambda e: agg([body(e[:i] + (d,) + e[i + 1:]) for d in domain], key=rank)
        return None

    try:
        return compile_term(f, A, (), node)(tuple(env.values()))
    except RecursionError:
        raise FOError(TOO_DEEP) from None
    except FormulaError as exc:
        raise FOError(str(exc)) from None


def substitute_term(f: FOFormula, var: str, t) -> FOFormula:
    """f with every free occurrence of `var` replaced by the term t."""
    def in_term(u):
        if isinstance(u, TermName):
            return t if u.name == var else u
        return TermApp(u.func, tuple(in_term(a) for a in u.args))

    if isinstance(f, FPred):
        return FPred(f.name, tuple(in_term(a) for a in f.args))
    if isinstance(f, FEq):
        return FEq(in_term(f.left), in_term(f.right))
    if isinstance(f, FImp):
        return FImp(substitute_term(f.left, var, t), substitute_term(f.right, var, t))
    if isinstance(f, FDelta):
        return FDelta(substitute_term(f.child, var, t))
    if isinstance(f, (FForall, FExists)):
        if f.var == var:
            return f
        return type(f)(f.var, substitute_term(f.body, var, t))
    return f


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _FirstOrder(_Parser):
    """The propositional grammar plus quantifiers, predicate atoms and equality."""

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
        # predicate, or a term followed by '='
        if self.peek() == "(" and tok[0].isupper():
            args = self.term_args()
            return FPred(tok, args)
        term = self.term_from(tok)
        self.expect("=")
        right = self.term()
        return FEq(term, right)

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


def fo_parse(text: str) -> FOFormula:
    """Parse a first-order formula.

    Uppercase-initial names followed by '(' are predicates; everything
    else is a term (variable, constant, or function application), and a
    bare term must take part in an equality atom.
    """
    return _FirstOrder(text).run()
