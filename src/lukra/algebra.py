"""Finite implication-algebra kernel.

A FiniteAlgebra packs a carrier {0..N-1}, an implication table, an optional
delta table, a distinguished top and an optional bottom.  The order is always
*derived* from the table (x <= y iff x->y = top), never assumed from index
order.  All values are immutable and safe to share.

One semi-naive closure, `subuniverse`, generates every subuniverse: on
finite tables for `subalgebra_closure`, `generating_set` and
`homomorphisms`, and on packed vectors for the free-algebra builder.  One
sweep, `least_witness`, finds the least counterexample of every
hand-written check in lexicographic order; `CheckReport`, the outcome of
every check, lives here so that `filters` and `logic` need not load `laws`.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import compress, product as iter_product

from .records import Record


class AlgebraError(Exception):
    """The root of every refusal of outside input: a malformed table, file,
    formula, structure or proof, or a request past a guard.  The CLI exits 2
    on it and 3 on every other exception."""


class SignatureError(AlgebraError):
    """Operands have incompatible optional operations (delta / bottom)."""


class SizeGuardError(AlgebraError):
    """An enumeration was refused because the carrier exceeds its guard."""


class ConfigurationError(AlgebraError):
    """A required table (e.g. delta) is missing for the requested check."""


class DegenerateInputError(AlgebraError):
    """The operation needs a nontrivial algebra."""


class InternalConsistencyError(Exception):
    """A structural fact that should hold by construction failed to hold;
    an internal fault, not a refusal of input."""


class FiniteAlgebra(Record):
    size: int
    imp: tuple[tuple[int, ...], ...]
    top: int
    delta: tuple[int, ...] | None = None
    bottom: int | None = None
    label: str = ""

    def __post_init__(self):
        n = self.size
        if n < 1:
            raise AlgebraError("carrier must be nonempty")
        object.__setattr__(self, "imp", tuple(tuple(row) for row in self.imp))
        if len(self.imp) != n or any(len(row) != n for row in self.imp):
            raise AlgebraError("imp table must be size x size")
        if min(map(min, self.imp)) < 0 or max(map(max, self.imp)) >= n:
            raise AlgebraError("imp entry out of carrier range")
        if not (0 <= self.top < n):
            raise AlgebraError("top out of carrier range")
        if self.delta is not None:
            object.__setattr__(self, "delta", tuple(self.delta))
            if len(self.delta) != n or min(self.delta) < 0 or max(self.delta) >= n:
                raise AlgebraError("delta table malformed")
        if self.bottom is not None:
            if not (0 <= self.bottom < n):
                raise AlgebraError("bottom out of carrier range")
            if self.imp[self.bottom].count(self.top) != n:
                raise AlgebraError("bottom must satisfy bottom -> x = top")

    # -- derived order ----------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return self.imp[x][y] == self.top

    def join(self, x: int, y: int) -> int:
        return self.imp[self.imp[x][y]][y]

    def _tops(self, rows) -> tuple[tuple[int, ...], ...]:
        """For each row, the sorted positions where it holds top."""
        is_top = self.top.__eq__
        carrier = range(self.size)
        return tuple(tuple(compress(carrier, map(is_top, row))) for row in rows)

    @cached_property
    def below(self) -> tuple[tuple[int, ...], ...]:
        """below[x] = sorted elements <= x in the derived order: column x of imp."""
        return self._tops(zip(*self.imp))

    @cached_property
    def above(self) -> tuple[tuple[int, ...], ...]:
        """above[x] = sorted elements >= x: row x of imp."""
        return self._tops(self.imp)

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.size) if len(self.below[x]) == 1)

    def is_chain(self) -> bool:
        return all(
            self.leq(x, y) or self.leq(y, x)
            for x in range(self.size)
            for y in range(self.size)
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "top": self.top,
            "bottom": self.bottom,
            "imp": [list(row) for row in self.imp],
            "delta": list(self.delta) if self.delta is not None else None,
            "label": self.label,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @staticmethod
    def from_dict(data: dict) -> "FiniteAlgebra":
        """Read an algebra interchange dict, as `to_dict` writes it.

        `size`, `top`, `bottom` and every `imp`/`delta` entry must be an int
        (not a bool) in range, the tables complete lists and `label` a
        string; the AlgebraError raised otherwise names the first offending
        entry.
        """
        check_object(data, "an algebra", ("size", "imp", "top"))
        n = check_positive(data["size"], "size")
        delta, bottom, label = data.get("delta"), data.get("bottom"), data.get("label", "")
        if not isinstance(label, str):
            raise AlgebraError(f"label must be a string, got {label!r}")
        return FiniteAlgebra(
            size=n,
            imp=tuple(tuple(check_entry(v, n, f"imp[{i}][{j}]")
                            for j, v in enumerate(check_table(row, n, f"imp[{i}]")))
                      for i, row in enumerate(check_table(data["imp"], n, "imp"))),
            top=check_entry(data["top"], n, "top"),
            delta=None if delta is None else tuple(
                check_entry(v, n, f"delta[{i}]") for i, v in enumerate(check_table(delta, n, "delta"))),
            bottom=None if bottom is None else check_entry(bottom, n, "bottom"),
            label=label,
        )

    @staticmethod
    def from_json(text: str) -> "FiniteAlgebra":
        return FiniteAlgebra.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Input checks: each returns its value or raises AlgebraError naming
# `where`; check_table_size is the guard on building a table
# ---------------------------------------------------------------------------

def check_entry(value, n: int, where: str) -> int:
    """An int (not a bool) in 0..n-1."""
    if type(value) is not int or not 0 <= value < n:
        raise AlgebraError(f"{where} must be an int in 0..{n - 1}, got {value!r}")
    return value


def check_positive(value, where: str) -> int:
    """An int (not a bool) of at least 1."""
    if type(value) is not int or value < 1:
        raise AlgebraError(f"{where} must be a positive int, got {value!r}")
    return value


def check_table(value, n: int, where: str):
    """A list of n entries."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise AlgebraError(f"{where} must be a list of {n} entries")
    return value


def check_object(value, where: str, required=()) -> dict:
    """A dict that holds every key in `required`."""
    if not isinstance(value, dict):
        raise AlgebraError(f"{where} must be an object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise AlgebraError(f"{where} lacks {key!r}")
    return value


def check_table_size(size: int, guard: int) -> None:
    """Refuse, with SizeGuardError, an algebra of `size` elements whose
    implication table of size^2 entries would exceed `guard`."""
    entries = size * size
    if entries > guard:
        raise SizeGuardError(
            f"predicted table of {entries} entries ({size} elements) exceeds guard {guard}")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_chain(n: int, with_delta: bool = False, with_bottom: bool = False) -> FiniteAlgebra:
    """The n-element chain {0, 1/(n-1), ..., 1} with min{1, 1-x+y} implication.

    Index i stands for i/(n-1); index order coincides with the derived order.
    With `with_delta`, delta sends everything below top to 0 and top to top.
    """
    if n < 2:
        raise AlgebraError("a chain needs at least 2 elements")
    m = n - 1
    imp = tuple(tuple(range(m - i, m)) + (m,) * (n - i) for i in range(n))
    delta = tuple([0] * m + [m]) if with_delta else None
    label = f"L{n}" + ("+d" if with_delta else "") + ("+b" if with_bottom else "")
    return FiniteAlgebra(
        size=n, imp=imp, top=m, delta=delta,
        bottom=0 if with_bottom else None, label=label,
    )


def trivial_algebra() -> FiniteAlgebra:
    """The one-element algebra (carries both delta and bottom)."""
    return FiniteAlgebra(size=1, imp=((0,),), top=0, delta=(0,), bottom=0, label="1")


# ---------------------------------------------------------------------------
# Basic operations
# ---------------------------------------------------------------------------

def imp_k(A: FiniteAlgebra, x: int, y: int, k: int) -> int:
    """k-fold iterated implication x ->_k y."""
    if k < 0:
        raise AlgebraError("iterated implication needs k >= 0")
    out = y
    row = A.imp[x]
    for _ in range(k):
        out = row[out]
    return out


def tarskian_elements(A: FiniteAlgebra) -> tuple[int, ...]:
    """Elements t with t->y = t->(t->y) for every y."""
    out = []
    for t in range(A.size):
        row = A.imp[t]
        if all(row[y] == row[row[y]] for y in range(A.size)):
            out.append(t)
    return tuple(out)


def t_below(A: FiniteAlgebra, x: int) -> tuple[int, ...]:
    """Tarskian elements below x."""
    return tuple(t for t in tarskian_elements(A) if A.leq(t, x))


class CheckReport(Record):
    """Outcome of an exhaustive check: law names with least witnesses."""
    passed: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    def __bool__(self) -> bool:
        return self.passed

    @staticmethod
    def from_violations(violations) -> "CheckReport":
        vs = tuple(violations)
        return CheckReport(passed=not vs, violations=vs)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {"law": name, "witness": list(w)} for name, w in self.violations
            ],
        }


class DeltaSearch(Record):
    """Outcome of the delta-admissibility decision.

    Either `table` is the unique admissible delta table, or `witness` is
    the least element whose set of Tarskian lower bounds has no greatest
    element.
    """
    table: tuple[int, ...] | None
    witness: int | None

    @property
    def admissible(self) -> bool:
        return self.table is not None


def delta_admissible(A: FiniteAlgebra) -> DeltaSearch:
    """Decide whether A carries a (necessarily unique) delta operator.

    Delta(x), when it exists, is the greatest Tarskian element below x.
    """
    tarskians = tarskian_elements(A)
    table = []
    for x in range(A.size):
        tx = [t for t in tarskians if A.leq(t, x)]
        greatest = None
        for cand in tx:
            if all(A.leq(t, cand) for t in tx):
                greatest = cand
                break
        if greatest is None:
            return DeltaSearch(table=None, witness=x)
        table.append(greatest)
    return DeltaSearch(table=tuple(table), witness=None)


def with_delta(A: FiniteAlgebra, table) -> FiniteAlgebra:
    return FiniteAlgebra(
        size=A.size, imp=A.imp, top=A.top, delta=tuple(table),
        bottom=A.bottom, label=A.label,
    )


def min_n(A: FiniteAlgebra) -> int | None:
    """Least n >= 2 such that (x ->_{n-1} y) v x = top everywhere.

    Searched up to carrier size + 1; None when nothing passes (possible
    only for tables outside the n-valued classes).
    """
    for n in range(2, A.size + 2):
        if least_witness(A.size, 2, lambda x, y: A.join(imp_k(A, x, y, n - 1), x) == A.top) is None:
            return n
    return None


def least_witness(size: int, arity: int, holds) -> tuple[int, ...] | None:
    """The least tuple of `arity` carrier indices, in lexicographic order,
    at which `holds(*tuple)` is false; None when it holds everywhere.

    Every hand-written check that reports or raises at a witness sweeps
    through here, so each one names the least witness.
    """
    for witness in iter_product(range(size), repeat=arity):
        if not holds(*witness):
            return witness
    return None


# ---------------------------------------------------------------------------
# Products, subalgebras, homomorphisms
# ---------------------------------------------------------------------------

def _common_signature(algebras) -> tuple[bool, bool]:
    has_delta = [a.delta is not None for a in algebras]
    has_bottom = [a.bottom is not None for a in algebras]
    if len(set(has_delta)) > 1 or len(set(has_bottom)) > 1:
        raise SignatureError("operands mix delta/bottom signatures")
    return (has_delta[0], has_bottom[0]) if algebras else (True, True)


def product(algebras: list[FiniteAlgebra]) -> FiniteAlgebra:
    """Componentwise product; tuple index encoding is mixed-radix with the
    last factor fastest (index = (..(i0*s1 + i1)*s2 ..) + i_last)."""
    if not algebras:
        return trivial_algebra()
    has_delta, has_bottom = _common_signature(algebras)
    sizes = [a.size for a in algebras]
    total = 1
    for s in sizes:
        total *= s
    coords = list(iter_product(*[range(s) for s in sizes]))
    index_of = {c: i for i, c in enumerate(coords)}
    imp = tuple(
        tuple(
            index_of[tuple(a.imp[u[j]][v[j]] for j, a in enumerate(algebras))]
            for v in coords
        )
        for u in coords
    )
    top = index_of[tuple(a.top for a in algebras)]
    delta = None
    if has_delta:
        delta = tuple(
            index_of[tuple(a.delta[u[j]] for j, a in enumerate(algebras))]
            for u in coords
        )
    bottom = index_of[tuple(a.bottom for a in algebras)] if has_bottom else None
    label = " x ".join(a.label or "?" for a in algebras)
    return FiniteAlgebra(size=total, imp=imp, top=top, delta=delta, bottom=bottom, label=label)


def subuniverse(seeds, imps, delta=None):
    """Generate the subuniverse of the seeds X, Sg(X) = X u E(X) u E^2(X) u ...

    `imps(u, vs)` returns the lists [u -> v for v in vs] and
    [v -> u for v in vs]; `delta(u)`, when given, is the unary operation.
    The closure is semi-naive: element i, in discovery order, is paired in
    both directions with the elements j < i and with itself, so every
    ordered pair is computed once.

    Returns (elems, rows, drow, how): the elements in discovery order,
    rows[i][j] = the discovery index of elems[i] -> elems[j], drow[i] that
    of delta(elems[i]) (drow is None without delta), and how[i], the first
    derivation of elems[i]: ("seed", s) for seeds[s], ("imp", a, b) for
    elems[a] -> elems[b], ("delta", a) for delta(elems[a]).
    """
    elems, rows, how = [], [], []
    index = {}
    get = index.get

    def discover(e, origin):
        k = index[e] = len(elems)
        elems.append(e)
        rows.append([])
        how.append(origin)
        return k

    for s, e in enumerate(seeds):
        if e not in index:
            discover(e, ("seed", s))
    drow = None if delta is None else []
    i = 0
    while i < len(elems):
        u = elems[i]
        fwd, back = imps(u, elems[:i + 1])
        row = rows[i]
        # the origin tuples are built only for new elements
        for j, uv, vu, row_v in zip(range(i), fwd, back, rows):
            k = get(uv)
            row.append(discover(uv, ("imp", i, j)) if k is None else k)
            k = get(vu)
            row_v.append(discover(vu, ("imp", j, i)) if k is None else k)
        k = get(fwd[i])
        row.append(discover(fwd[i], ("imp", i, i)) if k is None else k)
        if delta is not None:
            r = delta(u)
            k = get(r)
            drow.append(discover(r, ("delta", i)) if k is None else k)
        i += 1
    return elems, rows, drow, how


def _generate(A: FiniteAlgebra, gens):
    """`subuniverse` on A's tables, seeded with top, bottom (when it is a
    constant) and then gens."""
    imp = A.imp

    def imps(u, vs):
        row = imp[u]
        return [row[v] for v in vs], [imp[v][u] for v in vs]

    constants = [A.top] if A.bottom is None else [A.top, A.bottom]
    return subuniverse([*constants, *gens], imps,
                       None if A.delta is None else A.delta.__getitem__)


def subalgebra_closure(A: FiniteAlgebra, seed) -> tuple[int, ...]:
    """Least subuniverse containing `seed`: closed under ->, delta (when
    present), and containing top (and bottom when it is a constant)."""
    return tuple(sorted(_generate(A, seed)[0]))


def restrict_to(A: FiniteAlgebra, elements, label: str = "") -> tuple[FiniteAlgebra, dict[int, int]]:
    """Reindex a subuniverse as a standalone algebra; returns (B, old->new)."""
    elems = tuple(sorted(elements))
    index = {e: i for i, e in enumerate(elems)}
    imp = tuple(tuple(index[A.imp[x][y]] for y in elems) for x in elems)
    delta = tuple(index[A.delta[x]] for x in elems) if A.delta is not None else None
    bottom = index[A.bottom] if A.bottom is not None else None
    B = FiniteAlgebra(
        size=len(elems), imp=imp, top=index[A.top], delta=delta,
        bottom=bottom, label=label or (A.label + "|sub" if A.label else "sub"),
    )
    return B, index


def _generating_closure(A: FiniteAlgebra):
    """A greedy generating set, each generator the least element the
    previous ones miss, and `_generate`'s closure of it."""
    gens: list[int] = []
    closure = _generate(A, gens)
    while len(closure[0]) < A.size:
        gens.append(min(set(range(A.size)) - set(closure[0])))
        closure = _generate(A, gens)
    return gens, closure


def generating_set(A: FiniteAlgebra) -> tuple[int, ...]:
    """A small (greedy, not necessarily minimum) generating set."""
    return tuple(_generating_closure(A)[0])


def homomorphisms(A: FiniteAlgebra, B: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All homomorphisms A -> B, as image tuples indexed by A's carrier.

    Enumerates generator images; each candidate is forced by replaying in
    B the first derivation of every element of A, and then verified
    against the full tables.
    """
    _common_signature([A, B])
    gens, (elems, _, _, how) = _generating_closure(A)
    # discovery index of each element of A, in carrier order
    position = sorted(range(A.size), key=elems.__getitem__)
    constants = [B.top] if B.bottom is None else [B.top, B.bottom]
    found = []
    for images in iter_product(range(B.size), repeat=len(gens)):
        seeds = [*constants, *images]
        values = []
        for step in how:
            if step[0] == "imp":
                values.append(B.imp[values[step[1]]][values[step[2]]])
            elif step[0] == "delta":
                values.append(B.delta[values[step[1]]])
            else:
                values.append(seeds[step[1]])
        h = list(map(values.__getitem__, position))
        # top is a seed of every replay, bottom only when it differs from top
        if A.bottom is not None and h[A.bottom] != B.bottom:
            continue
        if A.delta is not None and list(map(B.delta.__getitem__, h)) != list(map(h.__getitem__, A.delta)):
            continue
        if all(list(map(B.imp[hx].__getitem__, h)) == list(map(h.__getitem__, row))
               for hx, row in zip(h, A.imp)):
            found.append(tuple(h))
    return sorted(found)


def epimorphisms(A: FiniteAlgebra, B: FiniteAlgebra) -> list[tuple[int, ...]]:
    return [h for h in homomorphisms(A, B) if len(set(h)) == B.size]


def is_isomorphic(A: FiniteAlgebra, B: FiniteAlgebra) -> tuple[int, ...] | None:
    """A bijective homomorphism A -> B, or None."""
    if A.size != B.size:
        return None
    try:
        _common_signature([A, B])
    except SignatureError:
        return None
    for h in homomorphisms(A, B):
        if len(set(h)) == A.size:
            return h
    return None
