"""Finite implication-algebra kernel.

A FiniteAlgebra packs a carrier {0..N-1}, an implication table, an optional
delta table, a distinguished top and an optional bottom.  The order is always
*derived* from the table (x <= y iff x->y = top), never assumed from index
order.  All values are immutable and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product as iter_product


class AlgebraError(Exception):
    """Base error for algebra construction and queries."""


class SignatureError(AlgebraError):
    """Operands have incompatible optional operations (delta / bottom)."""


class SizeGuardError(AlgebraError):
    """An enumeration was refused because the carrier exceeds its guard."""


class ConfigurationError(AlgebraError):
    """A required table (e.g. delta) is missing for the requested check."""


class DegenerateInputError(AlgebraError):
    """The operation needs a nontrivial algebra."""


class InternalConsistencyError(AlgebraError):
    """A structural fact that should hold by construction failed to hold."""


@dataclass(frozen=True)
class FiniteAlgebra:
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
        if any(not (0 <= v < n) for row in self.imp for v in row):
            raise AlgebraError("imp entry out of carrier range")
        if not (0 <= self.top < n):
            raise AlgebraError("top out of carrier range")
        if self.delta is not None:
            object.__setattr__(self, "delta", tuple(self.delta))
            if len(self.delta) != n or any(not (0 <= v < n) for v in self.delta):
                raise AlgebraError("delta table malformed")
        if self.bottom is not None:
            if not (0 <= self.bottom < n):
                raise AlgebraError("bottom out of carrier range")
            if any(self.imp[self.bottom][x] != self.top for x in range(n)):
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
        return FiniteAlgebra(
            size=data["size"],
            imp=tuple(tuple(row) for row in data["imp"]),
            top=data["top"],
            delta=tuple(data["delta"]) if data.get("delta") is not None else None,
            bottom=data.get("bottom"),
            label=data.get("label", ""),
        )

    @staticmethod
    def from_json(text: str) -> "FiniteAlgebra":
        return FiniteAlgebra.from_dict(json.loads(text))


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
    imp = tuple(tuple(min(m, m - i + j) for j in range(n)) for i in range(n))
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

def imp_k(A: FiniteAlgebra, x: int, y: int, k: int, assert_stable_at: int | None = None) -> int:
    """k-fold iterated implication x ->_k y.

    `assert_stable_at` = n-1 checks the stabilization x ->_{n-1} y =
    x ->_n y expected of n-valued algebras, raising on violation.
    """
    if k < 0:
        raise AlgebraError("iterated implication needs k >= 0")
    out = y
    row = A.imp[x]
    for _ in range(k):
        out = row[out]
    if assert_stable_at is not None and k >= assert_stable_at:
        stable = imp_k(A, x, y, assert_stable_at)
        if row[stable] != stable:
            raise InternalConsistencyError(
                f"iterated implication not stable at k={assert_stable_at} for ({x}, {y})"
            )
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


@dataclass(frozen=True)
class DeltaSearch:
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
        if _level_ok(A, n):
            return n
    return None


def _level_ok(A: FiniteAlgebra, n: int) -> bool:
    for x in range(A.size):
        for y in range(A.size):
            if A.join(imp_k(A, x, y, n - 1), x) != A.top:
                return False
    return True


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


def subalgebra_closure(A: FiniteAlgebra, seed) -> tuple[int, ...]:
    """Least subuniverse containing `seed`: closed under ->, delta (when
    present), and containing top (and bottom when it is a constant)."""
    return tuple(sorted(e for e, _ in _closure_plan(A, seed)))


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


def generating_set(A: FiniteAlgebra) -> tuple[int, ...]:
    """A small (greedy, not necessarily minimum) generating set."""
    gens: list[int] = []
    closed = set(subalgebra_closure(A, gens))
    while len(closed) < A.size:
        e = min(set(range(A.size)) - closed)
        gens.append(e)
        closed = set(subalgebra_closure(A, gens))
    return tuple(gens)


def _closure_plan(A: FiniteAlgebra, gens):
    """Discovery plan for the subuniverse generated by gens + constants.

    Returns a list of (element, op) where op explains how the element is
    first reached: ('const', c) | ('gen', i) | ('imp', a, b) | ('delta', a).
    """
    plan = []
    seen = set()

    def add(e, how):
        if e not in seen:
            seen.add(e)
            plan.append((e, how))

    add(A.top, ("const", A.top))
    if A.bottom is not None:
        add(A.bottom, ("const", A.bottom))
    for i, g in enumerate(gens):
        add(g, ("gen", i))
    frontier = 0
    while frontier < len(plan):
        x = plan[frontier][0]
        frontier += 1
        for y, _ in tuple(plan):
            add(A.imp[x][y], ("imp", x, y))
            add(A.imp[y][x], ("imp", y, x))
        if A.delta is not None:
            add(A.delta[x], ("delta", x))
    return plan


def homomorphisms(A: FiniteAlgebra, B: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All homomorphisms A -> B, as image tuples indexed by A's carrier.

    Backtracks over generator images; each candidate extension is forced by
    the closure plan and then verified against the full tables.
    """
    _common_signature([A, B])
    gens = generating_set(A)
    plan = _closure_plan(A, gens)
    if len(plan) != A.size:
        raise InternalConsistencyError("generating set does not generate")
    found = []
    for images in iter_product(range(B.size), repeat=len(gens)):
        h: list[int | None] = [None] * A.size
        ok = True
        for e, how in plan:
            if how[0] == "const":
                v = B.top if e == A.top else B.bottom
            elif how[0] == "gen":
                v = images[how[1]]
            elif how[0] == "imp":
                v = B.imp[h[how[1]]][h[how[2]]]
            else:
                v = B.delta[h[how[1]]]
            if h[e] is None:
                h[e] = v
            elif h[e] != v:
                ok = False
                break
        if not ok:
            continue
        # full verification with early abort
        for x in range(A.size):
            hx = h[x]
            if A.delta is not None and B.delta[hx] != h[A.delta[x]]:
                ok = False
                break
            impx = A.imp[x]
            brow = B.imp[hx]
            for y in range(A.size):
                if brow[h[y]] != h[impx[y]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
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
