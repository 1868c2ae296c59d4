"""Free algebras on m generators for the n-valued delta classes.

The free algebra is realized concretely: every simple algebra is a chain
with delta of size k <= n, so the free algebra on m generators is the
closure of the m "evaluation tuples" inside the product over all chains
of size 2 <= k <= n and all valuations of the generators into them.
Chains below n must be included as codomains in their own right: the
crisp operator on a k-subchain of the n-chain disagrees with the ambient
one, so valuations into the n-chain alone would under-generate.  The
closure is `algebra.subuniverse`, the one that also serves subalgebras and
homomorphisms, run on vectors packed into ints by `algebra._Packing`, the
chain kernel the logic decisions run on too.

Cardinalities admit a closed form via inclusion-exclusion over the
principal up-sets of the delta'd generators; the correction sum of the
printed recurrence conflates its indices, so both a repaired and a
literal reading are implemented and an independent counting oracle
adjudicates between them.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import comb, log10
from operator import itemgetter

from .algebra import (
    AlgebraError,
    FiniteAlgebra,
    InternalConsistencyError,
    SIZE_GUARD,
    SizeGuardError,
    _Packing,
    check_table_size,
    epimorphisms,
    make_chain,
    restrict_to,
    subalgebra_closure,
    subuniverse,
)
from .records import Record


class FormulaReadingError(AlgebraError):
    """A cardinality-recurrence mode produced an impossible intermediate."""


class SizeBreakdown(Record):
    """Closed-form cardinality of the free algebra, with its ingredients.

    beta[(i, k)] is the exponent of i in |N_k|; nk[k-1] = |N_k|; the total
    is the alternating binomial sum over k = 1..m.
    """
    n: int
    m: int
    mode: str
    beta: dict[tuple[int, int], int]
    nk: tuple[int, ...]
    total: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "beta": [
                {"i": i, "k": k, "value": v}
                for (i, k), v in sorted(self.beta.items())
            ],
            "nk": list(self.nk),
            "terms": [
                (-1) ** (k + 1) * comb(self.m, k) * self.nk[k - 1]
                for k in range(1, self.m + 1)
            ],
            "total": self.total,
        }


class FreeAlgebra(Record):
    """The free algebra plus its concrete coordinates.

    `vectors[e]` is element e's tuple over the ambient product; coordinate
    c lives in the chain of size `coord_sizes[c]`.  Coordinates are laid
    out chain size ascending, valuations in lexicographic order of the
    generator images, so carriers are reproducible across runs.
    """
    n: int
    m: int
    algebra: FiniteAlgebra
    generators: tuple[int, ...]
    coord_sizes: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]

    def generator_valuation(self) -> dict[str, int]:
        return {f"g{i + 1}": g for i, g in enumerate(self.generators)}


def size_formula(n: int, m: int, mode: str = "repaired") -> SizeBreakdown:
    """Evaluate the cardinality formula.

    `repaired` reads the correction sum of the exponent recurrence as
    running over j with (j-1) | (i-1), j != i -- the analogue of the
    epimorphism-count recurrence; `literal` keeps the printed condition
    (j-1) | (k-1), j != k, restricted to already-computed j < i so it is
    computable at all.  Negative intermediates raise FormulaReadingError.

    An (n, m) whose |N_1| has more digits than the interpreter prints of
    an int (`sys.get_int_max_str_digits`) is refused with SizeGuardError,
    as soon as the exponents computed so far show it and before any |N_k|
    is multiplied out.
    """
    if n < 2 or m < 1:
        raise AlgebraError("need n >= 2 and m >= 1")
    if mode not in ("repaired", "literal"):
        raise AlgebraError(f"unknown mode {mode!r}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # log10 of the sum of beta_i * log10 i over the exponents so far for
    # k = 1; every beta is >= 0, so the sum bounds the digits of |N_1| from
    # below.  Kept as a log, since a beta can be far past the float range.
    log_digits = float("-inf")
    beta: dict[tuple[int, int], int] = {}
    nk = []
    for k in range(1, m + 1):
        for i in range(2, n + 1):
            lead = (i - 1) ** k * i ** (m - k)
            if mode == "repaired":
                corr = sum(
                    beta[(j, k)]
                    for j in range(2, i)
                    if (i - 1) % (j - 1) == 0
                )
            else:
                corr = sum(
                    beta[(j, k)]
                    for j in range(2, i)
                    if k == 1 or (j != k and (k - 1) % (j - 1) == 0)
                )
            value = lead - corr
            if value < 0:
                raise FormulaReadingError(
                    f"beta_{i}({k}) = {value} < 0 under mode {mode!r}"
                )
            beta[(i, k)] = value
            if k == 1 and limit and value:
                term = log10(value) + log10(log10(i))
                high, low = max(log_digits, term), min(log_digits, term)
                log_digits = high + log10(1 + 10 ** (low - high))
                if log_digits > log10(limit):
                    bound = f"{10 ** log_digits:.0f}" if log_digits < 15 else f"10^{log_digits:.2f}"
                    raise SizeGuardError(
                        f"|N_1| at n={n}, m={m} has at least {bound} digits, "
                        f"past the interpreter's limit of {limit} digits for printing an int")
        size = 1
        for i in range(2, n + 1):
            size *= i ** beta[(i, k)]
        nk.append(size)
    total = sum(
        (-1) ** (k + 1) * comb(m, k) * nk[k - 1] for k in range(1, m + 1)
    )
    return SizeBreakdown(n=n, m=m, mode=mode, beta=beta, nk=tuple(nk), total=total)


def v_formula(m: int, k: int) -> int:
    """Epimorphism count onto the k-chain from the free bounded algebra on
    m generators: k^m minus the counts for the subchains (j-1) | (k-1)."""
    if k < 2:
        raise AlgebraError("need k >= 2")

    @lru_cache(maxsize=None)
    def v(kk: int) -> int:
        return kk**m - sum(
            v(j) for j in range(2, kk) if (kk - 1) % (j - 1) == 0
        )

    return v(k)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_free(n: int, m: int, guard: int = SIZE_GUARD) -> FreeAlgebra:
    """Construct the free algebra on m generators at level n.

    Refuses when the predicted implication table, size_formula(n, m).total
    squared entries, exceeds `guard`.  Each (n, m) is built once per
    process, whatever the guard it was first asked under.
    """
    check_table_size(size_formula(n, m).total, guard)
    return _build_free(n, m)


@lru_cache(maxsize=None)
def _build_free(n: int, m: int) -> FreeAlgebra:
    """The unguarded construction behind build_free.

    Elements are packed ints (see `algebra._Packing`), one run of k^m
    coordinates per chain L_k, the valuations of the generators into L_k
    in lexicographic order: generator i is `_Packing.digit(i)`, the table
    the logic decisions take for a variable.  One implication over all
    coordinates is a handful of int operations.  The closure is
    `algebra.subuniverse` over `_Packing.imps`, whose discovery-order rows
    are the table, every ordered pair computed once; the table is then
    permuted into sorted order.  The result is checked for nothing here;
    tests confirm it satisfies the variety checks and the structure lemmas.
    """
    P = _Packing((k, k**m) for k in range(2, n + 1))
    packed_gens = [P.digit(i) for i in range(m)]
    # discovery order: top first, then the generators
    elems, rows, delta, _ = subuniverse([P.MM, *packed_gens], P.imps, P.delta)
    size = len(elems)
    order = sorted(range(size), key=elems.__getitem__)
    rank = [0] * size
    for new, old in enumerate(order):
        rank[old] = new
    # itemgetter returns a tuple for two or more keys; size >= 2 (top, g1)
    columns = itemgetter(*order)

    def sorted_rows():
        # drop each discovery-order row once its sorted tuple exists, so the
        # two tables are never held whole at the same time
        for old in order:
            row, rows[old] = rows[old], None
            yield tuple(map(rank.__getitem__, columns(row)))

    algebra = FiniteAlgebra(
        size=size,
        imp=tuple(sorted_rows()),
        top=rank[0],
        delta=tuple(rank[delta[old]] for old in order),
        label=f"Free(n={n},m={m})",
    )
    return FreeAlgebra(
        n=n, m=m, algebra=algebra,
        generators=tuple(rank[elems.index(p)] for p in packed_gens),
        coord_sizes=tuple(k for k, count in P.runs for _ in range(count)),
        vectors=tuple(P.unpack(elems[old]) for old in order),
    )


# callers clear the build cache through the public name
build_free.cache_clear = _build_free.cache_clear


def minimal_elements(F: FreeAlgebra) -> tuple[int, ...]:
    """Minimal elements of the free algebra's derived order.

    Verifies the structure facts on the way out: the minimal elements are
    exactly the delta'd generators, and the carrier is the union of the
    intervals [delta g, top].  Read from the delta'd generators' rows and
    columns alone: when every element lies above one of them and nothing
    but itself lies below each, the order being reflexive, they are exactly
    the minimal elements.  The whole order is read only to word a failure.
    """
    A = F.algebra
    dgens = tuple(sorted({A.delta[g] for g in F.generators}))
    covered = {x for dg in dgens for x, t in enumerate(A.imp[dg]) if t == A.top}
    columns = ([row[dg] for row in A.imp] for dg in dgens)
    if len(covered) == A.size and all(col.count(A.top) == 1 for col in columns):
        return dgens
    mins = A.minimal_elements()
    if mins != dgens:
        raise InternalConsistencyError(
            f"minimal elements {mins} differ from delta'd generators {dgens}"
        )
    raise InternalConsistencyError(
        "carrier is not the union of the up-intervals over delta'd generators"
    )


def upset_Nk(F: FreeAlgebra, k: int) -> tuple[int, ...]:
    """The principal up-set above delta(g_1 v ... v g_k).

    Verified to be a subuniverse whose least element is that join's delta.
    """
    if not (1 <= k <= F.m):
        raise AlgebraError(f"k must be in 1..{F.m}")
    A = F.algebra
    gstar = F.generators[0]
    for g in F.generators[1:k]:
        gstar = A.join(gstar, g)
    dg = A.delta[gstar]
    members = A.above[dg]
    if subalgebra_closure(A, members) != members:
        raise InternalConsistencyError("up-set not closed under -> and delta")
    if any(not A.leq(dg, x) for x in members) or dg not in members:
        raise InternalConsistencyError("least element missing from up-set")
    return members


def beta_oracle(n: int, m: int, k: int, i: int, free: FreeAlgebra | None = None) -> int:
    """Count maximal implicative filters of N_k whose quotient is the
    i-element chain with delta.

    Every such filter is the kernel of an epimorphism onto that chain (the
    quotient by a maximal filter is simple, and the chains are rigid), so
    the count equals the epimorphism count; kernels are checked distinct.
    """
    if free is None:
        free = build_free(n, m)
    if not (2 <= i <= n):
        raise AlgebraError(f"i must be in 2..{n}")
    nk = upset_Nk(free, k)
    sub, _ = restrict_to(free.algebra, nk, label=f"N_{k}")
    target = make_chain(i, with_delta=True)
    epis = epimorphisms(sub, target)
    kernels = {
        frozenset(x for x in range(sub.size) if h[x] == target.top)
        for h in epis
    }
    if len(kernels) != len(epis):
        raise InternalConsistencyError("distinct epis share a kernel")
    return len(epis)
