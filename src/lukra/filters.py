"""Implicative filters, congruences, quotients, and simple-algebra tools.

Filters are up-sets closed under modus ponens; they correspond bijectively
to congruences via R(F) = {(x, y) : x -> y and y -> x in F}.  Every filter
is the join of the principal filters of its elements, so enumeration closes
the at most N principal filters under joins, starting from {top}; a size
guard on the carrier still protects the general case.  The derived queries
(maximal, tied, simplicity, subdirect embedding) read one enumerated list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .algebra import (
    ConfigurationError,
    DegenerateInputError,
    FiniteAlgebra,
    InternalConsistencyError,
    SizeGuardError,
    imp_k,
    is_isomorphic,
    make_chain,
    min_n,
    product,
)
from .laws import CheckReport

FILTER_GUARD = 12


@dataclass(frozen=True)
class Filter:
    """An implicative filter with optional classification flags."""
    elements: tuple[int, ...]
    implicative: bool = True
    delta: bool | None = None
    maximal: bool | None = None
    tied_to: int | None = None


@dataclass(frozen=True)
class Congruence:
    """A partition compatible with the operations; partition[x] is x's block."""
    partition: tuple[int, ...]

    @property
    def block_count(self) -> int:
        return max(self.partition) + 1

    def blocks(self) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for x, b in enumerate(self.partition):
            out[b].append(x)
        return [tuple(b) for b in out]

    def block_of(self, x: int) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.partition) if b == self.partition[x])


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

def describe_filter(A: FiniteAlgebra, S, guard: int = FILTER_GUARD,
                    force: bool = False) -> Filter:
    """Classify a subset as a Filter record with all kind flags filled.

    `tied_to` is the least element the filter is tied to, when any.
    """
    elements = tuple(sorted(set(S)))
    implicative = is_implicative_filter(A, elements)
    delta = is_delta_filter(A, elements) if A.delta is not None else None
    filters = all_filters(A, guard=guard, force=force)
    maximal = elements in _maximal(A, filters)
    tied = None
    if implicative:
        tied = next((p for p in range(A.size) if elements in _tied(filters, p)), None)
    return Filter(elements=elements, implicative=implicative, delta=delta,
                  maximal=maximal, tied_to=tied)


def is_implicative_filter(A: FiniteAlgebra, S) -> bool:
    members = set(S)
    if A.top not in members:
        return False
    return all(
        A.imp[x][y] not in members or y in members
        for x in members
        for y in range(A.size)
    )


def filter_generated(A: FiniteAlgebra, S) -> tuple[int, ...]:
    """Least implicative filter containing S (fixpoint of MP closure)."""
    members = set(S) | {A.top}
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


def k_weak_mp_closed(A: FiniteAlgebra, F, k: int) -> bool:
    """Closure under x, x ->_k y ==> y."""
    members = set(F)
    return all(
        y in members
        for x in members
        for y in range(A.size)
        if imp_k(A, x, y, k) in members
    )


def _upsets(A: FiniteAlgebra) -> list[frozenset[int]]:
    """Retired up-set search; lukra no longer calls it.

    The name stays only because the benchmark's tracing shim
    (lukrabench/shim.py) looks it up; it goes with the next benchmark change.
    """
    return []


def all_filters(A: FiniteAlgebra, guard: int = FILTER_GUARD, force: bool = False) -> list[tuple[int, ...]]:
    """Every implicative filter, sorted; guarded against large carriers.

    Breadth-first join-closure of the principal filters from {top}: a
    filter F is reached by joining in <x> for the elements x of F one at a
    time, and a join of filters is again one.
    """
    if A.size > guard and not force:
        raise SizeGuardError(
            f"filter enumeration on {A.size} elements exceeds guard {guard}; "
            "pass force=True (or raise the guard) to override"
        )
    principal = sorted({filter_generated(A, (x,)) for x in range(A.size)})
    found = [(A.top,)]
    seen = set(found)
    for f in found:
        members = set(f)
        for p in principal:
            if not members.issuperset(p):
                g = filter_generated(A, members.union(p))
                if g not in seen:
                    seen.add(g)
                    found.append(g)
    return sorted(found)


def _maximal(A: FiniteAlgebra, filters) -> list[tuple[int, ...]]:
    """The maximal proper filters among `filters`, in their order."""
    proper = [(f, set(f)) for f in filters if len(f) < A.size]
    return [f for f, s in proper if not any(s < t for _, t in proper)]


def _tied(filters, p: int) -> list[tuple[int, ...]]:
    """The filters D without p whose strictly larger filters all contain p,
    among `filters`, in their order."""
    sets = [set(f) for f in filters]
    return [
        f for f, d in zip(filters, sets)
        if p not in d and all(p in g for g in sets if d < g)
    ]


def maximal_filters(A: FiniteAlgebra, guard: int = FILTER_GUARD, force: bool = False) -> list[tuple[int, ...]]:
    """Maximal proper implicative filters."""
    return _maximal(A, all_filters(A, guard=guard, force=force))


def tied_filters(A: FiniteAlgebra, p: int, guard: int = FILTER_GUARD, force: bool = False) -> list[tuple[int, ...]]:
    """Filters D with p not in D such that every strictly larger filter has p."""
    return _tied(all_filters(A, guard=guard, force=force), p)


def check_tied_iff_maximal(A: FiniteAlgebra, guard: int = FILTER_GUARD, force: bool = False) -> CheckReport:
    """Tied-to-some-element and maximal coincide (exhaustive comparison)."""
    filters = all_filters(A, guard=guard, force=force)
    maximal = set(_maximal(A, filters))
    tied = {f for p in range(A.size) for f in _tied(filters, p)}
    violations = []
    for f in sorted(tied - maximal):
        violations.append(("tied-not-maximal", f))
    for f in sorted(maximal - tied):
        violations.append(("maximal-not-tied", f))
    return CheckReport.from_violations(violations)


def is_delta_filter(A: FiniteAlgebra, F) -> bool:
    """Both delta-filter clauses, exhaustively.

    (i) membership is preserved by delta; (ii) whenever z is Tarskian
    modulo F -- (z->(z->y))->(z->y) in F for *every* y -- and z->x is in
    F, then z->delta(x) is in F.  The all-y reading of the hypothesis is
    the one that matches the quasi-identity it mirrors; a per-y reading
    would reject the trivial filter on every chain.
    """
    if A.delta is None:
        raise ConfigurationError("is_delta_filter needs a delta table")
    members = set(F)
    if not is_implicative_filter(A, members):
        return False
    if any(A.delta[x] not in members for x in members):
        return False
    for z in range(A.size):
        row = A.imp[z]
        if any(A.imp[row[row[y]]][row[y]] not in members for y in range(A.size)):
            continue
        for x in range(A.size):
            if row[x] in members and row[A.delta[x]] not in members:
                return False
    return True


# ---------------------------------------------------------------------------
# Congruences and quotients
# ---------------------------------------------------------------------------

def congruence_of(A: FiniteAlgebra, F) -> Congruence:
    """The congruence R(F) = {(x, y) : x->y and y->x in F}.

    The plain arrow is the correct relation here: both-way iterated
    implications land in every filter for too many pairs (e.g. the middle
    and bottom of a 3-chain against the trivial filter), which would break
    R(|1|) = identity.  Transitivity and op-compatibility follow from L2,
    L15 and delta-closedness of implicative filters.
    """
    members = set(F)
    if not is_implicative_filter(A, members):
        raise ConfigurationError("congruence_of needs an implicative filter")
    related = [
        [A.imp[x][y] in members and A.imp[y][x] in members for y in range(A.size)]
        for x in range(A.size)
    ]
    partition = [-1] * A.size
    blocks = 0
    for x in range(A.size):
        if partition[x] == -1:
            for y in range(x, A.size):
                if related[x][y]:
                    partition[y] = blocks
            blocks += 1
    # equivalence sanity: related elements must relate to the same things
    for x in range(A.size):
        leader = partition.index(partition[x])
        if related[x] != related[leader]:
            raise InternalConsistencyError(
                f"filter relation is not an equivalence at {x}"
            )
    return Congruence(partition=tuple(partition))


def quotient(A: FiniteAlgebra, F) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Quotient algebra by the filter F plus the projection map.

    Well-definedness of the quotient tables is checked over every pair of
    representatives, not assumed.
    """
    cong = congruence_of(A, F)
    part = cong.partition
    nblocks = cong.block_count
    reps = [part.index(b) for b in range(nblocks)]
    imp_table = [[part[A.imp[reps[i]][reps[j]]] for j in range(nblocks)] for i in range(nblocks)]
    for x in range(A.size):
        for y in range(A.size):
            if part[A.imp[x][y]] != imp_table[part[x]][part[y]]:
                raise InternalConsistencyError(
                    f"quotient implication ill-defined at ({x}, {y})"
                )
    delta_table = None
    if A.delta is not None:
        delta_table = [part[A.delta[r]] for r in reps]
        for x in range(A.size):
            if part[A.delta[x]] != delta_table[part[x]]:
                raise InternalConsistencyError(f"quotient delta ill-defined at {x}")
    Q = FiniteAlgebra(
        size=nblocks,
        imp=tuple(tuple(row) for row in imp_table),
        top=part[A.top],
        delta=tuple(delta_table) if delta_table is not None else None,
        bottom=part[A.bottom] if A.bottom is not None else None,
        label=(A.label + "/F") if A.label else "quotient",
    )
    return Q, part


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


# ---------------------------------------------------------------------------
# Subdirect decomposition and simplicity
# ---------------------------------------------------------------------------

def subdirect_embedding(A: FiniteAlgebra, guard: int = FILTER_GUARD, force: bool = False):
    """Embed A into the product of its quotients by maximal filters.

    Returns (product algebra, embedding as a tuple of product indices).
    The embedding is verified injective and surjective per coordinate.
    """
    if A.size < 2:
        raise DegenerateInputError("subdirect embedding needs a nontrivial algebra")
    maxes = maximal_filters(A, guard=guard, force=force)
    quotients = [quotient(A, m) for m in maxes]
    P = product([q for q, _ in quotients])
    sizes = [q.size for q, _ in quotients]
    emb = []
    for x in range(A.size):
        idx = 0
        for (q, proj), s in zip(quotients, sizes):
            idx = idx * s + proj[x]
        emb.append(idx)
    if len(set(emb)) != A.size:
        raise InternalConsistencyError("subdirect embedding is not injective")
    for coord, (q, proj) in enumerate(quotients):
        if len(set(proj)) != q.size:
            raise InternalConsistencyError("projection not surjective")
    return P, tuple(emb)


def classify_simple(A: FiniteAlgebra, guard: int = FILTER_GUARD, force: bool = False):
    """(k, isomorphism onto the k-chain with delta) when A is simple, else None.

    Simplicity is read off the filter lattice ({top} is the only proper
    filter); the witness isomorphism is found by direct search.
    """
    if A.delta is None:
        raise ConfigurationError("classify_simple expects a delta algebra")
    proper = [f for f in all_filters(A, guard=guard, force=force) if len(f) < A.size]
    if A.size < 2 or proper != [(A.top,)]:
        return None
    target = make_chain(A.size, with_delta=True, with_bottom=A.bottom is not None)
    iso = is_isomorphic(A, target)
    if iso is None:
        raise InternalConsistencyError(
            "simple algebra is not isomorphic to the chain of its size"
        )
    return A.size, iso


# ---------------------------------------------------------------------------
# Moisil possibility-operator families
# ---------------------------------------------------------------------------

def _moisil_violation(A: FiniteAlgebra, deltas, n: int):
    """First violation of the family axioms ML1-ML5b and ML7-ML18.

    `deltas[i-1]` is the i-th operator, i = 1..n.  The duplicated axiom
    label in the source axiom list is split into ML5a / ML5b.
    """
    N = A.size
    J = range(1, n + 1)

    def d(i, x):
        return deltas[i - 1][x]

    size_range = range(N)
    # ML1: d1 x -> y == x ->_n y
    for x in size_range:
        for y in size_range:
            if A.imp[d(1, x)][y] != imp_k(A, x, y, n):
                return ("ML1", (x, y))
    # ML2: d_i x v (d_i x -> y) == top
    for i in J:
        for x in size_range:
            dx = d(i, x)
            for y in size_range:
                if A.join(dx, A.imp[dx][y]) != A.top:
                    return (f"ML2[i={i}]", (x, y))
    # ML3: d_i (d_j x -> d_j y) == d_j x -> d_j y, outer i over the genuine
    # operators 1..n-1.  At i = n the law contradicts ML4/ML5b, which force
    # the n-th operator to be constantly top (it cannot fix 0).
    for i in range(1, n):
        for j in J:
            for x in size_range:
                for y in size_range:
                    v = A.imp[d(j, x)][d(j, y)]
                    if d(i, v) != v:
                        return (f"ML3[i={i},j={j}]", (x, y))
    # ML4: (d1 x -> d1 y) -> (... -> ((dn x -> dn y) -> (x -> y)) ...) == top
    for x in size_range:
        for y in size_range:
            acc = A.imp[x][y]
            for i in reversed(list(J)):
                acc = A.imp[A.imp[d(i, x)][d(i, y)]][acc]
            if acc != A.top:
                return ("ML4", (x, y))
    # ML5a: d_i y -> (d_j x v d_k (x -> y)) == top, 1 <= i <= j + k
    for j in J:
        for k in J:
            for i in range(1, min(n, j + k) + 1):
                for x in size_range:
                    for y in size_range:
                        body = A.join(d(j, x), d(k, A.imp[x][y]))
                        if A.imp[d(i, y)][body] != A.top:
                            return (f"ML5a[i={i},j={j},k={k}]", (x, y))
    # ML5b: d_i (x -> y) -> (d_k x -> d_j y) == top, 1 <= i <= j - k + 1
    for j in J:
        for k in J:
            for i in range(1, min(n, j - k + 1) + 1):
                for x in size_range:
                    for y in size_range:
                        if A.imp[d(i, A.imp[x][y])][A.imp[d(k, x)][d(j, y)]] != A.top:
                            return (f"ML5b[i={i},j={j},k={k}]", (x, y))
    # ML7: d_j top == top
    for j in J:
        if d(j, A.top) != A.top:
            return (f"ML7[j={j}]", (A.top,))
    # ML8: d_1 x <= d_2 x <= ... <= d_{n-1} x
    for j in range(1, n - 1):
        for x in size_range:
            if not A.leq(d(j, x), d(j + 1, x)):
                return (f"ML8[j={j}]", (x,))
    # ML9: d_j x -> (d_j x -> y) == d_j x -> y
    for j in J:
        for x in size_range:
            dx = d(j, x)
            for y in size_range:
                if A.imp[dx][A.imp[dx][y]] != A.imp[dx][y]:
                    return (f"ML9[j={j}]", (x, y))
    # ML10: d_j x -> y == d_j x ->_n y
    for j in J:
        for x in size_range:
            dx = d(j, x)
            for y in size_range:
                if A.imp[dx][y] != imp_k(A, dx, y, n):
                    return (f"ML10[j={j}]", (x, y))
    # ML11: (d_j x -> y) -> d_j x == d_j x
    for j in J:
        for x in size_range:
            dx = d(j, x)
            for y in size_range:
                if A.imp[A.imp[dx][y]][dx] != dx:
                    return (f"ML11[j={j}]", (x, y))
    # ML12: d_1 (x -> y) -> (d_j x -> d_j y) == top.  The bare-antecedent
    # printing of this law fails for the crisp operator itself (x = top,
    # y = middle of a 3-chain); this is the i=1, k=j instance of ML5b.
    for j in J:
        for x in size_range:
            for y in size_range:
                if A.imp[d(1, A.imp[x][y])][A.imp[d(j, x)][d(j, y)]] != A.top:
                    return (f"ML12[j={j}]", (x, y))
    # ML13: x <= y implies d_j x <= d_j y
    for j in J:
        for x in size_range:
            for y in size_range:
                if A.leq(x, y) and not A.leq(d(j, x), d(j, y)):
                    return (f"ML13[j={j}]", (x, y))
    # ML14: d_1 x <= x
    for x in size_range:
        if not A.leq(d(1, x), x):
            return ("ML14", (x,))
    # ML15: d_j x <= d_j y for all j implies x <= y
    for x in size_range:
        for y in size_range:
            if all(A.leq(d(j, x), d(j, y)) for j in J) and not A.leq(x, y):
                return ("ML15", (x, y))
    # ML16: d_k d_j x == d_j x; outer k over 1..n-1 for the same reason as ML3
    for k in range(1, n):
        for j in J:
            for x in size_range:
                if d(k, d(j, x)) != d(j, x):
                    return (f"ML16[k={k},j={j}]", (x,))
    # ML17: x <= d_{n-1} x
    if n >= 2:
        for x in size_range:
            if not A.leq(x, d(n - 1, x)):
                return ("ML17", (x,))
    # ML18: x ->_n d_1 x == top  (the bare-implication printing of this law
    # contradicts ML14 on any nontrivial chain; the iterated form is what
    # the rest of the family supports)
    for x in size_range:
        if imp_k(A, x, d(1, x), n) != A.top:
            return ("ML18", (x,))
    return None


def moisil_check(A: FiniteAlgebra, deltas, n: int | None = None) -> CheckReport:
    """Verify a family of n possibility operators: ML1-ML5b and ML7-ML18."""
    if n is None:
        n = min_n(A)
        if n is None:
            raise ConfigurationError("no level n found; pass n explicitly")
    if len(deltas) != n:
        raise ConfigurationError(f"expected {n} operator tables, got {len(deltas)}")
    deltas = [tuple(t) for t in deltas]
    if any(len(t) != A.size for t in deltas):
        raise ConfigurationError("operator table has wrong length")
    bad = _moisil_violation(A, deltas, n)
    return CheckReport.from_violations([bad] if bad else [])


MOISIL_GUARD = 8


def moisil_search(A: FiniteAlgebra, delta1, n: int | None = None,
                  full: bool = False, guard: int = MOISIL_GUARD):
    """Search for operators d_2..d_n completing delta1 to a family.

    The default search runs over order-preserving tables with values in the
    set B = {e : e v (e -> y) = top for all y} (which any solution must use)
    and prunes by the pointwise chain d_i <= d_{i+1} and by ML17 at the
    (n-1)-th operator; `full=True` drops the monotone/chain pruning.
    Candidate families are accepted against the whole law suite (ML1-ML5b
    plus the consequences ML7-ML18): the axiom literals alone admit
    degenerate families, e.g. with the crisp operator repeated.  Returns
    the first family in deterministic order, or None.
    """
    if A.size > guard:
        raise SizeGuardError(f"moisil search limited to {guard} elements")
    if n is None:
        n = min_n(A)
        if n is None:
            raise ConfigurationError("no level n found; pass n explicitly")
    delta1 = tuple(delta1)
    boolean = [
        e for e in range(A.size)
        if all(A.join(e, A.imp[e][y]) == A.top for y in range(A.size))
    ]
    candidates = _tables_into(A, boolean, monotone=not full)
    chosen: list[tuple[int, ...]] = [delta1]

    def rec(i: int):
        if i > n:
            if _moisil_violation(A, chosen, n) is None:
                return list(chosen)
            return None
        for t in candidates:
            if not full and i <= n - 1 and not all(
                A.leq(chosen[-1][x], t[x]) for x in range(A.size)
            ):
                continue
            if not full and i == n - 1 and not all(
                A.leq(x, t[x]) for x in range(A.size)
            ):
                continue
            chosen.append(t)
            got = rec(i + 1)
            if got is not None:
                return got
            chosen.pop()
        return None

    return rec(2)


def _tables_into(A: FiniteAlgebra, values, monotone: bool):
    """All unary tables with entries in `values`, optionally order-preserving."""
    out = []
    for combo in iter_product(values, repeat=A.size):
        if monotone and any(
            A.leq(x, y) and not A.leq(combo[x], combo[y])
            for x in range(A.size)
            for y in range(A.size)
        ):
            continue
        out.append(tuple(combo))
    return out
