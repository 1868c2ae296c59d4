"""Implicative filters, congruences, quotients, and simple-algebra tools.

Filters are up-sets closed under modus ponens; they correspond bijectively
to congruences via R(F) = {(x, y) : x -> y and y -> x in F}.  Every filter
is the join of the least filter and the principal filters of its elements,
so enumeration closes the at most N principal filters under joins, starting
from the least filter; a size guard on the carrier still protects the
general case.  The derived queries (maximal, tied, simplicity, subdirect
embedding) read one enumerated list.
"""

from __future__ import annotations

from itertools import compress

from .algebra import (
    AlgebraError,
    CheckReport,
    ConfigurationError,
    DegenerateInputError,
    FiniteAlgebra,
    InternalConsistencyError,
    SizeGuardError,
    imp_k,
    is_isomorphic,
    least_witness,
    make_chain,
    min_n,
    product,
)
from .records import Record

FILTER_GUARD = 12


class Filter(Record):
    """An implicative filter with optional classification flags."""
    elements: tuple[int, ...]
    implicative: bool = True
    delta: bool | None = None
    maximal: bool | None = None
    tied_to: int | None = None


class Congruence(Record):
    """A partition compatible with the operations; partition[x] is x's block."""
    partition: tuple[int, ...]

    @property
    def block_count(self) -> int:
        return max(self.partition) + 1


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

def describe_filter(A: FiniteAlgebra, S, guard: int | None = FILTER_GUARD) -> Filter:
    """Classify a subset as a Filter record with all kind flags filled.

    `tied_to` is the least element the filter is tied to, when any.
    """
    elements = tuple(sorted(_members(A, S)))
    implicative = is_implicative_filter(A, elements)
    delta = is_delta_filter(A, elements) if A.delta is not None else None
    filters = all_filters(A, guard=guard)
    maximal = elements in _maximal(A, filters)
    tied = min(_ties(A, filters)[elements], default=None) if implicative else None
    return Filter(elements=elements, implicative=implicative, delta=delta,
                  maximal=maximal, tied_to=tied)


def _members(A: FiniteAlgebra, S) -> set[int]:
    """The elements of S as a set; one outside the carrier raises
    AlgebraError naming the first."""
    for x in S:
        if not 0 <= x < A.size:
            raise AlgebraError(f"filter element {x} is outside the carrier 0..{A.size - 1}")
    return set(S)


def is_implicative_filter(A: FiniteAlgebra, S) -> bool:
    """S is its own MP closure: it holds top and is closed under MP."""
    return filter_generated(A, S) == tuple(sorted(set(S)))


def filter_generated(A: FiniteAlgebra, S) -> tuple[int, ...]:
    """Least implicative filter containing S (its MP closure)."""
    return _closure(_imp_index(A), (), _members(A, S) | {A.top})


def _imp_index(A: FiniteAlgebra):
    """The pairs (x, y) of imp grouped twice, as (rows, by_value): rows[x]
    maps each value v of row x to the y with x -> y = v, and by_value[z]
    maps each x to the y with x -> y = z; each map is a (keys, ys) pair."""
    rows, by_value = [], [{} for _ in range(A.size)]
    for x, row in enumerate(A.imp):
        groups: dict[int, list[int]] = {}
        for y, v in enumerate(row):
            groups.setdefault(v, []).append(y)
        rows.append(groups)
        for v, ys in groups.items():
            by_value[v][x] = ys
    return [[(tuple(g), tuple(g.values())) for g in index] for index in (rows, by_value)]


def _closure(index, closed, new) -> tuple[int, ...]:
    """The MP closure of `closed` and `new`, sorted, where `closed` is
    MP-closed already (a filter, or empty) and `index` is the _imp_index
    of their algebra.

    Only the elements that join the set are looked at, each once: a new z
    brings in every y with z -> y in the set and every y with x -> y = z for
    an x in the set.  A pair (x, y) with x and x -> y in the set but y
    outside it has one of the two still to be looked at, so the set is
    closed when none is left.
    """
    rows, by_value = index
    members = set(closed)
    todo = [z for z in set(new) if z not in members]
    members.update(todo)
    while todo:
        z = todo.pop()
        got = set()
        for keys, ys in (rows[z], by_value[z]):
            got.update(*compress(ys, map(members.__contains__, keys)))
        got -= members
        members |= got
        todo.extend(got)
    return tuple(sorted(members))


def _upsets(A: FiniteAlgebra) -> list[frozenset[int]]:
    """Retired up-set search; lukra no longer calls it.

    The name stays only because the benchmark's tracing shim
    (lukrabench/shim.py) looks it up; it goes with the next benchmark change.
    """
    return []


def all_filters(A: FiniteAlgebra, guard: int | None = FILTER_GUARD) -> list[tuple[int, ...]]:
    """Every implicative filter, sorted; carriers above `guard` elements
    are refused unless `guard` is None.

    Breadth-first join-closure of the principal filters from the least
    filter, the MP closure of {top}, and every set listed is an MP closure,
    so a filter, also outside the variety.  A filter F is joined only with
    the least principal filters not inside F: a filter H above F holds some
    such <x>, so F < F v <x> <= H, and H is reached.  A join closes from F,
    which is closed already, so only the elements of <x> outside F and what
    they bring in are looked at.
    """
    if guard is not None and A.size > guard:
        raise SizeGuardError(
            f"filter enumeration on {A.size} elements exceeds guard {guard}; "
            "pass guard=None (or raise the guard) to override"
        )
    index = _imp_index(A)
    least = _closure(index, (), (A.top,))
    # <x> holds each y with x -> y = top, and so <y>: it closes from the
    # largest such <y> found, those with the fewest elements above first
    generated: dict[int, tuple[int, ...]] = {}
    for x in sorted(range(A.size), key=lambda x: len(A.above[x])):
        start = max((generated.get(y, least) for y in A.above[x]), key=len, default=least)
        generated[x] = _closure(index, start, (x,))
    principal = sorted(set(generated.values()))
    sets = [frozenset(p) for p in principal]
    inside = [[j for j, q in enumerate(sets) if q < p] for p in sets]
    found = [least]
    seen = set(found)
    for f in found:
        members = set(f)
        outside = [not members.issuperset(p) for p in sets]
        for p, out, below in zip(principal, outside, inside):
            if out and not any(map(outside.__getitem__, below)):
                g = _closure(index, members, p)
                if g not in seen:
                    seen.add(g)
                    found.append(g)
    return sorted(found)


def _maximal(A: FiniteAlgebra, filters) -> list[tuple[int, ...]]:
    """The maximal proper filters among `filters`, in their order."""
    proper = [(f, set(f)) for f in filters if len(f) < A.size]
    return [f for f, s in proper if not any(s < t for _, t in proper)]


def _ties(A: FiniteAlgebra, filters) -> dict[tuple[int, ...], frozenset[int]]:
    """Each filter D of `filters`, in their order, with the elements D is
    tied to: those outside D that every strictly larger filter contains."""
    sets = [frozenset(f) for f in filters]
    carrier = frozenset(range(A.size))
    return {f: carrier.intersection(*(g for g in sets if d < g)) - d
            for f, d in zip(filters, sets)}


def maximal_filters(A: FiniteAlgebra, guard: int | None = FILTER_GUARD) -> list[tuple[int, ...]]:
    """Maximal proper implicative filters."""
    return _maximal(A, all_filters(A, guard=guard))


def tied_filters(A: FiniteAlgebra, p: int, guard: int | None = FILTER_GUARD) -> list[tuple[int, ...]]:
    """Filters D with p not in D such that every strictly larger filter has p."""
    return [f for f, tied in _ties(A, all_filters(A, guard=guard)).items() if p in tied]


def check_tied_iff_maximal(A: FiniteAlgebra, guard: int | None = FILTER_GUARD) -> CheckReport:
    """Tied-to-some-element and maximal coincide (exhaustive comparison)."""
    filters = all_filters(A, guard=guard)
    maximal = set(_maximal(A, filters))
    tied = {f for f, elements in _ties(A, filters).items() if elements}
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
    members = _members(A, F)
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
    L15 and delta-closedness of implicative filters.  An element of F
    outside the carrier raises AlgebraError naming the first one.  Outside
    the variety the relation need not be an equivalence (x -> x may fall
    outside F); that is refused at the least witness.
    """
    members = _members(A, F)
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
    # equivalence sanity: every element relates to itself and to the same
    # things as the first element of its block
    bad = least_witness(A.size, 1, lambda x: related[x][x]
                        and related[x] == related[partition.index(partition[x])])
    if bad:
        raise InternalConsistencyError(f"filter relation is not an equivalence at {bad[0]}")
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
    bad = least_witness(A.size, 2, lambda x, y: part[A.imp[x][y]] == imp_table[part[x]][part[y]])
    if bad:
        raise InternalConsistencyError(f"quotient implication ill-defined at {bad}")
    delta_table = None
    if A.delta is not None:
        delta_table = [part[A.delta[r]] for r in reps]
        bad = least_witness(A.size, 1, lambda x: part[A.delta[x]] == delta_table[part[x]])
        if bad:
            raise InternalConsistencyError(f"quotient delta ill-defined at {bad[0]}")
    Q = FiniteAlgebra(
        size=nblocks,
        imp=tuple(tuple(row) for row in imp_table),
        top=part[A.top],
        delta=tuple(delta_table) if delta_table is not None else None,
        bottom=part[A.bottom] if A.bottom is not None else None,
        label=(A.label + "/F") if A.label else "quotient",
    )
    return Q, part


# ---------------------------------------------------------------------------
# Subdirect decomposition and simplicity
# ---------------------------------------------------------------------------

def subdirect_embedding(A: FiniteAlgebra, guard: int | None = FILTER_GUARD):
    """Embed A into the product of its quotients by maximal filters.

    Returns (product algebra, embedding as a tuple of product indices).
    The embedding is verified injective and surjective per coordinate.
    """
    if A.size < 2:
        raise DegenerateInputError("subdirect embedding needs a nontrivial algebra")
    maxes = maximal_filters(A, guard=guard)
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


def classify_simple(A: FiniteAlgebra, guard: int | None = FILTER_GUARD):
    """(k, isomorphism onto the k-chain with delta) when A is simple, else None.

    Simplicity is read off the filter lattice ({top} is the only proper
    filter); the witness isomorphism is found by direct search.
    """
    if A.delta is None:
        raise ConfigurationError("classify_simple expects a delta algebra")
    proper = [f for f in all_filters(A, guard=guard) if len(f) < A.size]
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

def _moisil_laws(A: FiniteAlgebra, deltas, n: int):
    """The family axioms ML1-ML5b and ML7-ML18 as (name, arity, holds)
    entries, in reporting order; each law is swept over the carrier by
    `least_witness`.

    `deltas[i-1]` is the i-th operator, i = 1..n.  The duplicated axiom
    label in the source axiom list is split into ML5a / ML5b.  Each entry
    binds its operator tables as defaults, so it keeps its own indices.
    """
    imp, top, join, leq = A.imp, A.top, A.join, A.leq
    d = (None, *deltas)  # d[i] is the i-th operator
    d1 = d[1]
    J = range(1, n + 1)

    def imp_n(x, y):
        return imp_k(A, x, y, n)

    # ML1: d1 x -> y == x ->_n y
    yield "ML1", 2, lambda x, y: imp[d1[x]][y] == imp_n(x, y)
    # ML2: d_i x v (d_i x -> y) == top
    for i in J:
        yield f"ML2[i={i}]", 2, lambda x, y, di=d[i]: join(di[x], imp[di[x]][y]) == top
    # ML3: d_i (d_j x -> d_j y) == d_j x -> d_j y, outer i over the genuine
    # operators 1..n-1.  At i = n the law contradicts ML4/ML5b, which force
    # the n-th operator to be constantly top (it cannot fix 0).
    for i in range(1, n):
        for j in J:
            yield (f"ML3[i={i},j={j}]", 2,
                   lambda x, y, di=d[i], dj=d[j]: di[imp[dj[x]][dj[y]]] == imp[dj[x]][dj[y]])

    # ML4: (d1 x -> d1 y) -> (... -> ((dn x -> dn y) -> (x -> y)) ...) == top
    def ml4(x, y):
        acc = imp[x][y]
        for i in reversed(J):
            acc = imp[imp[d[i][x]][d[i][y]]][acc]
        return acc == top

    yield "ML4", 2, ml4
    # ML5a: d_i y -> (d_j x v d_k (x -> y)) == top, 1 <= i <= j + k
    for j in J:
        for k in J:
            for i in range(1, min(n, j + k) + 1):
                yield (f"ML5a[i={i},j={j},k={k}]", 2,
                       lambda x, y, di=d[i], dj=d[j], dk=d[k]:
                       imp[di[y]][join(dj[x], dk[imp[x][y]])] == top)
    # ML5b: d_i (x -> y) -> (d_k x -> d_j y) == top, 1 <= i <= j - k + 1
    for j in J:
        for k in J:
            for i in range(1, min(n, j - k + 1) + 1):
                yield (f"ML5b[i={i},j={j},k={k}]", 2,
                       lambda x, y, di=d[i], dj=d[j], dk=d[k]:
                       imp[di[imp[x][y]]][imp[dk[x]][dj[y]]] == top)
    # ML7: d_j top == top, read as "x != top or d_j x == top" so that its
    # least witness is (top,)
    for j in J:
        yield f"ML7[j={j}]", 1, lambda x, dj=d[j]: x != top or dj[x] == top
    # ML8: d_1 x <= d_2 x <= ... <= d_{n-1} x
    for j in range(1, n - 1):
        yield f"ML8[j={j}]", 1, lambda x, dj=d[j], dk=d[j + 1]: leq(dj[x], dk[x])
    # ML9: d_j x -> (d_j x -> y) == d_j x -> y
    for j in J:
        yield f"ML9[j={j}]", 2, lambda x, y, dj=d[j]: imp[dj[x]][imp[dj[x]][y]] == imp[dj[x]][y]
    # ML10: d_j x -> y == d_j x ->_n y
    for j in J:
        yield f"ML10[j={j}]", 2, lambda x, y, dj=d[j]: imp[dj[x]][y] == imp_n(dj[x], y)
    # ML11: (d_j x -> y) -> d_j x == d_j x
    for j in J:
        yield f"ML11[j={j}]", 2, lambda x, y, dj=d[j]: imp[imp[dj[x]][y]][dj[x]] == dj[x]
    # ML12: d_1 (x -> y) -> (d_j x -> d_j y) == top.  The bare-antecedent
    # printing of this law fails for the crisp operator itself (x = top,
    # y = middle of a 3-chain); this is the i=1, k=j instance of ML5b.
    for j in J:
        yield (f"ML12[j={j}]", 2,
               lambda x, y, dj=d[j]: imp[d1[imp[x][y]]][imp[dj[x]][dj[y]]] == top)
    # ML13: x <= y implies d_j x <= d_j y
    for j in J:
        yield f"ML13[j={j}]", 2, lambda x, y, dj=d[j]: not leq(x, y) or leq(dj[x], dj[y])
    # ML14: d_1 x <= x
    yield "ML14", 1, lambda x: leq(d1[x], x)
    # ML15: d_j x <= d_j y for all j implies x <= y
    yield "ML15", 2, lambda x, y: leq(x, y) or not all(leq(d[j][x], d[j][y]) for j in J)
    # ML16: d_k d_j x == d_j x; outer k over 1..n-1 for the same reason as ML3
    for k in range(1, n):
        for j in J:
            yield f"ML16[k={k},j={j}]", 1, lambda x, dk=d[k], dj=d[j]: dk[dj[x]] == dj[x]
    # ML17: x <= d_{n-1} x
    if n >= 2:
        yield "ML17", 1, lambda x: leq(x, d[n - 1][x])
    # ML18: x ->_n d_1 x == top  (the bare-implication printing of this law
    # contradicts ML14 on any nontrivial chain; the iterated form is what
    # the rest of the family supports)
    yield "ML18", 1, lambda x: imp_n(x, d1[x]) == top


def _moisil_violation(A: FiniteAlgebra, deltas, n: int):
    """First violation of the family axioms, as (law name, least witness),
    in the order of `_moisil_laws`; None when the family passes."""
    for name, arity, holds in _moisil_laws(A, deltas, n):
        witness = least_witness(A.size, arity, holds)
        if witness:
            return (name, witness)
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
                  guard: int = MOISIL_GUARD):
    """Search for operators d_2..d_n completing delta1 to a family.

    The search runs over order-preserving tables with values in the set
    B = {e : e v (e -> y) = top for all y} (which any solution must use),
    generated lazily, and prunes by the pointwise chain d_i <= d_{i+1} and
    by ML17 at the (n-1)-th operator.
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
    chosen: list[tuple[int, ...]] = [delta1]

    def rec(i: int):
        if i > n:
            if _moisil_violation(A, chosen, n) is None:
                return list(chosen)
            return None
        allowed = [
            [v for v in boolean
             if (i == n or A.leq(chosen[-1][x], v)) and (i != n - 1 or A.leq(x, v))]
            for x in range(A.size)
        ]
        for t in _monotone_tables(A, allowed):
            chosen.append(t)
            got = rec(i + 1)
            if got is not None:
                return got
            chosen.pop()
        return None

    return rec(2)


def _monotone_tables(A: FiniteAlgebra, allowed):
    """The order-preserving unary tables t with t[x] in allowed[x], lazily
    and in lexicographic order: each position is filled by backtracking and
    checked against itself and the positions before it."""
    leq, t = A.leq, [0] * A.size

    def fill(x: int):
        if x == A.size:
            yield tuple(t)
            return
        for v in allowed[x]:
            t[x] = v
            if all((not leq(u, x) or leq(t[u], v)) and (not leq(x, u) or leq(v, t[u]))
                   for u in range(x + 1)):
                yield from fill(x + 1)

    return fill(0)
