import random
import time
from itertools import combinations, product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from lukra.algebra import (
    AlgebraError,
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
    restrict_to,
    subalgebra_closure,
    tarskian_elements,
    trivial_algebra,
    with_delta,
)
import lukra.filters
from lukra.laws import check_LRdelta_quasi
from lukra.filters import (
    all_filters,
    check_tied_iff_maximal,
    classify_simple,
    congruence_of,
    filter_generated,
    is_delta_filter,
    is_implicative_filter,
    maximal_filters,
    moisil_check,
    moisil_search,
    quotient,
    subdirect_embedding,
    tied_filters,
)
from catalog import chain_with_broken_delta, five_element_non_admissible
import oracles
from oracles import congruences, k_weak_mp_closed
from test_acceptance import _criterion5_algebras
from test_laws import random_tables


@pytest.fixture(scope="module")
def small_product():
    return product([make_chain(3, with_delta=True), make_chain(2, with_delta=True)])


def brute_force_filters(A):
    """Oracle: sweep every subset containing top (small carriers only)."""
    rest = [x for x in range(A.size) if x != A.top]
    found = []
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            s = set(combo) | {A.top}
            if is_implicative_filter(A, s):
                found.append(tuple(sorted(s)))
    return sorted(found)


def upset_filters(A):
    """Oracle: the up-set search all_filters replaced.

    Every filter is an up-set containing top, so a DFS over the elements
    ordered top-down (an element may join only once everything above it
    has) lists the candidates, and the implicative ones are kept.
    """
    order = sorted(range(A.size), key=lambda x: (len(A.above[x]), x))
    upsets: list[frozenset[int]] = []
    chosen: set[int] = set()

    def rec(i: int):
        if i == len(order):
            upsets.append(frozenset(chosen))
            return
        e = order[i]
        if all(y in chosen for y in A.above[e] if y != e):
            chosen.add(e)
            rec(i + 1)
            chosen.remove(e)
        if e != A.top:
            rec(i + 1)

    rec(0)
    return sorted(tuple(sorted(s)) for s in upsets if is_implicative_filter(A, s))


def test_filter_basics():
    L3 = make_chain(3, with_delta=True)
    assert is_implicative_filter(L3, {2})
    assert not is_implicative_filter(L3, {1, 2})     # 1/2, 1/2->0 in, but 0 out
    assert not is_implicative_filter(L3, {0, 1})     # top missing
    assert filter_generated(L3, ()) == (2,)
    # MP closure of {1/2} sweeps up the whole chain: 1/2 -> 0 = 1/2
    assert filter_generated(L3, {1}) == (0, 1, 2)


def test_all_filters_against_brute_force(small_product):
    for A in (make_chain(4, with_delta=True), small_product,
              five_element_non_admissible()):
        assert all_filters(A) == brute_force_filters(A)


def test_all_filters_against_upset_search():
    P = product([make_chain(4, with_delta=True), make_chain(2, with_delta=True)])
    algebras = _criterion5_algebras()
    algebras += [restrict_to(P, subalgebra_closure(P, (x,)))[0] for x in range(P.size)]
    for A in algebras:
        assert all_filters(A, guard=None) == upset_filters(A)


def test_filters_of_wide_products():
    # the up-set search found no result for L3^4 within 300 s
    start = time.perf_counter()
    for k, factors, count in [(3, 4, 16), (2, 6, 64)]:
        P = product([make_chain(k, with_delta=True)] * factors)
        fs = all_filters(P, guard=None)
        assert len(fs) == count
        assert all(is_implicative_filter(P, f) for f in fs)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"wide-product filters took {elapsed:.2f}s"


def _seeded_tables(seed: int, count: int) -> list[FiniteAlgebra]:
    """Random in-range tables of 1-9 elements, mostly outside the variety;
    every third has a row of top (a bottom) and some a row mostly of top."""
    rng = random.Random(seed)
    tables = []
    for i in range(count):
        n = rng.randint(1, 9)
        top = rng.randrange(n)
        imp = [[top if rng.random() < 0.3 * (i % 3) else rng.randrange(n) for _ in range(n)]
               for _ in range(n)]
        bottom = rng.randrange(n) if i % 3 == 0 else None
        if bottom is not None:
            imp[bottom] = [top] * n
        tables.append(FiniteAlgebra(size=n, imp=imp, top=top, bottom=bottom))
    return tables


@pytest.mark.parametrize("A", [
    *(make_chain(k, with_delta=True) for k in (2, 3, 7)),
    make_chain(5),
    product([make_chain(3, with_delta=True), make_chain(2, with_delta=True)]),
    product([make_chain(4), make_chain(3), make_chain(2)]),
    product([make_chain(3, with_delta=True)] * 3),
    product([make_chain(2, with_delta=True)] * 6),
    chain_with_broken_delta(),
    five_element_non_admissible(),
    *_seeded_tables(601, 60),
])
def test_filters_match_the_whole_fixpoint(A):
    # all_filters joins each filter with its least principal filters outside
    # it, closing from the filter; the oracle reran the fixpoint on every join
    assert all_filters(A, guard=None) == oracles.all_filters(A)
    for x in range(A.size):
        assert filter_generated(A, (x,)) == oracles.filter_generated(A, (x,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_filter_generated_matches_the_whole_fixpoint(data):
    A = data.draw(random_tables(8))
    S = data.draw(st.lists(st.integers(0, A.size - 1), max_size=A.size + 1))
    assert filter_generated(A, S) == oracles.filter_generated(A, S)
    assert all_filters(A, guard=None) == oracles.all_filters(A)


def test_filter_enumeration_closes_few_sets(monkeypatch):
    # L2^6 has 64 filters; joining each with every principal filter outside
    # it took 3432 fixpoints, its least principal filters take 257 closures
    calls = []
    closure = lukra.filters._closure
    monkeypatch.setattr(lukra.filters, "_closure", lambda *a: calls.append(1) or closure(*a))
    assert len(all_filters(product([make_chain(2, with_delta=True)] * 6), guard=None)) == 64
    assert len(calls) == 257


def test_filter_queries_enumerate_once(monkeypatch, small_product):
    calls = []
    enumerate_filters = lukra.filters.all_filters

    def counting(*args, **kwargs):
        calls.append(1)
        return enumerate_filters(*args, **kwargs)

    monkeypatch.setattr(lukra.filters, "all_filters", counting)
    lukra.filters.describe_filter(small_product, (small_product.top,))
    assert len(calls) == 1
    calls.clear()
    assert check_tied_iff_maximal(small_product).passed
    assert len(calls) == 1


def test_filter_guard():
    P = product([make_chain(4, with_delta=True), make_chain(4, with_delta=True)])
    with pytest.raises(SizeGuardError):
        all_filters(P)
    assert all_filters(P, guard=None)
    assert all_filters(P, guard=16)


def test_k_weak_mp():
    A = make_chain(4, with_delta=True)
    for f in all_filters(A):
        for k in range(5):
            assert k_weak_mp_closed(A, f, k)
    assert k_weak_mp_closed(A, (3,), 0)
    # a non-MP-closed set fails for some k
    assert not k_weak_mp_closed(A, (1, 3), 1)


def test_maximal_and_tied(small_product):
    for n in range(2, 7):
        assert maximal_filters(make_chain(n, with_delta=True)) == [(n - 1,)]
    L3 = make_chain(3, with_delta=True)
    assert tied_filters(L3, 1) == [(2,)]
    assert tied_filters(L3, 2) == []
    assert check_tied_iff_maximal(small_product).passed


def test_tied_iff_maximal_on_subalgebras():
    P = product([make_chain(4, with_delta=True), make_chain(2, with_delta=True)])
    seen = set()
    for x in range(P.size):
        sub_elems = subalgebra_closure(P, (x,))
        if sub_elems in seen:
            continue
        seen.add(sub_elems)
        sub, _ = restrict_to(P, sub_elems)
        assert check_tied_iff_maximal(sub).passed


def test_congruence_filter_galois(small_product):
    A = small_product
    for f in all_filters(A):
        cong = congruence_of(A, f)
        top_block = tuple(sorted(
            x for x in range(A.size)
            if cong.partition[x] == cong.partition[A.top]
        ))
        assert top_block == f
    for cong in congruences(A):
        f = tuple(sorted(
            x for x in range(A.size)
            if cong.partition[x] == cong.partition[A.top]
        ))
        assert is_implicative_filter(A, f)
        assert congruence_of(A, f).partition == cong.partition


def test_congruences_ignore_delta(small_product):
    plain = {c.partition for c in congruences(small_product, respect_delta=False)}
    delta = {c.partition for c in congruences(small_product, respect_delta=True)}
    assert plain == delta


def test_congruence_rejects_non_filter():
    with pytest.raises(ConfigurationError):
        congruence_of(make_chain(3), (0, 2))


def test_quotients(small_product):
    A = small_product
    # kernel of the first projection
    ker = tuple(x for x in range(A.size) if x // 2 == 2)
    Q, proj = quotient(A, ker)
    assert is_isomorphic(Q, make_chain(3, with_delta=True)) is not None
    assert proj[A.top] == Q.top
    Qt, proj_t = quotient(A, (A.top,))
    assert is_isomorphic(Qt, A) is not None
    # quotients keep the variety checks (closure under quotients)
    from lukra.laws import check_LR, check_LRn, check_delta

    for f in all_filters(A):
        Q, _ = quotient(A, f)
        assert check_LR(Q).passed
        assert check_LRn(Q, 3).passed
        assert check_delta(Q, 3).passed


def test_quotient_by_maximal_collapses_iterated_implication(small_product):
    # non-members of a maximal filter map to non-top elements whose
    # (n-1)-iterated implication to anything is top
    A = small_product
    n = min_n(A)
    for M in maximal_filters(A):
        Q, proj = quotient(A, M)
        for x in range(A.size):
            if x in M:
                continue
            assert proj[x] != Q.top
            for y in range(Q.size):
                assert imp_k(Q, proj[x], y, n - 1) == Q.top


def test_delta_filters():
    for n in range(2, 6):
        A = make_chain(n, with_delta=True)
        for f in all_filters(A):
            assert is_delta_filter(A, f)
    bad = chain_with_broken_delta(3)
    assert not is_delta_filter(bad, (2,))
    with pytest.raises(ConfigurationError):
        is_delta_filter(make_chain(3), (2,))


def test_subdirect_embedding(small_product):
    P, emb = subdirect_embedding(small_product)
    assert P.size == small_product.size
    assert sorted(emb) == list(range(P.size))     # an isomorphism here
    A = make_chain(4, with_delta=True)
    P, emb = subdirect_embedding(A)
    assert P.size == 4 and len(set(emb)) == 4
    with pytest.raises(DegenerateInputError):
        subdirect_embedding(trivial_algebra())


def test_classify_simple(small_product):
    got = classify_simple(make_chain(5, with_delta=True))
    assert got is not None and got[0] == 5 and got[1] == (0, 1, 2, 3, 4)
    assert classify_simple(small_product) is None
    assert classify_simple(with_delta(trivial_algebra(), (0,))) is None


def test_free_algebra_subdirect_coordinates():
    from lukra.freealg import build_free

    F = build_free(3, 1)
    ms = maximal_filters(F.algebra)
    assert len(ms) == 2
    sizes = sorted(quotient(F.algebra, M)[0].size for M in ms)
    assert sizes == [2, 3]
    # two maximal filters, so the six-element free algebra is not simple
    assert classify_simple(F.algebra) is None


def test_moisil_families():
    for n in range(2, 6):
        A = make_chain(n, with_delta=True)
        fam = moisil_search(A, A.delta, n=n)
        assert fam is not None
        assert moisil_check(A, fam, n=n).passed
        if n >= 3:
            thresholds = [
                tuple((n - 1 if x + i >= n else 0) for x in range(n))
                for i in range(1, n + 1)
            ]
            assert fam == thresholds


def test_moisil_negative_fixtures():
    A = make_chain(3, with_delta=True)
    rep = moisil_check(A, [(2, 2, 2)] * 3, n=3)
    assert not rep.passed
    fam = moisil_search(A, A.delta, n=3)
    rep = moisil_check(A, [(0, 2, 2)] + list(fam[1:]), n=3)
    assert not rep.passed and rep.violations[0][0] == "ML1"
    with pytest.raises(ConfigurationError):
        moisil_check(A, [A.delta], n=3)
    with pytest.raises(SizeGuardError):
        moisil_search(make_chain(9, with_delta=True), make_chain(9, with_delta=True).delta, n=9)


def test_describe_filter():
    from lukra.filters import describe_filter

    L3 = make_chain(3, with_delta=True)
    rec = describe_filter(L3, (2,))
    assert rec.implicative and rec.delta and rec.maximal and rec.tied_to == 0
    whole = describe_filter(L3, (0, 1, 2))
    assert whole.implicative and not whole.maximal and whole.tied_to is None
    junk = describe_filter(L3, (1, 2))
    assert not junk.implicative


@pytest.mark.parametrize("check, S, bad", [
    ("describe_filter", (-1, 2), -1),
    ("describe_filter", (2, 5), 5),
    ("filter_generated", (-1,), -1),
    ("is_implicative_filter", (2, 3), 3),
    ("is_delta_filter", (-2, 2), -2),
])
def test_filter_sets_outside_the_carrier_are_refused(check, S, bad):
    # a negative index would otherwise read a row from the end of the table
    with pytest.raises(AlgebraError, match=rf"^filter element {bad} is outside the carrier 0\.\.2$"):
        getattr(lukra.filters, check)(make_chain(3, with_delta=True), S)


def _outcome(check, A, S):
    """The answer, or the type and message of the error raised."""
    try:
        return check(A, S)
    except AlgebraError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_implicative_filter_is_its_own_closure(data):
    # any in-range tables; a random set, an MP closure (a filter) or a set
    # with an element outside the carrier
    A = data.draw(random_tables(8))
    S = data.draw(st.lists(st.integers(0, A.size - 1), max_size=A.size + 1))
    kind = data.draw(st.sampled_from(["set", "closure", "outside"]))
    if kind == "closure":
        S = list(filter_generated(A, S))
    elif kind == "outside":
        S.insert(data.draw(st.integers(0, len(S))), data.draw(st.sampled_from(
            [-2, -1, A.size, A.size + 1])))
    assert (_outcome(is_implicative_filter, A, S)
            == _outcome(oracles.is_implicative_filter, A, S))


# ---------------------------------------------------------------------------
# Oracles for the checks that sweep through algebra.least_witness: the
# loops they replaced
# ---------------------------------------------------------------------------

def reference_moisil_violation(A, deltas, n: int):
    """Oracle: the loop-per-law checker `_moisil_laws` replaced; the first
    violation of the family axioms ML1-ML5b and ML7-ML18.

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


def reference_moisil_search(A, delta1, n: int):
    """Oracle: the search `moisil_search` replaced, over every
    order-preserving table built up front by `reference_tables_into`."""
    delta1 = tuple(delta1)
    boolean = [
        e for e in range(A.size)
        if all(A.join(e, A.imp[e][y]) == A.top for y in range(A.size))
    ]
    candidates = reference_tables_into(A, boolean)
    chosen: list[tuple[int, ...]] = [delta1]

    def rec(i: int):
        if i > n:
            if reference_moisil_violation(A, chosen, n) is None:
                return list(chosen)
            return None
        for t in candidates:
            if i <= n - 1 and not all(
                A.leq(chosen[-1][x], t[x]) for x in range(A.size)
            ):
                continue
            if i == n - 1 and not all(
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


def reference_tables_into(A, values):
    """All order-preserving unary tables with entries in `values`."""
    out = []
    for combo in iter_product(values, repeat=A.size):
        if any(
            A.leq(x, y) and not A.leq(combo[x], combo[y])
            for x in range(A.size)
            for y in range(A.size)
        ):
            continue
        out.append(tuple(combo))
    return out


def reference_dlr3(A):
    """Oracle: the DLR3 loop of check_LRdelta_quasi, as (name, witness) or None."""
    tarskians = set(tarskian_elements(A))
    for z in range(A.size):
        if z not in tarskians:
            continue
        for x in range(A.size):
            if A.leq(z, x) and not A.leq(z, A.delta[x]):
                return ("DLR3", (z, x))
    return None


def reference_min_n(A):
    """Oracle: min_n with its per-level loop."""
    for n in range(2, A.size + 2):
        if all(A.join(imp_k(A, x, y, n - 1), x) == A.top
               for x in range(A.size) for y in range(A.size)):
            return n
    return None


def least_witness_min_n(A):
    """Oracle: min_n as a `least_witness` sweep of x ->_{n-1} y from
    scratch at each level, quartic in the carrier."""
    for n in range(2, A.size + 2):
        if least_witness(A.size, 2, lambda x, y: A.join(imp_k(A, x, y, n - 1), x) == A.top) is None:
            return n
    return None


def reference_quotient(A, F):
    """Oracle: quotient with the loops of its well-definedness checks and
    of congruence_of's equivalence and reflexivity check (F must be an
    implicative filter)."""
    members = set(F)
    related = [
        [A.imp[x][y] in members and A.imp[y][x] in members for y in range(A.size)]
        for x in range(A.size)
    ]
    part = [-1] * A.size
    blocks = 0
    for x in range(A.size):
        if part[x] == -1:
            for y in range(x, A.size):
                if related[x][y]:
                    part[y] = blocks
            blocks += 1
    for x in range(A.size):
        if not related[x][x] or related[x] != related[part.index(part[x])]:
            raise InternalConsistencyError(f"filter relation is not an equivalence at {x}")
    part = tuple(part)
    blocks = max(part) + 1
    reps = [part.index(b) for b in range(blocks)]
    imp_table = [[part[A.imp[reps[i]][reps[j]]] for j in range(blocks)] for i in range(blocks)]
    for x in range(A.size):
        for y in range(A.size):
            if part[A.imp[x][y]] != imp_table[part[x]][part[y]]:
                raise InternalConsistencyError(f"quotient implication ill-defined at ({x}, {y})")
    delta_table = None
    if A.delta is not None:
        delta_table = [part[A.delta[r]] for r in reps]
        for x in range(A.size):
            if part[A.delta[x]] != delta_table[part[x]]:
                raise InternalConsistencyError(f"quotient delta ill-defined at {x}")
    return imp_table, delta_table, part


def random_algebra(rng, size, imp=None):
    """An algebra with a random delta table, on `imp` or on a random
    in-range implication table with a random top."""
    carrier = range(size)
    if imp is None:
        imp = FiniteAlgebra(size=size, top=rng.randrange(size),
                            imp=[[rng.randrange(size) for _ in carrier] for _ in carrier])
    return with_delta(imp, [rng.randrange(size) for _ in carrier])


def moisil_corpus():
    """(algebra, level, family) triples for the differential Moisil test.

    The algebras are L2-L6, L2^2, L3 x L2, L2^3, the five-element
    non-admissible algebra, a chain with a broken delta and 30 random
    tables of at most 5 elements; the levels are 2..5.  At each, the
    families are the index thresholds d_i(x) = top iff x + i >= N (the
    family of a chain at its own level), 20 copies of it with one entry
    changed, the identity-completed families of delta, the identity and
    three random tables, and 10 random families.
    """
    rng = random.Random(10)
    chain = lambda k: make_chain(k, with_delta=True)
    algebras = [chain(k) for k in range(2, 7)]
    algebras += [product([chain(2), chain(2)]), product([chain(3), chain(2)]),
                 product([chain(2)] * 3), five_element_non_admissible(),
                 chain_with_broken_delta(3)]
    algebras += [random_algebra(rng, rng.randint(1, 5)) for _ in range(30)]
    for A in algebras:
        N = A.size
        identity = tuple(range(N))

        def table():
            return tuple(rng.randrange(N) for _ in range(N))

        for n in range(2, 6):
            thresholds = [tuple(A.top if x + i >= N else 0 for x in range(N))
                          for i in range(1, n + 1)]
            yield A, n, thresholds
            for _ in range(20):
                family = [list(t) for t in thresholds]
                family[rng.randrange(n)][rng.randrange(N)] = rng.randrange(N)
                yield A, n, family
            for first in [A.delta, identity, table(), table(), table()]:
                if first is not None:
                    yield A, n, [first] + [identity] * (n - 1)
            for _ in range(10):
                yield A, n, [table() for _ in range(n)]


def test_moisil_check_matches_the_loop_per_law_checker():
    first_failures = set()
    count = 0
    for A, n, family in moisil_corpus():
        expected = reference_moisil_violation(A, [tuple(t) for t in family], n)
        report = moisil_check(A, family, n=n)
        assert report.violations == ((expected,) if expected else ()), (A.label, n, family)
        first_failures.add(expected[0].split("[")[0] if expected else None)
        count += 1
    assert count >= 5000
    # the corpus reaches passing families and first failures at every axiom
    # and at ML7, ML11 and ML17; the other consequences are nearly always
    # caught by an earlier law first, on random tables too
    assert first_failures >= {None, "ML1", "ML2", "ML3", "ML4", "ML5a", "ML5b",
                              "ML7", "ML11", "ML17"}


@pytest.mark.parametrize("A", [make_chain(k, with_delta=True) for k in range(2, 7)] + [
    product([make_chain(2, with_delta=True)] * 2),
    product([make_chain(3, with_delta=True), make_chain(2, with_delta=True)]),
    product([make_chain(2, with_delta=True), make_chain(3, with_delta=True)]),
], ids=lambda A: A.label)
def test_moisil_search_matches_the_eager_search(A):
    n = min_n(A)
    assert moisil_search(A, A.delta, n=n) == reference_moisil_search(A, A.delta, n)
    identity = tuple(range(A.size))
    assert moisil_search(A, identity, n=n) == reference_moisil_search(A, identity, n)


def test_moisil_search_on_eight_elements_within_budget():
    # the eager search built all 8^8 candidate tables here and took 42 s
    L2 = make_chain(2, with_delta=True)
    start = time.perf_counter()
    family = moisil_search(product([L2] * 3), product([L2] * 3).delta)
    elapsed = time.perf_counter() - start
    assert family == [tuple(range(8))] * 2
    assert elapsed < 5.0, f"moisil search on L2^3 took {elapsed:.2f}s"


@pytest.fixture(scope="module")
def random_delta_algebras():
    """Algebras of at most 6 elements with random delta tables: on chains,
    on products of chains, on the five-element algebra and on random
    implication tables; and one 3-element table whose quotient by its
    filter (0, 2) has an ill-defined implication."""
    rng = random.Random(6)
    tables = [make_chain(k) for k in range(2, 7)]
    tables += [product([make_chain(2)] * 2), product([make_chain(3), make_chain(2)]),
               product([make_chain(2), make_chain(3)]), five_element_non_admissible()]
    algebras = [random_algebra(rng, A.size, A) for A in tables for _ in range(12)]
    algebras += [random_algebra(rng, rng.randint(1, 6)) for _ in range(150)]
    algebras.append(FiniteAlgebra.from_dict(
        {"size": 3, "top": 2, "imp": [[0, 1, 2], [1, 2, 0], [2, 1, 2]], "delta": [1, 0, 2]}))
    return algebras


def test_dlr3_matches_its_loop(random_delta_algebras):
    hits = 0
    for A in random_delta_algebras:
        expected = reference_dlr3(A)
        got = [v for v in check_LRdelta_quasi(A).violations if v[0] == "DLR3"]
        assert got == ([expected] if expected else [])
        hits += expected is not None
    assert hits >= 20


def test_min_n_matches_its_loop(random_delta_algebras):
    levels = [min_n(A) for A in random_delta_algebras]
    assert levels == [reference_min_n(A) for A in random_delta_algebras]
    assert None in levels and len(set(levels)) >= 4


def test_min_n_matches_its_least_witness_sweep():
    # chains, products of chains, each of them with one imp entry changed
    # (ten times), and seeded tables of 1-9 elements; most of the changed
    # and seeded tables are outside the variety
    rng = random.Random(34)
    algebras = [make_chain(k) for k in range(2, 13)]
    algebras += [product([make_chain(a), make_chain(b)])
                 for a, b in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (5, 2)]]
    algebras += [product([make_chain(2)] * 3), product([make_chain(3), make_chain(2)] * 2)]
    for A in list(algebras):
        for _ in range(10):
            imp = [list(row) for row in A.imp]
            imp[rng.randrange(A.size)][rng.randrange(A.size)] = rng.randrange(A.size)
            algebras.append(FiniteAlgebra(size=A.size, imp=imp, top=A.top))
    algebras += [random_algebra(rng, rng.randint(1, 9)) for _ in range(300)]
    levels = [min_n(A) for A in algebras]
    assert levels == [least_witness_min_n(A) for A in algebras]
    assert None in levels and len(set(levels)) >= 12


def outcome(run, *args):
    """run(*args), or the error it raised as (type name, message)."""
    try:
        return run(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_quotient_matches_its_loops(random_delta_algebras):
    def by_quotient(A, F):
        Q, part = quotient(A, F)
        return [list(r) for r in Q.imp], None if Q.delta is None else list(Q.delta), part

    messages = set()
    for A in random_delta_algebras:
        for F in all_filters(A):
            assert is_implicative_filter(A, F), (A, F)
            got = outcome(by_quotient, A, F)
            assert got == outcome(reference_quotient, A, F), (A, F)
            if got[0] == "InternalConsistencyError":
                messages.add(got[1].split(" at ")[0])
    assert messages == {"filter relation is not an equivalence",
                        "quotient implication ill-defined", "quotient delta ill-defined"}
