import time
from itertools import combinations

import pytest

from lukra.algebra import (
    ConfigurationError,
    DegenerateInputError,
    SizeGuardError,
    imp_k,
    is_isomorphic,
    make_chain,
    min_n,
    product,
    restrict_to,
    subalgebra_closure,
    trivial_algebra,
    with_delta,
)
from lukra.catalog import chain_with_broken_delta, five_element_non_admissible
import lukra.filters
from lukra.filters import (
    all_filters,
    check_tied_iff_maximal,
    classify_simple,
    congruence_of,
    congruences,
    filter_generated,
    is_delta_filter,
    is_implicative_filter,
    k_weak_mp_closed,
    maximal_filters,
    moisil_check,
    moisil_search,
    quotient,
    subdirect_embedding,
    tied_filters,
)
from test_acceptance import _criterion5_algebras


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
        assert all_filters(A, force=True) == upset_filters(A)


def test_filters_of_wide_products():
    # the up-set search found no result for L3^4 within 300 s
    start = time.perf_counter()
    for k, factors, count in [(3, 4, 16), (2, 6, 64)]:
        P = product([make_chain(k, with_delta=True)] * factors)
        fs = all_filters(P, force=True)
        assert len(fs) == count
        assert all(is_implicative_filter(P, f) for f in fs)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"wide-product filters took {elapsed:.2f}s"


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
    assert all_filters(P, force=True)
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
