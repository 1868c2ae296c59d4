from fractions import Fraction

import pytest

from lukra.algebra import (
    AlgebraError,
    FiniteAlgebra,
    SignatureError,
    delta_admissible,
    epimorphisms,
    generating_set,
    homomorphisms,
    imp_k,
    is_isomorphic,
    make_chain,
    min_n,
    product,
    restrict_to,
    subalgebra_closure,
    t_below,
    tarskian_elements,
    trivial_algebra,
    with_delta,
)
from lukra.catalog import five_element_non_admissible
from lukra.laws import check_delta


def lukasiewicz_imp(x: Fraction, y: Fraction) -> Fraction:
    return min(Fraction(1), 1 - x + y)


def test_chain_table_matches_unit_interval_arithmetic():
    # independent oracle: exact rational arithmetic on {0, 1/(n-1), ..., 1}
    for n in range(2, 8):
        A = make_chain(n, with_delta=True, with_bottom=True)
        for i in range(n):
            for j in range(n):
                want = lukasiewicz_imp(Fraction(i, n - 1), Fraction(j, n - 1))
                assert Fraction(A.imp[i][j], n - 1) == want
        assert A.delta == tuple([0] * (n - 1) + [n - 1])
        assert A.top == n - 1 and A.bottom == 0


def test_chain_examples():
    L2 = make_chain(2, with_delta=True)
    assert L2.imp == ((1, 1), (0, 1))          # classical implication
    assert L2.delta == (0, 1)                  # identity at n=2
    L3 = make_chain(3, with_delta=True)
    assert L3.imp[1][0] == 1 and L3.delta[1] == 0
    for n in range(2, 7):
        A = make_chain(n)
        assert A.imp[A.top] == tuple(range(n))  # top -> x = x
    with pytest.raises(AlgebraError):
        make_chain(1)


def test_imp_k():
    L3 = make_chain(3)
    assert imp_k(L3, 1, 0, 2) == 2             # 1/2 ->2 0 = 1
    for x in range(3):
        for y in range(3):
            assert imp_k(L3, x, y, 0) == y
    # stabilization at k = n-1 in the n-chain
    for n in range(2, 7):
        A = make_chain(n)
        for x in range(n):
            for y in range(n):
                v = imp_k(A, x, y, n - 1)
                for j in range(4):
                    assert imp_k(A, x, y, n - 1 + j) == v
                assert imp_k(A, x, y, n, assert_stable_at=n - 1) == v


def test_leq_join():
    L3 = make_chain(3)
    assert L3.join(0, 1) == 1
    for x in range(3):
        assert L3.leq(x, L3.top)
        assert L3.join(x, x) == x
    # join is the least upper bound in the derived order
    M = five_element_non_admissible()
    for x in range(M.size):
        for y in range(M.size):
            j = M.join(x, y)
            assert M.leq(x, j) and M.leq(y, j)
            for z in range(M.size):
                if M.leq(x, z) and M.leq(y, z):
                    assert M.leq(j, z)


def test_below_and_above_follow_the_derived_order():
    # read off the table's columns and rows; checked against leq pair by pair
    algebras = [
        trivial_algebra(),
        make_chain(4, with_delta=True),
        five_element_non_admissible(),
        product([make_chain(3, with_delta=True), make_chain(2, with_delta=True)]),
    ]
    for A in algebras:
        r = range(A.size)
        assert A.below == tuple(tuple(y for y in r if A.leq(y, x)) for x in r)
        assert A.above == tuple(tuple(y for y in r if A.leq(x, y)) for x in r)


def test_tarskian_elements():
    M = five_element_non_admissible()
    assert tarskian_elements(M) == (0, 3, 4)
    assert t_below(M, 1) == ()
    for n in range(2, 7):
        A = make_chain(n, with_delta=True, with_bottom=True)
        if n == 2:
            assert tarskian_elements(A) == (0, 1)
        else:
            assert tarskian_elements(A) == (0, n - 1)
        assert A.top in tarskian_elements(A)


def test_delta_admissible():
    M = five_element_non_admissible()
    res = delta_admissible(M)
    assert not res.admissible and res.witness == 1   # b has no Tarskian bound
    for n in range(2, 7):
        res = delta_admissible(make_chain(n))
        assert res.admissible
        assert res.table == make_chain(n, with_delta=True).delta
    res = delta_admissible(trivial_algebra())
    assert res.admissible and res.table == (0,)


def test_delta_is_max_of_tarskian_lower_bounds():
    for n in range(2, 7):
        A = make_chain(n, with_delta=True)
        for x in range(n):
            tx = t_below(A, x)
            assert A.delta[x] in tx
            assert all(A.leq(t, A.delta[x]) for t in tx)


def test_delta_uniqueness_by_perturbation():
    for n in (2, 3, 4):
        A = make_chain(n, with_delta=True)
        assert check_delta(A, n).passed
        for i in range(n):
            for v in range(n):
                if v == A.delta[i]:
                    continue
                table = list(A.delta)
                table[i] = v
                assert not check_delta(with_delta(A, table), n).passed


def test_min_n():
    assert min_n(make_chain(2)) == 2
    assert min_n(make_chain(4)) == 4
    P = product([make_chain(3), make_chain(2)])
    assert min_n(P) == 3
    for n in range(2, 7):
        assert min_n(make_chain(n)) == n


def test_product_encoding():
    A = make_chain(3, with_delta=True)
    B = make_chain(2, with_delta=True)
    P = product([A, B])
    assert P.size == 6
    # mixed radix, last factor fastest: index = first * 2 + second
    for i in range(3):
        for j in range(2):
            for k in range(3):
                for l in range(2):
                    got = P.imp[i * 2 + j][k * 2 + l]
                    assert got == A.imp[i][k] * 2 + B.imp[j][l]
    assert product([]).size == 1
    with pytest.raises(SignatureError):
        product([make_chain(2, with_delta=True), make_chain(2)])


def test_subalgebra_closure_and_restrict():
    L5 = make_chain(5)
    up = (2, 3, 4)      # the upper set at 1/2: a 3-element chain
    assert subalgebra_closure(L5, up) == up
    sub, index = restrict_to(L5, up)
    assert is_isomorphic(sub, make_chain(3)) is not None
    assert index[4] == 2
    # with delta, anything below top forces 0 in
    L5d = make_chain(5, with_delta=True)
    assert 0 in subalgebra_closure(L5d, (2,))
    assert subalgebra_closure(L5d, ()) == (4,)


def test_upper_sets_are_subchains():
    for n in range(2, 7):
        for k in range(2, n + 1):
            Ln = make_chain(n)
            up = tuple(range(n - k, n))
            assert subalgebra_closure(Ln, up) == up
            sub, _ = restrict_to(Ln, up)
            assert is_isomorphic(sub, make_chain(k)) is not None


def test_homomorphisms():
    A = make_chain(2, with_delta=True, with_bottom=True)
    assert homomorphisms(A, A) == [(0, 1)]
    # without the bottom constant the collapse onto {top} also counts
    B = make_chain(2, with_delta=True)
    assert homomorphisms(B, B) == [(0, 1), (1, 1)]
    # chains are simple: epimorphisms out of them are isomorphisms only
    L3 = make_chain(3, with_delta=True)
    L2 = make_chain(2, with_delta=True)
    assert epimorphisms(L3, L2) == []
    assert epimorphisms(L3, L3) == [(0, 1, 2)]
    assert epimorphisms(L2, L3) == []
    assert is_isomorphic(L3, L3) == (0, 1, 2)
    assert is_isomorphic(L3, L2) is None


def test_generating_set_generates():
    for A in (make_chain(5, with_delta=True),
              product([make_chain(3, with_delta=True), make_chain(2, with_delta=True)]),
              five_element_non_admissible()):
        gens = generating_set(A)
        assert subalgebra_closure(A, gens) == tuple(range(A.size))


def test_json_roundtrip():
    A = make_chain(4, with_delta=True, with_bottom=True)
    assert FiniteAlgebra.from_json(A.to_json()) == A
    M = five_element_non_admissible()
    data = M.to_dict()
    assert data["delta"] is None and data["bottom"] is None
    assert FiniteAlgebra.from_dict(data) == M


def test_structural_validation():
    with pytest.raises(AlgebraError):
        FiniteAlgebra(size=2, imp=((0,), (0, 0)), top=1)
    with pytest.raises(AlgebraError):
        FiniteAlgebra(size=2, imp=((0, 2), (0, 1)), top=1)
    with pytest.raises(AlgebraError):
        # bottom must imply everything
        FiniteAlgebra(size=2, imp=((1, 1), (0, 1)), top=1, bottom=1)


@pytest.mark.parametrize("change, message", [
    ({"size": 2.0}, "size must be a positive int, got 2.0"),
    ({"size": True}, "size must be a positive int, got True"),
    ({"top": "1"}, "top must be an int in 0..1, got '1'"),
    ({"imp": [[1, 1], [0, 1.0]]}, "imp[1][1] must be an int in 0..1, got 1.0"),
    ({"imp": [[1, 1], [0]]}, "imp[1] must be a list of 2 entries"),
    ({"imp": "11"}, "imp must be a list of 2 entries"),
    ({"delta": [0, 2]}, "delta[1] must be an int in 0..1, got 2"),
    ({"bottom": False}, "bottom must be an int in 0..1, got False"),
    ({"top": None}, "top must be an int in 0..1, got None"),
    ({"label": [1, 2]}, "label must be a string, got [1, 2]"),
])
def test_from_dict_names_the_offending_entry(change, message):
    data = {**make_chain(2, with_delta=True, with_bottom=True).to_dict(), **change}
    with pytest.raises(AlgebraError) as exc:
        FiniteAlgebra.from_dict(data)
    assert str(exc.value) == message
    with pytest.raises(AlgebraError):
        FiniteAlgebra.from_dict([data])
    del data["imp"]
    with pytest.raises(AlgebraError):
        FiniteAlgebra.from_dict(data)


def test_tarskian_closure_under_iterated_implication():
    # x ->[n-1] t stays Tarskian whenever t is
    for A, n in ((make_chain(4, with_delta=True), 4),
                 (product([make_chain(3, with_delta=True),
                           make_chain(2, with_delta=True)]), 3)):
        tset = set(tarskian_elements(A))
        for t in tset:
            for x in range(A.size):
                assert imp_k(A, x, t, n - 1) in tset


def test_homomorphisms_preserve_tarskian_elements():
    A = product([make_chain(3, with_delta=True), make_chain(2, with_delta=True)])
    B = make_chain(3, with_delta=True)
    for h in homomorphisms(A, B):
        image = sorted(set(h))
        sub, index = restrict_to(B, image)
        image_tarskian = {image[t] for t in tarskian_elements(sub)}
        for t in tarskian_elements(A):
            assert h[t] in image_tarskian
