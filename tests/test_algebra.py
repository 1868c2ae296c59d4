import random
from fractions import Fraction
from itertools import combinations, product as iter_product

import pytest

from lukra.algebra import (
    AlgebraError,
    FiniteAlgebra,
    SignatureError,
    _Packing,
    _generate,
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
from lukra.laws import check_delta

from catalog import five_element_non_admissible


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


def reference_closure_plan(A, gens):
    """The breadth-first closure subalgebra_closure replaced, kept as its
    oracle: each element is paired with every element found so far.

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


def reference_closure(A, gens):
    return tuple(sorted(e for e, _ in reference_closure_plan(A, gens)))


def reference_generating_set(A):
    gens = []
    while len(reference_closure(A, gens)) < A.size:
        gens.append(min(set(range(A.size)) - set(reference_closure(A, gens))))
    return tuple(gens)


def reference_homomorphisms(A, B):
    """Every map A -> B that preserves top, bottom, delta and ->, by brute
    force over all |B|^|A| maps, in lexicographic order."""
    r = range(A.size)
    found = []
    for h in iter_product(range(B.size), repeat=A.size):
        if h[A.top] != B.top or (A.bottom is not None and h[A.bottom] != B.bottom):
            continue
        if A.delta is not None and any(B.delta[h[x]] != h[A.delta[x]] for x in r):
            continue
        if all(B.imp[h[x]][h[y]] == h[A.imp[x][y]] for x in r for y in r):
            found.append(h)
    return found


def random_table(rng, size, delta, bottom):
    """An in-range table of the given signature; mostly not an algebra."""
    imp = [[rng.randrange(size) for _ in range(size)] for _ in range(size)]
    top = rng.randrange(size)
    low = None
    if bottom:
        low = rng.randrange(size)
        imp[low] = [top] * size
    return FiniteAlgebra(
        size=size, imp=imp, top=top, bottom=low,
        delta=tuple(rng.randrange(size) for _ in range(size)) if delta else None)


def closure_inputs():
    chains = [make_chain(n, with_delta=d, with_bottom=b)
              for n in (2, 3, 4) for d in (False, True) for b in (False, True)]
    L3xL2 = product([make_chain(3, with_delta=True), make_chain(2, with_delta=True)])
    L4xL2 = product([make_chain(4, with_delta=True), make_chain(2, with_delta=True)])
    subs = sorted({reference_closure(L4xL2, (x,)) for x in range(L4xL2.size)})
    rng = random.Random(9)
    tables = [random_table(rng, rng.randint(1, 5), rng.random() < 0.5, rng.random() < 0.5)
              for _ in range(60)]
    return [*chains, L3xL2, *(restrict_to(L4xL2, s)[0] for s in subs),
            five_element_non_admissible(), *tables]


def test_closure_matches_the_breadth_first_oracle():
    for A in closure_inputs():
        for k in range(3):
            for seed in combinations(range(A.size), k):
                want = reference_closure(A, seed)
                assert subalgebra_closure(A, seed) == want, (A, seed)
                # rows, delta row and first derivations all name the right elements
                elems, rows, drow, how = _generate(A, seed)
                assert sorted(elems) == list(want)
                assert rows == [[elems.index(A.imp[x][y]) for y in elems] for x in elems]
                assert drow == (None if A.delta is None else
                                [elems.index(A.delta[x]) for x in elems])
                seeds = [A.top] + ([] if A.bottom is None else [A.bottom]) + list(seed)
                for e, step in zip(elems, how):
                    if step[0] == "imp":
                        assert e == A.imp[elems[step[1]]][elems[step[2]]]
                    elif step[0] == "delta":
                        assert e == A.delta[elems[step[1]]]
                    else:
                        assert e == seeds[step[1]]
        assert generating_set(A) == reference_generating_set(A)


def test_homomorphisms_match_brute_force():
    inputs = closure_inputs()
    for A in inputs:
        for B in inputs:
            same = (A.delta is None, A.bottom is None) == (B.delta is None, B.bottom is None)
            if same and B.size ** A.size <= 4096:
                assert homomorphisms(A, B) == reference_homomorphisms(A, B), (A, B)
    # random tables against random targets of their own signature
    rng = random.Random(17)
    for _ in range(150):
        delta, bottom = rng.random() < 0.5, rng.random() < 0.5
        A = random_table(rng, rng.randint(1, 5), delta, bottom)
        B = random_table(rng, rng.randint(1, 5), delta, bottom)
        assert homomorphisms(A, B) == reference_homomorphisms(A, B), (A, B)


# ---------------------------------------------------------------------------
# `_Packing`, the one chain kernel, across its field widths: w is
# (2(k-1)).bit_length() + 1 for the largest chain L_k, so it grows at
# k = 3, 5, 9, 17, 33, 65 and 129.  Fields are read from the binary digits,
# not through `unpack`.
# ---------------------------------------------------------------------------

WIDTH_EDGES = (2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 130)


def _fields(P, x):
    """The fields of x, the most significant first, each w bits."""
    bits = P.w * P.count
    assert 0 <= x < 1 << bits
    text = f"{x:0{bits}b}"
    return [int(text[i:i + P.w], 2) for i in range(0, bits, P.w)]


def _pack(P, vector):
    return int("".join(f"{a:0{P.w}b}" for a in vector), 2)


def _check_fields(P, sizes, u, v):
    want = [min(k - 1, k - 1 - a + b) for a, b, k in zip(u, v, sizes)]
    pu, pv = _pack(P, u), _pack(P, v)
    assert _fields(P, P.imp(pu, pv)) == want
    assert _fields(P, P.imps(pu, [pv])[0][0]) == want
    assert _fields(P, P.delta(pu)) == [k - 1 if a == k - 1 else 0 for a, k in zip(u, sizes)]
    assert _fields(P, P.differ(pu, pv)) == [(a != b) << P.s for a, b in zip(u, v)]


def test_packed_chains_match_chain_arithmetic_field_by_field():
    rng = random.Random(29)
    for k in WIDTH_EDGES:
        # every pair of values on the small chains; the edges and random
        # pairs on the large ones
        edges = sorted({0, 1, k // 2, k - 2, k - 1} & set(range(k)))
        pairs = ([(a, b) for a in range(k) for b in range(k)] if k <= 17 else
                 [(a, b) for a in edges for b in edges]
                 + [(rng.randrange(k), rng.randrange(k)) for _ in range(300)])
        P = _Packing([(k, len(pairs))])
        assert P.w == (2 * (k - 1)).bit_length() + 1
        _check_fields(P, [k] * len(pairs), *zip(*pairs))
    # long runs of mixed sizes share the width of the largest
    runs = [(2, 70), (9, 120), (3, 90), (17, 64), (5, 150)]
    sizes = [k for k, c in runs for _ in range(c)]
    P = _Packing(runs)
    assert P.w == 7
    assert _fields(P, P.MM) == [k - 1 for k in sizes]
    assert _fields(P, _pack(P, sizes)) == sizes
    assert P.unpack(_pack(P, sizes)) == tuple(sizes)
    for _ in range(20):
        u = [rng.randrange(k) for k in sizes]
        v = [a if rng.random() < 0.3 else rng.randrange(k) for a, k in zip(u, sizes)]
        _check_fields(P, sizes, u, v)


def test_packed_digit_tables():
    # on L_k^v, assignment j gives variable i, of place value k^(v-1-i),
    # the digit (j // k^(v-1-i)) mod k
    for k in WIDTH_EDGES:
        for v in range(1, 4):
            if k ** v > 20000:
                break
            P = _Packing([(k, k ** v)])
            for i in range(v):
                stride = k ** (v - 1 - i)
                assert _fields(P, P.digit(i)) == [(j // stride) % k for j in range(k ** v)]


def test_packed_digit_tables_on_many_runs():
    # runs of k^v fields of L_k; with v = m for k = 2..n, as `build_free(n,
    # m)` packs, field h of the run of L_k holds digit i of h, coordinate i
    # of the h-th valuation of the m generators into L_k in lexicographic order
    shapes = [[(k, m) for k in range(2, n + 1)]
              for n, m in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1)]]
    shapes += [[(k, 1) for k in WIDTH_EDGES], [(k, 2) for k in WIDTH_EDGES[:9]],
               [(129, 1), (2, 3), (17, 2), (3, 3)]]
    for shape in shapes:
        P = _Packing((k, k ** v) for k, v in shape)
        for i in range(min(v for _, v in shape)):
            want = [h[i] for k, v in shape for h in iter_product(range(k), repeat=v)]
            assert _fields(P, P.digit(i)) == want and P.digit(i) == _pack(P, want)
