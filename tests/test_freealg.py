import random
import tracemalloc
from itertools import combinations, product as iter_product

import pytest

from lukra.algebra import (
    FiniteAlgebra,
    SizeGuardError,
    make_chain,
    product,
    subalgebra_closure,
)
from lukra.formulas import eval_formula, parse
from lukra.freealg import (
    _Packing,
    _build_free,
    beta_oracle,
    build_free,
    minimal_elements,
    size_formula,
    upset_Nk,
    v_formula,
)
from lukra.laws import check_delta, check_LR, check_LRdelta_quasi, check_LRn
from oracles import epi_count_oracle


def reference_build_free(n, m):
    """The tuple-based builder build_free replaced, kept as its oracle:
    breadth-first closure pairing each element with every discovered one
    in both directions, then a second pass for the table."""
    coord_sizes = []
    gen_vectors = [[] for _ in range(m)]
    for k in range(2, n + 1):
        for valuation in iter_product(range(k), repeat=m):
            coord_sizes.append(k)
            for i in range(m):
                gen_vectors[i].append(valuation[i])
    coord_sizes = tuple(coord_sizes)
    maxes = tuple(s - 1 for s in coord_sizes)

    def vimp(u, v):
        return tuple(min(mm, mm - a + b) for a, b, mm in zip(u, v, maxes))

    def vdelta(u):
        return tuple(mm if a == mm else 0 for a, mm in zip(u, maxes))

    top = maxes
    members = {top}
    discovered = [top]
    for g in gen_vectors:
        gv = tuple(g)
        if gv not in members:
            members.add(gv)
            discovered.append(gv)
    frontier = 0
    while frontier < len(discovered):
        u = discovered[frontier]
        frontier += 1
        for v in tuple(discovered):
            for w in (vimp(u, v), vimp(v, u)):
                if w not in members:
                    members.add(w)
                    discovered.append(w)
        w = vdelta(u)
        if w not in members:
            members.add(w)
            discovered.append(w)

    vectors = tuple(sorted(members))
    index = {v: i for i, v in enumerate(vectors)}
    algebra = FiniteAlgebra(
        size=len(vectors),
        imp=tuple(tuple(index[vimp(u, v)] for v in vectors) for u in vectors),
        top=index[top],
        delta=tuple(index[vdelta(u)] for u in vectors),
        label=f"Free(n={n},m={m})",
    )
    generators = tuple(index[tuple(g)] for g in gen_vectors)
    return algebra, generators, coord_sizes, vectors

# oracle-vs-formula pairs; sizes were first computed by the term-closure
# construction and frozen after both routes agreed
KNOWN_SIZES = {
    (2, 1): 2,
    (2, 2): 6,
    (2, 3): 38,
    (3, 1): 6,
    (3, 2): 594,
    (4, 1): 96,
}


@pytest.mark.parametrize("nm", sorted(KNOWN_SIZES))
def test_size_formula_known_values(nm):
    assert size_formula(*nm).total == KNOWN_SIZES[nm]


@pytest.mark.parametrize("nm", sorted(KNOWN_SIZES))
def test_oracle_equality(nm):
    F = build_free(*nm)
    assert F.algebra.size == size_formula(*nm).total


@pytest.mark.parametrize("nm", sorted(KNOWN_SIZES))
def test_free_algebras_are_in_the_variety(nm):
    n, m = nm
    A = build_free(n, m).algebra
    # the 3-variable base laws are cubic in the carrier; sweep them on the
    # small algebras and keep the quadratic level/delta laws everywhere
    if A.size <= 100:
        assert check_LR(A).passed
        assert check_LRdelta_quasi(A).passed
    assert check_LRn(A, n).passed
    assert check_delta(A, n).passed


@pytest.mark.parametrize("nm", sorted(KNOWN_SIZES))
def test_builder_matches_the_reference(nm):
    # (2, 4) is left to the benchmark goldens: the reference takes ~10 s there
    F = build_free(*nm)
    algebra, generators, coord_sizes, vectors = reference_build_free(*nm)
    assert F.vectors == vectors
    assert F.algebra == algebra
    assert F.generators == generators
    assert F.coord_sizes == coord_sizes


def test_packed_implication_and_delta():
    # chains of mixed sizes side by side, so neighbouring fields differ in
    # their maxima and every field sees every value pair, 0 and mm included
    sizes = (6, 2, 5, 3, 4, 2, 6, 3)
    P = _Packing(sizes)
    pairs = [[(a, b) for a in range(k) for b in range(k)] for k in sizes]
    rounds = max(map(len, pairs))
    for r in range(rounds):
        u = tuple(ps[r % len(ps)][0] for ps in pairs)
        v = tuple(ps[r % len(ps)][1] for ps in pairs)
        want = tuple(min(k - 1, k - 1 - a + b) for a, b, k in zip(u, v, sizes))
        assert P.unpack(P.imp(P.pack(u), P.pack(v))) == want
        want = tuple(k - 1 if a == k - 1 else 0 for a, k in zip(u, sizes))
        assert P.unpack(P.delta(P.pack(u))) == want
    # int order is the order of the vectors
    rng = random.Random(5)
    vecs = [tuple(rng.randrange(k) for k in sizes) for _ in range(200)]
    assert sorted(vecs) == sorted(vecs, key=P.pack)
    assert P.unpack(P.MM) == tuple(k - 1 for k in sizes)


def test_size_guard_bounds_the_table():
    with pytest.raises(SizeGuardError, match=r"352836 entries .* exceeds guard 352835"):
        build_free(3, 2, guard=594**2 - 1)
    assert build_free(3, 2, guard=594**2).algebra.size == 594
    # (2, 5) would need a table of about 10^11 entries: refused up front
    with pytest.raises(SizeGuardError) as err:
        build_free(2, 5)
    assert str(325262**2) in str(err.value)


def test_one_build_per_size_whatever_the_guard():
    F = build_free(3, 2)
    assert build_free(3, 2, guard=10**8) is F
    assert build_free(n=3, m=2) is F


def test_builder_peaks_below_twice_its_table():
    # the discovery-order rows are released while the sorted table is built;
    # holding both made the peak about twice what the result holds
    tracemalloc.start()
    try:
        F = _build_free.__wrapped__(4, 1)     # a fresh build, not the cached one
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert F.algebra == build_free(4, 1).algebra
    assert peak < 1.5 * held


def test_five_valued_one_generator_is_constructed():
    F = build_free(5, 1)
    assert F.algebra.size == size_formula(5, 1).total == 2400
    assert minimal_elements(F) == (F.algebra.delta[F.generators[0]],)


def test_two_valued_simplification():
    # at n=2 the exponent collapses to 2^{m-k}, so the total telescopes
    for m in (1, 2, 3, 4):
        sb = size_formula(2, m)
        for k in range(1, m + 1):
            assert sb.beta[(2, k)] == 2 ** (m - k)


def test_free_generators_and_minimal_elements():
    F = build_free(3, 1)
    A = F.algebra
    g = F.generators[0]
    dg = A.delta[g]
    assert minimal_elements(F) == (dg,)
    # the six elements are exactly the named terms over the generator
    val = F.generator_valuation()
    terms = ["T", "g1", "D g1", "g1 -> D g1", "D (g1 -> D g1)",
             "D (g1 -> D g1) -> g1"]
    values = {eval_formula(parse(t), A, val) for t in terms}
    assert values == set(range(A.size))


def test_generator_antichains():
    for nm in ((2, 2), (2, 3), (3, 2)):
        F = build_free(*nm)
        A = F.algebra
        gens = F.generators
        for a, b in combinations(gens, 2):
            assert not A.leq(a, b) and not A.leq(b, a)
        dgens = [A.delta[g] for g in gens]
        for a, b in combinations(dgens, 2):
            assert not A.leq(a, b) and not A.leq(b, a)
        assert len(set(dgens)) == len(gens)
        assert set(minimal_elements(F)) == set(dgens)


def test_minimal_elements_at_two_valued_level():
    # delta is the identity on the free two-valued algebra
    F = build_free(2, 2)
    assert set(minimal_elements(F)) == set(F.generators)


def test_inclusion_exclusion_directly():
    # |carrier| = sum over nonempty subsets S of generators of
    # (-1)^{|S|+1} |intersection of up-sets above delta g, g in S|
    for nm in ((2, 2), (3, 2), (2, 3)):
        F = build_free(*nm)
        A = F.algebra
        total = 0
        gens = F.generators
        for r in range(1, len(gens) + 1):
            for combo in combinations(gens, r):
                cover = set(range(A.size))
                for g in combo:
                    cover &= set(A.above[A.delta[g]])
                total += (-1) ** (r + 1) * len(cover)
        assert total == A.size


def test_upset_nk():
    F = build_free(3, 2)
    n1 = upset_Nk(F, 1)
    n2 = upset_Nk(F, 2)
    assert len(n1) == size_formula(3, 2).nk[0] == 324
    assert len(n2) == size_formula(3, 2).nk[1] == 54
    assert set(n2) <= set(n1)
    F1 = build_free(3, 1)
    assert upset_Nk(F1, 1) == tuple(range(F1.algebra.size))
    # the least element of N_k is Tarskian (delta of something)
    A = F.algebra
    gstar = A.join(F.generators[0], F.generators[1])
    dg = A.delta[gstar]
    assert A.imp[dg] == tuple(A.imp[dg][A.imp[dg][y]] for y in range(A.size))


@pytest.mark.parametrize("nm", [(3, 1), (3, 2)])
def test_beta_oracle_agreement(nm):
    n, m = nm
    F = build_free(n, m)
    sb = size_formula(n, m)
    for (i, k), want in sorted(sb.beta.items()):
        assert beta_oracle(n, m, k, i, free=F) == want
    # the exponents recompose the up-set sizes (partition sanity)
    for k in range(1, m + 1):
        prod = 1
        for i in range(2, n + 1):
            prod *= i ** sb.beta[(i, k)]
        assert prod == len(upset_Nk(F, k))


def test_v_formula():
    assert v_formula(1, 2) == 2
    assert v_formula(2, 3) == 5          # 3^2 - v(2) = 9 - 4
    for m in range(1, 5):
        assert v_formula(m, 2) == 2**m
    assert v_formula(2, 5) == 5**2 - v_formula(2, 3) - v_formula(2, 2)


def test_epi_count_bounded_by_v():
    for n, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
        F = build_free(n, m)
        for k in range(2, n + 1):
            count = epi_count_oracle(F, make_chain(k, with_delta=True))
            assert count <= v_formula(m, k)


def test_local_finiteness_sampled():
    # closures of <= m elements inside powers of the n-chain stay below
    # the free-algebra size
    rng = random.Random(4)
    P = product([make_chain(3, with_delta=True)] * 2)
    bound = size_formula(3, 2).total
    for _ in range(20):
        gens = rng.sample(range(P.size), 2)
        assert len(subalgebra_closure(P, gens)) <= bound
    bound1 = size_formula(3, 1).total
    for x in range(P.size):
        assert len(subalgebra_closure(P, (x,))) <= bound1


def test_semantic_equivalence_matches_free_evaluation():
    # two formulas agree on every chain up to n iff they coincide in the
    # free algebra under the generator valuation
    from lukra.logic import equivalent
    from oracles import random_formula

    rng = random.Random(13)
    F = build_free(3, 2)
    val = F.generator_valuation()
    for _ in range(150):
        f = random_formula(rng, ["g1", "g2"], rng.randint(1, 3))
        g = random_formula(rng, ["g1", "g2"], rng.randint(1, 3))
        same = eval_formula(f, F.algebra, val) == eval_formula(g, F.algebra, val)
        assert equivalent(f, g, 3).holds == same


def test_literal_mode_diverges_and_guards():
    # under the printed correction condition every j corrects at k = 1
    # (division by k-1 = 0), so the literal totals fall away from the
    # constructive counts; the repaired mode is the one the oracle matches
    assert size_formula(4, 1, mode="literal").total == 24 != 96
    assert size_formula(3, 2, mode="literal").total == 486 != 594
    with pytest.raises(SizeGuardError):
        build_free(5, 4)
    with pytest.raises(Exception):
        size_formula(1, 1)
    with pytest.raises(Exception):
        size_formula(3, 2, mode="unknown")
