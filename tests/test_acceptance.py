"""Acceptance suite: ten timed criteria, one pass/fail line each.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
each test also enforces its wall-clock budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

from lukra.algebra import (
    imp_k,
    is_isomorphic,
    make_chain,
    min_n,
    product,
    restrict_to,
    subalgebra_closure,
)
from lukra.filters import (
    all_filters,
    congruence_of,
    is_implicative_filter,
    maximal_filters,
    quotient,
    subdirect_embedding,
)
from lukra.formulas import eval_formula, parse, rational_eval, variables
from lukra.freealg import beta_oracle, build_free, minimal_elements, size_formula
from lukra.laws import (
    check_LR,
    check_LRdelta_quasi,
    check_LRn,
    check_delta,
    check_property_suite,
)
from lukra.logic import (
    axiom_schemas_bot,
    axiom_schemas_n,
    canonical_level_counterexample,
    is_tautology,
    theorem_suite,
)
from lukra.proofs import Proof, ProofLine, check_proof, parse_proof
from lukra.algebra import delta_admissible, tarskian_elements
from catalog import five_element_non_admissible
from derivations import classic_delta_derivations
from oracles import congruences, random_formula, rational_grid

FIXTURES = Path(__file__).parent / "fixtures" / "proofs"


@contextmanager
def criterion(num: int, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d}: PASS ({elapsed:.2f}s, limit {limit:g}s)")
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_chain_validity():
    with criterion(1, 1.0):
        for n in range(2, 8):
            A = make_chain(n, with_delta=True, with_bottom=True)
            assert check_LR(A).passed
            assert check_LRn(A, n).passed
            assert check_delta(A, n).passed
            assert check_LRdelta_quasi(A).passed
            assert check_property_suite(A, n).passed


def test_criterion_02_five_element_counterexample():
    with criterion(2, 1.0):
        M = five_element_non_admissible()
        assert check_LR(M).passed
        assert check_LRn(M, 3).passed
        assert tarskian_elements(M) == (0, 3, 4)    # a, d, 1
        res = delta_admissible(M)
        assert not res.admissible and res.witness == 1   # b


def test_criterion_03_free_algebra_formula():
    with criterion(3, 60.0):
        build_free.cache_clear()
        for nm in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]:
            F = build_free(*nm)
            assert F.algebra.size == size_formula(*nm, mode="repaired").total, nm
        for n, m in [(3, 1), (3, 2)]:
            F = build_free(n, m)
            sb = size_formula(n, m)
            for (i, k), want in sorted(sb.beta.items()):
                assert beta_oracle(n, m, k, i, free=F) == want, (n, m, i, k)


def test_criterion_04_structure_lemmas():
    with criterion(4, 5.0):
        for nm in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]:
            F = build_free(*nm)
            A = F.algebra
            gens = F.generators
            dgens = [A.delta[g] for g in gens]
            for i, a in enumerate(gens):
                for b in gens[i + 1:]:
                    assert not A.leq(a, b) and not A.leq(b, a)
            for i, a in enumerate(dgens):
                for b in dgens[i + 1:]:
                    assert not A.leq(a, b) and not A.leq(b, a)
            # minimal_elements also verifies carrier = union of [delta g, top]
            assert set(minimal_elements(F)) == set(dgens)


def _criterion5_algebras():
    P = product([
        make_chain(4, with_delta=True),
        make_chain(3, with_delta=True),
        make_chain(2, with_delta=True),
    ])
    rng = random.Random(20240801)
    out = []
    for _ in range(50):
        gens = rng.sample(range(P.size), rng.randint(1, 3))
        sub, _ = restrict_to(P, subalgebra_closure(P, gens))
        out.append(sub)
    return out


def test_criterion_05_simple_classification():
    with criterion(5, 30.0):
        for sub in _criterion5_algebras():
            if sub.size < 2:
                continue
            for M in maximal_filters(sub, guard=None):
                Q, _ = quotient(sub, M)
                k = Q.size
                assert 2 <= k <= 4
                assert is_isomorphic(Q, make_chain(k, with_delta=True)) is not None
            _, emb = subdirect_embedding(sub, guard=None)
            assert len(set(emb)) == sub.size


def test_criterion_06_soundness_and_hierarchy():
    with criterion(6, 30.0):
        for n in range(2, 6):
            for name, schema in axiom_schemas_n(n).items():
                assert is_tautology(schema, n).holds, (n, name)
            ax5 = axiom_schemas_n(n)["AX5"]
            verdict = is_tautology(ax5, n + 1)
            assert not verdict.holds
            assert verdict.counterexample == canonical_level_counterexample(n)
            assert theorem_suite(n).passed


def test_criterion_07_proof_checking():
    with criterion(7, 1.0):
        names = ["LH20", "LH21", "LH24", "LH25", "LH26", "LH27"]
        for name in names:
            text = (FIXTURES / f"{name.lower()}_n3.proof").read_text(encoding="utf-8")
            P = parse_proof(text, system="n", n=3)
            assert check_proof(P).passed, name
            lines = list(P.lines)
            last = lines[-1]
            lines[-1] = ProofLine(last.idx, parse("q -> D p -> q"), last.just)
            bad = Proof(system=P.system, n=P.n, lines=tuple(lines))
            report = check_proof(bad)
            assert not report.passed
            assert [i for i, _ in report.failures] == [last.idx], name


def test_criterion_08_lindenbaum_bridge():
    with criterion(8, 60.0):
        for n, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            F = build_free(n, m)
            val = F.generator_valuation()
            names = [f"g{i + 1}" for i in range(m)]
            rng = random.Random(20240802 + 10 * n + m)
            for _ in range(500):
                f = random_formula(rng, names, rng.randint(1, 4))
                assert is_tautology(f, n).holds == (
                    eval_formula(f, F.algebra, val) == F.algebra.top
                ), (n, m, f)


def test_criterion_09_standard_semantics():
    with criterion(9, 10.0):
        grid = rational_grid(7)
        schemas = axiom_schemas_bot()
        assert set(schemas) == {"AX1", "AX2", "AX3", "AX4",
                                "AX9", "AX10", "AX11", "AX12", "AX13"}
        for name, schema in schemas.items():
            names = sorted(variables(schema))
            for values in iter_product(grid, repeat=len(names)):
                assert rational_eval(schema, dict(zip(names, values))) == 1, name
        rng = random.Random(20240805)
        for _ in range(1000):
            val = {v: Fraction(rng.randint(0, 991), 991)
                   for v in ("alpha", "beta", "gamma")}
            for name, schema in schemas.items():
                assert rational_eval(schema, val) == 1, (name, val)


def test_criterion_10_filter_correspondence():
    with criterion(10, 30.0):
        for sub in _criterion5_algebras():
            for f in all_filters(sub, guard=None):
                cong = congruence_of(sub, f)
                top_block = tuple(sorted(
                    x for x in range(sub.size)
                    if cong.partition[x] == cong.partition[sub.top]
                ))
                assert top_block == f
            if sub.size <= 8:
                plain = {c.partition for c in congruences(sub, respect_delta=False)}
                with_d = {c.partition for c in congruences(sub, respect_delta=True)}
                assert plain == with_d
                for part in plain:
                    block = tuple(sorted(
                        x for x in range(sub.size)
                        if part[x] == part[sub.top]
                    ))
                    assert is_implicative_filter(sub, block)
                    assert congruence_of(sub, block).partition == part
