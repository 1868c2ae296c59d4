import random
import tracemalloc
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import example, given, settings, strategies as st

from lukra.algebra import AlgebraError, make_chain
from lukra.formulas import (
    BOT,
    TOP,
    Delta,
    Imp,
    compile_term,
    eval_formula,
    parse,
    rational_eval,
    variables,
)
from lukra.freealg import build_free
from lukra.laws import CheckReport
from lukra.logic import (
    Verdict,
    _theorem_catalogue,
    axiom_schemas_bot,
    axiom_schemas_n,
    canonical_level_counterexample,
    consequence,
    equivalent,
    hierarchy_check,
    is_tautology,
    refute_search,
    theorem_suite,
)
from oracles import random_formula, rational_grid


@pytest.mark.parametrize("n", range(2, 6))
def test_axioms_are_tautologies_at_their_level(n):
    for name, schema in axiom_schemas_n(n).items():
        verdict = is_tautology(schema, n)
        assert verdict.holds, (name, verdict.counterexample)


@pytest.mark.parametrize("n", range(2, 6))
def test_ax5_fails_one_level_up(n):
    ax5 = axiom_schemas_n(n)["AX5"]
    verdict = is_tautology(ax5, n + 1)
    assert not verdict.holds
    assert verdict.counterexample == canonical_level_counterexample(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_theorem_suite(n):
    report = theorem_suite(n)
    assert report.passed, report.violations[:4]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_hierarchy_strict(n):
    assert hierarchy_check(n).passed


def test_eval_fixtures():
    L3 = make_chain(3, with_delta=True, with_bottom=True)
    assert eval_formula(parse("D p -> p"), L3, {"p": 1}) == L3.top
    assert rational_eval(parse("p -> q"),
                         {"p": Fraction(2, 3), "q": Fraction(1, 3)}) == Fraction(2, 3)
    assert rational_eval(parse("D p"), {"p": Fraction(1)}) == 1
    assert rational_eval(parse("D p"), {"p": Fraction(99, 100)}) == 0


def test_decision_procedures():
    assert consequence([parse("p")], parse("p"), 3).holds
    assert consequence([parse("p"), parse("p -> q")], parse("q"), 4).holds
    assert not consequence([parse("p | q")], parse("p"), 3).holds
    assert is_tautology(parse("((p ->[2] q) -> p) -> p"), 3).holds
    v = is_tautology(parse("((p ->[2] q) -> p) -> p"), 4)
    assert not v.holds and v.counterexample == (4, {"p": 2, "q": 0})
    assert equivalent(parse("p | q"), parse("q | p"), 4).holds
    assert not equivalent(parse("p"), parse("D p"), 3).holds


def test_counterexample_minimality():
    # smallest chain first, then lexicographically least valuation
    v = is_tautology(parse("p | ~p"), 5)
    assert v.counterexample == (3, {"p": 1})
    v = is_tautology(parse("q -> p"), 5)
    assert v.counterexample == (2, {"p": 0, "q": 1})


def test_refutation_search():
    assert refute_search(parse("D p -> p"), 8) is None
    assert refute_search(parse("p | ~p"), 8) == (3, {"p": 1})
    assert refute_search(parse("D p | ~ D p"), 8) is None
    for name, schema in axiom_schemas_bot().items():
        assert refute_search(schema, 6) is None, name


def test_soundness_regression_random_instances():
    # every axiom schema instantiated with random depth-<=2 formulas stays
    # valid at its own level; 10^4 instances spread over the levels
    rng = random.Random(20240803)
    per_case = 10_000 // (4 * 8)
    for n in range(2, 6):
        schemas = axiom_schemas_n(n)
        for name, schema in schemas.items():
            for _ in range(per_case):
                inst = {
                    v: random_formula(rng, ["p", "q"], rng.randint(0, 2))
                    for v in variables(schema)
                }
                from lukra.formulas import substitute

                f = substitute(schema, inst)
                assert is_tautology(f, n).holds, (n, name, f)


def test_tautologies_shrink_as_level_grows():
    rng = random.Random(99)
    formulas = [random_formula(rng, ["p", "q"], rng.randint(1, 3))
                for _ in range(400)]
    for n in (2, 3, 4):
        for f in formulas:
            if is_tautology(f, n + 1).holds:
                assert is_tautology(f, n).holds


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_lindenbaum_bridge(n, m):
    # desk-scale completeness: valid iff top in the free algebra
    rng = random.Random(500 + 10 * n + m)
    F = build_free(n, m)
    val = F.generator_valuation()
    names = [f"g{i + 1}" for i in range(m)]
    for _ in range(500):
        f = random_formula(rng, names, rng.randint(1, 4))
        assert is_tautology(f, n).holds == (
            eval_formula(f, F.algebra, val) == F.algebra.top
        )


def test_bot_axioms_on_rational_grid():
    grid = rational_grid(7)
    for name, schema in axiom_schemas_bot().items():
        names = sorted(variables(schema))
        for values in iter_product(grid, repeat=len(names)):
            assert rational_eval(schema, dict(zip(names, values))) == 1, name
    rng = random.Random(20240804)
    for _ in range(1000):
        val = {v: Fraction(rng.randint(0, 499), 499)
               for v in ("alpha", "beta", "gamma")}
        for name, schema in axiom_schemas_bot().items():
            assert rational_eval(schema, val) == 1, (name, val)


def test_equivalence_needs_a_level():
    for n in (1, 0, -3):
        with pytest.raises(AlgebraError, match="level must be >= 2"):
            equivalent(parse("p"), parse("q"), n)


# ---------------------------------------------------------------------------
# The per-valuation sweep that decided tautology, consequence and
# equivalence before they ran on value tables of terms: the oracle for
# `logic._decide` and `formulas.equation_violations`.
# ---------------------------------------------------------------------------

def _names(formulas):
    return sorted(set().union(*map(variables, formulas)))


def reference_sweep(formulas, n):
    """(chain, compiled formulas, value tuple) over every chain up to n,
    valuations of the sorted names in lexicographic order on each chain."""
    names = _names(formulas)
    for k in range(2, n + 1):
        A = make_chain(k, with_delta=True, with_bottom=True)
        fs = [compile_term(f, A, names) for f in formulas]
        for values in iter_product(range(A.size), repeat=len(names)):
            yield A, fs, values


def _refuted(formulas, A, values):
    return Verdict(False, (A.size, dict(zip(_names(formulas), values))))


def reference_is_tautology(f, n):
    if n < 2:
        raise AlgebraError("level must be >= 2")
    for A, (g,), v in reference_sweep([f], n):
        if g(v) != A.top:
            return _refuted([f], A, v)
    return Verdict(True)


def reference_consequence(hypotheses, f, n):
    if n < 2:
        raise AlgebraError("level must be >= 2")
    hyps = list(hypotheses)
    for A, (*hs, g), v in reference_sweep(hyps + [f], n):
        if all(h(v) == A.top for h in hs) and g(v) != A.top:
            return _refuted(hyps + [f], A, v)
    return Verdict(True)


def reference_equivalent(f, g, n):
    for A, (cf, cg), v in reference_sweep([f, g], n):
        if cf(v) != cg(v):
            return _refuted([f, g], A, v)
    return Verdict(True)


def _sorted_witness(verdict):
    k, v = verdict.counterexample
    return (k, *[v[x] for x in sorted(v)])


def reference_theorem_suite(n):
    violations = []
    for name, premises, conclusion in _theorem_catalogue(n):
        verdict = reference_consequence(premises, conclusion, n)
        if not verdict.holds:
            violations.append((name, _sorted_witness(verdict)))
    return CheckReport.from_violations(violations)


def reference_hierarchy_check(n):
    violations = []
    for name, schema in axiom_schemas_n(n + 1).items():
        verdict = reference_is_tautology(schema, n)
        if not verdict.holds:
            violations.append((f"{name}[n={n + 1}]@{n}", _sorted_witness(verdict)))
    verdict = reference_is_tautology(axiom_schemas_n(n)["AX5"], n + 1)
    if verdict.holds:
        violations.append((f"AX5[n={n}]-not-refuted@{n + 1}", ()))
    elif verdict.counterexample != canonical_level_counterexample(n):
        violations.append((f"AX5[n={n}]-noncanonical-witness", _sorted_witness(verdict)))
    return CheckReport.from_violations(violations)


@st.composite
def formulas(draw):
    """random_formula over 0-4 names, with and without F; over no names it
    draws F as its only atom, so the formula is variable-free."""
    names = ["p", "q", "r", "s"][:draw(st.integers(0, 4))]
    allow_bot = not names or draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_formula(rng, names, rng.randint(0, 4), allow_bot)


@settings(max_examples=300, deadline=None)
@given(formulas(), st.lists(formulas(), max_size=2), formulas(), st.integers(2, 7))
@example(Imp(Delta(BOT), BOT), [], Delta(TOP), 3)
@example(parse("p -> q"), [parse("q"), parse("D p")], parse("q -> p"), 4)
def test_decisions_match_the_sweep(f, hypotheses, g, n):
    assert is_tautology(f, n) == reference_is_tautology(f, n)
    assert consequence(hypotheses, f, n) == reference_consequence(hypotheses, f, n)
    assert equivalent(f, g, n) == reference_equivalent(f, g, n)
    assert refute_search(f, n) == reference_is_tautology(f, n).counterexample


@pytest.mark.parametrize("n", range(3, 9))
def test_suites_match_the_sweep(n):
    assert theorem_suite(n) == reference_theorem_suite(n)
    assert hierarchy_check(n) == reference_hierarchy_check(n)


def test_a_decision_holds_one_chain_at_a_time():
    # the chains L2..L150 hold about 150^3 / 3 = 1.1e6 table entries together,
    # some 9 MB of tuple slots; the largest alone holds 22 500
    f = parse("p -> p")
    tracemalloc.start()
    try:
        verdict = is_tautology(f, 150)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert peak < 2 * 10**6
