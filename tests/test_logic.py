import random
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import product as iter_product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lukra.algebra import AlgebraError, SizeGuardError, _Packing, make_chain
from lukra.formulas import (
    BOT,
    TOP,
    Delta,
    EquationBatch,
    Imp,
    eval_formula,
    parse,
    rational_eval,
    variables,
)
from lukra.freealg import build_free
from lukra.laws import CheckReport, base_laws, check_laws
from lukra.logic import (
    WORK_GUARD,
    Verdict,
    _entailment,
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


@pytest.mark.parametrize("n", [1, 0, -3])
@pytest.mark.parametrize("decide", [
    lambda n: equivalent(parse("p"), parse("q"), n),
    theorem_suite,
    hierarchy_check,
    lambda n: is_tautology(parse("p -> p"), n),
], ids=["equivalent", "theorem_suite", "hierarchy_check", "is_tautology"])
def test_every_decision_needs_a_level(decide, n):
    # the level is checked first, before any formula of the level is built
    with pytest.raises(AlgebraError, match="^level must be >= 2$"):
        decide(n)


# ---------------------------------------------------------------------------
# The per-valuation sweep that decided tautology, consequence and
# equivalence before they ran on value tables of terms: the oracle for
# `logic._decide` and `formulas.equation_violations`.
# ---------------------------------------------------------------------------

def _names(formulas):
    return sorted(set().union(*map(variables, formulas)))


def reference_sweep(formulas, n):
    """(chain, evaluators of the formulas, value tuple) over every chain up
    to n, valuations of the sorted names in lexicographic order on each
    chain; an evaluator maps a value tuple to the formula's value."""
    names = _names(formulas)
    for k in range(2, n + 1):
        A = make_chain(k, with_delta=True, with_bottom=True)
        fs = [lambda v, f=f: eval_formula(f, A, dict(zip(names, v))) for f in formulas]
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


def _edge(equations, n):
    """The decisions' chunk bound, `logic.TABLE_GUARD`, patched to the table
    entries `check_guard` predicts for the equations at level n, or to
    sum k^2 over L_2..L_n if that is larger: a group whose packed tables
    pass it runs in chunks."""
    batch = EquationBatch([(None, *equation) for equation in equations], delta=True, bottom=True)
    with pytest.raises(SizeGuardError) as refused:
        batch.check_guard(n, 0)
    predicted = int(re.match(r"predicted (\d+) ", str(refused.value)).group(1))
    return mock.patch("lukra.logic.TABLE_GUARD", max(predicted, n * (n + 1) * (2 * n + 1) // 6 - 1))


@settings(max_examples=300, deadline=None)
@given(formulas(), st.lists(formulas(), max_size=2), formulas(), st.integers(2, 7))
@example(Imp(Delta(BOT), BOT), [], Delta(TOP), 3)
@example(parse("p -> q"), [parse("q"), parse("D p")], parse("q -> p"), 4)
def test_decisions_match_the_sweep(f, hypotheses, g, n):
    # each decision under the default chunk bound and at the bound's edge, in chunks
    taut = reference_is_tautology(f, n)
    with _edge([_entailment((), f)], n):
        chunked = is_tautology(f, n), refute_search(f, n)
    assert is_tautology(f, n) == taut == chunked[0]
    assert refute_search(f, n) == taut.counterexample == chunked[1]
    with _edge([_entailment(hypotheses, f)], n):
        chunked = consequence(hypotheses, f, n)
    assert consequence(hypotheses, f, n) == reference_consequence(hypotheses, f, n) == chunked
    with _edge([(f, g, ())], n):
        chunked = equivalent(f, g, n)
    assert equivalent(f, g, n) == reference_equivalent(f, g, n) == chunked


@pytest.mark.parametrize("n", range(3, 9))
def test_suites_match_the_sweep(n):
    assert theorem_suite(n) == reference_theorem_suite(n)
    assert hierarchy_check(n) == reference_hierarchy_check(n)


def test_a_decision_holds_one_chain_at_a_time():
    # a decision holds the packed ints of one chain at a time: on L_150 each
    # subterm is 150 fields of 10 bits, where the chains L2..L150 together
    # would make about 150^3 / 3 = 1.1e6 implication entries as tables
    f = parse("p -> p")
    tracemalloc.start()
    try:
        verdict = is_tautology(f, 150)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert peak < 2 * 10**6


def test_a_chunked_decision_holds_one_chunk():
    # at the chunk bound's edge for level 12, L_9 packs the 13 nodes over the
    # 9^5 values of five names (j = 1) and L_10..L_12 over k^4 of four (j = 2);
    # L_12 packed whole would be 13 ints of 12^6 fields, a 47.6 MB peak
    f = parse("(f -> e) -> (d -> c) -> (b -> a) -> (f -> e)")
    edge = _edge([_entailment((), f)], 12)
    tracemalloc.start()
    try:
        with edge:
            verdict = is_tautology(f, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert peak < 1.2 * 10**6     # 0.95 MB measured


def _refuse_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr("lukra.algebra.make_chain", refuse)
    monkeypatch.setattr("lukra.formulas._TermTables", refuse)


def test_decisions_that_fit_the_guard_build_no_tables(monkeypatch):
    # every chain is packed ints: no FiniteAlgebra chain, no slab tables
    _refuse_tables(monkeypatch)
    assert is_tautology(parse("(p -> q) | (q -> p)"), 40).holds
    assert theorem_suite(12).passed
    assert hierarchy_check(8).passed


def test_law_checks_and_decisions_run_one_search(monkeypatch):
    # the slabs of a law check and the chunks of a decision are one loop,
    # over value tables and over packed ints
    search, callers = EquationBatch._search, []

    def spy(self, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return search(self, *args, **kwargs)

    monkeypatch.setattr(EquationBatch, "_search", spy)
    assert check_laws(make_chain(4, with_delta=True), base_laws()).passed
    assert set(callers) == {"violations"}
    callers.clear()
    _refuse_tables(monkeypatch)
    assert is_tautology(parse("(p -> q) | (q -> p)"), 5).holds
    assert callers == ["_least_violations"] * 4     # L_2..L_5


def test_a_group_past_the_guard_is_decided_slab_by_slab(monkeypatch):
    # at the chunk bound's edge, a group of v names whose packed tables over
    # all of them pass it on L_n goes slab by slab of its first j names: one
    # chunk of packed ints per prefix of their values, and still no table
    packed = []

    def packing_spy(runs):
        packed.append(*runs)
        return _Packing(runs)

    _refuse_tables(monkeypatch)
    monkeypatch.setattr("lukra.logic._Packing", packing_spy)
    p = parse
    cases = [   # kind, arguments, n, j on L_n, least counterexample
        ("taut", [p("((p ->[4] ~q) -> p) -> p")], 6, 1, (6, {"p": 4, "q": 5})),
        ("conseq", [[p("p ->[5] q"), p("D (q -> p)")], p("p ->[4] q")], 6, 1,
         (6, {"p": 4, "q": 0})),
        ("equiv", [p("((p ->[4] q) -> p) -> p"), p("r -> r")], 6, 2, (6, {"p": 4, "q": 0, "r": 0})),
        ("conseq", [[p("p ->[5] q"), p("D (q -> r)")], p("p ->[4] r")], 6, 2,
         (6, {"p": 4, "q": 0, "r": 0})),
        ("taut", [p("(a -> b) -> ((b -> c) -> (a -> c))")], 6, 2, None),
        # the 31 nodes of p ->[30] D p put j = v on L_3
        ("taut", [p("((p ->[30] D p) -> (r -> q)) | (p | ~p)")], 3, 3,
         (3, {"p": 1, "q": 0, "r": 1})),
        ("conseq", [[p("(p ->[30] D p) -> q")], p("(r -> q) | (p | ~p)")], 3, 3, None),
        ("equiv", [p("((p ->[30] D p) -> (r -> q)) | (p | ~p)"), TOP], 3, 3,
         (3, {"p": 1, "q": 0, "r": 1})),
    ]
    decide = {"taut": (is_tautology, reference_is_tautology, lambda f: [_entailment((), f)]),
              "conseq": (consequence, reference_consequence,
                         lambda hs, f: [_entailment(hs, f)]),
              "equiv": (equivalent, reference_equivalent, lambda f, g: [(f, g, ())])}
    for kind, args, n, j, witness in cases:
        fn, reference, equations = decide[kind]
        packed.clear()
        with _edge(equations(*args), n):
            verdict = fn(*args, n)
        v = len(_names([t for a in args for t in (a if isinstance(a, list) else [a])]))
        assert packed[-1] == (n, n ** (v - j)), kind
        assert verdict == reference(*args, n) == fn(*args, n) == Verdict(witness is None, witness)


# The packed field width w is (2(k-1)).bit_length() + 1 on L_k, so it grows
# at k = 3, 5, 9, 17, 33, 65 and 129.  Multiples are built by doubling, as
# ~x -> x is min(m, 2x) on L_{m+1}, so the terms stay small and the sweeps
# fast.
def _double(f, times):
    for _ in range(times.bit_length() - 1):
        f = Imp(Imp(f, BOT), f)
    return f


def _plus(f, g):
    """min(m, f + g)."""
    return Imp(Imp(f, BOT), g)


def test_decisions_match_the_sweep_across_field_widths():
    p, q = parse("p"), parse("q")
    t = _double(Imp(p, BOT), 128)                # min(m, 128 (m - p))
    one_variable = [
        ("taut", Imp(Imp(t, p), p), (130, {"p": 128})),
        ("conseq", ([_plus(t, Imp(p, BOT))], t), (130, {"p": 128})),
        ("taut", parse("D p | ~D p"), None),
    ]
    s = _double(Imp(p, BOT), 32)                 # min(m, 32 (m - p))
    two_variables = [
        ("taut", Imp(Imp(_plus(s, q), p), p), (34, {"p": 32, "q": 0})),
        ("conseq", ([_plus(_plus(s, Imp(p, BOT)), q)], _plus(s, q)), (34, {"p": 32, "q": 0})),
        ("equiv", (_plus(s, q), _plus(_plus(s, Imp(p, BOT)), q)), (34, {"p": 32, "q": 0})),
        ("taut", parse("(p -> q) | (q -> p)"), None),
        ("taut", parse("D (p -> q) | D (q -> p)"), None),
    ]
    decide = {"taut": (is_tautology, reference_is_tautology),
              "conseq": (consequence, reference_consequence),
              "equiv": (equivalent, reference_equivalent)}
    for n, cases in ((130, one_variable), (34, two_variables)):
        for kind, args, witness in cases:
            args = args if isinstance(args, tuple) else (args,)
            verdict, want = (fn(*args, n) for fn in decide[kind])
            assert verdict == want == Verdict(witness is None, witness)


def test_theorem_suite_tables_stay_small():
    # three variables over L_12: a packed table is one int of 1728 fields of
    # 6 bits, about 1.3 KB
    tracemalloc.start()
    try:
        report = theorem_suite(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 10**6


def test_the_chain_sweep_is_bounded():
    # before L_k is searched each pending group adds its predicted work,
    # k^j ((N + 10) k^(v-j) w + 3*10^4 N), to a running count: for p -> p,
    # one group of v = 1 name and N = 3 nodes (p, p -> p, T), so j = 0 and
    # L_k adds 13 k w + 90000 for w = (2(k-1)).bit_length() + 1
    f = parse("p -> p")
    work = [13 * k * ((2 * (k - 1)).bit_length() + 1) + 90000 for k in range(2, 12)]
    within = sum(work[:-1])
    assert (within, work[-1]) == (813614, 90858)
    assert is_tautology(f, 10, guard=within).holds
    message = (rf"^predicted {within + 90858} units of packed work on the chains L_2..L_11 "
               rf"exceed guard {within}$")
    with pytest.raises(SizeGuardError, match=message):
        is_tautology(f, 11, guard=within)
    # a counterexample found within the count is still the answer
    assert refute_search(parse("p"), 10**20, guard=within) == (2, {"p": 0})
    assert consequence([parse("p -> D p")], parse("p"), 10**20, guard=within) == \
        Verdict(False, (2, {"p": 0}))


def test_the_default_guard_answers_up_to_level_390():
    # (p -> q) | (q -> p) answers at level 390 within WORK_GUARD; twenty
    # names and 41 nodes (20 names, 20 implications, T) answer on L_2, in
    # 2^2 chunks of 2^18 assignments, but L_3's 3^9 chunks of 3^11 pass the
    # guard, and are refused before they are searched
    assert is_tautology(parse("(p -> q) | (q -> p)"), 390).holds
    f = parse(" -> ".join(f"p{i}" for i in range(20)) + " -> p0")
    l2 = 2**2 * (51 * 2**18 * 3 + 30000 * 41)
    l3 = 3**9 * (51 * 3**11 * 4 + 30000 * 41)
    assert l2 <= WORK_GUARD < l2 + l3
    with pytest.raises(SizeGuardError, match=rf"^predicted {l2 + l3} units of packed work on "
                                             rf"the chains L_2..L_3 exceed guard {WORK_GUARD}$"):
        is_tautology(f, 10**20)


def test_a_refusal_names_its_predicted_work():
    # q -> p ~ T on L_2 is one group of v = 2 names and N = 4 nodes (q, p,
    # q -> p, T) with j = 0 and w = 3: (4 + 10) * 2^2 * 3 + 3*10^4 * 4 units
    with pytest.raises(SizeGuardError, match=r"^predicted 120168 units of packed work on "
                                             r"the chains L_2..L_2 exceed guard 5$"):
        is_tautology(parse("q -> p"), 3, guard=5)
    assert is_tautology(parse("q -> p"), 3, guard=120168) == Verdict(False, (2, {"p": 0, "q": 1}))
    # under the default guard a counterexample on L_2 answers at any level
    assert refute_search(parse("p"), 10**20) == (2, {"p": 0})
    assert consequence([parse("p -> D p")], parse("p"), 10**20) == Verdict(False, (2, {"p": 0}))
