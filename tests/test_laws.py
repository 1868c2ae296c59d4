import random
import re
import tracemalloc
from itertools import islice, product as iter_product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lukra.algebra import (
    ConfigurationError,
    FiniteAlgebra,
    SizeGuardError,
    make_chain,
    product,
    with_delta,
)
from lukra.formulas import (
    BOT,
    TABLE_GUARD,
    TOP,
    Delta,
    EquationBatch,
    FormulaError,
    Imp,
    Var,
    equation_violations,
    eval_formula,
    _TermTables,
    parse,
    variables,
)
from lukra.laws import (
    CheckReport,
    Law,
    base_laws,
    check_identity,
    check_laws,
    check_LR,
    check_LRdelta_quasi,
    check_LRn,
    check_delta,
    check_property_suite,
    delta_axiom_laws,
    derived_laws,
    level_law,
    quasi_identity_laws,
)
from lukra.logic import _entailment, _theorem_catalogue

from catalog import chain_with_broken_delta, five_element_non_admissible


@pytest.mark.parametrize("n", range(2, 8))
def test_chains_pass_everything(n):
    A = make_chain(n, with_delta=True, with_bottom=True)
    assert check_LR(A).passed
    assert check_LRn(A, n).passed
    assert check_delta(A, n).passed
    assert check_LRdelta_quasi(A).passed
    report = check_property_suite(A, n)
    assert report.passed, report.violations


@pytest.mark.parametrize("n", range(2, 8))
def test_chains_pass_at_higher_levels(n):
    # an n-valued algebra is (n+k)-valued
    A = make_chain(n, with_delta=True)
    for extra in (1, 2, 3):
        assert check_LRn(A, n + extra).passed


def test_five_element_fixture():
    M = five_element_non_admissible()
    assert check_LR(M).passed
    assert check_LRn(M, 3).passed
    assert not check_LRn(M, 2).passed
    assert check_property_suite(M, 3).passed


def test_violation_witness_is_least():
    # break top -> x = x at every x > 0: witness must be the least index
    A = make_chain(3)
    bad = [list(r) for r in A.imp]
    bad[2] = [0, 0, 2]
    from lukra.algebra import FiniteAlgebra

    B = FiniteAlgebra(size=3, imp=tuple(tuple(r) for r in bad), top=2)
    report = check_LR(B)
    assert not report.passed
    by_name = dict(report.violations)
    assert by_name["L5"] == (1,)


def test_level_witness():
    # L6 at n=3 first fails in the 4-chain at x=2/3, y=0
    A = make_chain(4)
    report = check_LRn(A, 3)
    assert not report.passed
    assert report.violations[0] == ("L6[n=3]", (2, 0))


def test_check_identity():
    A = make_chain(4, with_delta=True)
    assert check_identity(A, parse("x -> x"), parse("T")).passed
    assert check_identity(A, parse("(x -> y) -> y"), parse("(y -> x) -> x")).passed
    assert check_identity(A, parse("D (x -> y) -> (D x -> D y)"), parse("T")).passed
    report = check_identity(A, parse("x"), parse("D x"))
    assert not report.passed
    # all counterexamples, in lexicographic order
    assert [w for _, w in report.violations] == [(1,), (2,)]
    with pytest.raises(ConfigurationError):
        check_identity(make_chain(3), parse("D x"), parse("x"))
    with pytest.raises(ConfigurationError):
        check_identity(A, *[parse("v -> w -> x -> y -> z")] * 2)


def test_delta_table_required():
    with pytest.raises(ConfigurationError):
        check_delta(make_chain(3), 3)
    with pytest.raises(ConfigurationError):
        check_LRdelta_quasi(make_chain(3))


def test_broken_delta_detected():
    A = make_chain(3, with_delta=True)
    bad = with_delta(A, (0, 0, 0))
    assert not check_delta(bad, 3).passed
    assert not check_LRdelta_quasi(bad).passed
    # suite flags the Tarskian-image law too
    rep = check_property_suite(bad, 3)
    assert not rep.passed
    assert any(name in ("DL9", "DLR9") for name, _ in rep.violations)


def test_quasi_base_on_chains_without_level():
    # the quasi-equational base does not mention the level n at all
    for n in range(2, 7):
        assert check_LRdelta_quasi(make_chain(n, with_delta=True)).passed


# ---------------------------------------------------------------------------
# The per-assignment sweep that check_laws was before it read subterm
# tables: the oracle for `formulas.equation_violations`.
# ---------------------------------------------------------------------------

def _evaluators(A, names, terms):
    """One evaluator of an assignment per term, by `eval_formula`.  A term's
    errors do not depend on the assignment, so evaluating each term at the
    zero assignment raises them before any sweep, in the order of `terms`."""
    try:
        for t in terms:
            eval_formula(t, A, dict.fromkeys(names, 0))
    except FormulaError as exc:
        raise ConfigurationError(f"law: {exc}") from None
    return [lambda e, t=t: eval_formula(t, A, dict(zip(names, e))) for t in terms]


def reference_violations(A, law):
    """Every violating assignment of the law, in lexicographic order."""
    lhs, rhs = _evaluators(A, law.vars, [law.lhs, law.rhs])
    prems = [_evaluators(A, law.vars, pair) for pair in law.premises]
    for e in iter_product(range(A.size), repeat=len(law.vars)):
        if all(pa(e) == pb(e) for pa, pb in prems) and lhs(e) != rhs(e):
            yield e


def reference_first_violation(A, law):
    return next(reference_violations(A, law), None)


def reference_check_laws(A, laws):
    violations = []
    for law in laws:
        w = reference_first_violation(A, law)
        if w is not None:
            violations.append((law.name, w))
    return CheckReport.from_violations(violations)


def reference_check_identity(A, lhs, rhs):
    names = sorted(variables(lhs) | variables(rhs))
    if len(names) > 4:
        raise ConfigurationError("identity checking supports at most 4 variables")
    lf, rf = _evaluators(A, names, [lhs, rhs])
    return CheckReport.from_violations(
        ("identity", e) for e in iter_product(range(A.size), repeat=len(names))
        if lf(e) != rf(e))


def outcome(fn):
    """The report, or the type and message of the error raised."""
    try:
        return fn()
    except ConfigurationError as exc:
        return type(exc), str(exc)


NAMES = ("x", "y", "z", "w")

terms = st.recursive(
    st.sampled_from([Var(x) for x in NAMES] + [TOP, BOT]),
    lambda inner: st.one_of(st.builds(Imp, inner, inner), st.builds(Delta, inner)),
    max_leaves=8,
)


@st.composite
def random_tables(draw, max_size=6):
    """Any in-range tables, mostly not algebras of the variety."""
    n = draw(st.integers(1, max_size))
    cell = st.integers(0, n - 1)
    imp = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    top = draw(cell)
    bottom = draw(st.none() | cell)
    if bottom is not None:
        imp[bottom] = [top] * n
    delta = draw(st.none() | st.lists(cell, min_size=n, max_size=n))
    return FiniteAlgebra(size=n, imp=imp, top=top, delta=delta, bottom=bottom)


algebras = st.one_of(
    random_tables(),
    st.sampled_from([
        make_chain(4, with_delta=True, with_bottom=True),
        make_chain(6, with_delta=True),
        make_chain(5),
        product([make_chain(2, with_delta=True), make_chain(3, with_delta=True)]),
        chain_with_broken_delta(),
        five_element_non_admissible(),
    ]),
)


@st.composite
def random_laws(draw):
    """Laws with premises, unused and missing variables, in any order."""
    lhs, rhs = draw(terms), draw(terms)
    premises = tuple(draw(st.lists(st.tuples(terms, terms), max_size=2)))
    used = set().union(*(variables(t) for pair in [(lhs, rhs), *premises] for t in pair))
    names = used | set(draw(st.lists(st.sampled_from(NAMES), max_size=2)))
    if names and draw(st.integers(0, 9)) == 0:
        names.discard(draw(st.sampled_from(sorted(names))))
    return Law("R", tuple(draw(st.permutations(sorted(names)))), lhs, rhs, premises)


@settings(max_examples=100)
@given(algebras, st.integers(2, 7), st.booleans())
def test_catalogue_matches_the_sweep(A, n, delta):
    laws = base_laws() + [level_law(n)] + derived_laws(n, delta)
    if delta:
        laws += delta_axiom_laws(n) + quasi_identity_laws()
    want = outcome(lambda: reference_check_laws(A, laws))
    assert outcome(lambda: check_laws(A, laws)) == want


@settings(max_examples=200)
@given(algebras, st.lists(random_laws(), min_size=1, max_size=4))
def test_random_laws_match_the_sweep(A, laws):
    want = outcome(lambda: reference_check_laws(A, laws))
    assert outcome(lambda: check_laws(A, laws)) == want
    for law in laws:
        want = outcome(lambda: reference_check_identity(A, law.lhs, law.rhs))
        assert outcome(lambda: check_identity(A, law.lhs, law.rhs)) == want


def test_wide_carrier_matches_the_sweep():
    # more than 256 elements: tables are arrays of a wider type
    A = make_chain(260, with_delta=True)
    B = with_delta(A, (0,) * 130 + A.delta[130:])
    laws = [base_laws()[2], level_law(3), delta_axiom_laws(3)[1], quasi_identity_laws()[0]]
    for C in (A, B):
        assert check_laws(C, laws) == reference_check_laws(C, laws)
        x = Var("x")
        assert check_identity(C, x, Delta(x)) == reference_check_identity(C, x, Delta(x))


@pytest.mark.parametrize("first", [0, 1])
def test_a_subterm_fixed_under_one_slab_variable_and_sliced_under_another(first):
    # x -> z uses no y, so under the slab variable y its table is kept across
    # slabs, over (x, z); under the slab variable x it is tabulated per slab,
    # over (z,): the slabs of x must not read the table kept for y
    A = product([make_chain(5, with_delta=True), make_chain(4, with_delta=True)])
    x, y, z = Var("x"), Var("y"), Var("z")
    xz = Imp(x, z)
    laws = [Law("yxz", ("y", "x", "z"), Imp(xz, y), TOP),
            Law("xyz", ("x", "y", "z"), Imp(Delta(xz), y), Imp(xz, y), ((Delta(y), y),))]
    laws = laws[first:] + laws[:first]
    found = equation_violations(A, [(law.vars, law.lhs, law.rhs, law.premises) for law in laws],
                                every=True)
    assert all(found)
    assert found == [list(reference_violations(A, law)) for law in laws]


def test_three_variable_law_runs_below_one_whole_table():
    # slab by slab, a table holds N^2 entries; a whole L9 table holds N^3
    A = product([make_chain(5, with_delta=True)] * 3)
    law = [law for law in derived_laws(5, False) if law.name == "L9"]
    tracemalloc.start()
    try:
        report = check_laws(A, law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < A.size ** 3


def test_table_guard_refuses_before_tabulating():
    # four variables over 300 elements: each side spread over the slab alone
    # holds 300^3 entries
    A = make_chain(300)
    with pytest.raises(SizeGuardError, match=rf"predicted \d+ table entries held at once "
                                             rf"exceed guard {TABLE_GUARD}$"):
        check_identity(A, parse("x -> y -> z -> w -> x"), TOP)


def _predicted(batch, n):
    """The table entries `check_guard` predicts for batch at carrier size n."""
    with pytest.raises(SizeGuardError) as refused:
        batch.check_guard(n, 0)
    return int(re.match(r"predicted (\d+) table entries", str(refused.value)).group(1))


def test_the_guard_predicts_pinned_entries():
    # each plan's slab name and slab nodes are derived from its names and
    # `vars`; a drift in the prediction shows here, where every refusal
    # test reads the number back from the message
    laws = (base_laws() + [level_law(3)] + delta_axiom_laws(3) + derived_laws(3, True)
            + quasi_identity_laws())    # what `algebra check --suite --quasi` runs at n = 3
    batch = EquationBatch([(law.vars, law.lhs, law.rhs, law.premises) for law in laws],
                          delta=True, bottom=True)
    assert _predicted(batch, 45) == 143750
    batch = EquationBatch([(None, *_entailment(premises, f))
                           for _, premises, f in _theorem_catalogue(3)], delta=True, bottom=True)
    assert _predicted(batch, 3) == 1379
    # a repeated name binds its last position: no slab fixes it at position 0
    x, y, z = Var("x"), Var("y"), Var("z")
    batch = EquationBatch([(("x", "y", "x"), Imp(Imp(x, y), x), TOP, ((Delta(y), y),)),
                           (("y", "z", "y"), Imp(y, z), Imp(z, y), ()),
                           (("x", "x"), Delta(x), x, ()),
                           (("x", "y", "y"), Imp(x, y), Imp(Delta(y), x), ())],
                          delta=True, bottom=True)
    assert _predicted(batch, 45) == 24707


def test_the_guard_counts_every_witness_kept():
    # x -> y ~ y over the positions (x, y, x) fails at almost every (y, x)
    # of a seeded 100-element table, and with `every` each failure is kept
    # for each of the 100 values of the unbound first x: about 10^6
    # witnesses, whose 3 positions each count with the predicted tables
    A = seeded_table(100, 84, delta=False, bottom=False)
    x, y = Var("x"), Var("y")
    equations = [(("x", "y", "x"), Imp(x, y), y, ())]
    kept = len(equation_violations(A, equations, every=True)[0])
    total = EquationBatch(equations, False, False).check_guard(100, TABLE_GUARD) + 3 * kept
    assert kept > 900000 and total <= TABLE_GUARD
    with pytest.raises(SizeGuardError, match=rf"^{total} table entries and witness positions "
                                             rf"held at once exceed guard {total - 1}$"):
        equation_violations(A, equations, every=True, guard=total - 1)


# `EquationBatch.violations`, the slab-by-slab search every law check
# takes, on small carriers against the per-assignment sweep.
# ---------------------------------------------------------------------------

# chains 2..16 and any in-range tables of at most 16 elements
small_algebras = st.one_of(
    st.builds(make_chain, st.integers(2, 16), with_delta=st.booleans(),
              with_bottom=st.booleans()),
    random_tables(16),
)


@st.composite
def equations_over(draw, delta, bottom, pool=NAMES[:3], repeat=True):
    """(names, lhs, rhs, premises) in the signature of an algebra over some
    of the names in `pool`: premises, some holding everywhere, unused
    names, repeated ones with `repeat`, and laws over no variable at all."""
    atoms = [Var(x) for x in pool] + [TOP] + ([BOT] if bottom else [])
    law_terms = st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(st.builds(Imp, inner, inner),
                                *([st.builds(Delta, inner)] if delta else [])),
        max_leaves=6)
    lhs, rhs = draw(law_terms), draw(law_terms)
    premises = tuple(draw(st.lists(st.tuples(law_terms, law_terms)
                                   | law_terms.map(lambda t: (t, t)), max_size=2)))
    used = set().union(*(variables(t) for pair in [(lhs, rhs), *premises] for t in pair))
    names = list(draw(st.permutations(sorted(used | set(draw(st.lists(
        st.sampled_from(pool), max_size=1)))))))
    if repeat and names and draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
    return tuple(names), lhs, rhs, premises


# the sweep evaluates every term at every assignment, up to 16^4 of them
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_slabs_match_the_sweep_on_small_algebras(data):
    A = data.draw(small_algebras)
    delta, bottom = A.delta is not None, A.bottom is not None
    equations = data.draw(st.lists(equations_over(delta, bottom), min_size=1, max_size=4))
    which = data.draw(st.permutations(range(len(equations))))[:data.draw(
        st.integers(1, len(equations)))]
    every = data.draw(st.booleans())
    found = EquationBatch(equations, delta, bottom).violations(A, which, every)
    assert found == [list(islice(reference_violations(A, Law("R", *equations[i])),
                                 None if every else 1)) for i in which]


def seeded_table(n, seed, delta, bottom):
    """Any in-range tables of n elements, from a seeded generator: too many
    cells for hypothesis to draw one by one."""
    rng = random.Random(seed)
    row = lambda: [rng.randrange(n) for _ in range(n)]  # noqa: E731
    imp, top = [row() for _ in range(n)], rng.randrange(n)
    bot = rng.randrange(n) if bottom else None
    if bot is not None:
        imp[bot] = [top] * n
    return FiniteAlgebra(size=n, imp=imp, top=top, delta=row() if delta else None, bottom=bot)


def seeded_tables(sizes):
    return st.builds(seeded_table, sizes, st.integers(0, 2**32), st.booleans(), st.booleans())


# the sweep takes up to 40^2 assignments an equation here
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_slabs_match_the_sweep_on_larger_tables(data):
    A = data.draw(seeded_tables(st.integers(17, 40)))
    equations = data.draw(st.lists(equations_over(A.delta is not None, A.bottom is not None,
                                                  NAMES[:2], repeat=False),
                                   min_size=1, max_size=3))
    found = equation_violations(A, equations, every=True)
    assert found == [list(reference_violations(A, Law("R", *e))) for e in equations]


# ---------------------------------------------------------------------------
# `_TermTables`' bulk operations on byte tables against its entry-by-entry
# path, which carriers of more than 256 elements take.
# ---------------------------------------------------------------------------

def on_the_map_path(run):
    """`run()` with every carrier's tables mapped entry by entry."""
    with mock.patch.object(_TermTables, "BYTE_CARRIER", 0):
        return run()


# three names put the slab tables over one or two axes, so implications
# meet sides over prefixes, suffixes and the same axes, and broadcasts to
# a target that starts with a table's axes; at 255 elements and more,
# two names, none repeated, keep each equation to N^2 entries a node
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_byte_tables_match_the_map_path(data):
    n = data.draw(st.sampled_from([1, 2, 255, 256, 257]) | st.integers(3, 40))
    chains = st.builds(make_chain, st.just(n), with_delta=st.booleans(),
                       with_bottom=st.booleans())
    A = data.draw(seeded_tables(st.just(n)) | chains if n > 1 else seeded_tables(st.just(n)))
    small = n <= 40
    equations = data.draw(st.lists(equations_over(A.delta is not None, A.bottom is not None,
                                                  NAMES[:3] if small else NAMES[:2], small),
                                   min_size=1, max_size=4))
    found = equation_violations(A, equations, every=True)
    assert found == on_the_map_path(lambda: equation_violations(A, equations, every=True))


_y, _z = Var("y"), Var("z")
_yz, _zy = Imp(_y, _z), Imp(_z, _y)
# over x, y, z with x unused, so every table is over (y, z) or less and kept
# across the slabs of x: sides over (y) and (z), a prefix and a suffix of
# (y, z), on the left and on the right, sides over the same axes, and
# premises broadcast from (y) and (z), holding everywhere or not
SHAPES = [(("x", "y", "z"), Imp(_y, _yz), Imp(_z, _yz), ()),
          (("x", "y", "z"), Imp(_yz, _y), Imp(_yz, _z), ((Imp(_yz, _zy), Imp(_zy, _yz)),)),
          (("x", "y", "z"), Imp(_y, _y), Imp(_z, _z), ((_yz, TOP),)),
          (("x", "y", "z"), Delta(_zy), Imp(_zy, _y), ((_yz, _yz), (Delta(_y), _z)))]


_x = Var("x")
_xy, _xz = Imp(_x, _y), Imp(_x, _z)
# over w, x, y, z with w unused, so every table is over (x, y, z) or less:
# broadcasts to a target that starts with a table's axes, from (x) with
# runs of N^2 entries, more than its N, and from (x, y) with runs of N,
# fewer than its N^2
SHAPES4 = [(("w", "x", "y", "z"), Imp(_xy, _z), Imp(_x, _yz), ()),
           (("w", "x", "y", "z"), _x, Imp(_xy, _xz), ((Imp(_xy, _z), Imp(_xy, _z)),)),
           (("w", "x", "y", "z"), Delta(_xy), Imp(_xz, _x), ((Delta(_x), _xy),))]


# past 40 elements only the least violation is compared: it lies in the
# first slab of x unless the law holds
@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 40, 255, 256, 257])
def test_byte_tables_match_the_map_path_on_prefix_suffix_and_same_axes(n):
    A = seeded_table(n, n, delta=True, bottom=False)
    every = n <= 40
    found = equation_violations(A, SHAPES, every)
    assert found == on_the_map_path(lambda: equation_violations(A, SHAPES, every))
    if n >= 16:
        assert all(found)


@pytest.mark.parametrize("n", [2, 3, 16, 17, 40])
def test_byte_tables_match_the_map_path_on_four_names(n):
    A = seeded_table(n, n, delta=True, bottom=False)
    every = n <= 16
    found = equation_violations(A, SHAPES4, every)
    assert found == on_the_map_path(lambda: equation_violations(A, SHAPES4, every))
    if n >= 16:
        assert all(found)
