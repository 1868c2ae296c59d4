import copy
import gc
import pickle
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lukra.formulas import (
    BOT,
    IMP_K_LIMIT,
    TOP,
    Bot,
    Delta,
    FormulaError,
    Imp,
    TEXT_NODES,
    Top,
    Var,
    eval_formula,
    imp_k,
    match,
    parse,
    rational_eval,
    substitute,
    to_text,
    variables,
)
from lukra import formulas as fml
from lukra.algebra import make_chain, product
from lukra.fo import FEq, FForall, FPred, TermApp, fo_parse
from lukra.freealg import build_free
from lukra.logic import is_tautology
import oracles


def test_precedence_and_associativity():
    assert parse("p -> D q -> p") == Imp(Var("p"), Imp(Delta(Var("q")), Var("p")))
    assert parse("p -> q -> r") == Imp(Var("p"), Imp(Var("q"), Var("r")))
    assert parse("(p -> q) -> r") == Imp(Imp(Var("p"), Var("q")), Var("r"))
    assert parse("D p -> q") == Imp(Delta(Var("p")), Var("q"))
    assert parse("D (p -> q)") == Delta(Imp(Var("p"), Var("q")))


def test_sugar():
    p, q = Var("p"), Var("q")
    assert parse("p ->[2] q") == Imp(p, Imp(p, q))
    assert parse("p ->[0] q") == q
    assert parse("p | q") == Imp(Imp(p, q), q)
    assert parse("~p") == Imp(p, BOT)
    assert parse("p & q") == parse("~(~p | ~q)")
    assert parse("T") == TOP and parse("F") == BOT


def test_unicode_aliases():
    assert parse("p → Δ q") == parse("p -> D q")
    assert parse("⊤ → ¬ p") == parse("T -> ~p")


def test_parse_errors_carry_position():
    with pytest.raises(FormulaError):
        parse("p ->")
    with pytest.raises(FormulaError) as exc:
        parse("p q")
    assert "position" in str(exc.value)
    with pytest.raises(FormulaError):
        parse("(p -> q")


@settings(max_examples=300)
@given(st.text(max_size=6) | st.sampled_from(["_", "a1", "1a", "é", "ℌ", "x\u0300", "ǅ", "a b"]))
def test_a_name_is_an_ascii_identifier(tok):
    # the parsers test a name token with str.isidentifier; on ASCII that
    # reads the language of the regex [A-Za-z_][A-Za-z0-9_]*, and no
    # other string passes either test
    assert (tok.isascii() and tok.isidentifier()) == bool(oracles._NAME_RE.fullmatch(tok))


def test_iterated_implication_is_bounded_before_expansion():
    f, depth = parse(f"p ->[{IMP_K_LIMIT}] q"), 0
    while isinstance(f, Imp):
        f, depth = f.right, depth + 1
    assert (f, depth) == (Var("q"), IMP_K_LIMIT)
    assert parse("p ->[0012] q") == imp_k(Var("p"), Var("q"), 12)
    for k in (IMP_K_LIMIT + 1, 99999999, "9" * 5000):
        with pytest.raises(FormulaError) as exc:
            parse(f"p ->[{k}] q")
        assert str(k) in str(exc.value) and str(IMP_K_LIMIT) in str(exc.value)


def test_deep_nesting_is_answered():
    deep = Var("p")
    for _ in range(3000):
        deep = Delta(deep)
    assert parse("D " * 3000 + "p") == deep
    assert parse("(" * 1200 + "p" + ")" * 1200) == Var("p")
    A = make_chain(3, with_delta=True)
    for p in range(3):
        assert eval_formula(deep, A, {"p": p}) == A.delta[p]


NESTED = "((((p ->[20] q) ->[20] r) ->[20] s) ->[20] t) ->[20] u"
SHARED = "((p ->[1000] q) ->[1000] r) ->[1000] s"


def test_work_is_linear_in_the_shared_term():
    # the sugar repeats its left operand by reference, so these trees have
    # about 20^5 and 2 * 10^9 nodes; every walk visits each distinct node once
    start = time.perf_counter()
    verdict = is_tautology(parse(NESTED), 3)
    assert verdict.counterexample == (2, {"p": 0, "q": 0, "r": 0, "s": 0, "t": 1, "u": 0})
    assert parse(SHARED) == parse(SHARED)
    assert variables(parse(SHARED)) == {"p", "q", "r", "s"}
    with pytest.raises(FormulaError, match=f"exceeds TEXT_NODES = {TEXT_NODES}"):
        to_text(parse(SHARED))
    assert time.perf_counter() - start < 1


def test_text_is_joined_from_a_bounded_list_of_pieces():
    # 372 401 nodes written out as 0.94 MB: the joined chunks and the text,
    # plus one chunk's pieces, not a list of about a million pieces
    f = parse("((p ->[30] q) ->[30] r) ->[200] s")
    tracemalloc.start()
    try:
        text = to_text(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == oracles.to_text(f)
    assert peak < 2.5 * len(text)


formulas = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Var("r"), TOP, BOT]),
    lambda inner: st.one_of(
        st.builds(Imp, inner, inner),
        st.builds(Delta, inner),
    ),
    max_leaves=12,
)


@given(formulas)
def test_print_parse_roundtrip(f):
    assert parse(to_text(f)) == f


@given(formulas, st.data())
def test_rational_eval_matches_chain_eval(f, data):
    # the 4-chain embeds in [0,1] at {0, 1/3, 2/3, 1}
    A = make_chain(4, with_delta=True, with_bottom=True)
    idx = {"p": 1, "q": 2, "r": 3}
    rat = {k: Fraction(v, 3) for k, v in idx.items()}
    assert rational_eval(f, rat) == Fraction(eval_formula(f, A, idx), 3)
    # values outside [0, 1] and a name left out raise as the recursive
    # evaluator does, at the first bad node in a depth-first walk
    values = st.sampled_from([Fraction(-1, 3), Fraction(4, 3), Fraction(1, 2), 1])
    rat.update(data.draw(st.dictionaries(st.sampled_from("pqr"), values, max_size=3)))
    rat.pop(data.draw(st.sampled_from(["p", "q", "r", None])), None)
    assert outcome(lambda: rational_eval(f, rat)) == outcome(lambda: oracles.rational_eval(f, rat))


def walk(f, algebra, valuation: dict[str, int]) -> int:
    """The recursive evaluator that eval_formula was before terms were
    compiled; the oracle for eval_formula's fold."""
    if isinstance(f, Var):
        try:
            return valuation[f.name]
        except KeyError:
            raise FormulaError(f"unassigned variable {f.name!r}") from None
    if isinstance(f, Top):
        return algebra.top
    if isinstance(f, Bot):
        if algebra.bottom is None:
            raise FormulaError("formula uses F but the algebra has no bottom")
        return algebra.bottom
    if isinstance(f, Imp):
        return algebra.imp[walk(f.left, algebra, valuation)][
            walk(f.right, algebra, valuation)
        ]
    if isinstance(f, Delta):
        if algebra.delta is None:
            raise FormulaError("formula uses D but the algebra has no delta")
        return algebra.delta[walk(f.child, algebra, valuation)]
    raise FormulaError(f"not a formula node: {f!r}")


def outcome(fn):
    try:
        return fn()
    except FormulaError as exc:
        return str(exc)


ALGEBRAS = [
    make_chain(4, with_delta=True, with_bottom=True),
    make_chain(3),
    make_chain(3, with_delta=True),
    make_chain(3, with_bottom=True),
    product([make_chain(2, with_delta=True, with_bottom=True),
             make_chain(3, with_delta=True, with_bottom=True)]),
    build_free(2, 2).algebra,
]


@settings(max_examples=300)
@given(formulas, st.sampled_from(ALGEBRAS), st.data())
def test_compiled_terms_match_the_walker(f, A, data):
    v = {x: data.draw(st.integers(0, A.size - 1)) for x in "pqr"}
    # a variable left out must make both sides raise alike
    v.pop(data.draw(st.sampled_from(["p", "q", "r", None, None, None])), None)
    want = outcome(lambda: walk(f, A, v))
    assert outcome(lambda: eval_formula(f, A, v)) == want


def test_eval_errors():
    A = make_chain(3)
    with pytest.raises(FormulaError):
        eval_formula(parse("p"), A, {})
    with pytest.raises(FormulaError):
        eval_formula(parse("D p"), A, {"p": 0})
    with pytest.raises(FormulaError):
        eval_formula(parse("F"), A, {})
    with pytest.raises(FormulaError):
        rational_eval(parse("p"), {"p": Fraction(3, 2)})


def test_match_and_substitute():
    schema = parse("a -> (b -> a)")
    inst = parse("(p -> q) -> (D r -> (p -> q))")
    got = match(schema, inst)
    assert got == {"a": parse("p -> q"), "b": parse("D r")}
    assert substitute(schema, got) == inst
    assert match(schema, parse("p -> (q -> r)")) is None


def test_variables_and_impk():
    f = imp_k(Var("x"), Var("y"), 3)
    assert variables(f) == {"x", "y"}
    assert f == parse("x ->[3] y")


def test_every_construction_returns_the_one_node_of_its_term():
    a, b = Var("p"), parse("D q -> F")
    assert Var(name="p") is Var("p") is a
    assert Imp(left=a, right=b) is Imp(a, b)
    assert Top() is TOP and Bot() is BOT
    f = parse("(p -> D q) | ~(r & T)")
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert parse(to_text(f)) is f
    text = "forall x (P(f(x), c) -> exists y g(y, x) = c)"
    g = fo_parse(text)
    assert fo_parse(text) is g
    assert {FPred, TermApp, FEq, FForall} <= {type(h) for h in fml.postorder(g)}
    assert copy.deepcopy(g) is g and pickle.loads(pickle.dumps(g)) is g


def test_the_node_table_lets_go_of_unheld_terms():
    gc.collect()
    before = len(fml._CONS)
    f = Var("leak0")
    for i in range(1, 3400):
        f = Imp(f, Delta(Var(f"leak{i}")))
    assert len(fml._CONS) > before + 10_000
    del f
    gc.collect()
    assert len(fml._CONS) == before


many_names = st.recursive(
    st.sampled_from([Var(f"v{i}") for i in range(12)] + [TOP]),
    lambda inner: st.one_of(st.builds(Imp, inner, inner), st.builds(Delta, inner)),
    max_leaves=16,
)


@given(many_names)
def test_a_plan_gives_each_subterm_its_sorted_names(f):
    batch = fml.EquationBatch([(None, f, TOP, ())], delta=True, bottom=False)
    assert batch.plans[0].names == tuple(sorted(variables(f)))
    for g in fml.postorder(f):
        assert batch.vars[id(g)] == tuple(sorted(variables(g)))


def test_a_long_chain_of_names_plans_in_a_fraction_of_a_second():
    # each implication merges its children's sorted names, placing the
    # shorter side's into the longer side's: no sort per node
    names = [f"p{i}" for i in range(9000)]
    f = parse(" -> ".join(names))
    start = time.perf_counter()
    batch = fml.EquationBatch([(None, f, TOP, ())], delta=True, bottom=True)
    assert time.perf_counter() - start < 3
    assert batch.plans[0].names == tuple(sorted(names))
