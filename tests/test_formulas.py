import time
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
    compile_term,
    eval_formula,
    imp_k,
    match,
    parse,
    rational_eval,
    substitute,
    to_text,
    variables,
)
from lukra.algebra import make_chain, product
from lukra.freealg import build_free
from lukra.logic import is_tautology


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
        assert compile_term(deep, A, ["p"])((p,)) == A.delta[p]
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


@given(formulas)
def test_rational_eval_matches_chain_eval(f):
    # the 4-chain embeds in [0,1] at {0, 1/3, 2/3, 1}
    A = make_chain(4, with_delta=True, with_bottom=True)
    idx = {"p": 1, "q": 2, "r": 3}
    rat = {k: Fraction(v, 3) for k, v in idx.items()}
    assert rational_eval(f, rat) == Fraction(eval_formula(f, A, idx), 3)


def walk(f, algebra, valuation: dict[str, int]) -> int:
    """The recursive evaluator that eval_formula was before terms were
    compiled; the oracle for compile_term."""
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
    assert outcome(lambda: compile_term(f, A, list(v))(tuple(v.values()))) == want
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
