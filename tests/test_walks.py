"""The parsers and term walks against the recursive ones they replace.

`oracles` keeps the recursive-descent parsers and the walkers that recurse
over the expanded tree; on inputs within the recursion limit both sides
must give the same term, the same result, or an error of the same class
with the same message.
"""

from hypothesis import given, settings, strategies as st

import oracles
from lukra import fo, formulas
from lukra.algebra import make_chain
from lukra.fo import FEq, FExists, FForall, FOError, FOStructure, FPred, TermApp, TermName
from lukra.formulas import BOT, TOP, Delta, FormulaError, Imp, Var, and_, imp_k, not_, or_


def outcome(fn):
    """What a call gives: its result, or the class and text of its error."""
    try:
        return fn()
    except (FormulaError, FOError) as exc:
        return type(exc), str(exc)


# -- text -----------------------------------------------------------------------

ATOMS = ["p", "q", "T", "F", "⊤", "⊥", "Dp"]
BINARY = ["->", "→", "↣", "|", "∨", "&", "∧", "->[0]", "->[2]", "->[ 03 ]"]
PREFIX = ["D ", "D", "Δ", "~", "¬"]


def combined(inner):
    """Texts joined by a connective, prefixed, or parenthesised."""
    return st.one_of(
        st.tuples(inner, st.sampled_from(BINARY), inner).map(" ".join),
        st.tuples(st.sampled_from(PREFIX), inner).map("".join),
        inner.map(lambda t: f"({t})"),
    )


texts = st.recursive(st.sampled_from(ATOMS), combined, max_leaves=10)
# token soup: mostly malformed text
TOKENS = ATOMS + BINARY + PREFIX + ["(", ")", "(", ")", "->[", "#", ",", "=", "x", "f(", "P("]
soup = st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join)

FO_ATOMS = ["P(x)", "P(c)", "R(x, f(c))", "R(f(f(y)), x)", "x = f(y)", "c = c", "f(x) =c",
            "T", "F"]
FO_TOKENS = TOKENS + ["forall x", "exists y", "forall", "exists", "P(x)", "R(", "f(c)", "x ="]


def fo_combined(inner):
    return st.one_of(
        combined(inner),
        st.tuples(st.sampled_from(["forall x", "exists y", "forall y", "exists x"]),
                  inner).map(" ".join),
    )


fo_texts = st.recursive(st.sampled_from(FO_ATOMS), fo_combined, max_leaves=8)
fo_soup = st.lists(st.sampled_from(FO_TOKENS), max_size=12).map(" ".join)


@settings(max_examples=400)
@given(st.one_of(texts, soup))
def test_parser_matches_the_recursive_parser(text):
    assert outcome(lambda: formulas.parse(text)) == \
        outcome(lambda: oracles.RecursiveParser(text).run())


@settings(max_examples=400)
@given(st.one_of(fo_texts, fo_soup))
def test_first_order_parser_matches_the_recursive_parser(text):
    assert outcome(lambda: fo.fo_parse(text)) == \
        outcome(lambda: oracles.RecursiveFirstOrder(text).run())


# -- terms --------------------------------------------------------------------------

def built(inner):
    """Terms whose sugar shares subterms by reference."""
    return st.one_of(
        st.builds(Imp, inner, inner),
        st.builds(Delta, inner),
        st.builds(or_, inner, inner),
        st.builds(and_, inner, inner),
        st.builds(not_, inner),
        st.builds(imp_k, inner, inner, st.integers(0, 3)),
    )


terms = st.recursive(st.sampled_from([Var("p"), Var("q"), Var("r"), TOP, BOT]), built,
                     max_leaves=8)
metas = st.recursive(st.sampled_from([Var("a"), Var("b"), TOP, BOT]), built, max_leaves=4)


@settings(max_examples=300)
@given(terms, st.dictionaries(st.sampled_from("pqr"), terms, max_size=3))
def test_walks_match_the_recursive_walks(f, subst):
    assert formulas.variables(f) == oracles.variables(f)
    assert formulas.to_text(f) == oracles.to_text(f)
    assert formulas.substitute(f, subst) == oracles.substitute(f, subst)


@settings(max_examples=300)
@given(metas, terms, terms, st.booleans())
def test_mismatch_matches_the_recursive_matcher(pattern, a, b, instance):
    # an instance of the pattern, or an arbitrary term
    target = formulas.substitute(pattern, {"a": a, "b": b}) if instance else a
    got, want = {}, {}
    assert formulas.mismatch(pattern, target, got) == oracles.mismatch(pattern, target, want)
    assert got == want


# -- first-order evaluation ------------------------------------------------------------

L3 = make_chain(3, with_delta=True, with_bottom=True)
L4 = make_chain(4, with_delta=True, with_bottom=True)
X, Y, C = TermName("x"), TermName("y"), TermName("c")
# atom objects are shared between places under different quantifiers
FO_LEAVES = [FPred("P", (X,)), FPred("P", (C,)), FPred("R", (X, TermApp("f", (Y,)))),
             FEq(X, TermApp("f", (C,))), FEq(Y, X), FPred("Q", (X,)), TOP, BOT]


def quantified(inner):
    return st.one_of(
        built(inner),
        st.builds(FForall, st.sampled_from("xy"), inner),
        st.builds(FExists, st.sampled_from("xy"), inner),
    )


def prefixed(body, prefix):
    for q, var in reversed(prefix):
        body = q(var, body)
    return body


fo_terms = st.recursive(st.sampled_from(FO_LEAVES), quantified, max_leaves=6)
# closed under nested quantifiers of both variables, as in the workload
fo_closed = st.builds(prefixed, fo_terms, st.lists(
    st.tuples(st.sampled_from([FForall, FExists]), st.sampled_from("xy")), min_size=1, max_size=3))


@st.composite
def structures(draw):
    d = draw(st.integers(1, 3))
    A = draw(st.sampled_from([L3, L4]))
    cell = st.integers(0, A.size - 1)
    dom = st.integers(0, d - 1)
    return FOStructure(
        domain_size=d, algebra=A,
        predicates={"P": {"arity": 1, "table": {(i,): draw(cell) for i in range(d)}},
                    "R": {"arity": 2, "table": {(i, j): draw(cell)
                                                for i in range(d) for j in range(d)}}},
        functions={"f": {"arity": 1, "table": {(i,): draw(dom) for i in range(d)}}},
        constants={"c": draw(dom)})


@st.composite
def shared_across_scopes(draw):
    """A subterm under a quantifier and outside it, before a second subterm:
    the outside occurrence is checked in its own scope, where a name the
    quantifier binds may be unbound, before any name of the second."""
    a = draw(fo_terms)
    inside = draw(st.sampled_from([FForall, FExists]))(draw(st.sampled_from("xy")), a)
    return Imp(inside, Imp(a, draw(fo_terms)))


parsed = fo_texts.map(lambda t: outcome(lambda: fo.fo_parse(t))).filter(
    lambda f: not isinstance(f, tuple))


@settings(max_examples=300)
@given(st.one_of(fo_terms, fo_closed, parsed, shared_across_scopes()), structures(), st.data())
def test_fo_eval_matches_the_recursive_evaluator(f, S, data):
    # a name left out of the assignment is unbound where no quantifier binds it
    env = data.draw(st.dictionaries(st.sampled_from("xy"), st.integers(0, S.domain_size - 1)))
    assert outcome(lambda: fo.fo_eval(f, S, env)) == outcome(lambda: oracles.fo_eval(f, S, env))
    t = data.draw(st.sampled_from([C, TermApp("f", (Y,)), X]))
    for var in "xy":
        assert fo.substitute_term(f, var, t) == oracles.substitute_term(f, var, t)


def test_equal_hashes_still_compare_fields():
    # hash(-1) == hash(-2) in CPython, so these nodes' hashes collide
    assert hash(Var(-1)) == hash(Var(-2)) and Var(-1) != Var(-2)
    assert Imp(Var(-1), TOP) != Imp(Var(-2), TOP)
    assert FPred("P", (TermName(-1),)) != FPred("P", (TermName(-2),))


def test_equal_fields_of_other_types_are_other_nodes():
    # True == 1 == 1.0, but each name keeps its type
    names = [True, 1, 1.0]
    nodes = [Var(name) for name in names]
    assert len({id(g) for g in nodes}) == 3
    assert [type(g.name) for g in nodes] == [bool, int, float]
    assert Var(1) is nodes[1] and Imp(nodes[0], TOP) is not Imp(nodes[1], TOP)
    assert TermName(True) is not TermName(1) and FForall(1, TOP) is not FForall(1.0, TOP)
