import random
import tracemalloc

import pytest

from lukra.algebra import AlgebraError, make_chain
from lukra.fo import (
    FDelta,
    FEq,
    FExists,
    FForall,
    FImp,
    FOError,
    FOStructure,
    FPred,
    TermApp,
    TermName,
    eval_term,
    fo_eval,
    fo_parse,
    substitute_term,
)
from catalog import five_element_non_admissible
import oracles

L3 = make_chain(3, with_delta=True, with_bottom=True)


def structure(rng, dsize=3):
    return FOStructure(
        domain_size=dsize,
        algebra=L3,
        predicates={
            "P": {"arity": 1, "table": {(i,): rng.randrange(3) for i in range(dsize)}},
            "R": {"arity": 2, "table": {(i, j): rng.randrange(3)
                                        for i in range(dsize) for j in range(dsize)}},
        },
        functions={"f": {"arity": 1,
                         "table": {(i,): rng.randrange(dsize) for i in range(dsize)}}},
        constants={"c": rng.randrange(dsize)},
    )


def test_parser():
    f = fo_parse("forall x (P(x) -> exists y R(x, y))")
    assert isinstance(f, FForall) and isinstance(f.body.right, FExists)
    assert fo_parse("x = y") == FEq(TermName("x"), TermName("y"))
    assert fo_parse("f(c) = x") == FEq(TermApp("f", (TermName("c"),)), TermName("x"))
    with pytest.raises(FOError):
        fo_parse("P(x")
    with pytest.raises(FOError):
        fo_parse("x")          # a bare term is not a formula
    # a quantifier binds a name, not whatever token follows it
    for text in ("exists ( P(c)", "forall -> P(x)"):
        with pytest.raises(FOError, match="bad quantifier variable"):
            fo_parse(text)


def test_parser_shares_the_propositional_grammar():
    assert fo_parse("P(x) ->[2] R(x, c)") == fo_parse("P(x) -> (P(x) -> R(x, c))")
    assert fo_parse("P(x) ->[0] R(x, c)") == fo_parse("R(x, c)")
    assert fo_parse("forall x (P(x) → Δ P(x))") == fo_parse("forall x (P(x) -> D P(x))")
    assert fo_parse("¬P(x) ∧ ⊤ ∨ ⊥") == fo_parse("~P(x) & T | F")
    assert fo_parse("D(P(x))") == FDelta(FPred("P", (TermName("x"),)))
    with pytest.raises(FOError):
        fo_parse("P(x) ->[99999999] P(x)")
    deep = FPred("P", (TermName("x"),))
    for _ in range(3000):
        deep = FDelta(deep)
    assert fo_parse("D " * 3000 + "P(x)") == deep


def test_basic_evaluation():
    rng = random.Random(1)
    S = structure(rng)
    assert fo_eval(fo_parse("forall x (P(x) -> P(x))"), S) == L3.top
    assert fo_eval(fo_parse("x = x"), S, {"x": 2}) == L3.top
    assert fo_eval(fo_parse("x = y"), S, {"x": 0, "y": 1}) == 0
    # quantifiers are min / max along the chain
    vals = [S.predicates["P"]["table"][(i,)] for i in range(3)]
    assert fo_eval(fo_parse("forall x P(x)"), S) == min(vals)
    assert fo_eval(fo_parse("exists x P(x)"), S) == max(vals)


def test_instantiation_axioms_on_random_structures():
    rng = random.Random(2)
    phi = fo_parse("P(x) -> R(x, c)")
    t = TermApp("f", (TermName("c"),))
    for _ in range(100):
        S = structure(rng)
        inst = substitute_term(phi, "x", t)
        assert fo_eval(FImp(FForall("x", phi), inst), S) == L3.top
        assert fo_eval(FImp(inst, FExists("x", phi)), S) == L3.top


def test_substitution_lemma():
    rng = random.Random(3)
    phi = fo_parse("forall y (R(x, y) -> D P(f(x)))")
    t = TermApp("f", (TermName("z"),))
    for _ in range(200):
        S = structure(rng)
        v = {"z": rng.randrange(3)}
        lhs = fo_eval(substitute_term(phi, "x", t), S, v)
        v2 = dict(v)
        v2["x"] = eval_term(t, S, v)
        assert lhs == fo_eval(phi, S, v2)


def test_bound_variables_shielded():
    phi = fo_parse("forall x P(x)")
    assert substitute_term(phi, "x", TermName("c")) == phi


def test_a_node_in_several_scopes_is_checked_in_each():
    # the two P(x) are one node, bound under the quantifier and free after it,
    # so the free x is the first unbound name, before y
    S = structure(random.Random(0))
    f = fo_parse("(forall x P(x)) -> (P(x) -> P(y))")
    assert f.left.body is f.right.left
    with pytest.raises(FOError, match="unbound name 'x'"):
        fo_eval(f, S)
    with pytest.raises(FOError, match="unbound name 'x'"):
        oracles.fo_eval(f, S, {})
    assert fo_eval(f, S, {"x": 1, "y": 0}) == oracles.fo_eval(f, S, {"x": 1, "y": 0})


def test_structure_validation_and_errors():
    with pytest.raises(AlgebraError):
        FOStructure(domain_size=2, algebra=five_element_non_admissible())
    with pytest.raises(AlgebraError):
        FOStructure(domain_size=2, algebra=make_chain(3))   # no delta
    rng = random.Random(4)
    S = structure(rng)
    with pytest.raises(FOError):
        fo_eval(fo_parse("Q(x)"), S, {"x": 0})
    with pytest.raises(FOError):
        fo_eval(fo_parse("P(x, y)"), S, {"x": 0, "y": 0})
    with pytest.raises(FOError):
        fo_eval(fo_parse("P(w)"), S)       # unbound name
    # a key part longer than the largest index is refused before int() reads it
    table = {"0": 1, "1": 2, "1" * 5000: 0}
    with pytest.raises(AlgebraError, match="must be 1 comma-separated indices in 0..1"):
        FOStructure.from_dict({"domain_size": 2, "algebra": L3.to_dict(),
                               "predicates": {"P": {"arity": 1, "table": table}}})


def test_from_dict_roundtrip():
    d = {
        "domain_size": 2,
        "algebra": L3.to_dict(),
        "predicates": {"P": {"arity": 1, "table": {"0": 1, "1": 2}}},
        "functions": {"f": {"arity": 1, "table": {"0": 1, "1": 0}}},
        "constants": {"c": 0},
    }
    S = FOStructure.from_dict(d)
    assert fo_eval(fo_parse("exists x P(x)"), S) == 2
    assert fo_eval(fo_parse("forall x P(x)"), S) == 1
    assert fo_eval(fo_parse("forall x D P(x)"), S) == 0
    assert fo_eval(fo_parse("P(f(c))"), S) == 2


def test_value_lists_are_freed_once_their_parents_read_them():
    # each of the 18 nodes under the three quantifiers has a list of 8 * d**3
    # bytes; a list freed once its parents have read it leaves about six alive
    d = 30
    S = structure(random.Random(d), d)
    f = fo_parse("forall x exists y forall z (R(x, f(y)) -> R(f(z), y) & R(z, x))")
    tracemalloc.start()
    try:
        value = fo_eval(f, S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == oracles.fo_eval(f, S, {})
    assert peak < 10 * 8 * d ** 3
