"""lukra's frozen records against the frozen dataclasses they replace.

The twins in `oracles` are `dataclass(frozen=True)` classes with the fields,
defaults and __post_init__ of a record class; each check builds a record and
its twin from the same arguments and compares what the two do.
"""

import random
from itertools import combinations

import pytest

from lukra.algebra import AlgebraError, FiniteAlgebra, make_chain
from lukra.fo import FOStructure
from lukra.formulas import Imp, Var, parse, to_text
from lukra.proofs import ByAxiom
from lukra.records import Record, field
from oracles import (
    ByAxiomTwin,
    FiniteAlgebraTwin,
    FOStructureTwin,
    ImpTwin,
    VarTwin,
    formula_twin,
    random_formula,
)


def outcome(make):
    """What a construction gives: the object, or the type and text of its error."""
    try:
        return make()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


def assert_alike(record, twin):
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin)


def assert_same_classes(records, twins):
    """== and hash split the records as they split the twins."""
    for (a, ta), (b, tb) in combinations(zip(records, twins), 2):
        assert (a == b, a != b) == (ta == tb, ta != tb)
        assert (hash(a) == hash(b)) == (hash(ta) == hash(tb))


def test_random_formulas_match_their_twins():
    rng = random.Random(14)
    formulas = [random_formula(rng, "pq", rng.randint(0, 3), allow_bot=True) for _ in range(120)]
    # re-parsed copies are built anew from text, and come back as the originals
    formulas += [parse(to_text(f)) for f in formulas[:20]]
    twins = [formula_twin(f) for f in formulas]
    for f, t in zip(formulas, twins):
        assert_alike(f, t)
    assert_same_classes(formulas, twins)
    # every distinct term is one node: identity is the twins' structural ==
    for (a, ta), (b, tb) in combinations(zip(formulas, twins), 2):
        assert (a is b) == (ta == tb)
    assert len(set(formulas)) == len(set(twins)) < len(formulas) - 20


@pytest.mark.parametrize("record, twin", [(Var, VarTwin), (Imp, ImpTwin)])
def test_formula_nodes_construct_like_their_twins(record, twin):
    args = ("p",) if record is Var else (Var("p"), Var("q"))
    twin_args = ("p",) if record is Var else (VarTwin("p"), VarTwin("q"))
    names = ["name"] if record is Var else ["left", "right"]
    assert_alike(record(*args), twin(*twin_args))
    assert_alike(record(**dict(zip(names, args))), twin(**dict(zip(names, twin_args))))
    assert record(*args) == record(**dict(zip(names, args)))
    for bad in ((), (*args, "extra")):
        assert outcome(lambda: record(*bad))[0] is outcome(lambda: twin(*bad))[0] is TypeError
    node = record(*args)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(node, name, "x")
        with pytest.raises(AttributeError):
            delattr(node, name)
        assert getattr(node, name) == args[names.index(name)]


ALGEBRA_CALLS = [
    ((3, [[2, 2, 2], [0, 2, 2], [0, 1, 2]], 2), {}),
    ((), {"size": 3, "imp": [[2, 2, 2], [0, 2, 2], [0, 1, 2]], "top": 2, "delta": [0, 0, 2],
          "bottom": 0, "label": "L3"}),
    ((3, ((2, 2, 2), (0, 2, 2), (0, 1, 2)), 2, (0, 0, 2)), {"bottom": 0, "label": "L3"}),
    ((2, [[1, 1], [0, 1]], 1), {"label": "L2"}),
    ((2, [[1, 1], [0, 1]]), {"top": 1}),
    ((2, [[1, 1], [0, 1]], 1), {"bottom": 1}),        # __post_init__ refuses
    ((2, [[1, 1], [0, 5]], 1), {}),                   # __post_init__ refuses
    ((0, [], 0), {}),                                 # __post_init__ refuses
    ((2, [[1, 1], [0, 1]]), {}),                      # top missing
    ((2, [[1, 1], [0, 1]], 1), {"colour": "red"}),    # no such field
    ((2, [[1, 1], [0, 1]], 1), {"size": 2}),          # size given twice
]


def test_finite_algebras_match_their_twins():
    got = [outcome(lambda: FiniteAlgebra(*a, **k)) for a, k in ALGEBRA_CALLS]
    want = [outcome(lambda: FiniteAlgebraTwin(*a, **k)) for a, k in ALGEBRA_CALLS]
    built = [(g, w) for g, w in zip(got, want) if isinstance(g, FiniteAlgebra)]
    refused = [(g, w) for g, w in zip(got, want) if not isinstance(g, FiniteAlgebra)]
    assert len(built) == 5 and len(refused) == 6
    for g, w in built:
        assert_alike(g, w)
        assert g.imp == w.imp and isinstance(g.imp[0], tuple)
    assert_same_classes(*zip(*built))
    for (g_type, g_text), (w_type, w_text) in refused:
        assert g_type is w_type
        if g_type is AlgebraError:
            assert g_text == w_text
    A = got[0]
    with pytest.raises(AttributeError):
        A.top = 0
    assert (A.delta, A.bottom, A.label) == (None, None, "")
    assert A.below == ((0,), (0, 1), (0, 1, 2))         # cached_property still works


def test_by_axiom_leaves_its_substitution_out_of_eq_and_hash():
    subs = [None, {"alpha": Var("p")}, {"alpha": Var("q")}]
    calls = [(name, level, sub) for name in ("AX1", "AX5") for level in (None, 3) for sub in subs]
    records = [ByAxiom(*c) for c in calls] + [ByAxiom("AX1"), ByAxiom(name="AX5", level=3)]
    twins = [ByAxiomTwin(*c) for c in calls] + [ByAxiomTwin("AX1"), ByAxiomTwin(name="AX5", level=3)]
    for r, t in zip(records, twins):
        assert_alike(r, t)
    assert_same_classes(records, twins)
    assert ByAxiom("AX1", None, subs[1]) == ByAxiom("AX1")
    assert "substitution={'alpha': Var(name='p')}" in repr(ByAxiom("AX1", None, subs[1]))


def test_fo_structures_match_their_twins_and_get_fresh_dicts():
    L3 = make_chain(3, with_delta=True, with_bottom=True)
    calls = [((2, L3), {}), ((), {"domain_size": 1, "algebra": L3, "constants": {"c": 0}}),
             ((2, L3, {"P": {(0,): 1, (1,): 2}}), {}), ((0, L3), {}), ((2, make_chain(3)), {})]
    got = [outcome(lambda: FOStructure(*a, **k)) for a, k in calls]
    want = [outcome(lambda: FOStructureTwin(*a, **k)) for a, k in calls]
    for g, w in zip(got[:3], want[:3]):
        assert repr(g) == repr(w)
        assert outcome(lambda: hash(g))[0] is outcome(lambda: hash(w))[0] is TypeError
    assert got[3:] == want[3:]
    S, T = FOStructure(2, L3), FOStructure(2, L3)
    assert S == T and S.predicates == S.functions == S.constants == {}
    assert S.predicates is not T.predicates and S.predicates is not S.functions


def test_fields_come_after_the_bases_and_defaults_after_the_rest():
    class Point(Record):
        x: int
        y: int = 0

    class Labelled(Point):
        label: str = ""
        notes: list = field(factory=list, compare=False)

    p = Labelled(1, label="a")
    assert repr(p).endswith(".Labelled(x=1, y=0, label='a', notes=[])")
    assert p == Labelled(1, 0, "a", ["other"]) and p != Labelled(1, 0, "b") and p != Point(1)
    assert hash(p) == hash((1, 0, "a")) and Labelled(1).notes is not p.notes
    with pytest.raises(TypeError, match="without a default"):
        class Broken(Point):
            z: int
