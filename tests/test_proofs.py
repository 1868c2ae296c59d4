from pathlib import Path

import pytest

from lukra.formulas import parse
from lukra.logic import consequence, is_tautology
from lukra.proofs import (
    Proof,
    ProofLine,
    ProofSyntaxError,
    SYSTEM_BOT,
    SYSTEM_N,
    check_proof,
    parse_proof,
    serialize_proof,
)
from derivations import classic_delta_derivations

FIXTURES = Path(__file__).parent / "fixtures" / "proofs"
CLASSIC = ["LH20", "LH21", "LH24", "LH25", "LH26", "LH27"]


def load(name: str, system=SYSTEM_N, n=3) -> Proof:
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return parse_proof(text, system=system, n=n)


@pytest.mark.parametrize("name", CLASSIC)
def test_classic_fixture_checks(name):
    P = load(f"{name.lower()}_n3.proof")
    assert check_proof(P).passed


@pytest.mark.parametrize("name", CLASSIC)
def test_fixture_files_in_sync_with_builders(name):
    built = classic_delta_derivations(3)[name]
    on_disk = (FIXTURES / f"{name.lower()}_n3.proof").read_text(encoding="utf-8")
    assert serialize_proof(built) == on_disk


def test_expected_conclusions():
    want = {
        "LH20": "D p -> p",
        "LH21": "p ->[3] D p",
        "LH24": "D (D p -> q) -> (D p -> D q)",
        "LH25": "D p -> D q",
        "LH26": "D p ->[2] D q",
        "LH27": "(D p -> q) -> (p ->[2] q)",
    }
    for name, text in want.items():
        assert load(f"{name.lower()}_n3.proof").conclusion() == parse(text)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_builders_check_at_other_levels(n):
    for name, P in classic_delta_derivations(n).items():
        rep = check_proof(P)
        assert rep.passed, (n, name, rep.failures[:2])


@pytest.mark.parametrize("n", (2, 3))
def test_checked_proofs_are_semantically_valid(n):
    # acceptance by the checker implies matrix validity
    for name, P in classic_delta_derivations(n).items():
        hyps = P.hypotheses()
        verdict = (consequence(hyps, P.conclusion(), n) if hyps
                   else is_tautology(P.conclusion(), n))
        assert verdict.holds, (n, name)


@pytest.mark.parametrize("name", CLASSIC)
def test_corrupted_final_line_fails_exactly_there(name):
    P = load(f"{name.lower()}_n3.proof")
    lines = list(P.lines)
    last = lines[-1]
    lines[-1] = ProofLine(last.idx, parse("q -> D q"), last.just)
    bad = Proof(system=P.system, n=P.n, lines=tuple(lines))
    rep = check_proof(bad)
    assert not rep.passed
    assert [i for i, _ in rep.failures] == [last.idx]


def test_corrupted_middle_line_reports_first_failure_there():
    P = load("lh24_n3.proof")
    lines = list(P.lines)
    mid = len(lines) // 2
    lines[mid] = ProofLine(lines[mid].idx, parse("p -> q -> p -> q"), lines[mid].just)
    bad = Proof(system=P.system, n=P.n, lines=tuple(lines))
    rep = check_proof(bad)
    assert not rep.passed
    assert rep.first_bad_line == lines[mid].idx


def test_serialize_parse_roundtrip():
    for name, P in classic_delta_derivations(3).items():
        P2 = parse_proof(serialize_proof(P), system=SYSTEM_N, n=3)
        assert [(l.idx, l.formula) for l in P2.lines] == \
               [(l.idx, l.formula) for l in P.lines]
        assert check_proof(P2).passed


def test_mp_matches_by_formula_not_position():
    text = """
    1. p ; HYP 1
    2. p -> (q -> p) ; AX1
    3. q -> p ; MP 2 1
    """
    P = parse_proof(text, system=SYSTEM_N, n=3)
    assert check_proof(P).passed
    P2 = parse_proof(text.replace("MP 2 1", "MP 1 2"), system=SYSTEM_N, n=3)
    assert check_proof(P2).passed


def test_axiom_level_annotation():
    text = "1. ((p ->[2] q) -> p) -> p ; AX5[n=3]\n"
    assert check_proof(parse_proof(text, system=SYSTEM_N, n=3)).passed
    rep = check_proof(parse_proof(text.replace("n=3", "n=4"), system=SYSTEM_N, n=3))
    assert not rep.passed and "level" in rep.failures[0][1]


def test_axiom_mismatch_reports_subterm():
    rep = check_proof(parse_proof("1. p -> q ; AX1\n", system=SYSTEM_N, n=3))
    assert not rep.passed
    assert "AX1" in rep.failures[0][1]


def test_bottom_rejected_in_level_system():
    rep = check_proof(parse_proof("1. F -> p ; AX1\n", system=SYSTEM_N, n=3))
    assert not rep.passed and "bottom" in rep.failures[0][1]
    # and accepted in the bottom system, where it is an axiom
    assert check_proof(parse_proof("1. F -> p ; AX9\n", system=SYSTEM_BOT)).passed


def test_qgen_readings():
    P = load("crisp_delta_p.proof", system=SYSTEM_BOT, n=None)
    assert check_proof(P).passed
    assert not check_proof(P, qgen_reading="literal").passed
    text = (FIXTURES / "crisp_delta_p.proof").read_text(encoding="utf-8")
    lit = parse_proof(text.replace("QGEN 1 2 3", "QGEN 1 1 3"), system=SYSTEM_BOT)
    assert check_proof(lit, qgen_reading="literal").passed
    assert not check_proof(lit).passed
    # conclusion shape is enforced
    bad = parse_proof(text.replace("4. D p -> D p", "4. D p -> p"), system=SYSTEM_BOT)
    assert not check_proof(bad).passed


# QGEN at g = r, a = s: the up premise (g->b)->(g->(g->b)) and the down
# premise (g->(g->b))->(g->b) at b = t, and the third premise g -> a
QGEN_UP, QGEN_DOWN = "(r -> t) -> (r -> (r -> t))", "(r -> (r -> t)) -> (r -> t)"
QGEN_LITERAL = "first two premises must be (g->b)->(g->(g->b)) at this g"
QGEN_PAIRED = ("first two premises must assert both directions between "
               "g->b and g->(g->b) for some b")
# about 2 * 10^6 nodes written out, past formulas.TEXT_NODES: no reason writes b
BIG = "((p ->[1000] q) ->[1000] q)"


@pytest.mark.parametrize("reading, premises, rule, reason", [
    # the conclusion is read first, then the cited lines, then the third premise
    ("paired", (QGEN_UP, QGEN_DOWN, "r -> s"), "r -> s ; QGEN 1 2 3",
     "conclusion of the crispness rule must be g -> D a"),
    ("literal", (QGEN_UP, QGEN_UP, "r -> s"), "D s ; QGEN 1 2 5",
     "conclusion of the crispness rule must be g -> D a"),
    ("paired", (QGEN_UP, QGEN_DOWN, "r -> s"), "r -> D s ; QGEN 1 2 4",
     "rule references lines not strictly earlier"),
    ("literal", (QGEN_UP, QGEN_UP, "r -> s"), "r -> D s ; QGEN 1 7 3",
     "rule references lines not strictly earlier"),
    ("paired", (QGEN_UP, QGEN_DOWN, "r -> t"), "r -> D s ; QGEN 1 2 3",
     "third premise must be 'r -> s'"),
    ("literal", (QGEN_UP, QGEN_UP, "r -> s"), "D r -> D s ; QGEN 1 2 3",
     "third premise must be 'D r -> s'"),
    # literal: each of the first two premises has the up shape at this g
    ("literal", (QGEN_UP, QGEN_DOWN, "r -> s"), "r -> D s ; QGEN 1 2 3", QGEN_LITERAL),
    ("literal", (QGEN_DOWN, QGEN_UP, "r -> s"), "r -> D s ; QGEN 1 2 3", QGEN_LITERAL),
    ("literal", (QGEN_UP, "(q -> t) -> (q -> (q -> t))", "r -> s"), "r -> D s ; QGEN 1 2 3",
     QGEN_LITERAL),
    ("literal", (QGEN_UP, "(r -> t) -> (r -> (r -> s))", "r -> s"), "r -> D s ; QGEN 1 2 3",
     QGEN_LITERAL),
    ("literal", ("t", QGEN_UP, "r -> s"), "r -> D s ; QGEN 1 2 3", QGEN_LITERAL),
    ("literal", (QGEN_UP, f"(r -> {BIG}) -> (r -> (r -> t))", "r -> s"), "r -> D s ; QGEN 1 2 3",
     QGEN_LITERAL),
    # paired: one premise each way, at the same b
    ("paired", (QGEN_UP, QGEN_UP, "r -> s"), "r -> D s ; QGEN 1 2 3", QGEN_PAIRED),
    ("paired", (QGEN_DOWN, QGEN_DOWN, "r -> s"), "r -> D s ; QGEN 1 2 3", QGEN_PAIRED),
    ("paired", (QGEN_UP, "(r -> (r -> q)) -> (r -> q)", "r -> s"), "r -> D s ; QGEN 1 2 3",
     QGEN_PAIRED),
    ("paired", ("(q -> t) -> (q -> (q -> t))", "(q -> (q -> t)) -> (q -> t)", "r -> s"),
     "r -> D s ; QGEN 1 2 3", QGEN_PAIRED),
    ("paired", (QGEN_UP, "r -> t", "r -> s"), "r -> D s ; QGEN 1 2 3", QGEN_PAIRED),
    ("paired", (f"(r -> {BIG}) -> (r -> (r -> {BIG}))", QGEN_DOWN, "r -> s"),
     "r -> D s ; QGEN 1 2 3", QGEN_PAIRED),
    # passing
    ("paired", (QGEN_UP, QGEN_DOWN, "r -> s"), "r -> D s ; QGEN 1 2 3", None),
    ("paired", (QGEN_DOWN, QGEN_UP, "r -> s"), "r -> D s ; QGEN 1 2 3", None),
    ("paired", (QGEN_DOWN, QGEN_UP, "r -> s"), "r -> D s ; QGEN 2 1 3", None),
    ("literal", (QGEN_UP, QGEN_UP, "r -> s"), "r -> D s ; QGEN 1 2 3", None),
    ("literal", (QGEN_UP, "(r -> q) -> (r -> (r -> q))", "r -> s"), "r -> D s ; QGEN 1 2 3",
     None),
    ("literal", (QGEN_UP, QGEN_DOWN, "r -> s"), "r -> D s ; QGEN 1 1 3", None),
])
def test_qgen_reasons(reading, premises, rule, reason):
    text = "".join(f"{i}. {f} ; HYP {i}\n" for i, f in enumerate(premises, 1)) + f"4. {rule}\n"
    rep = check_proof(parse_proof(text, system=SYSTEM_BOT), qgen_reading=reading)
    assert rep.failures == (((4, reason),) if reason else ())


def test_qgen_confined_to_bottom_system():
    text = """
    1. p -> (q -> p) ; AX1
    2. p -> (q -> p) ; AX1
    3. p -> (q -> p) ; AX1
    4. p -> D q ; QGEN 1 2 3
    """
    rep = check_proof(parse_proof(text, system=SYSTEM_N, n=3))
    assert not rep.passed


def test_wellformedness():
    with pytest.raises(ProofSyntaxError):
        parse_proof("1 p -> p ; AX1\n", system=SYSTEM_N, n=3)
    with pytest.raises(ProofSyntaxError):
        parse_proof("1. p -> p ; BOGUS\n", system=SYSTEM_N, n=3)
    with pytest.raises(ProofSyntaxError, match="bad justification 'MP a b'"):
        parse_proof("1. p -> p ; MP a b\n", system=SYSTEM_N, n=3)
    with pytest.raises(ProofSyntaxError):
        parse_proof("", system=SYSTEM_N, n=3)
    # forward references are per-line failures, not parse errors
    rep = check_proof(parse_proof("1. q ; MP 2 3\n2. p ; HYP 1\n3. p -> q ; HYP 2\n",
                                  system=SYSTEM_N, n=3))
    assert not rep.passed and rep.first_bad_line == 1
    # hypothesis numbering is positional
    rep = check_proof(parse_proof("1. p ; HYP 2\n", system=SYSTEM_N, n=3))
    assert not rep.passed
    # non-increasing indices flagged
    rep = check_proof(parse_proof("2. p -> (q -> p) ; AX1\n1. p -> (q -> p) ; AX1\n",
                                  system=SYSTEM_N, n=3))
    assert not rep.passed


DEEP_MP = "1. p ->[600] q ; HYP 1\n2. p ; HYP 2\n3. p ->[599] q ; MP 2 1\n"


@pytest.mark.parametrize("system, n", [(SYSTEM_N, 3), (SYSTEM_BOT, None)])
def test_deep_iterated_implication_checks(tmp_path, capsys, system, n):
    # ->[k] is documented up to k = 1000; comparing and hashing such a line
    # may not run out of Python stack
    P = parse_proof(DEEP_MP, system=system, n=n)
    assert check_proof(P).passed
    from lukra.cli import main

    path = tmp_path / "deep.proof"
    path.write_text(DEEP_MP)
    argv = ["logic", "prove-check", "--system", system, "--in", str(path)]
    assert main(argv + (["--n", str(n)] if n else [])) == 0
    assert capsys.readouterr().err == "proof checks\n"


def test_recorded_substitution_is_verified():
    from lukra.proofs import ByAxiom
    from lukra.formulas import Var

    good = Proof(system=SYSTEM_N, n=3, lines=(
        ProofLine(1, parse("p -> (q -> p)"),
                  ByAxiom("AX1", substitution={"alpha": Var("p"), "beta": Var("q")})),
    ))
    assert check_proof(good).passed
    bad = Proof(system=SYSTEM_N, n=3, lines=(
        ProofLine(1, parse("p -> (q -> p)"),
                  ByAxiom("AX1", substitution={"alpha": Var("q"), "beta": Var("p")})),
    ))
    rep = check_proof(bad)
    assert not rep.passed and "substitution" in rep.failures[0][1]
