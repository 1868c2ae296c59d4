import argparse
import contextlib
import enum
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lukra
import lukra.cli as cli
from lukra.cli import main
from lukra.algebra import FiniteAlgebra, make_chain
from lukra.formulas import IMP_K_LIMIT, TABLE_GUARD
from lukra.logic import WORK_GUARD
from lukra.laws import check_LR, check_LRn, check_delta


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report


def test_chain_roundtrip(tmp_path, capsys):
    out = tmp_path / "l3.json"
    code = main(["algebra", "chain", "--n", "3", "--delta", "--bottom",
                 "--out", str(out)])
    assert code == 0
    A = FiniteAlgebra.from_json(out.read_text())
    assert A == make_chain(3, with_delta=True, with_bottom=True)
    # anything the tool emits re-reads and passes the same checks
    assert check_LR(A).passed and check_LRn(A, 3).passed and check_delta(A, 3).passed
    code, report = run(capsys, "algebra", "check", "--in", str(out),
                       "--suite", "--quasi")
    assert code == 0 and report["passed"] and report["level"] == 3


def test_check_failure_exit_code(tmp_path, capsys):
    bad = make_chain(4)
    p = tmp_path / "l4.json"
    p.write_text(bad.to_json())
    code, report = run(capsys, "algebra", "check", "--in", str(p), "--n", "3")
    assert code == 1 and not report["passed"]


def test_delta_verb(tmp_path, capsys):
    from catalog import five_element_non_admissible

    p = tmp_path / "m5.json"
    p.write_text(five_element_non_admissible().to_json())
    code, report = run(capsys, "algebra", "delta", "--in", str(p))
    assert code == 1
    assert report == {"admissible": False, "witness": 1, "algebra": None}
    q = tmp_path / "l4.json"
    q.write_text(make_chain(4).to_json())
    code, report = run(capsys, "algebra", "delta", "--in", str(q))
    assert code == 0 and report["admissible"]
    assert report["algebra"]["delta"] == [0, 0, 0, 3]


def test_product_homs_filters(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(make_chain(3, with_delta=True).to_json())
    b.write_text(make_chain(2, with_delta=True).to_json())
    code, prod = run(capsys, "algebra", "product", "--in", str(a), "--in", str(b))
    assert code == 0 and prod["size"] == 6
    code, report = run(capsys, "algebra", "homs", "--from", str(a), "--to", str(a))
    assert code == 0 and report["count"] >= 1
    p = tmp_path / "prod.json"
    p.write_text(json.dumps(prod))
    code, report = run(capsys, "filters", "list", "--in", str(p))
    assert code == 0 and [5] in report["filters"]
    code, report = run(capsys, "filters", "maximal", "--in", str(p))
    assert code == 0 and len(report["filters"]) == 2
    code, report = run(capsys, "filters", "quotient", "--in", str(p),
                       "--filter", "4,5")
    assert code == 0 and report["size"] == 3 and len(report["projection"]) == 6
    code, report = run(capsys, "filters", "subdirect", "--in", str(p))
    assert code == 0 and sorted(report["embedding"]) == list(range(6))
    code, report = run(capsys, "filters", "classify", "--in", str(p))
    assert code == 1 and not report["simple"]
    code, report = run(capsys, "filters", "classify", "--in", str(a))
    assert code == 0 and report["k"] == 3


def test_free_verbs(capsys, tmp_path):
    code, report = run(capsys, "free", "size", "--n", "3", "--m", "1")
    assert code == 0 and report["total"] == 6
    code, report = run(capsys, "free", "size", "--n", "3", "--m", "2",
                       "--mode", "literal")
    assert code == 0 and report["total"] == 486
    out = tmp_path / "free.json"
    code = main(["free", "build", "--n", "3", "--m", "1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["size"] == 6 and len(data["generators"]) == 1
    code, report = run(capsys, "free", "verify", "--n", "3", "--m", "1")
    assert code == 0 and report == {"formula": 6, "constructed": 6, "match": True}


@pytest.mark.parametrize("verb", ["size", "build", "verify"])
@pytest.mark.parametrize("n, m", [(400, 400), (100000, 1), (3, 100000), (9, 4)],
                         ids=["400-400", "100000-1", "3-100000", "9-4"])
def test_free_sizes_past_printing_are_refused_at_once(verb, n, m):
    # |N_1| here has more digits than the interpreter prints of an int: the
    # powers behind it did not finish, or the report failed to print
    env = {**os.environ, "PYTHONPATH": str(Path(lukra.__file__).parents[1])}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "lukra.cli", "free", verb, "--n", str(n), "--m", str(m)],
                          capture_output=True, text=True, env=env, timeout=5)
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout) == (2, "")
    assert re.fullmatch(rf"error: \|N_1\| at n={n}, m={m} has at least \S+ digits, past the "
                        rf"interpreter's limit of \d+ digits for printing an int\n", done.stderr)
    assert elapsed < 5.0, f"free {verb} --n {n} --m {m} took {elapsed:.2f}s"


def test_logic_verbs(capsys, tmp_path):
    code, report = run(capsys, "logic", "taut", "--n", "3",
                       "--formula", "((p ->[2] q) -> p) -> p")
    assert code == 0 and report["valid"]
    code, report = run(capsys, "logic", "taut", "--n", "4",
                       "--formula", "((p ->[2] q) -> p) -> p")
    assert code == 1 and report["counterexample"] == {
        "chain": 4, "valuation": {"p": 2, "q": 0}}
    code, report = run(capsys, "logic", "conseq", "--n", "3",
                       "--hyp", "p", "--hyp", "p -> q", "--formula", "q")
    assert code == 0 and report["entails"]
    code, report = run(capsys, "logic", "refute", "--formula", "p | ~p",
                       "--max-n", "5")
    assert code == 1 and report["counterexample"]["chain"] == 3
    code, report = run(capsys, "logic", "refute", "--formula", "D p -> p",
                       "--max-n", "5")
    assert code == 0 and not report["refuted"]
    code, report = run(capsys, "logic", "theorem-suite", "--n", "3")
    assert code == 0 and report["passed"]
    code, report = run(capsys, "logic", "hierarchy", "--n", "3")
    assert code == 0 and report["passed"]


def test_prove_check_verb(capsys):
    import pathlib

    fixture = pathlib.Path(__file__).parent / "fixtures" / "proofs" / "lh20_n3.proof"
    code, report = run(capsys, "logic", "prove-check", "--system", "n",
                       "--n", "3", "--in", str(fixture))
    assert code == 0 and report["passed"]
    assert report["conclusion"] == "D p -> p"
    fixture = pathlib.Path(__file__).parent / "fixtures" / "proofs" / "crisp_delta_p.proof"
    code, report = run(capsys, "logic", "prove-check", "--system", "bot",
                       "--in", str(fixture))
    assert code == 0 and report["passed"]
    code, report = run(capsys, "logic", "prove-check", "--system", "bot",
                       "--in", str(fixture), "--qgen", "literal")
    assert code == 1 and report["failures"][0]["line"] == 4


def test_fo_eval_verb(capsys, tmp_path):
    L3 = make_chain(3, with_delta=True, with_bottom=True)
    s = tmp_path / "s.json"
    s.write_text(json.dumps({
        "domain_size": 2,
        "algebra": L3.to_dict(),
        "predicates": {"P": {"arity": 1, "table": {"0": 1, "1": 2}}},
        "constants": {"c": 0},
    }))
    code, report = run(capsys, "logic", "fo-eval", "--structure", str(s),
                       "--formula", "forall x (P(x) -> P(x))")
    assert code == 0 and report["designated"]
    code, report = run(capsys, "logic", "fo-eval", "--structure", str(s),
                       "--formula", "forall x P(x)")
    assert code == 1 and report["value"] == 1
    code, report = run(capsys, "logic", "fo-eval", "--structure", str(s),
                       "--formula", "P(x)", "--assign", "x=1")
    assert code == 0 and report["value"] == 2


def test_usage_errors(capsys, tmp_path):
    assert main(["algebra", "check", "--in", "/nonexistent.json"]) == 2
    assert main(["logic", "taut", "--n", "3", "--formula", "p ->"]) == 2
    assert main(["bogus"]) == 2
    big = tmp_path / "big.json"
    from lukra.algebra import product

    big.write_text(product([make_chain(4, with_delta=True)] * 2).to_json())
    assert main(["filters", "list", "--in", str(big)]) == 2
    assert main(["filters", "list", "--in", str(big), "--force"]) == 0
    capsys.readouterr()
    # an empty --out path is read as argparse reads it, and is unwritable
    assert cli._read_argv(["algebra", "chain", "--n", "3", "--out", ""]).out == ""
    assert main(["algebra", "chain", "--n", "3", "--out", ""]) == 2
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")


def answer(capsys, verb, where, formula):
    code = main(["logic", verb, *where, "--formula", formula])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# depth alone is bounded only by memory: each case with a shallow formula
# is answered as that formula, the others are refused within a second
@pytest.mark.parametrize("verb, formula, shallow", [
    ("taut", "p ->[99999999] q", None),           # refused before any expansion
    ("taut", "D " * 3000 + "p", "D p"),
    ("taut", "(" * 1200 + "p" + ")" * 1200, "p"),
    ("taut", "p" + " | p" * 600, "p"),            # sugar nests deeper than the text
    ("fo-eval", "forall x " * 3000 + "P(x)", None),   # 2^3000 values
    ("taut", "p ->[1000] q", "p -> q"),
    ("taut", "D " * 5000 + "p", "D p"),
    ("taut", "(" * 5000 + "p" + ")" * 5000, "p"),
    ("fo-eval", "P(c) ->[1000] P(c)", "P(c) -> P(c)"),
    ("fo-eval", "P(" + "f(" * 3000 + "c" + ")" * 3001, "P(c)"),    # f is its own inverse
], ids=["k-limit", "deep-delta", "deep-parens", "deep-sugar", "fo-deep-quantifiers",
        "k-1000", "delta-5000", "parens-5000", "fo-k-1000", "fo-deep-term"])
def test_oversized_formulas_are_usage_errors(capsys, tmp_path, verb, formula, shallow):
    s = tmp_path / "s.json"
    s.write_text(json.dumps(_structure()))
    where = ["--n", "3"] if verb == "taut" else ["--structure", str(s)]
    start = time.perf_counter()
    code, out, err = answer(capsys, verb, where, formula)
    if shallow is not None:
        assert (code, out, err) == answer(capsys, verb, where, shallow)
        return
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.startswith("error:")
    if verb == "fo-eval":
        assert f"guard {TABLE_GUARD}" in err


def test_first_order_guard_counts_values(capsys, tmp_path, monkeypatch):
    # the nodes of forall x forall y P(x) hold 1 + 2 + 4 + 4 values on two elements
    s = tmp_path / "s.json"
    s.write_text(json.dumps(_structure()))
    where = ["--structure", str(s)]
    monkeypatch.setenv("LUKRA_GUARD", "10")
    code, out, err = answer(capsys, "fo-eval", where, "forall x forall y P(x)")
    assert (code, out, err) == (2, "", "error: first-order evaluation needs more values "
                                       "than the guard 10\n")
    monkeypatch.setenv("LUKRA_GUARD", "11")
    assert answer(capsys, "fo-eval", where, "forall x forall y P(x)")[0] == 1
    monkeypatch.delenv("LUKRA_GUARD")
    s.write_text(json.dumps(_structure(domain_size=1, predicates__P__table={"0": 2},
                                       functions__f__table={"0": 0})))
    # scopes are interned, so nesting costs linear time and memory
    start = time.perf_counter()
    assert answer(capsys, "fo-eval", where, "forall x " * 20_000 + "P(x)") == \
        answer(capsys, "fo-eval", where, "forall x P(x)")
    assert time.perf_counter() - start < 2


# 2002001 nodes written out
_BIG = "((p ->[1000] q) ->[1000] q)"


def test_prove_check_writes_out_conclusions_within_a_bound(capsys, tmp_path):
    p = tmp_path / "deep.proof"
    p.write_text("1. p ->[1000] q ; HYP 1\n")
    code, report = run(capsys, "logic", "prove-check", "--system", "n", "--n", "3", "--in", str(p))
    assert code == 0 and report["conclusion"] == "p -> " * 1000 + "q"
    # about 2 * 10^9 nodes: past TEXT_NODES the report names the conclusion
    # and the hypothesis by their node counts
    p.write_text("1. ((p ->[1000] q) ->[1000] r) ->[1000] s ; HYP 1\n")
    start = time.perf_counter()
    code, report = run(capsys, "logic", "prove-check", "--system", "n", "--n", "3", "--in", str(p))
    assert time.perf_counter() - start < 5
    assert code == 0
    assert report["conclusion"] == "a formula of 2002002001 nodes"
    assert report["hypotheses"] == ["a formula of 2002002001 nodes"]
    # a hypothesis or a conclusion past the bound no longer refuses the
    # report: only the failed line fails
    for text, hypothesis, conclusion in [
            (f"1. {_BIG} ; HYP 1\n2. r ; MP 1 1\n", "a formula of 2002001 nodes", "r"),
            (f"1. p ; HYP 1\n2. {_BIG} ; MP 1 1\n", "p", "a formula of 2002001 nodes")]:
        p.write_text(text)
        code, report = run(capsys, "logic", "prove-check", "--system", "n", "--n", "3", "--in", str(p))
        assert code == 1
        assert [f["line"] for f in report["failures"]] == [2]
        assert (report["hypotheses"], report["conclusion"]) == ([hypothesis], conclusion)


@pytest.mark.parametrize("system, text, line, reason", [
    (["n", "--n", "3"], f"1. {_BIG} ; AX1\n2. p -> (q -> p) ; AX1\n", 1,
     "not an instance of AX1: metavariable alpha bound to '" + "p -> " * 1000
     + "q' but found a formula of 1997997 nodes"),
    # line 1 is the AX1 instance Y -> (r -> Y), so no hypothesis is past the bound
    (["n", "--n", "3"], f"1. {_BIG} -> r -> {_BIG} ; AX1\n2. r ; MP 1 1\n", 2,
     "MP mismatch: neither cited line is a formula of 4004007 nodes "
     "or a formula of 4004007 nodes"),
    (["bot"], f"1. p ; HYP 1\n2. p ; HYP 2\n3. p ; HYP 3\n"
              f"4. {_BIG} -> D p ; QGEN 1 2 3\n5. p ; HYP 4\n", 4,
     "third premise must be a formula of 2002003 nodes"),
], ids=["axiom", "mp", "crispness"])
def test_prove_check_names_a_subterm_past_the_bound_by_its_size(capsys, tmp_path, system,
                                                                text, line, reason):
    # a reason names a subterm past TEXT_NODES by its node count, so only
    # that line fails, and the check exits 1
    p = tmp_path / "big.proof"
    p.write_text(text)
    code, report = run(capsys, "logic", "prove-check", "--system", *system, "--in", str(p))
    assert code == 1
    assert report["failures"] == [{"line": line, "reason": reason}]


def test_suite_at_a_high_level_is_linear_in_the_shared_laws(capsys, tmp_path):
    # L17-L23 nest ->[n-1] in ->[n-1]; their expanded trees grow as n^3
    p = tmp_path / "l3.json"
    p.write_text(make_chain(3, with_delta=True).to_json())
    start = time.perf_counter()
    code, report = run(capsys, "algebra", "check", "--in", str(p), "--n", "300", "--suite")
    assert time.perf_counter() - start < 2
    passed = {"passed": True, "violations": []}
    assert (code, report) == (0, {"passed": True, "level": 300, "checks": {
        "LR": passed, "LRn[n=300]": passed, "delta[n=300]": passed, "suite[n=300]": passed}})


@pytest.mark.parametrize("level", [5000, 30_000_000])
def test_oversized_levels_are_usage_errors(capsys, tmp_path, level):
    # level n asks for ->[n-1] and ->[n], which are refused past IMP_K_LIMIT
    # before a single node is built
    import pathlib

    fixture = pathlib.Path(__file__).parent / "fixtures" / "proofs" / "lh20_n3.proof"
    p = tmp_path / "l3.json"
    p.write_text(make_chain(3, with_delta=True).to_json())
    message = (rf"error: iterated implication ->\[(?:{level - 1}|{level})\] "
               rf"exceeds the limit k <= {IMP_K_LIMIT}\n")
    for argv in (["logic", "theorem-suite"], ["logic", "hierarchy"],
                 ["algebra", "check", "--in", str(p)],
                 ["logic", "prove-check", "--system", "n", "--in", str(fixture)]):
        start = time.perf_counter()
        code = main([*argv, "--n", str(level)])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 5
        assert (code, captured.out) == (2, "")
        assert re.fullmatch(message, captured.err), (argv, captured.err)


@pytest.mark.parametrize("imp, message", [
    ([[1, "a"], [0, 1]], "imp[0][1] must be an int in 0..1, got 'a'"),
    ([[1, True], [0, 1]], "imp[0][1] must be an int in 0..1, got True"),
], ids=["string-entry", "bool-entry"])
def test_malformed_algebra_files_are_usage_errors(capsys, tmp_path, imp, message):
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"size": 2, "top": 1, "imp": imp}))
    code = main(["algebra", "check", "--in", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--in", "--structure"])
def test_deeply_nested_json_files_are_usage_errors(capsys, tmp_path, flag):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    argv = (["algebra", "check", "--in", str(p)] if flag == "--in" else
            ["logic", "fo-eval", "--structure", str(p), "--formula", "P(c)"])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {p}: JSON nested deeper than {cli.JSON_DEPTH} levels\n"
    assert "formula" not in captured.err


def test_guard_env_override(capsys, tmp_path, monkeypatch):
    from lukra.algebra import product

    big = tmp_path / "big.json"
    big.write_text(product([make_chain(4, with_delta=True)] * 2).to_json())
    monkeypatch.setenv("LUKRA_GUARD", "16")
    code, report = run(capsys, "filters", "list", "--in", str(big))
    assert code == 0 and report["filters"]


def test_logic_table_guard(capsys, monkeypatch):
    # 32 names and 65 nodes on L_2 alone would make 2^32 packed fields of 3
    # bits, in 2^14 chunks: about 10^12 units of work, past the default
    # guard; the refusal comes before any chain is tabulated
    start = time.perf_counter()
    code = main(["logic", "taut", "--n", "12", "--formula",
                 " -> ".join(f"p{i}" for i in range(32)) + " -> p0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and time.perf_counter() - start < 5
    m = re.fullmatch(r"error: predicted (\d+) units of packed work on the chains L_2..L_2 "
                     r"exceed guard (\d+)\n", captured.err)
    assert m and int(m[1]) > int(m[2]) == WORK_GUARD
    # LUKRA_GUARD moves the limit for taut, conseq and refute alike: raised
    # to each refusal's count, a verb passes that chain and answers, after
    # one refusal where L_2 has a counterexample and two where none has
    for verb, refusals in ((["taut", "--n", "3"], 1), (["conseq", "--n", "3", "--hyp", "p"], 2),
                           (["refute", "--max-n", "3"], 1)):
        monkeypatch.setenv("LUKRA_GUARD", "5")
        counts = [5]
        while (code := main(["logic", *verb, "--formula", "q -> p"])) == 2:
            counts.append(int(re.search(r"predicted (\d+) ", capsys.readouterr().err)[1]))
            monkeypatch.setenv("LUKRA_GUARD", str(counts[-1]))
        assert code in (0, 1) and len(counts) == 1 + refusals and counts == sorted(set(counts))
    monkeypatch.setenv("LUKRA_GUARD", "5")
    # and for theorem-suite and hierarchy, which answer under the default guard
    for verb in (["theorem-suite", "--n", "3"], ["hierarchy", "--n", "3"]):
        capsys.readouterr()
        assert main(["logic", *verb]) == 2
        assert re.fullmatch(r"error: predicted \d+ units of packed work on the chains L_2..L_2 "
                            r"exceed guard 5\n", capsys.readouterr().err)
        monkeypatch.delenv("LUKRA_GUARD")
        assert main(["logic", *verb]) == 0
        monkeypatch.setenv("LUKRA_GUARD", "5")
    capsys.readouterr()


def test_lukra_guard_must_not_be_negative(capsys, monkeypatch):
    monkeypatch.setenv("LUKRA_GUARD", "-3")
    usage_error(capsys, ["logic", "taut", "--n", "3", "--formula", "p"],
                "LUKRA_GUARD must not be negative, got '-3'")
    # zero is a guard: it refuses any work
    monkeypatch.setenv("LUKRA_GUARD", "0")
    usage_error(capsys, ["logic", "taut", "--n", "3", "--formula", "p"],
                "predicted 60072 units of packed work on the chains L_2..L_2 exceed guard 0")


def test_logic_chain_sweep_guard(capsys, monkeypatch):
    # each chain adds its predicted work to a running count, so a huge level
    # is refused instead of swept; a counterexample before it answers.  For
    # p -> p, L_k adds 13 k w + 90000 for fields of w bits (see
    # test_logic.py::test_the_chain_sweep_is_bounded): 451157 on L_2..L_6
    huge = "99999999999999999999"
    monkeypatch.setenv("LUKRA_GUARD", "451157")
    assert main(["logic", "taut", "--n", huge, "--formula", "p -> p"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: predicted 541612 units of packed work on the chains L_2..L_7 "
        "exceed guard 451157\n")
    code, report = run(capsys, "logic", "refute", "--max-n", huge, "--formula", "p")
    assert code == 1 and report["counterexample"] == {"chain": 2, "valuation": {"p": 0}}


def _implications(names):
    """The balanced implication tree over `names`, as text."""
    if len(names) == 1:
        return names[0]
    half = len(names) // 2
    return f"({_implications(names[:half])}) -> ({_implications(names[half:])})"


# 9000 names on L_2 alone: more than 2^9000 fields
_WIDE = _implications([f"p{i}" for i in range(9000)])


@pytest.mark.parametrize("argv", [
    ["logic", "taut", "--n", "1" + "0" * 1500, "--formula", _WIDE],
    ["logic", "refute", "--max-n", "1" + "0" * 1500, "--formula", _WIDE],
    ["algebra", "chain", "--n", "1" + "0" * 2500],
])
def test_a_refused_count_past_the_printable_digits(capsys, monkeypatch, argv):
    # a predicted count of more digits than the interpreter converts to text
    # is named by a bound, so the refusal exits 2, not 3
    monkeypatch.setenv("LUKRA_GUARD", "100")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and " more than 10^2700 " in captured.err

def usage_error(capsys, argv, message):
    """main(argv) exits 2 with `message` as its one stderr line and no report."""
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("spec, message", [
    ("3,4", "filter element 4 is outside the carrier 0..3"),
    ("-1,3", "filter element -1 is outside the carrier 0..3"),
], ids=["past-the-end", "negative"])
def test_quotient_by_indices_outside_the_carrier(capsys, tmp_path, spec, message):
    p = tmp_path / "l4.json"
    p.write_text(make_chain(4, with_delta=True).to_json())
    usage_error(capsys, ["filters", "quotient", "--in", str(p), f"--filter={spec}"], message)


def test_filters_list_starts_from_the_least_filter(capsys, tmp_path):
    # 1 -> 0 = 1, so {1} is not MP-closed; the only filter is the carrier
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"size": 2, "imp": [[1, 1], [1, 1]], "top": 1}))
    code, report = run(capsys, "filters", "list", "--in", str(p))
    assert (code, report) == (0, {"filters": [[0, 1]]})


def test_quotient_refuses_a_relation_that_is_not_reflexive(capsys, tmp_path):
    # {1} is a filter of this table, but 0 -> 0 = 4 lies outside it
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"size": 6, "top": 1, "imp": [
        [4, 1, 3, 2, 2, 4], [2, 2, 4, 5, 2, 3], [4, 5, 0, 4, 5, 1],
        [5, 4, 0, 4, 3, 4], [4, 2, 1, 0, 2, 0], [1, 4, 2, 1, 1, 2]]}))
    code = main(["filters", "quotient", "--in", str(p), "--filter", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3, "", "internal inconsistency: filter relation is not an equivalence at 0\n")


def _structure(**change):
    """A valid structure file with each change `a__b=value` applied to
    data["a"]["b"]; a value of None deletes the entry."""
    data = {
        "domain_size": 2,
        "algebra": make_chain(3, with_delta=True, with_bottom=True).to_dict(),
        "predicates": {"P": {"arity": 1, "table": {"0": 1, "1": 2}}},
        "functions": {"f": {"arity": 1, "table": {"0": 1, "1": 0}}},
        "constants": {"c": 0},
    }
    for path, value in change.items():
        *keys, last = path.split("__")
        where = data
        for key in keys:
            where = where[key]
        if value is None:
            del where[last]
        else:
            where[last] = value
    return data


@pytest.mark.parametrize("structure, assign, message", [
    (_structure(predicates__P__table__0=7), [],
     "predicate P(0) must be an int in 0..2, got 7"),
    (_structure(predicates=[]), [], "predicates must be an object, got list"),
    (_structure(predicates__P__table__1=True), [],
     "predicate P(1) must be an int in 0..2, got True"),
    (_structure(domain_size="2"), [], "domain_size must be a positive int, got '2'"),
    (_structure(predicates__P__table__1=None), [], "predicate P(1) is missing"),
    (_structure(predicates__P__table__00=1), [],
     "predicate P key '00' must be 1 comma-separated indices in 0..1"),
    (_structure(functions__f__table__1=2), [], "function f(1) must be an int in 0..1, got 2"),
    (_structure(constants__c=9), [], "constant c must be an int in 0..1, got 9"),
    (_structure(), ["--assign", "x=5"], "assignment x must be an int in 0..1, got 5"),
    (_structure(), ["--assign", "x=abc"], "bad assignment 'x=abc'; want name=index"),
], ids=["value-7", "predicates-list", "true-entry", "string-domain", "missing-entry",
        "bad-key", "function-value", "constant-9", "assign-5", "assign-abc"])
def test_malformed_structure_files_are_usage_errors(capsys, tmp_path, structure, assign, message):
    s = tmp_path / "s.json"
    s.write_text(json.dumps(structure))
    usage_error(capsys, ["logic", "fo-eval", "--structure", str(s), "--formula", "P(x)",
                         *(assign or ["--assign", "x=0"])], message)


def test_chain_and_product_tables_are_guarded(capsys, tmp_path, monkeypatch):
    start = time.perf_counter()
    usage_error(capsys, ["algebra", "chain", "--n", "4000"],
                "predicted table of 16000000 entries (4000 elements) exceeds guard 10000000")
    assert time.perf_counter() - start < 1
    p = tmp_path / "l4.json"
    p.write_text(make_chain(4, with_delta=True).to_json())
    monkeypatch.setenv("LUKRA_GUARD", "255")
    usage_error(capsys, ["algebra", "product", "--in", str(p), "--in", str(p)],
                "predicted table of 256 entries (16 elements) exceeds guard 255")
    monkeypatch.setenv("LUKRA_GUARD", "256")
    code, report = run(capsys, "algebra", "product", "--in", str(p), "--in", str(p))
    assert code == 0 and report["size"] == 16


@pytest.mark.parametrize("error, message", [
    (TypeError, "unsupported operand second line"),
    (KeyError, r"'unsupported operand\nsecond line'"),   # str() of a KeyError is its key's repr
    (ValueError, "unsupported operand second line"),
    (IndexError, "unsupported operand second line"),
], ids=["TypeError", "KeyError", "ValueError", "IndexError"])
def test_unexpected_errors_exit_3(capsys, monkeypatch, error, message):
    # every refusal of input is an AlgebraError, so any builtin error,
    # ValueError included, is an internal fault
    import lukra.cli

    def broken(args):
        raise error("unsupported operand\nsecond line")

    monkeypatch.setattr(lukra.cli, "cmd_algebra_chain", broken)
    code = main(["algebra", "chain", "--n", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"internal error: {error.__name__}: {message}\n"


_LONG = b"9" * 5000      # past the 4300 digits int() reads from text


@pytest.mark.parametrize("text, argv, start", [
    (b'{"size": 2,', ["algebra", "check", "--in", "@"],
     "@: Expecting property name enclosed in double quotes"),
    (b"\xff", ["algebra", "check", "--in", "@"], "@: 'utf-8' codec can't decode byte 0xff"),
    (b"\xff", ["logic", "fo-eval", "--structure", "@", "--formula", "P(c)"],
     "@: 'utf-8' codec can't decode byte 0xff"),
    (b"1. p -> q -> p ; AX1\n\xff", ["logic", "prove-check", "--system", "n", "--n", "3", "--in", "@"],
     "@: 'utf-8' codec can't decode byte 0xff"),
    (b'{"size": ' + _LONG + b', "top": 0, "imp": [[0]]}', ["algebra", "check", "--in", "@"],
     "@: Exceeds the limit"),
    (json.dumps(_structure()).encode().replace(b'"domain_size": 2', b'"domain_size": ' + _LONG),
     ["logic", "fo-eval", "--structure", "@", "--formula", "P(c)"], "@: Exceeds the limit"),
    (b"# a comment\n" + _LONG + b". p -> q -> p ; AX1", ["logic", "prove-check", "--system", "bot", "--in", "@"],
     "line index on text line 2 has 5000 digits, too many to read"),
    (b"1. p -> q -> p ; AX1[n=" + _LONG + b"]", ["logic", "prove-check", "--system", "n", "--n", "3", "--in", "@"],
     "axiom level on text line 1 has 5000 digits, too many to read"),
], ids=["truncated-json", "algebra-not-utf8", "structure-not-utf8", "proof-not-utf8",
        "algebra-long-int", "structure-long-int", "proof-long-index", "proof-long-level"])
def test_unreadable_input_is_refused_naming_its_file_or_line(capsys, tmp_path, text, argv, start):
    p = tmp_path / "input"
    p.write_bytes(text)
    code = main([str(p) if a == "@" else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: " + start.replace("@", str(p))), captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


# -- the streamed report: json.dumps' bytes, never the whole text held ---------

def _dumped(value):
    """json.dumps(value, indent=2, sort_keys=True) plus print's newline, or the
    type of the error it raises."""
    try:
        return json.dumps(value, indent=2, sort_keys=True) + "\n"
    except (TypeError, ValueError) as exc:
        return type(exc)


def _emitted(value):
    """What _emit writes to stdout for `value`, or the type of the error it raises."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            cli._emit(value, argparse.Namespace(out=None))
    except (TypeError, ValueError) as exc:
        return type(exc)
    return out.getvalue()


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=10**29),
    st.integers(max_value=-10**29), st.floats(), st.text(),
    st.sampled_from(['"', "\\", "a\nb", "\x00\x1f\t\r", "é", "→", "\U0001d53d", "</"]))
_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False))
_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.lists(st.integers(), max_size=6), st.lists(st.integers() | st.booleans(), max_size=6),
    st.lists(st.integers(), max_size=6).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=4),
    st.dictionaries(_KEYS, inner, max_size=3)), max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(value=_VALUES)
def test_streamed_report_matches_json_dumps(value):
    assert _emitted(value) == _dumped(value)


class Exit(enum.IntEnum):
    OK = 0
    INTERNAL = 3


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [1, True, 2], [False], [10**40, -10**35],
    {"ké\n\"": "→\x01"}, {1: "a", 2: [3]}, {(1, 2): 0}, {1: 0, "1": 0}, [0.5, 1e300],
    [float("nan"), float("inf")], {"x": [object()]}, [10**5000],
    # on both sides of the writer's own rule: the empty string and the ends
    # of printable ASCII are written by _chunks, while a control character,
    # a line separator, a lone surrogate, an escaped key and an int subclass
    # (whose str may differ from json's) go to json.dumps
    "\x7f", "\u2028", "\ud800", "", " ~", ["", "a b", "\x7f"], Exit.INTERNAL, [Exit.OK, 1],
    {"\x7f": 0, "\u2028": 1, "\ud800": 2, "": 3, 'a"b': 4, "a\\b": 5, "é": 6, "\n": 7},
])
def test_streamed_report_matches_json_dumps_on_edge_values(value):
    assert _emitted(value) == _dumped(value)


@pytest.mark.parametrize("nm", [(2, 4), (3, 2)])
def test_free_build_reports_are_byte_identical(tmp_path, capsys, nm):
    from lukra.freealg import build_free

    out = tmp_path / "free.json"
    assert main(["free", "build", "--n", str(nm[0]), "--m", str(nm[1]), "--out", str(out)]) == 0
    F = build_free(*nm)
    want = json.dumps({**F.algebra.to_dict(), "generators": list(F.generators)},
                      indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()


def test_emitting_a_large_report_holds_no_copy_of_its_text(capsys):
    # the (3, 2) report is 3.88 MB of text; json.dumps held it whole, and more
    from lukra.freealg import build_free

    F = build_free(3, 2)
    report = {**F.algebra.to_dict(), "generators": list(F.generators)}
    tracemalloc.start()
    try:
        cli._emit(report, argparse.Namespace(out=os.devnull))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert capsys.readouterr().err == f"wrote {os.devnull}\n"


@pytest.mark.parametrize("to_file", [False, True])
def test_unserializable_report_exits_3_and_leaves_no_file(capsys, monkeypatch, tmp_path, to_file):
    # the report fails part-way, after its first key is written
    monkeypatch.setattr(cli, "cmd_algebra_chain", lambda args: ({"a": [1, 2], "b": object()}, "", True))
    out = tmp_path / "report.json"
    code = main(["algebra", "chain", "--n", "3", *(["--out", str(out)] if to_file else [])])
    captured = capsys.readouterr()
    assert code == 3 and not out.exists()
    assert captured.err == "internal error: TypeError: Object of type object is not JSON serializable\n"
    # stdout keeps what was written before the failure; a file is removed
    if to_file:
        assert captured.out == ""
    else:
        assert captured.out.startswith('{\n  "a": [\n    1,\n    2\n  ]')


# -- start-up: no parser for a job, and only the modules its verb runs --------

FIXTURES = Path(__file__).parent / "fixtures"

# The modules a job loads after start-up that the tests watch, printed as
# "<exit code> <name> ...".  The harness itself imports nothing the job might
# load (json included), so it sees every one of them.
LOADED_AFTER_MAIN = """
import sys
before = set(sys.modules)
import contextlib, io
from lukra.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in set(sys.modules) - before
                    if m in ("argparse", "array", "dataclasses", "fractions", "gettext", "json",
                             "locale") or m.split(".")[0] == "lukra"))
"""

# every job loads these; no job loads argparse, gettext or locale, and no
# verb loads dataclasses or fractions
CORE = ["lukra", "lukra.algebra", "lukra.cli", "lukra.records"]


def _loaded(argv, env) -> tuple[int, list[str]]:
    """The exit code of a job in a fresh process and the watched modules it loaded."""
    done = subprocess.run([sys.executable, "-c", LOADED_AFTER_MAIN, *argv],
                          capture_output=True, text=True, env=env, timeout=30, check=True)
    code, *names = done.stdout.split()
    return int(code), names


# one job per group and exit code, with its exit code and the modules it
# loads: lukra's by their names in the package, json only where a JSON file
# is read, array only for the law checks
JOBS = pytest.mark.parametrize("argv, code, loaded", [
    (["logic", "taut", "--n", "3", "--formula", "p -> p"], 0, ["formulas", "logic"]),
    (["free", "size", "--n", "2", "--m", "1"], 0, ["freealg"]),
    (["algebra", "homs", "--from", "@l3", "--to", "@l3"], 0, ["json"]),
    (["filters", "list", "--in", "@l3"], 0, ["filters", "json"]),
    (["logic", "fo-eval", "--structure", "@s", "--formula", "forall x P(x)"], 1,
     ["fo", "formulas", "json"]),
    (["logic", "prove-check", "--system", "n", "--n", "3",
      "--in", str(FIXTURES / "proofs" / "lh20_n3.proof")], 0, ["formulas", "logic", "proofs"]),
    (["algebra", "check", "--in", "@l3", "--suite", "--quasi"], 0,
     ["array", "formulas", "json", "laws"]),
    (["algebra", "chain", "--n", "3"], 0, []),
    (["logic", "taut", "--n", "3", "--formula", "p ->"], 2, ["formulas", "logic"]),
    (["filters", "classify", "--in", "@no-such-file"], 2, ["filters", "json"]),
], ids=["taut", "free-size", "homs", "filters-list", "fo-eval", "prove-check",
        "algebra-check", "algebra-chain", "taut-unparsable", "classify-missing-file"])


def _job(tmp_path, argv):
    """argv with each "@name" a file under tmp_path (l3 and s are written),
    and the environment in which a subprocess imports this lukra."""
    L3 = make_chain(3, with_delta=True, with_bottom=True)
    (tmp_path / "l3").write_text(L3.to_json())
    (tmp_path / "s").write_text(json.dumps({
        "domain_size": 2, "algebra": L3.to_dict(),
        "predicates": {"P": {"arity": 1, "table": {"0": 1, "1": 2}}}}))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    return argv, {**os.environ, "PYTHONPATH": str(Path(lukra.__file__).parents[1])}


@JOBS
def test_each_verb_loads_fo_and_proofs_only_for_itself(tmp_path, argv, code, loaded):
    argv, env = _job(tmp_path, argv)
    assert _loaded(argv, env) == (code, sorted(
        CORE + [m if m in ("array", "json") else f"lukra.{m}" for m in loaded]))


# every verb once: the ones that read a JSON file (an algebra, or fo-eval's
# structure) load json, and the others write their reports without it
@pytest.mark.parametrize("argv", [
    ["algebra", "chain", "--n", "3", "--delta"],
    ["algebra", "check", "--in", "@l3"],
    ["algebra", "delta", "--in", "@l3"],
    ["algebra", "product", "--in", "@l3", "--in", "@l3"],
    ["algebra", "homs", "--from", "@l3", "--to", "@l3", "--epi"],
    ["filters", "list", "--in", "@l3"],
    ["filters", "maximal", "--in", "@l3"],
    ["filters", "quotient", "--in", "@l3", "--filter", "2"],
    ["filters", "subdirect", "--in", "@l3"],
    ["filters", "classify", "--in", "@l3"],
    ["free", "build", "--n", "2", "--m", "1"],
    ["free", "size", "--n", "3", "--m", "2", "--mode", "literal"],
    ["free", "verify", "--n", "2", "--m", "2"],
    ["logic", "taut", "--n", "4", "--formula", "p | ~p"],
    ["logic", "conseq", "--n", "3", "--formula", "q", "--hyp", "p", "--hyp", "p -> q"],
    ["logic", "prove-check", "--system", "bot", "--in",
     str(FIXTURES / "proofs" / "crisp_delta_p.proof")],
    ["logic", "refute", "--formula", "p | ~p", "--max-n", "4"],
    ["logic", "fo-eval", "--structure", "@s", "--formula", "exists x P(x)"],
    ["logic", "theorem-suite", "--n", "3"],
    ["logic", "hierarchy", "--n", "3"],
], ids=lambda argv: " ".join(argv[:2]))
def test_only_jobs_that_read_json_load_json(tmp_path, argv):
    reads_json = any(a.startswith("@") for a in argv)
    argv, env = _job(tmp_path, argv)
    code, names = _loaded(argv, env)
    assert code in (0, 1)
    assert ("json" in names) == reads_json
    assert ("array" in names) == (argv[:2] == ["algebra", "check"])


# -- the process entry: run() freezes the heap, main() does not ----------------

@JOBS
def test_a_process_answers_as_main_does_in_process(tmp_path, capsys, argv, code, loaded):
    argv, env = _job(tmp_path, argv)
    out = tmp_path / "report.json"
    for job in (argv, argv + ["--out", str(out)]):
        done = subprocess.run([sys.executable, "-m", "lukra.cli", *job],
                              capture_output=True, env=env, timeout=30)
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        assert main(job) == done.returncode == code
        # in-process callers (tests, the benchmark's shim) never freeze
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        captured = capsys.readouterr()
        assert (captured.out.encode(), captured.err.encode()) == (done.stdout, done.stderr)
        assert (out.read_bytes() if out.exists() else None) == written
        out.unlink(missing_ok=True)


def test_run_exits_with_mains_code_after_atexit_and_flushing(tmp_path):
    _, env = _job(tmp_path, [])
    script = ("import atexit, gc, sys\n"
              "from lukra import cli\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
              "sys.argv[1:] = ['logic', 'refute', '--formula', 'p -> q', '--max-n', '2']\n"
              "cli.run()\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 1
    assert json.loads(done.stdout)["refuted"] is True
    assert done.stderr.splitlines()[-1] == "frozen True"


@pytest.mark.parametrize("argv, stderr", [
    # the report is larger than the stdout buffer, so the write fails in _emit
    (["free", "build", "--n", "3", "--m", "2"], ""),
    # the report fits the buffer, so the write fails at run's flush, after
    # main has written the summary
    (["algebra", "chain", "--n", "3"], "chain of size 3\n"),
], ids=["free-build", "algebra-chain"])
def test_a_closed_stdout_pipe_keeps_the_exit_code(tmp_path, argv, stderr):
    # `lukra ... | head -c 10`: the reader leaves before the report is written
    _, env = _job(tmp_path, [])
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "lukra.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=30)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, stderr)
    # any other failed write is still refused input
    out = tmp_path / "missing" / "report.json"
    done = subprocess.run([sys.executable, "-m", "lukra.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


def test_the_console_script_is_the_process_entry():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", text, re.M).group(1)
    assert re.findall(r'^(\w+)\s*=\s*"([\w.]+):(\w+)"', scripts, re.M) == [
        ("lukra", "lukra.cli", "run")]
    assert callable(cli.run)


def test_fo_and_proofs_names_are_still_exported():
    from lukra import FOStructure, check_proof, fo_eval, parse_proof
    from lukra.fo import FOStructure as fo_structure, fo_eval as eval_fo
    from lukra.proofs import check_proof as check, parse_proof as parse_text

    assert (FOStructure, fo_eval, check_proof, parse_proof) == (
        fo_structure, eval_fo, check, parse_text)
    assert {"FOStructure", "fo_eval", "check_proof", "parse_proof"} <= set(dir(lukra))
    assert {"FOStructure", "fo_eval", "check_proof", "parse_proof"} <= set(lukra.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lukra.no_such_name
    # every public name resolves, loading its module on first use
    for name in lukra.__all__:
        assert getattr(lukra, name) is not None, name


def _verb_parsers(parser):
    """(group, verb, parser) for every verb of a full tree."""
    def choices(p):
        return next(a.choices for a in p._actions if isinstance(a.choices, dict))

    return [(group, verb, vp) for group, gp in choices(parser).items()
            for verb, vp in choices(gp).items()]


def _valid_argv(vp):
    """Every option of a verb parser with a value it accepts."""
    argv = []
    for action in vp._actions:
        if not action.option_strings or action.dest == "help":
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(action.choices[-1] if action.choices else
                        "3" if action.type is int else "x")
    return argv


def _parse_failure(parser, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, err.getvalue()


PARSER = cli.build_parser()
FULL_VERBS = [(g, v) for g, v, _ in _verb_parsers(PARSER)]


def _named(ns):
    """vars(ns) with the handler by name."""
    return {**vars(ns), "fn": ns.fn.__name__}


def _parsed(argv):
    """What argparse makes of argv, fn by name, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _named(PARSER.parse_args(argv))
        except SystemExit:
            return None


# the reader of a job's argv is one verb's parser: for each verb it gives the
# full argparse tree's namespace, and leaves every usage error to that tree
@pytest.mark.parametrize("group, verb", FULL_VERBS, ids=[f"{g}-{v}" for g, v in FULL_VERBS])
def test_one_verb_parser_matches_the_full_tree(group, verb):
    vp = next(p for g, v, p in _verb_parsers(PARSER) if (g, v) == (group, verb))
    argv = [group, verb, *_valid_argv(vp)]
    assert _named(cli._read_argv(argv)) == _parsed(argv)
    assert _parsed(argv)["fn"] == f"cmd_{group}_{verb.replace('-', '_')}"
    required = next(a for a in vp._actions if a.required)
    flag = argv.index(required.option_strings[0])
    missing = argv[:flag] + argv[flag + (1 if required.nargs == 0 else 2):]
    for bad in (missing, argv + ["--bogus"]):
        code, err = _parse_failure(PARSER, bad)
        assert code == 2 and err.startswith("usage: lukra")
        assert cli._read_argv(bad) is None


@JOBS
def test_every_job_argv_is_read_without_argparse(argv, code, loaded):
    assert _named(cli._read_argv(argv)) == _parsed(argv)


# values argparse reads in its own way: "" is a value, "-1" a negative number,
# int() strips spaces and reads underscores and non-ASCII digits
_ODD_VALUES = ["", "-1", "-x", " 3", "3_0", "\u0663", "x", "3", "0"]
_STRAY = ["-h", "--help", "--", "--bogus", "stray", "-n"]


@st.composite
def _argvs(draw):
    """An argv of one verb: its declared flags in random order and subsets,
    duplicated, joined with `=`, abbreviated or left without a value, with
    odd values, choice typos, stray tokens and now and then a broken head."""
    group, verb, vp = draw(st.sampled_from(_verb_parsers(PARSER)))
    head = draw(st.sampled_from([[group, verb]] * 8 + [
        [group], [group, verb[:-1]], [verb, group], ["-h", group, verb], [group, "--help", verb]]))
    actions = [a for a in vp._actions if a.option_strings and a.dest != "help"]
    chosen = [a for a in actions if draw(st.integers(0, 9)) < 8]
    chosen += draw(st.lists(st.sampled_from(actions), max_size=2))
    tokens = []
    for action in draw(st.permutations(chosen)):
        flag = action.option_strings[0]
        good = action.choices or ["3" if action.type is int else "x"]
        odd = _ODD_VALUES + [c[:-1] for c in action.choices or []] + [c + "x" for c in action.choices or []]
        value = draw(st.sampled_from(good * len(odd) + odd))
        form = draw(st.sampled_from(["plain"] * 24 + ["joined", "abbreviated", "bare", "stray"]))
        if form == "stray":
            tokens.append(draw(st.sampled_from(_STRAY)))
        elif form == "joined":
            tokens.append(f"{flag}={value}")
        elif form == "abbreviated":
            tokens += [flag[:max(3, len(flag) - 1)], value][:1 if action.nargs == 0 else 2]
        elif form == "bare" or action.nargs == 0:
            tokens.append(flag)
        else:
            tokens += [flag, value]
    return head + tokens


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_the_reader_gives_argparses_namespace_or_declines(argv):
    got, want = cli._read_argv(argv), _parsed(argv)
    if want is None:
        assert got is None
    elif got is not None:
        assert _named(got) == want


def test_main_builds_a_parser_only_off_a_jobs_path(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    assert main(["logic", "taut", "--n", "3", "--formula", "p -> p"]) == 0
    assert built == []
    for argv in (["--help"], ["logic", "--help"], ["logic"], ["logic", "tuat"], []):
        assert main(argv) in (0, 2)
        assert len(built) == 1
        built.clear()
    capsys.readouterr()


def test_help_loads_argparse(tmp_path):
    _, env = _job(tmp_path, [])
    code, loaded = _loaded(["--help"], env)
    assert code == 0 and {"argparse", "gettext", "locale"} <= set(loaded)


TOP_HELP = """\
usage: lukra [-h] {algebra,filters,free,logic} ...

Batch command-line front end. One process per command; human-readable summary
on stderr, a single JSON report on stdout (or --out). Exit codes: 0 when the
checked property holds (or the query succeeded), 1 when a checked property is
false, 2 for usage errors, 3 for internal inconsistencies and any unexpected
error. The environment variable LUKRA_GUARD overrides enumeration size guards.

positional arguments:
  {algebra,filters,free,logic}

options:
  -h, --help            show this help message and exit
"""

LOGIC_HELP = """\
usage: lukra logic [-h]
                   {taut,conseq,prove-check,refute,fo-eval,theorem-suite,hierarchy}
                   ...

positional arguments:
  {taut,conseq,prove-check,refute,fo-eval,theorem-suite,hierarchy}
    taut                tautology decision
    conseq              matrix consequence
    prove-check         check a proof file
    refute              search chains for a refutation
    fo-eval             evaluate a first-order formula
    theorem-suite       derived-theorem suite
    hierarchy           hierarchy strictness

options:
  -h, --help            show this help message and exit
"""


@pytest.mark.parametrize("argv, text", [(["--help"], TOP_HELP), (["logic", "--help"], LOGIC_HELP)],
                         ids=["top", "logic"])
def test_help_is_unchanged(monkeypatch, capsys, argv, text):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 0
    assert capsys.readouterr().out == text


# -- the exit contract on malformed input ---------------------------------------

_MISSING = object()
_JUNK = st.one_of(st.integers(-2, 7), st.booleans(), st.floats(),
                  st.sampled_from(["", "1", "a\nb"]) | st.text(max_size=4),
                  st.none(), st.lists(st.integers(-1, 6), max_size=6))


def _paths(data, path=()):
    """The path of every entry of nested dicts and lists, `data` itself first."""
    yield path
    if isinstance(data, (dict, list)):
        for key, value in (data.items() if isinstance(data, dict) else enumerate(data)):
            yield from _paths(value, path + (key,))


@st.composite
def _spoiled(draw, data):
    """A copy of `data` with up to two entries, at any depth, deleted or set to junk."""
    data = json.loads(json.dumps(data))
    for _ in range(draw(st.integers(0, 2))):
        *where, last = draw(st.sampled_from(list(_paths(data))[1:]))
        parent = data
        for key in where:
            parent = parent[key]
        value = draw(st.just(_MISSING) | _JUNK)
        if value is _MISSING:
            del parent[last]
        else:
            parent[last] = value
    return data


@st.composite
def _algebra_dicts(draw):
    """A chain or a random table of size 6 or less, with or without delta and bottom."""
    k = draw(st.integers(1, 6))
    entry = st.integers(0, k - 1)
    row = st.lists(entry, min_size=k, max_size=k)
    if k > 1 and draw(st.booleans()):
        return make_chain(k, with_delta=draw(st.booleans()), with_bottom=draw(st.booleans())).to_dict()
    return {"size": k, "imp": draw(st.lists(row, min_size=k, max_size=k)), "top": draw(entry),
            "delta": draw(st.none() | row), "bottom": draw(st.none() | entry), "label": "t"}


def _soup(tokens, max_size=8):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map(" ".join)


_FO_FORMULAS = st.sampled_from(["P(x)", "forall x P(x)", "exists y (f(y) = c)", "P(c) -> D P(c)"]) | _soup(
    ["forall", "exists", "x", "y", "c", "P", "f", "(", ")", ",", "=", "->", "->[2]", "D", "~", "&", "|", "T"])
_PROOF_LINES = st.sampled_from((FIXTURES / "proofs" / "lh20_n3.proof").read_text().splitlines()) | st.builds(
    "{}. {} ; {} {}".format, st.sampled_from(["1", "2", "3", "0", "-1", "x"]),
    _soup(["p", "q", "->", "->[2]", "D", "(", ")", "F", "T", "~", "|", "&"]),
    st.sampled_from(["AX1", "AX8", "AX2[n=3]", "AX12", "MP", "HYP", "QGEN", "BOGUS", ""]),
    _soup(["1", "2", "3", "a", "-1"], max_size=3))

_ASSIGNMENTS = st.lists(st.sampled_from(["x=0", "x=1", "y=0"]), max_size=2) | st.lists(
    st.sampled_from(["x=abc", "=1", "x=", "x=-1", "x=0"]), min_size=1, max_size=2)

# each kind of input: (file text, argv with "@" for the file's path)
_JOBS = {
    "algebra": st.tuples(
        _algebra_dicts().flatmap(_spoiled).map(json.dumps),
        st.sampled_from([["algebra", "check", "--in", "@", "--suite", "--quasi"],
                         ["algebra", "delta", "--in", "@"],
                         ["filters", "list", "--in", "@", "--force"],
                         ["filters", "quotient", "--in", "@", "--filter", "0"]])),
    "structure": st.tuples(
        _spoiled(_structure()).map(json.dumps),
        st.builds(lambda formula, assign: ["logic", "fo-eval", "--structure", "@", f"--formula={formula}",
                                           *(f"--assign={item}" for item in assign)],
                  _FO_FORMULAS, _ASSIGNMENTS)),
    "proof": st.tuples(
        st.lists(_PROOF_LINES, max_size=6).map("\n".join),
        st.sampled_from([["logic", "prove-check", "--in", "@", "--system", "n", "--n", "3"],
                         ["logic", "prove-check", "--in", "@", "--system", "bot"]])),
}


@pytest.mark.parametrize("kind", sorted(_JOBS))
@settings(deadline=None)
@given(data=st.data())
def test_every_malformed_input_keeps_the_exit_contract(kind, data):
    # hypothesis reruns the body, so it makes its own files and captures
    # its own output instead of taking function-scoped fixtures
    text, argv = data.draw(_JOBS[kind])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if a == "@" else a for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if code in (2, 3):
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (code, err)
        # malformed input is refused or fails a consistency check; it never
        # reaches the branch of unexpected errors
        assert err.startswith("error: " if code == 2 else "internal inconsistency: "), err
    else:
        json.loads(out)
