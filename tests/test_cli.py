import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lukra
from lukra.cli import main
from lukra.algebra import FiniteAlgebra, make_chain
from lukra.formulas import IMP_K_LIMIT, TABLE_GUARD
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
    from lukra.catalog import five_element_non_admissible

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


@pytest.mark.parametrize("verb, formula", [
    ("taut", "p ->[99999999] q"),           # refused before any expansion
    ("taut", "D " * 3000 + "p"),
    ("taut", "(" * 1200 + "p" + ")" * 1200),
    ("taut", "p" + " | p" * 600),          # sugar nests deeper than the parser
    ("fo-eval", "forall x " * 3000 + "P(x)"),
], ids=["k-limit", "deep-delta", "deep-parens", "deep-sugar", "fo-deep-quantifiers"])
def test_oversized_formulas_are_usage_errors(capsys, tmp_path, verb, formula):
    s = tmp_path / "s.json"
    s.write_text(json.dumps({
        "domain_size": 2,
        "algebra": make_chain(3, with_delta=True, with_bottom=True).to_dict(),
        "predicates": {"P": {"arity": 1, "table": {"0": 1, "1": 2}}},
    }))
    where = ["--n", "3"] if verb == "taut" else ["--structure", str(s)]
    code = main(["logic", verb, *where, "--formula", formula])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err and captured.err.startswith("error:")


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


def test_guard_env_override(capsys, tmp_path, monkeypatch):
    from lukra.algebra import product

    big = tmp_path / "big.json"
    big.write_text(product([make_chain(4, with_delta=True)] * 2).to_json())
    monkeypatch.setenv("LUKRA_GUARD", "16")
    code, report = run(capsys, "filters", "list", "--in", str(big))
    assert code == 0 and report["filters"]


def test_logic_table_guard(capsys, monkeypatch):
    # eight variables at level 12 would tabulate about 1.5e8 entries at once;
    # the refusal comes before any chain is tabulated
    start = time.perf_counter()
    code = main(["logic", "taut", "--n", "12", "--formula",
                 "a -> b -> c -> d -> e -> f -> g -> h -> a"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and time.perf_counter() - start < 5
    m = re.fullmatch(r"error: predicted (\d+) table entries held at once exceed guard (\d+)\n",
                     captured.err)
    assert m and int(m[1]) > int(m[2]) == TABLE_GUARD
    # LUKRA_GUARD moves the limit for taut, conseq and refute alike
    monkeypatch.setenv("LUKRA_GUARD", "5")
    for verb in (["taut", "--n", "3"], ["conseq", "--n", "3", "--hyp", "p"], ["refute", "--max-n", "3"]):
        assert main(["logic", *verb, "--formula", "q -> p"]) == 2
        predicted = re.search(r"predicted (\d+) ", capsys.readouterr().err)[1]
        monkeypatch.setenv("LUKRA_GUARD", predicted)
        assert main(["logic", *verb, "--formula", "q -> p"]) in (0, 1)
        monkeypatch.setenv("LUKRA_GUARD", "5")
    capsys.readouterr()


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
], ids=["value-7", "predicates-list", "true-entry", "string-domain", "missing-entry",
        "bad-key", "function-value", "constant-9", "assign-5"])
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


def test_unexpected_errors_exit_3(capsys, monkeypatch):
    import lukra.cli

    def broken(args):
        raise TypeError("unsupported operand\nsecond line")

    monkeypatch.setattr(lukra.cli, "cmd_algebra_chain", broken)
    code = main(["algebra", "chain", "--n", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "internal error: TypeError: unsupported operand second line\n"
