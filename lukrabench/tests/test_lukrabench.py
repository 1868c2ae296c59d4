"""Tests of the benchmark's own code: inputs, span arithmetic and oracles.

    python -m pytest lukrabench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402
from probe import NOMINAL_S, Speed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.BATCHES))
def test_same_seed_same_inputs(workload, tmp_path):
    make = workloads.BATCHES[workload]
    a, b = make(11), make(11)
    assert [j.argv for j in a.jobs] == [j.argv for j in b.jobs]
    a.write(tmp_path / "a")
    b.write(tmp_path / "b")
    for name in a.files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(b.files)


@pytest.mark.parametrize("workload", ["algebra", "logic"])
def test_other_seed_other_inputs(workload):
    make = workloads.BATCHES[workload]
    a, b = make(1), make(2)
    assert a.files != b.files or [j.argv for j in a.jobs] != [j.argv for j in b.jobs]


def test_every_seed_stays_in_the_golden_universe():
    for workload in ("algebra", "logic"):
        keys = {j.key(b.files) for b in workloads.universe(workload) for j in b.jobs}
        batch = workloads.BATCHES[workload](12345)
        assert {j.key(batch.files) for j in batch.jobs} <= keys


def test_self_times_of_a_hand_built_tree():
    # a [0, 10] has children b [1, 4] and c [5, 9]; c has child d [6, 7];
    # b has hot calls of h summing to 1.5 s.
    tree = [[0, "a", 0.0, 10.0, None], [1, "b", 1.0, 4.0, 0],
            [2, "c", 5.0, 9.0, 0], [3, "d", 6.0, 7.0, 2]]
    hot = [["h", 1, 1.5, 3]]
    got = spans.self_times(tree, hot)
    assert got == pytest.approx({"a": 3.0, "b": 1.5, "c": 3.0, "d": 1.0, "h": 1.5})


def test_recorder_nests_spans_and_counts_recursion():
    rec = spans.Recorder("t")
    calls = {}

    def fact(n):
        return 1 if n <= 1 else n * calls["fact"](n - 1)

    calls["fact"] = rec.hot_span("fact", fact)
    inner = rec.span("inner", lambda n: calls["fact"](n))
    outer = rec.span("outer", lambda: inner(5) + inner(3))
    assert outer() == 126
    names = {s[0]: s[1] for s in rec.spans}
    assert [(s[1], names.get(s[4])) for s in rec.spans] == [
        ("outer", None), ("inner", "outer"), ("inner", "outer")]
    assert rec.calls["fact"] == 8
    assert sorted(h[3] for h in rec.dump()["hot"]) == [1, 1]


def test_tail_rank():
    walls = [float(i) for i in range(1, 31)]
    assert run.tail(walls) == (20.0, pytest.approx(100 * 20 / 30))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


P, Q = ("var", "p"), ("var", "q")


def test_taut_oracle_rejects_planted_verdicts():
    f = ("imp", P, Q)
    right = {"valid": False, "holds": False,
             "counterexample": {"chain": 2, "valuation": {"p": 1, "q": 0}}}
    assert oracles.check_taut(right, (), f, 4) is None
    not_least = {**right, "counterexample": {"chain": 3, "valuation": {"p": 2, "q": 0}}}
    assert oracles.check_taut(not_least, (), f, 4)
    assert oracles.check_taut({"valid": True, "holds": True}, (), f, 4)
    valid = ("imp", ("D", P), P)
    assert oracles.check_taut({"valid": True, "holds": True}, (), valid, 5) is None
    assert oracles.check_taut(right, (), valid, 5)


def test_conseq_and_refute_oracles_reject_planted_verdicts():
    assert oracles.check_conseq({"entails": True, "holds": True}, (P,), ("D", P), 6) is None
    wrong = {"entails": False, "holds": False,
             "counterexample": {"chain": 3, "valuation": {"p": 2}}}
    assert oracles.check_conseq(wrong, (P,), ("D", P), 6)
    f = ("or", P, ("not", P))  # p | ~p is 1/2 at p = 1/2
    hit = {"refuted": True, "counterexample": {"chain": 3, "valuation": {"p": 1}}}
    assert oracles.check_refute(hit, (), f, 5) is None
    assert oracles.check_refute({"refuted": False, "counterexample": None}, (), f, 5)


def test_free_oracles_reject_wrong_sizes():
    assert oracles.check_free_verify({"formula": 594, "constructed": 594, "match": True}, 3, 2) is None
    assert oracles.check_free_verify({"formula": 594, "constructed": 595, "match": False}, 3, 2)
    good = {"size": 6, "imp": [[0] * 6] * 6, "generators": [1]}
    assert oracles.check_free_build(good, 3, 1) is None
    assert oracles.check_free_build({**good, "generators": [1, 2]}, 3, 1)
    assert oracles.check_free_build({**good, "size": 5}, 3, 1)


def test_filter_oracle_rejects_non_filters():
    l3 = workloads.chain_algebra(3, False)
    assert oracles.check_filters({"filters": [[2], [0, 1, 2]]}, l3) is None
    assert oracles.check_filters({"filters": [[0, 2]]}, l3)      # not an up-set
    assert oracles.check_filters({"filters": [[1, 2]]}, l3)      # 1/2 and 1/2 -> 0 give 0
    assert oracles.check_filters({"filters": [[0, 1]]}, l3)      # no top


def test_speed_factor_uses_samples_around_the_interval():
    fast = [(t / 10, NOMINAL_S) for t in range(100)]               # 0.0 .. 9.9 s
    slow = [(10 + t / 10, 2 * NOMINAL_S) for t in range(100)]      # 10.0 .. 19.9 s
    speed = Speed(fast + slow)
    assert speed.factor(3.0, 4.0) == pytest.approx(1.0)
    assert speed.factor(15.0, 15.1) == pytest.approx(2.0)
    assert Speed([]).factor(0.0, 1.0) == 1.0
    # too few samples nearby: the window widens
    assert Speed([(0.0, NOMINAL_S)] * 3 + [(50.0, 3 * NOMINAL_S)] * 20).factor(49, 50) == pytest.approx(3.0)


def test_layer_metrics_ratios():
    dump = {"spans": [[0, "filters.all_filters", 0.0, 2.0, None]], "hot": [],
            "calls": {"formulas.eval_formula": 7},
            "counts": {"filters.upsets_tried": 40, "filters.filters_found": 10,
                       "algebra.homomorphisms.candidates": 8, "algebra.homomorphisms.found": 2},
            "spawn_s": 0.05, "import_s": 0.04, "bytes_in": 10, "bytes_out": 20}
    got = spans.layer_metrics([dump, dump])
    assert got["filters.all_filters.self_s"] == (4.0, "s")
    assert got["filters.all_filters.calls"] == (2, "count")
    assert got["filters.filter_yield"] == (0.25, "ratio")
    assert got["algebra.homomorphisms.hit_ratio"] == (0.25, "ratio")
    assert got["formulas.eval_formula.calls"] == (14, "count")
    assert got["cli.spawn_s"] == (0.05, "s")


def test_traced_job_reports_like_the_untraced_one(tmp_path):
    job = workloads.Job(("logic", "taut", "--n", "4", "--formula", "D p -> p"))
    env = run.job_env()
    plain = run.run_job(job, [sys.executable, "-m", "lukra.cli"], tmp_path, env, "plain")
    shim = [sys.executable, str(run.HERE / "shim.py"), str(tmp_path / "d.spans"), "0", "{spawn_ns}"]
    traced = run.run_job(job, shim, tmp_path, env, "traced")
    run.digest_outputs(plain, tmp_path, "plain")
    run.digest_outputs(traced, tmp_path, "traced")
    assert (plain.rc, plain.digest) == (traced.rc, traced.digest) == (0, plain.digest)
    dump = json.loads((tmp_path / "d.spans").read_text())
    names = {s[1] for s in dump["spans"]}
    assert {"cli.main", "formulas.parse", "logic.is_tautology", "cli.emit"} <= names
    assert dump["calls"]["formulas.eval_formula"] > 0
    assert dump["counts"]["logic.sweep_evals"] == 2 + 3 + 4
