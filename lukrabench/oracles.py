"""Independent re-checks of job reports, written without the program's code.

Each check takes the job's `check` spec and its parsed JSON report and returns
None when the report is right, or a one-line reason when it is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product

ONE, ZERO = Fraction(1), Fraction(0)

# Free(n, m) sizes, known independently of build_free.
FREE_SIZES = {(2, 1): 2, (2, 2): 6, (2, 3): 38, (2, 4): 942, (3, 1): 6, (3, 2): 594, (4, 1): 96}


# -- exact chain semantics ------------------------------------------------------
#
# Formulas are the nested tuples of workloads.py: ("var", name), ("T",),
# ("F",), ("imp", a, b), ("D", a), ("not", a), ("or", a, b), ("and", a, b),
# ("impk", k, a, b).

def variables(f) -> set[str]:
    if f[0] == "var":
        return {f[1]}
    return set().union(*[variables(g) for g in f[1:] if isinstance(g, tuple)])


def _chain_ops(k: int) -> dict:
    """Operation tables on the k-chain, indices i = i/(k-1), each entry
    computed with exact Fraction arithmetic on [0, 1]."""
    vals = [Fraction(i, k - 1) for i in range(k)]
    index = {v: i for i, v in enumerate(vals)}
    return {
        "imp": [[index[min(ONE, ONE - x + y)] for y in vals] for x in vals],
        "D": [index[ONE if x == ONE else ZERO] for x in vals],
        "not": [index[ONE - x] for x in vals],
        "or": [[index[max(x, y)] for y in vals] for x in vals],
        "and": [[index[min(x, y)] for y in vals] for x in vals],
    }


def _values(f, ops: dict, env: dict, top: int, size: int) -> list[int]:
    """Value of f under every valuation at once (env: name -> value list)."""
    op = f[0]
    if op == "var":
        return env[f[1]]
    if op in ("T", "F"):
        return [top if op == "T" else 0] * size
    if op in ("D", "not"):
        t = ops[op]
        return [t[a] for a in _values(f[1], ops, env, top, size)]
    if op == "impk":
        t = ops["imp"]
        left = _values(f[2], ops, env, top, size)
        out = _values(f[3], ops, env, top, size)
        for _ in range(f[1]):
            out = [t[a][b] for a, b in zip(left, out)]
        return out
    t = ops[op]
    return [t[a][b] for a, b in zip(_values(f[1], ops, env, top, size),
                                    _values(f[2], ops, env, top, size))]


def least_counterexample(hyps, f, n: int):
    """The least (chain size, valuation) on a chain of size 2..n where every
    hypothesis is 1 and f is not, in chain-then-lexicographic order; None
    when there is none."""
    names = sorted(set().union(*map(variables, [*hyps, f])))
    for k in range(2, n + 1):
        ops = _chain_ops(k)
        rows = list(iter_product(range(k), repeat=len(names)))
        env = {x: [r[i] for r in rows] for i, x in enumerate(names)}
        top, size = k - 1, len(rows)
        ok = [True] * size
        for h in hyps:
            ok = [o and v == top for o, v in zip(ok, _values(h, ops, env, top, size))]
        for i, (o, v) in enumerate(zip(ok, _values(f, ops, env, top, size))):
            if o and v != top:
                return k, dict(zip(names, rows[i]))
    return None


def _expected(hyps, f, n: int, holds_key: str) -> dict:
    hit = least_counterexample(hyps, f, n)
    out = {holds_key: hit is None, "holds": hit is None}
    if hit is not None:
        out["counterexample"] = {"chain": hit[0], "valuation": hit[1]}
    return out


# -- the checks -----------------------------------------------------------------

def check_taut(report, hyps, f, n):
    expected = _expected(hyps, f, n, "valid")
    return None if report == expected else f"verdict {report}, exact evaluation {expected}"


def check_conseq(report, hyps, f, n):
    expected = _expected(hyps, f, n, "entails")
    return None if report == expected else f"verdict {report}, exact evaluation {expected}"


def check_refute(report, hyps, f, n):
    hit = least_counterexample(hyps, f, n)
    expected = {"refuted": hit is not None,
                "counterexample": None if hit is None else {"chain": hit[0], "valuation": hit[1]}}
    if report != expected:
        return f"refutation {report} differs from the exact chain evaluation {expected}"
    return None


def check_free_verify(report, n, m):
    size = FREE_SIZES[(n, m)]
    expected = {"formula": size, "constructed": size, "match": True}
    if report != expected:
        return f"free verify ({n}, {m}) reported {report}, known size {size}"
    return None


def check_free_build(report, n, m):
    size = FREE_SIZES[(n, m)]
    imp = report.get("imp") or []
    if (report.get("size") != size or len(imp) != size or any(len(r) != size for r in imp)
            or len(report.get("generators") or []) != m):
        return f"free build ({n}, {m}) is not a {size}-element algebra on {m} generators"
    return None


def check_filters(report, algebra: dict):
    """Every listed filter contains top, is an up-set of the derived order
    and is closed under modus ponens."""
    imp, top, n = algebra["imp"], algebra["top"], algebra["size"]
    for f in report.get("filters", []):
        members = set(f)
        if top not in members:
            return f"filter {f} lacks top"
        for x in members:
            for y in range(n):
                if imp[x][y] == top and y not in members:
                    return f"filter {f} is not an up-set: {x} <= {y}"
                if imp[x][y] in members and y not in members:
                    return f"filter {f} is not closed under modus ponens at ({x}, {y})"
    return None


CHECKS = {
    "taut": check_taut, "conseq": check_conseq, "refute": check_refute,
    "free_verify": check_free_verify, "free_build": check_free_build, "filters": check_filters,
}


def check(spec: tuple, report: dict, algebras: dict) -> str | None:
    """Run the oracle named by spec[0]; '@name' arguments are algebra files."""
    if not spec:
        return None
    args = [algebras[a[1:]] if isinstance(a, str) and a.startswith("@") else a for a in spec[1:]]
    return CHECKS[spec[0]](report, *args)

