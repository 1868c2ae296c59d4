"""Equational law catalogue and exhaustive checkers for finite algebras.

Laws are (premises, lhs ~ rhs) pairs over the shared term language; an
inequality s <= t is encoded as the equation (s -> t) ~ T.  Checkers sweep
every assignment of carrier elements to the law's variables in lexicographic
order and report the least violating tuple per law, so golden tests are
reproducible.  The sweep runs on value tables of subterms
(`formulas.equation_violations`): the laws over the same variables are
searched together, one slab of their first variable at a time, by the
loop the logic decisions run on packed ints (`EquationBatch._search`).
"""

from __future__ import annotations

from .algebra import (
    CheckReport,
    ConfigurationError,
    FiniteAlgebra,
    least_witness,
    tarskian_elements,
)
from .formulas import (
    TOP,
    Delta,
    Formula,
    FormulaError,
    Imp,
    Var,
    equation_violations,
    imp_k,
    or_,
    variables,
)
from .records import Record

X, Y, Z, W = Var("x"), Var("y"), Var("z"), Var("w")


class Law(Record):
    name: str
    vars: tuple[str, ...]
    lhs: Formula
    rhs: Formula
    premises: tuple[tuple[Formula, Formula], ...] = ()


def _violations(A: FiniteAlgebra, equations, every: bool = False):
    """`equation_violations`; a missing delta or bottom is a configuration error."""
    try:
        return equation_violations(A, equations, every)
    except FormulaError as exc:
        raise ConfigurationError(f"law: {exc}") from None


def check_laws(A: FiniteAlgebra, laws) -> CheckReport:
    laws = list(laws)
    found = _violations(A, [(law.vars, law.lhs, law.rhs, law.premises) for law in laws])
    return CheckReport.from_violations(
        (law.name, ws[0]) for law, ws in zip(laws, found) if ws)


def check_identity(A: FiniteAlgebra, lhs: Formula, rhs: Formula) -> CheckReport:
    """Exhaustively check lhs ~ rhs; reports *all* counterexamples."""
    names = sorted(variables(lhs) | variables(rhs))
    if len(names) > 4:
        raise ConfigurationError("identity checking supports at most 4 variables")
    (found,) = _violations(A, [(names, lhs, rhs, ())], every=True)
    return CheckReport.from_violations(("identity", e) for e in found)


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------

def base_laws() -> list[Law]:
    """L1-L5: the defining identities of the implication algebras."""
    return [
        Law("L1", ("x", "y"), Imp(X, Imp(Y, X)), TOP),
        Law("L2", ("x", "y", "z"),
            Imp(Imp(X, Y), Imp(Imp(Y, Z), Imp(X, Z))), TOP),
        Law("L3", ("x", "y"), Imp(Imp(X, Y), Y), Imp(Imp(Y, X), X)),
        Law("L4", ("x", "y"), Imp(Imp(Imp(X, Y), Imp(Y, X)), Imp(Y, X)), TOP),
        Law("L5", ("x",), Imp(TOP, X), X),
    ]


def level_law(n: int) -> Law:
    """L6 at level n: (x ->[n-1] y) v x ~ T."""
    return Law(f"L6[n={n}]", ("x", "y"), or_(imp_k(X, Y, n - 1), X), TOP)


def delta_axiom_laws(n: int) -> list[Law]:
    """DL1-DL2: the delta axioms of the n-valued delta algebras."""
    return [
        Law(f"DL1[n={n}]", ("x", "y"), Imp(Delta(X), Y), imp_k(X, Y, n - 1)),
        Law("DL2", ("x", "y"), Delta(Imp(Delta(X), Y)), Imp(Delta(X), Delta(Y))),
    ]


def quasi_identity_laws() -> list[Law]:
    """DLR1, DLR2, DLR4: the identity part of the quasi-equational base."""
    return [
        Law("DLR1", ("x",), Imp(Delta(X), X), TOP),
        Law("DLR2", ("x", "y"), Imp(Delta(X), Y), Imp(Delta(X), Imp(Delta(X), Y))),
        Law("DLR4", ("x", "z"), Imp(Delta(Imp(X, Z)), Imp(Delta(X), Delta(Z))), TOP),
    ]


def _k_range(n: int) -> list[int]:
    return sorted({0, 1, 2, n - 1, n})


def derived_laws(n: int, with_delta: bool) -> list[Law]:
    """The derived-law suite: L7-L23, and DL3-DL15 + DLR5-DLR12 with delta."""
    m = n - 1
    leq_prem = ((Imp(X, Y), TOP),)
    laws = [
        Law("L7", ("x",), Imp(X, TOP), TOP),
        Law("L8", ("x", "y", "z"),
            Imp(Imp(Y, Z), Imp(X, Z)), TOP, premises=leq_prem),
        Law("L9", ("x", "y", "z"), Imp(X, Imp(Y, Z)), Imp(Y, Imp(X, Z))),
        Law("L10", ("x",), Imp(X, X), TOP),
        Law("L12", ("x", "y"), Imp(Y, Imp(X, Y)), TOP),
        Law("L13", ("x", "y", "z"),
            Imp(Imp(Imp(X, Y), Imp(X, Z)), Imp(X, Imp(Y, Z))), TOP),
        Law("L14", ("x", "y"), Imp(or_(X, Y), Y), Imp(X, Y)),
        Law("L15", ("x", "y", "z"),
            Imp(Imp(X, Y), Imp(Imp(Z, X), Imp(Z, Y))), TOP),
        Law(f"L17[n={n}]", ("x", "y", "z"),
            imp_k(X, Imp(Y, Z), m), Imp(imp_k(X, Y, m), imp_k(X, Z, m))),
        Law(f"L21[n={n}]", ("x", "y", "z"),
            imp_k(X, imp_k(Y, Z, m), m), imp_k(imp_k(X, Y, m), imp_k(X, Z, m), m)),
        Law(f"L22[n={n}]", ("x", "y"), imp_k(X, imp_k(Y, X, m), m), TOP),
        Law(f"L23[n={n}]", ("x", "y"),
            imp_k(imp_k(imp_k(X, Y, m), X, m), X, m), TOP),
    ]
    for k in _k_range(n):
        laws.append(Law(f"L11[k={k}]", ("x", "y", "z"),
                        Imp(imp_k(Z, X, k), imp_k(Z, Y, k)), TOP,
                        premises=leq_prem))
        laws.append(Law(f"L16[k={k}]", ("x", "y", "z"),
                        imp_k(X, Imp(Y, Z), k), Imp(Y, imp_k(X, Z, k))))
        laws.append(Law(f"L18[k={k}]", ("x",), imp_k(TOP, X, k), X))
        laws.append(Law(f"L19[k={k}]", ("x",), imp_k(X, TOP, k), TOP))
        if k >= 1:
            laws.append(Law(f"L20[k={k}]", ("x",), imp_k(X, X, k), TOP))
    if with_delta:
        dx, dy = Delta(X), Delta(Y)
        laws += [
            Law("DL3", ("x",), Imp(dx, X), TOP),
            Law(f"DL4[n={n}]", ("x",), imp_k(X, dx, m), TOP),
            Law("DL5", (), Delta(TOP), TOP),
            Law("DL6", ("x",), Delta(dx), dx),
            Law("DL7", ("x", "y"), Delta(Imp(dx, dy)), Imp(dx, dy)),
            Law("DL8", ("x", "y"), Imp(dx, Y), Imp(dx, Imp(dx, Y))),
            Law("DL10", ("x", "y", "z"),
                Imp(dx, Imp(Y, Z)), Imp(Imp(dx, Y), Imp(dx, Z))),
            Law("DL11", ("x", "y"), Imp(dx, dy), TOP, premises=leq_prem),
            Law(f"DL12[n={n}]", ("x", "y"), Delta(imp_k(X, Y, n)), Imp(dx, dy)),
            Law("DL13", ("x",), Imp(dx, Delta(Imp(X, dx))), TOP),
            Law("DL14", ("x", "y"), Imp(dx, Delta(Imp(X, Y))), Imp(dx, dy)),
            Law("DL15", ("x", "y"), Imp(Delta(Imp(X, Y)), Imp(dx, dy)), TOP),
            Law("DLR5", (), Delta(TOP), TOP),
            Law("DLR6", ("x", "y"), Imp(dx, dy), TOP, premises=leq_prem),
            Law("DLR7", ("x",), Delta(dx), dx),
            Law("DLR8", ("x", "y"), Delta(Imp(dx, dy)), Imp(dx, dy)),
            Law("DLR10", ("x", "y", "z"),
                Imp(dx, Imp(Y, Z)), Imp(Imp(dx, Y), Imp(dx, Z))),
            Law("DLR11", ("x",), Imp(dx, Delta(Imp(X, dx))), TOP),
            Law("DLR12", ("x", "y"), Imp(dx, Delta(Imp(X, Y))), Imp(dx, dy)),
        ]
    return laws


# ---------------------------------------------------------------------------
# Named checkers
# ---------------------------------------------------------------------------

def check_LR(A: FiniteAlgebra) -> CheckReport:
    """L1-L5 over the whole carrier."""
    return check_laws(A, base_laws())


def check_LRn(A: FiniteAlgebra, n: int) -> CheckReport:
    """L6 at level n."""
    if n < 2:
        raise ConfigurationError("level must be >= 2")
    return check_laws(A, [level_law(n)])


def check_delta(A: FiniteAlgebra, n: int) -> CheckReport:
    """DL1-DL2 at level n (delta table required)."""
    if A.delta is None:
        raise ConfigurationError("check_delta needs a delta table")
    return check_laws(A, delta_axiom_laws(n))


def _tarskian_delta_mismatch(A: FiniteAlgebra, name: str):
    """T(A) = image of delta, as a set-equality check (DL9 / DLR9)."""
    tset = set(tarskian_elements(A))
    dset = set(A.delta)
    diff = sorted(tset ^ dset)
    if diff:
        return (name, (diff[0],))
    return None


def check_LRdelta_quasi(A: FiniteAlgebra) -> CheckReport:
    """DLR1, DLR2, DLR4 as identities plus the quasi-identity DLR3.

    DLR3 is read with its hypothesis quantified over all y: whenever z is
    Tarskian and z <= x, then z <= delta(x).  Witnesses are (z, x) pairs.
    """
    if A.delta is None:
        raise ConfigurationError("check_LRdelta_quasi needs a delta table")
    report = check_laws(A, quasi_identity_laws())
    violations = list(report.violations)
    tarskians = set(tarskian_elements(A))
    hit = least_witness(A.size, 2, lambda z, x: (
        z not in tarskians or not A.leq(z, x) or A.leq(z, A.delta[x])))
    if hit:
        violations.append(("DLR3", hit))
    return CheckReport.from_violations(violations)


def check_property_suite(A: FiniteAlgebra, n: int) -> CheckReport:
    """The full derived-law suite at level n.

    Covers L7-L23 always, and DL3-DL15 / DLR5-DLR12 plus the Tarskian-image
    law when the algebra has a delta table.
    """
    with_delta = A.delta is not None
    report = check_laws(A, derived_laws(n, with_delta))
    violations = list(report.violations)
    if with_delta:
        for name in ("DL9", "DLR9"):
            bad = _tarskian_delta_mismatch(A, name)
            if bad:
                violations.append(bad)
    return CheckReport.from_violations(violations)
