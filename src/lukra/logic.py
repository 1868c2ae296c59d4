"""Matrix semantics and decision procedures for the Hilbert calculi.

Validity at level n quantifies over *every* chain with delta of size
2..n, not just the n-chain: the smaller chains are simple members of the
class but not delta-subalgebras of the n-chain (delta maps their
non-tops to the ambient 0), so sweeping only k = n would be unsound.

A tautology is the identity f ~ T, a matrix consequence the
quasi-identity "if every hypothesis ~ T then f ~ T", and an equivalence
the identity f ~ g.  All three are decided on value tables of subterms:
one `formulas.EquationBatch` per decision, its table guard predicted once
at level n, then the chains built one at a time, smallest first.  The
theorem suite and the hierarchy check send their whole catalogue through
one batch, so a subterm shared by many entries is tabulated once per chain.

Counterexamples report the smallest chain size first and then the
lexicographically least valuation, for stable goldens.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraError, make_chain
from .formulas import (
    BOT,
    TOP,
    Delta,
    EquationBatch,
    Formula,
    Imp,
    TABLE_GUARD,
    Var,
    imp_k,
    or_,
    variables,
)
from .laws import CheckReport

ALPHA, BETA, GAMMA = Var("alpha"), Var("beta"), Var("gamma")


def _implication_axioms() -> dict[str, Formula]:
    """AX1-AX4, the implication axioms both calculi share."""
    a, b, g = ALPHA, BETA, GAMMA
    return {
        "AX1": Imp(a, Imp(b, a)),
        "AX2": Imp(Imp(a, b), Imp(Imp(b, g), Imp(a, g))),
        "AX3": Imp(Imp(Imp(a, b), b), Imp(Imp(b, a), a)),
        "AX4": Imp(Imp(Imp(a, b), Imp(b, a)), Imp(b, a)),
    }


def axiom_schemas_n(n: int) -> dict[str, Formula]:
    """Axiom schemata of the n-valued calculus (metavariables alpha, beta)."""
    if n < 2:
        raise AlgebraError("level must be >= 2")
    a, b = ALPHA, BETA
    return {
        **_implication_axioms(),
        "AX5": Imp(Imp(imp_k(a, b, n - 1), a), a),
        "AX6": Imp(Imp(Delta(a), Delta(b)), Delta(Imp(Delta(a), b))),
        "AX7": Imp(Delta(Imp(Delta(a), b)), imp_k(a, Delta(b), n - 1)),
        "AX8": Imp(imp_k(a, b, n - 1), Imp(Delta(a), b)),
    }


def axiom_schemas_bot() -> dict[str, Formula]:
    """Axiom schemata of the bottom-enriched calculus."""
    a, b = ALPHA, BETA
    return {
        **_implication_axioms(),
        "AX9": Imp(BOT, a),
        "AX10": Imp(Delta(a), a),
        "AX11": Imp(Imp(Delta(a), b), Imp(Delta(a), Imp(Delta(a), b))),
        "AX12": Imp(Imp(Delta(a), Imp(Delta(a), b)), Imp(Delta(a), b)),
        "AX13": Imp(Delta(Imp(a, b)), Imp(Delta(a), Delta(b))),
    }


@dataclass(frozen=True)
class Verdict:
    """Decision outcome; counterexample is (chain size, valuation) if any."""
    holds: bool
    counterexample: tuple[int, dict[str, int]] | None = None

    def __bool__(self) -> bool:
        return self.holds

    def to_dict(self) -> dict:
        out = {"holds": self.holds}
        if self.counterexample is not None:
            k, v = self.counterexample
            out["counterexample"] = {"chain": k, "valuation": v}
        return out


def _decide(equations, n: int, guard: int) -> list[Verdict]:
    """Decide each (lhs, rhs, premises) quasi-equation at level n.

    The equations are interned once, and the guard is checked at level n,
    whose chain holds the largest tables, before any chain is built.  Then
    the chains are built and tabulated one at a time in increasing size,
    each over the equations no smaller chain has violated, so a
    counterexample is the smallest chain and then the least valuation of
    the sorted variable names.
    """
    if n < 2:
        raise AlgebraError("level must be >= 2")
    eqs = []
    for lhs, rhs, premises in equations:
        terms = [lhs, rhs, *(t for pair in premises for t in pair)]
        eqs.append((sorted(set().union(*map(variables, terms))), lhs, rhs, premises))
    batch = EquationBatch(eqs, delta=True, bottom=True)
    batch.check_guard(n, guard)
    out = [Verdict(True)] * len(eqs)
    pending = list(range(len(eqs)))
    for k in range(2, n + 1):
        if not pending:
            break
        chain = make_chain(k, with_delta=True, with_bottom=True)
        found = batch.violations(chain, pending)
        for i, ws in zip(pending, found):
            if ws:
                out[i] = Verdict(False, (k, dict(zip(eqs[i][0], ws[0]))))
        pending = [i for i, ws in zip(pending, found) if not ws]
    return out


# kept only because lukrabench/shim.py wraps this name; nothing calls it
def _sweep(formulas, n: int):
    yield from ()


def _entailment(hypotheses, f: Formula):
    """The quasi-identity "if every hypothesis ~ T then f ~ T"."""
    return f, TOP, tuple((h, TOP) for h in hypotheses)


def is_tautology(f: Formula, n: int, guard: int = TABLE_GUARD) -> Verdict:
    """Valid on every chain with delta of size 2..n: the identity f ~ T."""
    return _decide([_entailment((), f)], n, guard)[0]


def consequence(hypotheses, f: Formula, n: int, guard: int = TABLE_GUARD) -> Verdict:
    """Matrix consequence: designated hypotheses force a designated conclusion."""
    return _decide([_entailment(hypotheses, f)], n, guard)[0]


def equivalent(f: Formula, g: Formula, n: int, guard: int = TABLE_GUARD) -> Verdict:
    """Same value under every valuation into every chain up to n: f ~ g."""
    return _decide([(f, g, ())], n, guard)[0]


def refute_search(f: Formula, n_max: int,
                  guard: int = TABLE_GUARD) -> tuple[int, dict[str, int]] | None:
    """Search the bottomed chains up to n_max for a non-designated value.

    A hit refutes validity over the standard unit-interval algebra (each
    chain embeds in it); exhausting the search proves nothing.
    """
    if n_max < 2:
        raise AlgebraError("n_max must be >= 2")
    verdict = is_tautology(f, n_max, guard)
    return None if verdict.holds else verdict.counterexample


# ---------------------------------------------------------------------------
# Theorem suite and hierarchy
# ---------------------------------------------------------------------------

def _theorem_catalogue(n: int):
    """Named theorems (formula) and derived rules (premises, conclusion)."""
    a, b, g = ALPHA, BETA, GAMMA
    m = n - 1
    theorems: list[tuple[str, list[Formula], Formula]] = []

    def thm(name, f):
        theorems.append((name, [], f))

    def rule(name, premises, f):
        theorems.append((name, premises, f))

    thm("LH1", Imp(Imp(Imp(a, b), g), Imp(b, g)))
    rule("LH2", [Imp(a, b), Imp(b, g)], Imp(a, g))
    thm("LH3", Imp(a, or_(a, b)))
    thm("LH4", Imp(Imp(or_(a, g), b), Imp(a, b)))
    thm("LH5", Imp(a, a))
    thm("LH6", Imp(Imp(Imp(b, b), a), a))
    thm("LH7", Imp(Imp(a, Imp(b, g)), Imp(b, Imp(a, g))))
    rule("LH7p", [Imp(a, Imp(b, g))], Imp(b, Imp(a, g)))
    thm("LH8", Imp(b, Imp(a, a)))
    thm("LH9", Imp(Imp(or_(a, g), Imp(b, g)), Imp(a, Imp(b, g))))
    rule("LH10", [Imp(a, b)], Imp(Imp(g, a), Imp(g, b)))
    rule("LH10p", [Imp(a, b)], Imp(Imp(b, g), Imp(a, g)))
    thm("LH11", Imp(Imp(a, Imp(b, g)), Imp(or_(b, g), Imp(a, g))))
    for k in sorted({0, 1, 2, m, n}):
        rule(f"LH12[k={k}]", [Imp(a, b)], Imp(imp_k(g, a, k), imp_k(g, b, k)))
        thm(f"LH13[k={k}].fwd", Imp(imp_k(a, Imp(b, g), k), Imp(b, imp_k(a, g, k))))
        thm(f"LH13[k={k}].bwd", Imp(Imp(b, imp_k(a, g, k)), imp_k(a, Imp(b, g), k)))
        thm(f"LH14[k={k}]", imp_k(a, a, k) if k else Imp(a, a))
        thm(f"LH17[k={k}].fwd",
            Imp(imp_k(a, imp_k(b, g, k), m), imp_k(imp_k(a, b, m), imp_k(a, g, m), k)))
        thm(f"LH17[k={k}].bwd",
            Imp(imp_k(imp_k(a, b, m), imp_k(a, g, m), k), imp_k(a, imp_k(b, g, k), m)))
    # LH19 is checked at its base case only: for k >= 2 the rule holds as an
    # admissibility statement but fails as a matrix consequence (premise
    # alpha ->[2] beta is designated at alpha = 1/2, beta = 0 in the 3-chain
    # while the conclusion is not), so a consequence sweep must not include it.
    rule("LH19a[k=1]", [Imp(a, b)], Imp(Imp(g, a), Imp(g, b)))
    rule("LH19b[k=1]", [Imp(a, b)], Imp(Imp(b, g), Imp(a, g)))
    thm("LH15.fwd", Imp(imp_k(a, Imp(a, b), m), imp_k(a, b, m)))
    thm("LH15.bwd", Imp(imp_k(a, b, m), imp_k(a, Imp(a, b), m)))
    thm("LH15p.fwd", Imp(imp_k(a, imp_k(a, b, m), m), imp_k(a, b, m)))
    thm("LH15p.bwd", Imp(imp_k(a, b, m), imp_k(a, imp_k(a, b, m), m)))
    thm("LH16.fwd", Imp(imp_k(a, Imp(b, g), m), Imp(imp_k(a, b, m), imp_k(a, g, m))))
    thm("LH16.bwd", Imp(Imp(imp_k(a, b, m), imp_k(a, g, m)), imp_k(a, Imp(b, g), m)))
    rule("LH18", [imp_k(a, b, m), imp_k(b, g, m)], imp_k(a, g, m))
    thm("LH20", Imp(Delta(a), a))
    thm("LH21", imp_k(a, Delta(a), n))
    rule("LH22", [a], Delta(a))
    thm("LH23", Delta(Imp(Delta(a), a)))
    thm("LH24", Imp(Delta(Imp(Delta(a), b)), Imp(Delta(a), Delta(b))))
    rule("LH25", [Imp(a, b)], Imp(Delta(a), Delta(b)))
    rule("LH26", [imp_k(a, b, m)], imp_k(Delta(a), Delta(b), m))
    thm("LH27", Imp(Imp(Delta(a), b), imp_k(a, b, m)))
    return theorems


def _witness(verdict: Verdict) -> tuple[int, ...]:
    """A counterexample as (chain size, values in sorted-variable order)."""
    k, v = verdict.counterexample
    return (k, *v.values())


def theorem_suite(n: int) -> CheckReport:
    """Semantically verify the derived-theorem catalogue at level n.

    Theorems are checked as tautologies, derived rules as matrix
    consequences, the whole catalogue in one batch.  Witness tuples are
    (chain size, valuation values in sorted-variable order).
    """
    catalogue = _theorem_catalogue(n)
    verdicts = _decide([_entailment(premises, f) for _, premises, f in catalogue],
                       n, TABLE_GUARD)
    return CheckReport.from_violations(
        (name, _witness(v)) for (name, _, _), v in zip(catalogue, verdicts) if not v.holds)


def canonical_level_counterexample(n: int) -> tuple[int, dict[str, int]]:
    """Where AX5 at level n fails in the (n+1)-chain: alpha = (n-1)/n, beta = 0."""
    return (n + 1, {"alpha": n - 1, "beta": 0})


def hierarchy_check(n: int) -> CheckReport:
    """The level hierarchy is strict at n.

    (a) every axiom of the (n+1)-level calculus is a tautology at level n;
    (b) AX5 at level n fails at level n+1, exactly at the canonical
    counterexample (the reported one is the minimal one).
    """
    axioms = axiom_schemas_n(n + 1)
    verdicts = _decide([_entailment((), f) for f in axioms.values()], n, TABLE_GUARD)
    violations = [(f"{name}[n={n + 1}]@{n}", _witness(v))
                  for name, v in zip(axioms, verdicts) if not v.holds]
    verdict = is_tautology(axiom_schemas_n(n)["AX5"], n + 1)
    if verdict.holds:
        violations.append((f"AX5[n={n}]-not-refuted@{n + 1}", ()))
    elif verdict.counterexample != canonical_level_counterexample(n):
        violations.append((f"AX5[n={n}]-noncanonical-witness", _witness(verdict)))
    return CheckReport.from_violations(violations)

