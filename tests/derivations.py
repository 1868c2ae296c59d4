"""Programmatic construction of Hilbert proofs, with a lemma toolkit.

The classic derivation tables for the delta theorems lean on derived
lemmas (identity, exchange, monotonicity, necessitation) as one-line
citations; the checker only accepts axiom instances, modus ponens and
hypotheses, so the builders here expand every lemma into primitive steps.
Lines are deduplicated by formula, which keeps the expansions short.

The six classic delta derivations (theorems 20, 21, 24, 27 and rules 25,
26 of the n-valued calculus) ship as ready-made builders; tests freeze
them as proof files.
"""

from __future__ import annotations

from lukra.formulas import Delta, Formula, Imp, Var, imp_k, substitute
from lukra.logic import axiom_schemas_n
from lukra.proofs import ByAxiom, ByHyp, ByMP, Proof, ProofLine, SYSTEM_N


class ProofBuilder:
    def __init__(self, n: int):
        self.n = n
        self.schemas = axiom_schemas_n(n)
        self.lines: list[ProofLine] = []
        self.by_formula: dict[Formula, int] = {}
        self.hyp_count = 0

    def formula(self, idx: int) -> Formula:
        return self.lines[idx - 1].formula

    def _add(self, f: Formula, just) -> int:
        existing = self.by_formula.get(f)
        if existing is not None:
            return existing
        idx = len(self.lines) + 1
        self.lines.append(ProofLine(idx=idx, formula=f, just=just))
        self.by_formula[f] = idx
        return idx

    def proof(self) -> Proof:
        return Proof(system=SYSTEM_N, n=self.n, lines=tuple(self.lines))

    # -- primitives ---------------------------------------------------------

    def hyp(self, f: Formula) -> int:
        if f in self.by_formula:
            return self.by_formula[f]
        self.hyp_count += 1
        return self._add(f, ByHyp(self.hyp_count))

    def ax(self, name: str, **subst: Formula) -> int:
        f = substitute(self.schemas[name], subst)
        return self._add(f, ByAxiom(name))

    def mp(self, i: int, j: int) -> int:
        """Line j must be (formula of i) -> conclusion."""
        fi, fj = self.formula(i), self.formula(j)
        if not (isinstance(fj, Imp) and fj.left == fi):
            raise ValueError("mp: second line is not an implication from the first")
        return self._add(fj.right, ByMP(i, j))

    # -- implication-fragment lemmas -----------------------------------------

    def identity(self, f: Formula) -> int:
        """f -> f from AX1/AX2/AX3."""
        theta = Imp(f, Imp(f, f))
        t = self.ax("AX1", alpha=f, beta=f)                      # theta
        l2 = self.ax("AX1", alpha=theta, beta=Imp(f, theta))
        l3 = self.mp(t, l2)                                      # (f->theta)->theta
        l4 = self.ax("AX3", alpha=f, beta=theta)
        l5 = self.mp(l3, l4)                                     # (theta->f)->f
        l6 = self.ax("AX1", alpha=f, beta=theta)                 # f->(theta->f)
        l7 = self.ax("AX2", alpha=f, beta=Imp(theta, f), gamma=f)
        l8 = self.mp(l6, l7)                                     # ((theta->f)->f)->(f->f)
        return self.mp(l5, l8)

    def d_lift(self, i: int, psi: Formula) -> int:
        """From theorem t: psi -> t."""
        t = self.formula(i)
        l1 = self.ax("AX1", alpha=t, beta=psi)
        return self.mp(i, l1)

    def e_inst(self, i: int, a: Formula) -> int:
        """From theorem t: (t -> a) -> a."""
        t = self.formula(i)
        l1 = self.ax("AX1", alpha=t, beta=Imp(a, t))
        l2 = self.mp(i, l1)                                      # (a->t)->t
        l3 = self.ax("AX3", alpha=a, beta=t)
        return self.mp(l2, l3)

    def trans(self, i: int, j: int) -> int:
        """From x->y and y->z: x->z."""
        fi, fj = self.formula(i), self.formula(j)
        if fi.right != fj.left:
            raise ValueError("trans: middles do not meet")
        l1 = self.ax("AX2", alpha=fi.left, beta=fi.right, gamma=fj.right)
        l2 = self.mp(i, l1)
        return self.mp(j, l2)

    def mono_consequent(self, i: int, g: Formula) -> int:
        """From x->y: (g->x)->(g->y)."""
        fi = self.formula(i)
        x, y = fi.left, fi.right
        l1 = self.ax("AX2", alpha=g, beta=x, gamma=y)   # (g->x)->((x->y)->(g->y))
        l2 = self.e_inst(i, Imp(g, y))                  # ((x->y)->(g->y))->(g->y)
        return self.trans(l1, l2)

    def mono_antecedent(self, i: int, g: Formula) -> int:
        """From x->y: (y->g)->(x->g)."""
        fi = self.formula(i)
        l1 = self.ax("AX2", alpha=fi.left, beta=fi.right, gamma=g)
        return self.mp(i, l1)

    def impk_monotone(self, i: int, g: Formula, k: int) -> int:
        """From x->y: (g ->[k] x) -> (g ->[k] y)."""
        cur = i
        for _ in range(k):
            cur = self.mono_consequent(cur, g)
        return cur

    def assertion(self, p: Formula, q: Formula) -> int:
        """p -> ((p->q)->q)."""
        l1 = self.ax("AX1", alpha=p, beta=Imp(q, p))    # p->((q->p)->p)
        l2 = self.ax("AX3", alpha=q, beta=p)            # ((q->p)->p)->((p->q)->q)
        return self.trans(l1, l2)

    def exchange(self, p: Formula, q: Formula, r: Formula) -> int:
        """(p->(q->r))->(q->(p->r))."""
        asr = self.assertion(q, r)
        mid = Imp(Imp(q, r), r)
        l2 = self.ax("AX2", alpha=q, beta=mid, gamma=Imp(p, r))
        l3 = self.mp(asr, l2)                           # (mid->(p->r))->(q->(p->r))
        l4 = self.ax("AX2", alpha=p, beta=Imp(q, r), gamma=r)
        return self.trans(l4, l3)

    def exchange_k(self, p: Formula, q: Formula, r: Formula, k: int) -> int:
        """(p ->[k] (q->r)) -> (q -> (p ->[k] r))."""
        if k == 0:
            return self.identity(Imp(q, r))
        if k == 1:
            return self.exchange(p, q, r)
        prev = self.exchange_k(p, q, r, k - 1)
        l2 = self.mono_consequent(prev, p)
        l3 = self.exchange(p, q, imp_k(p, r, k - 1))
        return self.trans(l2, l3)

    def impk_identity(self, f: Formula, k: int) -> int:
        """f ->[k] f, k >= 1."""
        if k < 1:
            raise ValueError("needs k >= 1")
        cur = self.identity(f)
        for _ in range(k - 1):
            cur = self.d_lift(cur, f)
        return cur

    # -- delta lemmas ---------------------------------------------------------

    def thm20(self, a: Formula) -> int:
        """D a -> a."""
        l1 = self.ax("AX8", alpha=a, beta=a)
        l2 = self.impk_identity(a, self.n - 1)
        return self.mp(l2, l1)

    def thm21_core(self, a: Formula) -> int:
        """a ->[n-1] D a."""
        da = Delta(a)
        l2 = self.identity(da)
        l3 = self.ax("AX7", alpha=a, beta=a)
        l4 = self.ax("AX6", alpha=a, beta=a)
        l5 = self.mp(l2, l4)                            # D (D a -> a)
        return self.mp(l5, l3)

    def thm21(self, a: Formula) -> int:
        """a ->[n] D a."""
        return self.d_lift(self.thm21_core(a), a)

    def nec(self, i: int) -> int:
        """From theorem t: D t."""
        t = self.formula(i)
        cur = self.thm21_core(t)
        for _ in range(self.n - 1):
            cur = self.mp(i, cur)
        return cur

    def thm24(self, a: Formula, b: Formula) -> int:
        """D (D a -> b) -> (D a -> D b)."""
        l1 = self.ax("AX8", alpha=a, beta=Delta(b))
        l2 = self.mono_consequent(l1, Delta(Imp(Delta(a), b)))
        l3 = self.ax("AX7", alpha=a, beta=b)
        return self.mp(l3, l2)

    def rule25(self, i: int) -> int:
        """From x->y (any line): D x -> D y."""
        fi = self.formula(i)
        x, y = fi.left, fi.right
        l3 = self.thm20(x)                              # D x -> x
        l4 = self.mono_antecedent(l3, y)                # (x->y)->(D x->y)
        l5 = self.mp(i, l4)                             # D x -> y
        l6 = self.nec(l5)                               # D (D x -> y)
        l7 = self.thm24(x, y)
        return self.mp(l6, l7)

    def rule26(self, i: int) -> int:
        """From x ->[n-1] y (any line): D x ->[n-1] D y."""
        fi = self.formula(i)
        x = fi.left
        y = fi
        for _ in range(self.n - 1):
            y = y.right
        l2 = self.ax("AX8", alpha=x, beta=y)
        l3 = self.mp(i, l2)                             # D x -> y
        l4 = self.rule25(l3)                            # D D x -> D y
        l5 = self.nec(l4)
        l6 = self.ax("AX7", alpha=Delta(x), beta=Delta(y))
        l7 = self.mp(l5, l6)                            # D x ->[n-1] D D y
        l8 = self.thm20(Delta(y))                       # D D y -> D y
        l9 = self.impk_monotone(l8, Delta(x), self.n - 1)
        return self.mp(l7, l9)

    def thm27(self, a: Formula, b: Formula) -> int:
        """(D a -> b) -> (a ->[n-1] b)."""
        m = self.n - 1
        da = Delta(a)
        l1 = self.thm21_core(a)                         # a ->[m] D a
        l2 = self.ax("AX1", alpha=da, beta=Imp(b, da))  # D a->((b->D a)->D a)
        l3 = self.impk_monotone(l2, a, m)
        l4 = self.mp(l1, l3)                            # a ->[m] ((b->D a)->D a)
        l5 = self.ax("AX3", alpha=b, beta=da)           # ((b->Da)->Da)->((Da->b)->b)
        l6 = self.impk_monotone(l5, a, m)
        l7 = self.mp(l4, l6)                            # a ->[m] ((D a->b)->b)
        l8 = self.exchange_k(a, Imp(da, b), b, m)
        return self.mp(l7, l8)


def classic_delta_derivations(n: int) -> dict[str, Proof]:
    """The six classic delta derivations as checkable proofs at level n.

    Theorems 20/21/24/27 are hypothesis-free; rules 25/26 carry their
    premise as a hypothesis line.
    """
    p, q = Var("p"), Var("q")
    out = {}

    b = ProofBuilder(n)
    b.thm20(p)
    out["LH20"] = b.proof()

    b = ProofBuilder(n)
    b.thm21(p)
    out["LH21"] = b.proof()

    b = ProofBuilder(n)
    b.thm24(p, q)
    out["LH24"] = b.proof()

    b = ProofBuilder(n)
    h = b.hyp(Imp(p, q))
    b.rule25(h)
    out["LH25"] = b.proof()

    b = ProofBuilder(n)
    h = b.hyp(imp_k(p, q, n - 1))
    b.rule26(h)
    out["LH26"] = b.proof()

    b = ProofBuilder(n)
    b.thm27(p, q)
    out["LH27"] = b.proof()
    return out
