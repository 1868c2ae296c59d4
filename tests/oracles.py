"""Test-only oracles and corpus generators shared by several test modules.

Each oracle checks library code by an independent brute-force route, so it
lives next to the tests rather than in the package.
"""

import random
from fractions import Fraction

from lukra.algebra import FiniteAlgebra, SizeGuardError, epimorphisms, imp_k
from lukra.filters import Congruence
from lukra.formulas import BOT, Delta, Formula, Imp, Var
from lukra.freealg import FreeAlgebra


def congruences(A: FiniteAlgebra, respect_delta: bool = True) -> list[Congruence]:
    """All congruences by brute-force partition sweep (small carriers only).

    Independent of the filter correspondence; used as an oracle for it.
    """
    if A.size > 8:
        raise SizeGuardError("congruence sweep is limited to 8 elements")
    out = []
    for part in _partitions(A.size):
        imp_map: dict[tuple[int, int], int] = {}
        ok = True
        for x in range(A.size):
            for y in range(A.size):
                key = (part[x], part[y])
                val = part[A.imp[x][y]]
                if imp_map.setdefault(key, val) != val:
                    ok = False
                    break
            if not ok:
                break
        if ok and respect_delta and A.delta is not None:
            delta_map: dict[int, int] = {}
            for x in range(A.size):
                val = part[A.delta[x]]
                if delta_map.setdefault(part[x], val) != val:
                    ok = False
                    break
        if ok:
            out.append(Congruence(partition=tuple(part)))
    return out


def _partitions(n: int):
    """Restricted-growth strings: canonical partitions of {0..n-1}."""
    part = [0] * n

    def rec(i: int, maxblock: int):
        if i == n:
            yield tuple(part)
            return
        for b in range(maxblock + 2):
            part[i] = b
            yield from rec(i + 1, max(maxblock, b))

    yield from rec(1, 0) if n > 0 else iter(())


def k_weak_mp_closed(A: FiniteAlgebra, F, k: int) -> bool:
    """Closure under x, x ->_k y ==> y."""
    members = set(F)
    return all(
        y in members
        for x in members
        for y in range(A.size)
        if imp_k(A, x, y, k) in members
    )


def epi_count_oracle(A, B: FiniteAlgebra) -> int:
    """Number of surjective homomorphisms, by brute-force search."""
    if isinstance(A, FreeAlgebra):
        A = A.algebra
    return len(epimorphisms(A, B))


def random_formula(rng: random.Random, names, depth: int, allow_bot: bool = False) -> Formula:
    """A random formula of the given depth over the given variable names."""
    if depth <= 0:
        pool = list(names) + (["F"] if allow_bot else [])
        pick = rng.choice(pool)
        return BOT if pick == "F" else Var(pick)
    op = rng.choice(["imp", "imp", "delta"])
    if op == "delta":
        return Delta(random_formula(rng, names, depth - 1, allow_bot))
    return Imp(
        random_formula(rng, names, depth - 1, allow_bot),
        random_formula(rng, names, depth - 1, allow_bot),
    )


def rational_grid(step_denominator: int):
    """The grid {0, 1/d, ..., 1} as exact fractions."""
    return [Fraction(i, step_denominator) for i in range(step_denominator + 1)]
