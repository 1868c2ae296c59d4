"""Small gallery of notable finite algebras the tests use."""

from __future__ import annotations

from lukra.algebra import FiniteAlgebra, make_chain, with_delta


def five_element_non_admissible() -> FiniteAlgebra:
    """A 5-element 3-valued implication algebra that carries no delta.

    Carrier a, b, c, d, 1 at indices 0..4.  Its Tarskian elements are
    {a, d, 1} and b has no Tarskian lower bound, so no delta operator
    exists.  The order is not a chain: a <= c <= 1 and b <= c, b <= d <= 1.
    """
    a, b, c, d, one = range(5)
    imp = (
        (one, d, one, d, one),   # a -> .
        (c, one, one, one, one),  # b -> .
        (c, d, one, d, one),      # c -> .
        (a, c, c, one, one),      # d -> .
        (a, b, c, d, one),        # 1 -> .
    )
    return FiniteAlgebra(size=5, imp=imp, top=one, label="M5")


def chain_with_broken_delta(n: int = 3) -> FiniteAlgebra:
    """An n-element chain with the all-zero delta table.

    Fails the delta axioms (delta of top must be top); handy as a negative
    fixture for delta-filter checks outside the n-valued delta classes.
    """
    return with_delta(make_chain(n), (0,) * n)
