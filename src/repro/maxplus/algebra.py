"""Scalar operations of the (max, +) semiring.

Elements are exact rational numbers (``int`` or :class:`fractions.Fraction`)
extended with the neutral element of ``max``, written ε and represented by
``float('-inf')``.  ε is the *zero* of the semiring (``max(ε, x) = x``,
``ε + x = ε``) and ``0`` is its *one*.

All operations keep rational values exact: mixing a ``Fraction`` with
``float('-inf')`` only ever happens inside comparisons (which Python
defines exactly) — the helpers below never produce an inexact float other
than ε itself.
"""

from __future__ import annotations

import math
from numbers import Rational

#: The max-plus zero element ε = -infinity.
EPSILON = float("-inf")

#: Values accepted as max-plus scalars.
MPValue = "int | Fraction | float"


def is_epsilon(x) -> bool:
    """Return True iff ``x`` is the max-plus zero element ε (-inf)."""
    return x == EPSILON


def check_scalar(x):
    """Validate ``x`` as a max-plus scalar and return it.

    Accepts exact rationals (``int``/``Fraction``) and ε.  Finite floats
    are rejected to keep the core analyses exact; convert to ``Fraction``
    first if float inputs are genuinely needed.
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not max-plus scalars")
    if isinstance(x, Rational):
        return x
    if isinstance(x, float):
        if x == EPSILON:
            return EPSILON
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"{x!r} is not a valid max-plus scalar")
        raise TypeError(
            f"finite float {x!r} rejected: use Fraction for exact analysis"
        )
    raise TypeError(f"{x!r} is not a max-plus scalar")


def mp_plus(a, b):
    """Max-plus multiplication: conventional addition, absorbing ε."""
    if a == EPSILON or b == EPSILON:
        return EPSILON
    return a + b


def mp_max(*values):
    """Max-plus addition: conventional maximum; ε for an empty argument list."""
    result = EPSILON
    for v in values:
        if v > result:
            result = v
    return result


def mp_times_int(a, n: int):
    """Multiply a max-plus scalar by a conventional integer (repeated ⊗)."""
    if a == EPSILON:
        return EPSILON if n > 0 else 0
    return a * n
