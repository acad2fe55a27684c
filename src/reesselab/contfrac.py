"""Exact continued fractions of rationals and the approximation predicates
the convergent-scanning attack is built on.

Expansions are canonical (final partial quotient >= 2 whenever there is
more than one), which makes the convergent list of a rational unique. All
comparisons are integer-only: the bound |num/den - p/q| < 1/(k*q**2) is
decided as k*q*|num*q - p*den| < den, never through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ZeroDenominator(ValueError):
    """Expansion of a fraction with a nonpositive denominator."""


class IndexOutOfRange(IndexError):
    """Convergent index outside [0, t]."""


@dataclass(frozen=True)
class Convergent:
    """The u-th convergent p/q of an expansion; p, q coprime, q >= 1."""

    u: int
    p: int
    q: int


@dataclass(frozen=True)
class ContinuedFraction:
    """A finite expansion num/den = [a0; a1, ..., at] with its convergents.

    quotients[0] is a0 (0 whenever num < den); quotients[1:] are >= 1 and
    the final one is >= 2 when t >= 1. convergents[u] follows the standard
    recurrence p_u = a_u*p_{u-1} + p_{u-2}, q_u = a_u*q_{u-1} + q_{u-2}
    seeded with (p_{-1}, q_{-1}) = (1, 0).
    """

    num: int
    den: int
    quotients: tuple[int, ...]
    convergents: tuple[Convergent, ...]

    @property
    def t(self) -> int:
        """Index of the final convergent."""
        return len(self.quotients) - 1


def cf_expand(num: int, den: int) -> ContinuedFraction:
    """Expand num/den by the Euclidean algorithm.

    The fraction is reduced first, so the convergent list describes the
    rational value; num/den is kept as given.
    """
    if den < 1:
        raise ZeroDenominator(f"denominator must be positive, got {den}")
    if num < 0:
        raise ValueError(f"numerator must be nonnegative, got {num}")
    g = math.gcd(num, den)
    a, b = (num // g, den // g) if g > 1 else (num, den)
    quotients = []
    while b:
        q, r = divmod(a, b)
        quotients.append(q)
        a, b = b, r
    # canonical form: fold a trailing 1 into its predecessor
    if len(quotients) > 1 and quotients[-1] == 1:
        quotients.pop()
        quotients[-1] += 1
    convergents = []
    p_prev, q_prev = 1, 0
    p, q = quotients[0], 1
    convergents.append(Convergent(0, p, q))
    for u, a_u in enumerate(quotients[1:], start=1):
        p, p_prev = a_u * p + p_prev, p
        q, q_prev = a_u * q + q_prev, q
        convergents.append(Convergent(u, p, q))
    return ContinuedFraction(num, den, tuple(quotients), tuple(convergents))


def cf_head(
    num: int, den: int, ceiling: int
) -> tuple[list[int], list[int], list[int]]:
    """The leading part of cf_expand(num, den) that a denominator window
    [.., ceiling] can see, as parallel lists (quotients, p_u, q_u).

    Euclid stops at the first index w with q_w > ceiling, after recording
    it; without such an index the lists are the full expansion. Entries
    0..w equal cf_expand's: Euclid's raw output is already canonical (its
    last step divides a remainder by a smaller one, so a final quotient
    after the first is >= 2), and q_u never decreases, so no index past w
    can fall in the window. Every u < w is therefore non-final, and its
    q_{u+1} and a_{u+1} are in the lists.
    """
    if den < 1:
        raise ZeroDenominator(f"denominator must be positive, got {den}")
    if num < 0:
        raise ValueError(f"numerator must be nonnegative, got {num}")
    quotients, ps, qs = [], [], []
    # (p_{u-1}, q_{u-1}) and (p_{u-2}, q_{u-2}), seeded for u = 0
    p, q, p_prev, q_prev = 1, 0, 0, 1
    a, b = num, den
    while b:
        x, r = divmod(a, b)
        a, b = b, r
        p, p_prev = x * p + p_prev, p
        q, q_prev = x * q + q_prev, q
        quotients.append(x)
        ps.append(p)
        qs.append(q)
        if q > ceiling:
            break
    return quotients, ps, qs


def convergent_at(cf: ContinuedFraction, u: int) -> Convergent:
    """The u-th convergent, 0 <= u <= t."""
    if not 0 <= u <= cf.t:
        raise IndexOutOfRange(f"index {u} outside [0, {cf.t}]")
    return cf.convergents[u]


def bound_holds(num: int, den: int, p: int, q: int, k: int) -> bool:
    """True iff |num/den - p/q| < 1/(k*q**2), decided exactly.

    Clearing denominators turns the inequality into
    k*q*|num*q - p*den| < den, which is what gets evaluated.
    """
    return k * q * abs(num * q - p * den) < den


def is_convergent(num: int, den: int, r: int, s: int) -> bool:
    """True iff r/s (in lowest terms, s >= 1) is a convergent of num/den."""
    return any(c.p == r and c.q == s for c in cf_expand(num, den).convergents)


def legendre_scan(num: int, den: int, k: int) -> list[int]:
    """All convergent indices u of num/den satisfying the k-bound, ascending.

    The final index t always qualifies: the last convergent has zero error.
    """
    cf = cf_expand(num, den)
    return [c.u for c in cf.convergents if bound_holds(num, den, c.p, c.q, k)]
