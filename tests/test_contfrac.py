import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reesselab.contfrac import (
    IndexOutOfRange,
    ZeroDenominator,
    bound_holds,
    cf_expand,
    cf_head,
    convergent_at,
    is_convergent,
    legendre_scan,
)


def refold(quotients) -> Fraction:
    """Independent reconstruction: fold the quotients from the tail."""
    value = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        value = a + 1 / value
    return value


def test_expand_known_cases():
    cf = cf_expand(186640, 510931)
    assert cf.quotients == (0, 2, 1, 2, 1, 4, 3, 1, 6, 1, 1, 8, 2, 1, 1, 3)
    cf = cf_expand(425865, 510931)
    assert cf.quotients == (0, 1, 5, 159, 535)
    assert cf_expand(1, 2).quotients == (0, 2)
    assert cf_expand(0, 9).quotients == (0,)
    assert cf_expand(7, 1).quotients == (7,)


def test_expand_errors():
    with pytest.raises(ZeroDenominator):
        cf_expand(1, 0)
    with pytest.raises(ValueError):
        cf_expand(-1, 2)


def test_convergent_at_cases():
    cf = cf_expand(186640, 510931)
    c = convergent_at(cf, 4)
    assert (c.p, c.q) == (4, 11)
    cf = cf_expand(425865, 510931)
    c = convergent_at(cf, 3)
    assert (c.p, c.q) == (796, 955)
    cf = cf_expand(1, 2)
    c = convergent_at(cf, 1)
    assert (c.p, c.q) == (1, 2)
    with pytest.raises(IndexOutOfRange):
        convergent_at(cf, 2)
    with pytest.raises(IndexOutOfRange):
        convergent_at(cf, -1)


def test_bound_holds_cases():
    assert bound_holds(186640, 510931, 4, 11, 2)
    assert not bound_holds(2039, 13001, 2, 13, 2)
    assert bound_holds(123, 457, 123, 457, 2)


def test_bound_holds_matches_rational_arithmetic():
    rng = random.Random(10)
    for _ in range(2000):
        den = rng.randrange(1, 10**4)
        num = rng.randrange(0, den + 1)
        q = rng.randrange(1, 300)
        p = rng.randrange(0, q + 1)
        k = rng.choice([2, 3, 8, 1024])
        exact = abs(Fraction(num, den) - Fraction(p, q)) < Fraction(1, k * q * q)
        assert bound_holds(num, den, p, q, k) == exact


def test_is_convergent_cases():
    assert is_convergent(2039, 13001, 2, 13)
    assert is_convergent(186640, 510931, 4, 11)
    assert not is_convergent(1, 3, 1, 2)
    assert is_convergent(1, 3, 0, 1)


def test_legendre_scan_cases():
    hits = legendre_scan(689616, 2022169, 2)
    cf = cf_expand(689616, 2022169)
    index_of_target = next(
        c.u for c in cf.convergents if (c.p, c.q) == (133, 390)
    )
    assert index_of_target in hits
    assert hits == [0, 2, 4, 5, 6, 7, 8, 9, 10, 11]
    # the final convergent has zero error, so t always qualifies
    rng = random.Random(11)
    for _ in range(50):
        den = rng.randrange(2, 10**5)
        num = rng.randrange(1, den)
        cf = cf_expand(num, den)
        assert legendre_scan(num, den, 2)[-1] == cf.t
    assert 4 in legendre_scan(186640, 510931, 2)


def test_reconstruction_and_determinant_properties():
    rng = random.Random(12)
    for _ in range(10**4):
        den = rng.randrange(2, 10**6)
        num = rng.randrange(1, den)
        g = math.gcd(num, den)
        num, den = num // g, den // g
        cf = cf_expand(num, den)
        assert refold(cf.quotients) == Fraction(num, den)
        # canonical form and monotone denominators
        if cf.t >= 1:
            assert cf.quotients[-1] >= 2
            assert all(a >= 1 for a in cf.quotients[1:])
        prev_p, prev_q = 1, 0
        for c in cf.convergents:
            assert math.gcd(c.p, c.q) == 1
            assert abs(c.p * prev_q - prev_p * c.q) == 1
            prev_p, prev_q = c.p, c.q
        qs = [c.q for c in cf.convergents]
        assert all(b > a for a, b in zip(qs[1:], qs[2:]))
        assert qs[0] == 1
        # denominator recurrence with the standard seed
        for u in range(1, cf.t + 1):
            q_minus_2 = cf.convergents[u - 2].q if u >= 2 else 0
            assert (
                cf.convergents[u].q
                == cf.quotients[u] * cf.convergents[u - 1].q + q_minus_2
            )


def test_sufficiency_direction_small_exhaustive():
    # every reduced r/s within 1/(2 s^2) of a rational must be a convergent
    rng = random.Random(13)
    for _ in range(60):
        den = rng.randrange(2, 300)
        num = rng.randrange(1, den)
        convs = {(c.p, c.q) for c in cf_expand(num, den).convergents}
        for s in range(1, den + 1):
            for r in range(0, s + 1):
                if math.gcd(r, s) != 1:
                    continue
                if abs(Fraction(num, den) - Fraction(r, s)) < Fraction(
                    1, 2 * s * s
                ):
                    assert (r, s) in convs


def test_non_necessity_witness():
    # a convergent may still violate the bound: sufficiency only runs one way
    assert is_convergent(2039, 13001, 2, 13)
    assert not bound_holds(2039, 13001, 2, 13, 2)


def test_unreduced_input_is_reduced_internally():
    cf = cf_expand(4, 8)
    assert cf.quotients == (0, 2)
    assert (cf.num, cf.den) == (4, 8)
    assert cf.convergents[-1].p == 1 and cf.convergents[-1].q == 2


def _check_head_prefix(num, den, ceiling):
    """cf_head agrees with the full expansion up to the first q_u above the
    ceiling, and stops there."""
    cf = cf_expand(num, den)
    quotients, ps, qs = cf_head(num, den, ceiling)
    w = next((c.u for c in cf.convergents if c.q > ceiling), cf.t)
    assert len(quotients) == len(ps) == len(qs) == w + 1
    assert tuple(quotients) == cf.quotients[: w + 1]
    assert [(p, q) for p, q in zip(ps, qs)] == [
        (c.p, c.q) for c in cf.convergents[: w + 1]
    ]


def test_cf_head_cases():
    # 186640/510931 = [0; 2, 1, 2, 1, 4, 1, 2, 8, ...], q = 1, 2, 3, 8, 11, 52, ...
    quotients, ps, qs = cf_head(186640, 510931, 10)
    assert quotients == [0, 2, 1, 2, 1] and qs == [1, 2, 3, 8, 11]
    assert ps == [0, 1, 1, 3, 4]
    # ceilings at or above the denominator give the full expansion
    cf = cf_expand(186640, 510931)
    for ceiling in (510931, 510932, 10**9):
        quotients, ps, qs = cf_head(186640, 510931, ceiling)
        assert tuple(quotients) == cf.quotients
        assert qs == [c.q for c in cf.convergents]
    assert cf_head(0, 9, 5) == ([0], [0], [1])
    assert cf_head(4, 8, 100) == ([0, 2], [0, 1], [1, 2])
    assert cf_head(186640, 510931, 0) == ([0], [0], [1])
    with pytest.raises(ZeroDenominator):
        cf_head(1, 0, 5)
    with pytest.raises(ValueError):
        cf_head(-1, 2, 5)


@given(
    st.integers(1, 2**130).flatmap(
        lambda den: st.tuples(
            st.integers(0, 2 * den),
            st.just(den),
            st.one_of(
                st.sampled_from([-1, 0, 1, 2, den - 1, den, den + 1]),
                st.integers(0, den + 2),
                st.integers(0, 2**64),
            ),
        )
    )
)
def test_cf_head_matches_cf_expand(case):
    _check_head_prefix(*case)


def test_cf_head_stops_near_the_end():
    """Ceilings at each of the last few denominators, where the early stop
    meets the end of the expansion."""
    rng = random.Random(17)
    for _ in range(300):
        quotients = [rng.randrange(3)] + [
            rng.choice([1, 1, 2, 3, 50]) for _ in range(rng.randrange(1, 8))
        ]
        if len(quotients) > 1 and quotients[-1] == 1:
            quotients[-1] = 2
        value = refold(quotients)
        num, den = value.numerator, value.denominator
        qs = [c.q for c in cf_expand(num, den).convergents]
        for q in qs[-4:]:
            for ceiling in (q - 1, q, q + 1):
                _check_head_prefix(num, den, ceiling)
