import itertools
import math
import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reesselab import fixtures as fx
from reesselab.attack import (
    FULL_FILTER,
    LEGENDRE_ONLY,
    AttackFilter,
    CandidateHit,
    IndexClash,
    IndexOutOfRange,
    InvalidRange,
    NoGenerator,
    compute_z,
    compute_z_pair,
    construct_pseudo_relation,
    count_compatible,
    delta_of,
    factor_pairs,
    max_a,
    prime_product_P,
    report_to_json,
    report_to_table,
    run_attack,
    scan_triple,
    strict_filter,
)
from reesselab.attack import _scan_z, _sqrt_display
from reesselab.contfrac import bound_holds, cf_expand
from reesselab.keys import OmegaFamily, SystemParams, build_omega, keygen
from reesselab.numtheory import mod_inv, mod_pow, mult_order


def test_compute_z_cases():
    _, pub = fx.case2_keypair()
    assert compute_z(pub, 1, 3, 5) == 186640
    assert compute_z(pub, 1, 3, 6) == 425865
    with pytest.raises(IndexClash):
        compute_z(pub, 1, 2, 1)
    with pytest.raises(IndexClash):
        compute_z(pub, 2, 1, 1)
    with pytest.raises(IndexOutOfRange):
        compute_z(pub, 0, 3, 5)
    with pytest.raises(IndexOutOfRange):
        compute_z(pub, 1, 3, 7)
    # repeated source index is allowed
    assert compute_z(pub, 2, 2, 5) == pub.C[1] ** 2 * mod_inv(pub.C[4], pub.M) % pub.M


def test_compute_z_pair_cases():
    _, pub = fx.case3_keypair()
    assert compute_z_pair(pub, 4, 12, 6, 7) == 689616
    assert compute_z_pair(pub, 12, 4, 6, 7) == 689616
    with pytest.raises(IndexClash):
        compute_z_pair(pub, 4, 12, 6, 6)
    with pytest.raises(IndexClash):
        compute_z_pair(pub, 6, 12, 6, 7)


def test_prime_product():
    assert prime_product_P(6, 17) == 7 * 11 * 13 * 17 == 17017
    assert prime_product_P(10, 43) == 19 * 23 * 29 * 31 * 37 * 41 * 43
    assert prime_product_P(10, 43) == 25626846353
    with pytest.raises(InvalidRange):
        prime_product_P(3, 2)


def test_delta_of():
    ratio, display = delta_of(510931, 6, 17)
    assert ratio == Fraction(510931, 2 * 17017)
    assert abs(float(display) - 3.8729) < 0.01
    ratio5, display5 = delta_of(13082761331670077, 10, 43)
    assert ratio5 == Fraction(13082761331670077, 2 * 25626846353)
    assert abs(float(display5) - 506) <= 1
    ratio1, display1 = delta_of(34034, 6, 17)
    assert ratio1 == 1 and display1 == "1.0000"


def _decimal_sqrt_display(ratio: Fraction) -> str:
    """Decimal reference: sqrt to far more digits than shown, quantized
    half-even."""
    with localcontext() as ctx:
        ctx.prec = len(str(ratio.numerator)) + 60
        root = (Decimal(ratio.numerator) / Decimal(ratio.denominator)).sqrt()
        return str(root.quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


def test_delta_of_large_modulus():
    M = 2**300 + 157
    ratio, display = delta_of(M, 6, 17)
    assert ratio == Fraction(M, 34034)
    assert display == _decimal_sqrt_display(ratio)
    whole, frac = display.split(".")
    assert len(frac) == 4 and int(whole) == math.isqrt(M // 34034)
    assert delta_of(2**270 + 1, 6, 17)[1] == _decimal_sqrt_display(
        Fraction(2**270 + 1, 34034)
    )


def test_sqrt_display_matches_decimal_reference():
    rng = random.Random(41)
    for _ in range(2000):
        num = rng.randrange(1, 1 << rng.randrange(1, 400))
        den = rng.randrange(1, 1 << rng.randrange(1, 200))
        ratio = Fraction(num, den)
        assert _sqrt_display(ratio) == _decimal_sqrt_display(ratio)
    # exact half-way cases round to the even last digit, as Decimal does
    for s in (0, 1, 2, 3, 12344, 12345, 10**9 + 7):
        ratio = Fraction((2 * s + 1) ** 2, 4 * 10**8)
        assert _sqrt_display(ratio) == _decimal_sqrt_display(ratio)
    assert _sqrt_display(Fraction(9, 4 * 10**8)) == "0.0002"
    assert _sqrt_display(Fraction(1, 4 * 10**8)) == "0.0000"


def test_max_a():
    assert max_a(510931, 6) == 221
    assert max_a(2311, 6) == 1
    # the printed historical value is one above the exact quotient
    assert max_a(13082761331670077, 10) == 58642669
    assert fx.CASE5_MAX_A_PRINTED == max_a(13082761331670077, 10) + 1


def test_scan_triple_plain_bound():
    _, pub = fx.case2_keypair()
    hits = scan_triple(pub, 1, 3, 5, LEGENDRE_ONLY, pub.rho)
    assert [(h.u, h.q_u) for h in hits] == [(2, 3), (4, 11), (5, 52), (7, 219)]
    eleven = next(h for h in hits if h.q_u == 11)
    assert (eleven.p_u, eleven.u) == (4, 4)


def test_scan_triple_full_filter():
    _, pub = fx.case2_keypair()
    hits = scan_triple(pub, 1, 3, 6, FULL_FILTER, pub.rho)
    assert len(hits) == 1
    h = hits[0]
    assert (h.i, h.j, h.k, h.q_u) == (1, 3, 6, 6)
    assert (h.q_next, h.a_u, h.a_next) == (955, 5, 159)
    # jump inequality in exact integers
    two_p = 2 * prime_product_P(pub.n, pub.rho)
    assert h.q_next**2 * two_p > h.q_u**2 * pub.M


def test_scan_triple_ceiling_override():
    _, pub = fx.case2_keypair()
    filt = AttackFilter(max_a_override=1)
    assert scan_triple(pub, 1, 3, 5, filt, pub.rho) == []


def test_scan_triple_symmetry():
    _, pub = fx.case5_keypair()
    rng = random.Random(30)
    for _ in range(20):
        i, j, k = rng.sample(range(1, 11), 3)
        a = [h.q_u for h in scan_triple(pub, i, j, k, LEGENDRE_ONLY, pub.rho)]
        b = [h.q_u for h in scan_triple(pub, j, i, k, LEGENDRE_ONLY, pub.rho)]
        assert a == b


def test_strict_filter_prunes_spurious_candidates():
    _, pub = fx.case2_keypair()
    hits = scan_triple(pub, 1, 3, 5, strict_filter(pub.n), pub.rho)
    assert hits == []


def test_strict_filter_keeps_distinct_planted_relation():
    # plant f(i)+f(j)=f(k) with distinct i, j on a 7-element key
    from reesselab.keys import PublicKey, coprime_sequence, transform
    from reesselab.numtheory import next_prime_above

    rng = random.Random(31)
    n = 7
    omega = build_omega(OmegaFamily.SCALED, n, 1)  # 5..11 includes 5+6=11
    for _ in range(10):
        A = coprime_sequence(rng, n, 43)
        lever = [None] * n
        i, j, k = rng.sample(range(1, n + 1), 3)
        lever[i - 1], lever[j - 1], lever[k - 1] = 5, 6, 11
        rest = [v for v in omega.elements if v not in (5, 6, 11)]
        rng.shuffle(rest)
        for x in range(n):
            if lever[x] is None:
                lever[x] = rest.pop()
        M = next_prime_above(math.prod(A))
        W = rng.randrange(2, M - 1)
        pub = PublicKey(n, M, 43, transform(A, W, tuple(lever), M))
        hits = scan_triple(pub, i, j, k, strict_filter(n), 43)
        expected = A[k - 1]
        z = compute_z(pub, i, j, k)
        L = (z * expected - A[i - 1] * A[j - 1]) // M
        target = expected // math.gcd(L, expected)
        assert any(h.q_u == target for h in hits)


def test_run_attack_small_key_structure():
    _, pub = fx.case2_keypair()
    report = run_attack(pub, FULL_FILTER, pub.rho)
    # groups aggregate exactly the hits, both (i, j) orders included
    rebuilt = {}
    for h in report.hits:
        rebuilt.setdefault((h.k, h.q_u), []).append((h.i, h.j))
    assert {k: sorted(v) for k, v in rebuilt.items()} == report.groups
    for (k, value), tuples in report.groups.items():
        for (i, j) in tuples:
            if i != j:
                assert (j, i) in tuples
    # scans cover source indices equal to the target as well
    assert any(h.i == h.k or h.j == h.k for h in report.hits)
    assert report.max_a == 221


def test_run_attack_deterministic_rendering():
    _, pub = fx.case2_keypair()
    a = run_attack(pub, FULL_FILTER, pub.rho)
    b = run_attack(pub, FULL_FILTER, pub.rho)
    assert report_to_json(a) == report_to_json(b)
    assert report_to_table(a) == report_to_table(b)


def test_run_attack_empty_when_ceiling_zero():
    _, pub = fx.case2_keypair()
    report = run_attack(pub, AttackFilter(max_a_override=0), pub.rho)
    assert report.hits == ()
    assert report.groups == {}
    assert count_compatible(report, pub.M, 10**6) == 0


def test_factor_pairs():
    assert factor_pairs(390) == [
        (2, 195), (3, 130), (5, 78), (6, 65), (10, 39), (13, 30), (15, 26),
    ]
    assert factor_pairs(390, 43) == [(10, 39), (13, 30), (15, 26)]
    assert factor_pairs(97) == []
    assert factor_pairs(36) == [(2, 18), (3, 12), (4, 9), (6, 6)]


def test_count_compatible_synthetic():
    from fractions import Fraction as F

    from reesselab.attack import AttackReport, CandidateHit

    def hit(k, i, j, q):
        return CandidateHit(k, i, j, 1, q, 1, q + 1, 1, 1)

    # one group per multiplicity class, coprime values: a single selection
    hits = (
        hit(1, 2, 3, 7),
        hit(2, 3, 4, 11), hit(2, 4, 3, 11),
        hit(9, 3, 4, 5), hit(9, 4, 3, 5),  # n inferred as 9 -> classes 1..4
    )
    groups = {
        (1, 7): [(2, 3)],
        (2, 11): [(3, 4), (4, 3)],
        (9, 5): [(3, 4), (4, 3)],
    }
    report = AttackReport("1.0000", F(1), 100, groups, hits)
    assert count_compatible(report, M=10**6, cap=100) == 2
    # shared factors with the forced class-1 pick kill every selection
    groups_conflict = {
        (1, 7): [(2, 3)],
        (2, 14): [(3, 4), (4, 3)],
        (9, 21): [(3, 4), (4, 3)],
    }
    report = AttackReport("1.0000", F(1), 100, groups_conflict, hits)
    assert count_compatible(report, M=10**6, cap=100) == 0
    # the product-below-modulus constraint binds
    report = AttackReport("1.0000", F(1), 100, groups, hits)
    assert count_compatible(report, M=30, cap=100) == 0
    assert count_compatible(report, M=40, cap=100) == 1  # only 7 * 5 fits


def test_count_compatible_empty_report():
    _, pub = fx.case2_keypair()
    report = run_attack(pub, AttackFilter(max_a_override=0), pub.rho)
    assert count_compatible(report, pub.M, 100) == 0


def test_count_compatible_cap():
    _, pub = fx.case5_keypair()
    filt = AttackFilter(use_jump=True, max_a_override=fx.CASE5_MAX_A_PRINTED)
    report = run_attack(pub, filt, pub.rho)
    assert count_compatible(report, pub.M, 10) == 10
    full = count_compatible(report, pub.M, 10**6)
    assert full >= 2 ** (pub.n - 5)


def test_render_table_layout():
    _, pub = fx.case5_keypair()
    filt = AttackFilter(use_jump=True, max_a_override=fx.CASE5_MAX_A_PRINTED)
    report = run_attack(pub, filt, pub.rho)
    text = report_to_table(report)
    assert "A_1 = 437 | (10, 6, 1), (6, 10, 1)" in text
    assert "A_k | Tuples (i, j, k)" in text


def test_construct_pseudo_relation_roundtrip():
    _, pub = fx.case2_keypair()
    M = pub.M
    a_i, a_j, f_i, f_j, f_k = construct_pseudo_relation(
        pub, 1, 3, 5, a_k_prime=11, w_prime=2, f_i_prime=1000, rho=pub.rho
    )
    # the three decompositions hold
    assert pub.C[0] == a_i * mod_pow(2, f_i, M) % M
    assert pub.C[2] == a_j * mod_pow(2, f_j, M) % M
    assert pub.C[4] == 11 * mod_pow(2, f_k, M) % M
    # and the lever relation holds modulo the group order
    assert (f_i + f_j) % (M - 1) == f_k % (M - 1)
    # consistency with the scan statistic: Z * A'_k == A'_i * A'_j (mod M)
    assert a_i * a_j % M == 186640 * 11 % M


def test_construct_pseudo_relation_rejects_non_generator():
    _, pub = fx.case2_keypair()
    # 4 = 2**2 generates only half the group
    assert mult_order(4, pub.M) == (pub.M - 1) // 2
    with pytest.raises(NoGenerator):
        construct_pseudo_relation(
            pub, 1, 3, 5, a_k_prime=11, w_prime=4, f_i_prime=1, rho=pub.rho
        )


def test_planted_relation_always_recovered():
    # completeness direction: with f(i)+f(j) = f(k), the reduced true value
    # appears among the plain-bound candidates; oracle recomputes L directly
    from reesselab.keys import PublicKey, coprime_sequence, transform
    from reesselab.numtheory import next_prime_above

    rng = random.Random(32)
    for n in (6, 8, 10):
        omega = build_omega(OmegaFamily.SCALED, n, 1)
        for _ in range(15):
            A = coprime_sequence(rng, n, 43)
            if n >= 7:
                i, j, k = rng.sample(range(1, n + 1), 3)
                trio = {i: 5, j: 6, k: 11}
            else:
                i = min(range(1, n + 1), key=lambda x: A[x - 1])
                j = i
                k = rng.choice([x for x in range(1, n + 1) if x != i])
                trio = {i: 5, k: 10}
            rest = [v for v in omega.elements if v not in trio.values()]
            rng.shuffle(rest)
            lever = tuple(
                trio.get(x) if x in trio else rest.pop() for x in range(1, n + 1)
            )
            M = next_prime_above(math.prod(A))
            W = rng.randrange(2, M - 1)
            pub = PublicKey(n, M, 43, transform(A, W, lever, M))
            z = compute_z(pub, i, j, k)
            L = (z * A[k - 1] - A[i - 1] * A[j - 1]) // M
            assert (z * A[k - 1] - A[i - 1] * A[j - 1]) % M == 0
            target = A[k - 1] // math.gcd(L, A[k - 1])
            hits = scan_triple(pub, i, j, k, LEGENDRE_ONLY, 43)
            assert any(h.q_u == target for h in hits)


def test_multi_hit_triples_exist():
    # several convergents of one triple can pass the plain bound at once
    _, pub = fx.case5_keypair()
    multi = 0
    for i, j, k in itertools.product(range(1, 11), repeat=3):
        if i == k or j == k:
            continue
        hits = scan_triple(pub, i, j, k, LEGENDRE_ONLY, pub.rho)
        if len(hits) >= 2:
            multi += 1
            break
    assert multi > 0


# ---------------------------------------------------------------------------
# The truncated scan against the full expansion.


def _scan_z_oracle(Z, M, two_p, filt, ceiling):
    """The filter rules read off the complete cf_expand of Z/M."""
    cf = cf_expand(Z, M)
    out = []
    for u in range(cf.t):
        c, nxt = cf.convergents[u], cf.convergents[u + 1]
        if not filt.min_q <= c.q <= ceiling:
            continue
        if not bound_holds(Z, M, c.p, c.q, filt.legendre_k):
            continue
        if filt.use_jump and nxt.q * nxt.q * two_p <= c.q * c.q * M:
            continue
        out.append((u, c.p, c.q, nxt.q, cf.quotients[u], cf.quotients[u + 1]))
    return out


@st.composite
def scan_cases(draw):
    M = draw(st.one_of(st.integers(1, 40), st.integers(1, 2**140)))
    Z = draw(st.integers(0, M - 1))
    ceiling = draw(
        st.one_of(
            st.sampled_from([0, 1, 2, M - 1, M, M + 1, 2**200]),
            st.integers(0, M),
            st.integers(0, math.isqrt(M) + 1),
        )
    )
    if draw(st.booleans()):
        # a ceiling at one of the last denominators: the scan stops at or
        # just before the end of the expansion
        qs = [c.q for c in cf_expand(Z, M).convergents]
        ceiling = draw(st.sampled_from(qs[-3:])) + draw(st.integers(-1, 1))
    filt = AttackFilter(
        legendre_k=draw(st.sampled_from([1, 2, 3, 8, 2**10, 2**40])),
        use_jump=draw(st.booleans()),
        min_q=draw(st.integers(0, 5)),
    )
    two_p = draw(st.integers(1, 2**80))
    return Z, M, two_p, filt, ceiling


@given(scan_cases())
def test_scan_z_matches_full_expansion(case):
    assert _scan_z(*case) == _scan_z_oracle(*case)


def _run_attack_oracle(pub, filt, ceiling):
    two_p = 2 * prime_product_P(pub.n, pub.rho)
    hits = []
    for k, i, j in itertools.product(range(1, pub.n + 1), repeat=3):
        Z = pub.C[i - 1] * pub.C[j - 1] * mod_inv(pub.C[k - 1], pub.M) % pub.M
        hits += [
            CandidateHit(k, i, j, u, q, p, q_next, a_u, a_next)
            for (u, p, q, q_next, a_u, a_next) in _scan_z_oracle(
                Z, pub.M, two_p, filt, ceiling
            )
        ]
    return tuple(hits)


@pytest.mark.parametrize("n, rho", [(6, 17), (8, 29), (12, 43), (16, 61)])
def test_run_attack_matches_full_expansion(n, rho):
    params = SystemParams(n, rho, build_omega(OmegaFamily.SCALED, n, 1))
    _, pub = keygen(params, seed=n)
    ceiling = max_a(pub.M, n)
    filters = [
        LEGENDRE_ONLY,
        FULL_FILTER,
        strict_filter(n),
        AttackFilter(use_jump=True, max_a_override=3 * ceiling + 1),
    ]
    for filt in filters:
        report = run_attack(pub, filt, rho)
        expected_ceiling = (
            ceiling if filt.max_a_override is None else filt.max_a_override
        )
        assert report.max_a == expected_ceiling
        assert report.hits == _run_attack_oracle(pub, filt, expected_ceiling)
