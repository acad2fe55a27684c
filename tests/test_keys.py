import json
import math
import random

import pytest

from reesselab import fixtures as fx
from reesselab.keys import (
    InvalidDelta,
    InvalidParams,
    MalformedKey,
    OmegaFamily,
    PublicKey,
    SumMode,
    SystemParams,
    Variant,
    build_omega,
    coprime_sequence,
    keygen,
    private_from_json,
    private_to_json,
    public_from_json,
    public_to_json,
    transform,
    validate_omega,
    verify_keypair,
)
from reesselab.numtheory import mod_inv, mod_pow, primes_up_to


def scaled_params(n, rho, omega_delta=1, **kw):
    omega = build_omega(OmegaFamily.SCALED, n, omega_delta)
    return SystemParams(n=n, rho=rho, omega=omega, **kw)


def test_build_omega_families():
    assert build_omega(OmegaFamily.SCALED, 6, 1).elements == (5, 6, 7, 8, 9, 10)
    assert build_omega(OmegaFamily.SCALED, 6, 3).elements == (15, 18, 21, 24, 27, 30)
    assert build_omega(OmegaFamily.SHIFTED, 10, 6).elements == tuple(range(11, 21))
    odd = build_omega(OmegaFamily.ODD_SUMFREE, 8)
    assert odd.elements[:10] == (5, 7, 9, 11, 13, 15, 17, 19, 53, 55)
    assert len(odd.elements) == 16
    assert all(e % 2 == 1 for e in odd.elements)


def test_build_omega_errors():
    with pytest.raises(InvalidDelta):
        build_omega(OmegaFamily.SHIFTED, 10, 5)
    with pytest.raises(InvalidDelta):
        build_omega(OmegaFamily.SCALED, 6, 0)


def test_validate_omega_repetition_pair():
    report = validate_omega(build_omega(OmegaFamily.SCALED, 6, 1), SumMode.REPETITION)
    assert (5, 5, 10) in report.pair_violations
    assert not report.ok


def test_validate_omega_shifted_clean():
    report = validate_omega(build_omega(OmegaFamily.SHIFTED, 10, 6), SumMode.REPETITION)
    assert report.pair_violations == ()


def test_validate_omega_odd_sets():
    odd = build_omega(OmegaFamily.ODD_SUMFREE, 8)
    # odd + odd is even, so pair sums can never land in an odd set
    assert validate_omega(odd, SumMode.REPETITION).pair_violations == ()
    distinct = validate_omega(odd, SumMode.DISTINCT)
    assert distinct.ok
    # with summand reuse the leading block 5..19 stops being sum-free
    rep = validate_omega(odd.elements[:8], SumMode.REPETITION)
    assert (5, 5, 7, 17) in rep.triple_violations


def test_validate_omega_accepts_plain_iterables():
    report = validate_omega([1, 2, 3], SumMode.DISTINCT)
    assert (1, 2, 3) in report.pair_violations


def test_coprime_sequence_structure():
    rng = random.Random(20)
    for n, rho in ((6, 17), (10, 43), (8, 29)):
        pool = set(primes_up_to(rho))
        for _ in range(20):
            seq = coprime_sequence(rng, n, rho)
            assert len(seq) == n
            for value in seq:
                rest = value
                for p in sorted(pool):
                    while rest % p == 0:
                        rest //= p
                assert rest == 1, value
            for i, a in enumerate(seq):
                for b in seq[i + 1 :]:
                    assert math.gcd(a, b) == 1


def test_coprime_sequence_needs_enough_primes():
    with pytest.raises(InvalidParams):
        coprime_sequence(random.Random(0), 8, 17)


def test_keygen_contract():
    for seed in range(5):
        priv, pub = keygen(scaled_params(6, 17), seed=seed)
        ok, reasons = verify_keypair(priv, pub)
        assert ok, reasons
        assert priv.M > math.prod(priv.A)
        assert len(set(priv.f)) == 6
    priv, pub = keygen(scaled_params(10, 43), seed=99)
    assert verify_keypair(priv, pub)[0]


def test_keygen_determinism():
    a = keygen(scaled_params(6, 17), seed=42)
    b = keygen(scaled_params(6, 17), seed=42)
    assert a == b
    c = keygen(scaled_params(6, 17), seed=43)
    assert a != c


def test_keygen_explicit_modulus():
    params = scaled_params(6, 17)
    priv, _ = keygen(params, seed=1)
    bigger = 2**61 - 1  # prime, far above any 6-value product
    priv2, pub2 = keygen(params, m_choice=bigger, seed=1)
    assert priv2.M == bigger
    assert verify_keypair(priv2, pub2)[0]
    with pytest.raises(InvalidParams):
        keygen(params, m_choice=4, seed=1)
    product = math.prod(priv.A)
    composite = product + 1 if (product + 1) % 2 == 0 else product + 2
    with pytest.raises(InvalidParams):
        keygen(params, m_choice=composite, seed=1)


def test_keygen_rejects_bad_params():
    with pytest.raises(InvalidParams):
        keygen(scaled_params(5, 17), seed=0)
    with pytest.raises(InvalidParams):
        keygen(scaled_params(6, 13), seed=0)
    with pytest.raises(InvalidParams):
        keygen(scaled_params(6, 17), seed=None)


def test_transform_known_keys():
    assert transform(fx.CASE2_A, fx.CASE2_W, fx.CASE2_F, fx.CASE2_M) == fx.CASE2_C
    c5 = transform(fx.CASE5_A, fx.CASE5_W, fx.CASE5_F, fx.CASE5_M)
    assert c5[0] == 3534250731208421
    assert c5 == fx.CASE5_C
    assert transform(fx.CASE3_A, fx.CASE3_W, fx.CASE3_F, fx.CASE3_M) == fx.CASE3_C


def test_transform_trivial_base():
    A = (11, 10, 3, 7, 17, 13)
    f = (9, 6, 10, 5, 7, 8)
    assert transform(A, 1, f, 510931) == A


def test_transform_v1_roundtrip():
    priv, pub = keygen(scaled_params(6, 17), seed=7)
    for a, fx_, c in zip(priv.A, priv.f, pub.C):
        w_pow = mod_pow(priv.W, fx_, priv.M)
        assert c * mod_inv(w_pow, priv.M) % priv.M == a


def test_keygen_v21_roundtrip():
    params = scaled_params(6, 17, variant=Variant.V21)
    priv, pub = keygen(params, seed=11)
    delta = priv.params.delta
    assert delta is not None and math.gcd(delta, priv.M - 1) == 1
    inv_delta = mod_inv(delta, priv.M - 1)
    for a, fv, c in zip(priv.A, priv.f, pub.C):
        undone = mod_pow(c, inv_delta, priv.M)
        assert undone == a * mod_pow(priv.W, fv, priv.M) % priv.M
        recovered = undone * mod_inv(mod_pow(priv.W, fv, priv.M), priv.M) % priv.M
        assert recovered == a


def test_keygen_v21_explicit_exponent():
    params = scaled_params(6, 17, variant=Variant.V21, delta=5)
    priv, pub = keygen(params, seed=3)
    if math.gcd(5, priv.M - 1) == 1:
        assert priv.params.delta == 5
    v1 = keygen(scaled_params(6, 17), seed=3)[0]
    bad = SystemParams(
        n=6, rho=17, omega=build_omega(OmegaFamily.SCALED, 6, 1),
        variant=Variant.V21, delta=v1.M - 1,
    )
    with pytest.raises(InvalidParams):
        keygen(bad, m_choice=v1.M, seed=3)


def test_verify_keypair_fixture_and_tamper():
    priv, pub = fx.case2_keypair()
    ok, reasons = verify_keypair(priv, pub)
    assert ok and reasons == []
    tampered = PublicKey(pub.n, pub.M, pub.rho, (pub.C[0] + 1,) + pub.C[1:])
    ok, reasons = verify_keypair(priv, tampered)
    assert not ok and "TransformMismatch" in reasons


def test_verify_keypair_flags_each_invariant():
    priv, pub = fx.case2_keypair()
    bad_priv = type(priv)(priv.params, (4, 10, 3, 7, 17, 13), priv.W, priv.f, priv.M)
    ok, reasons = verify_keypair(bad_priv, pub)
    assert not ok and "NotCoprime" in reasons
    bad_priv = type(priv)(priv.params, (19 * 23,) + priv.A[1:], priv.W, priv.f, priv.M)
    ok, reasons = verify_keypair(bad_priv, pub)
    assert "FactorBound" in reasons
    bad_priv = type(priv)(priv.params, priv.A, priv.W, (5, 5) + priv.f[2:], priv.M)
    ok, reasons = verify_keypair(bad_priv, pub)
    assert "LeverFunction" in reasons


def test_shifted_family_admits_no_relation():
    # minimal shift keeps all pair sums above the largest element
    for n in range(6, 65):
        omega = build_omega(OmegaFamily.SHIFTED, n, n - 4)
        report = validate_omega(omega, SumMode.REPETITION)
        assert report.pair_violations == (), n


def test_scaled_equivalence_identity():
    # a scaled lever set behaves like the unit one with the base re-based
    params = scaled_params(6, 17, omega_delta=3)
    priv, pub = keygen(params, seed=21)
    w_prime = mod_pow(priv.W, 3, priv.M)
    f_prime = tuple(v // 3 for v in priv.f)
    assert transform(priv.A, w_prime, f_prime, priv.M) == pub.C


def test_key_json_roundtrip():
    priv, pub = keygen(scaled_params(6, 17, variant=Variant.V21), seed=5)
    assert private_from_json(private_to_json(priv)) == priv
    assert public_from_json(public_to_json(pub)) == pub
    text = public_to_json(pub)
    assert '"A"' not in text and '"W"' not in text and '"f"' not in text
    assert f'"{priv.M}"' in text  # integers travel as decimal strings


def test_key_json_big_integers_survive():
    _, pub = fx.case5_keypair()
    again = public_from_json(public_to_json(pub))
    assert again.C == pub.C and again.M == pub.M


def test_key_json_malformed_fields():
    priv, pub = keygen(scaled_params(6, 17), seed=5)
    good = json.loads(private_to_json(priv))
    for broken in (
        {k: v for k, v in good.items() if k != "W"},
        dict(good, omega=[]),
        dict(good, omega=dict(good["omega"], family="CUBIC")),
        dict(good, variant="v9"),
        dict(good, A="many"),
        dict(good, A=None),
    ):
        with pytest.raises(MalformedKey):
            private_from_json(json.dumps(broken))
    with pytest.raises(MalformedKey):
        private_from_json(json.dumps([good]))
    with pytest.raises(MalformedKey):
        public_from_json(json.dumps({"n": "6", "M": "7", "C": []}))
