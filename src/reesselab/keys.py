"""Lever-set construction, key generation, and the public-key transforms.

A private key is a pairwise-coprime sequence A (every prime factor at most
rho), a base W, an injective lever map f from indices into a lever set
Omega, and a prime modulus M exceeding the product of the A's. The public
key is C_x = A_x * W**f(x) mod M (variant V1) or C_x = (A_x * W**f(x))**delta
mod M (variant V21).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from enum import Enum

from .numtheory import (
    is_prime,
    next_prime_above,
    pairwise_coprime,
    primes_up_to,
)


class OmegaFamily(str, Enum):
    SCALED = "SCALED"
    SHIFTED = "SHIFTED"
    ODD_SUMFREE = "ODD_SUMFREE"


class Variant(str, Enum):
    V1 = "V1"
    V21 = "V21"


class SumMode(str, Enum):
    """Whether sum-free checks may reuse one element as several summands."""

    DISTINCT = "DISTINCT"
    REPETITION = "REPETITION"


class InvalidDelta(ValueError):
    """Family parameter outside its admissible range."""


class MalformedKey(ValueError):
    """A key file whose JSON lacks a field or holds a wrong-typed value."""


class InvalidParams(ValueError):
    """Parameters outside an operation's supported range."""


@dataclass(frozen=True)
class OmegaSet:
    """A lever-value pool with its family metadata."""

    family: OmegaFamily
    n: int
    delta: int | None
    elements: tuple[int, ...]


@dataclass(frozen=True)
class OmegaReport:
    """Exhaustive sum-free violations of a lever set.

    pair_violations lists (e1, e2, e3) with e1 + e2 == e3 and e1 <= e2;
    triple_violations lists (e1, e2, e3, e4) with e1 + e2 + e3 == e4 and
    e1 <= e2 <= e3. Under DISTINCT mode the summands are required to be
    pairwise distinct elements; REPETITION allows reuse.
    """

    mode: SumMode
    pair_violations: tuple[tuple[int, int, int], ...]
    triple_violations: tuple[tuple[int, int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.pair_violations and not self.triple_violations


@dataclass(frozen=True)
class SystemParams:
    """Shared key-generation parameters.

    delta here is the V21 transform exponent; the lever-set scale lives in
    omega.delta.
    """

    n: int
    rho: int
    omega: OmegaSet
    variant: Variant = Variant.V1
    delta: int | None = None


@dataclass(frozen=True)
class PrivateKey:
    params: SystemParams
    A: tuple[int, ...]
    W: int
    f: tuple[int, ...]
    M: int


@dataclass(frozen=True)
class PublicKey:
    n: int
    M: int
    rho: int
    C: tuple[int, ...]


def _odd_sumfree_elements(count: int) -> tuple[int, ...]:
    """Greedy ascending odd set keeping distinct-summand sum-freeness.

    Admits each odd candidate from 5 upward unless it equals a sum of two
    or of three pairwise-distinct elements already present (sums involving
    the candidate itself exceed everything present, so only the candidate
    can be the offending target).
    """
    elems: list[int] = []
    pair_sums: set[int] = set()
    triple_sums: set[int] = set()
    c = 5
    while len(elems) < count:
        if c not in pair_sums and c not in triple_sums:
            for i, a in enumerate(elems):
                for b in elems[i + 1 :]:
                    triple_sums.add(a + b + c)
                pair_sums.add(a + c)
            elems.append(c)
        c += 2
    return tuple(elems)


def build_omega(family: OmegaFamily, n: int, delta: int | None = None) -> OmegaSet:
    """Construct a lever set.

    SCALED: {5*delta, ..., (n+4)*delta}, delta >= 1.
    SHIFTED: {5+delta, ..., (n+4)+delta}, delta >= n-4 (smaller shifts
    re-admit sums of two elements into the set).
    ODD_SUMFREE: 2n odd elements by the greedy rule; delta is ignored.
    """
    family = OmegaFamily(family)
    if n < 1:
        raise InvalidParams(f"element count must be >= 1, got {n}")
    if family is OmegaFamily.SCALED:
        if delta is None or delta < 1:
            raise InvalidDelta(f"scaled family needs delta >= 1, got {delta}")
        elements = tuple(v * delta for v in range(5, n + 5))
    elif family is OmegaFamily.SHIFTED:
        if delta is None or delta < n - 4:
            raise InvalidDelta(
                f"shifted family needs delta >= n-4 = {n - 4}, got {delta}"
            )
        elements = tuple(v + delta for v in range(5, n + 5))
    else:
        delta = None
        elements = _odd_sumfree_elements(2 * n)
    return OmegaSet(family, n, delta, elements)


def validate_omega(omega, mode: SumMode = SumMode.DISTINCT) -> OmegaReport:
    """Exhaustively list sum-free violations of a lever set.

    Accepts an OmegaSet or a bare iterable of elements.
    """
    mode = SumMode(mode)
    elements = sorted(omega.elements if isinstance(omega, OmegaSet) else omega)
    present = set(elements)
    pairs = []
    triples = []
    n = len(elements)
    for i in range(n):
        e1 = elements[i]
        j0 = i + 1 if mode is SumMode.DISTINCT else i
        for j in range(j0, n):
            e2 = elements[j]
            if e1 + e2 in present:
                pairs.append((e1, e2, e1 + e2))
            k0 = j + 1 if mode is SumMode.DISTINCT else j
            for k in range(k0, n):
                e3 = elements[k]
                if e1 + e2 + e3 in present:
                    triples.append((e1, e2, e3, e1 + e2 + e3))
    return OmegaReport(mode, tuple(sorted(pairs)), tuple(sorted(triples)))


def coprime_sequence(rng: random.Random, n: int, rho: int) -> tuple[int, ...]:
    """A random pairwise-coprime sequence of n values >= 2.

    Each value is a product of one or two distinct primes <= rho, with all
    prime supports disjoint, so coprimality holds by construction.
    """
    pool = primes_up_to(rho)
    if len(pool) < n:
        raise InvalidParams(
            f"only {len(pool)} primes <= {rho}, cannot build {n} coprime values"
        )
    doubles = rng.randint(0, min(n, len(pool) - n))
    picked = rng.sample(pool, n + doubles)
    values = [picked[2 * i] * picked[2 * i + 1] for i in range(doubles)]
    values.extend(picked[2 * doubles :])
    rng.shuffle(values)
    return tuple(values)


def transform(
    A, W: int, f, M: int, variant: Variant = Variant.V1, delta: int | None = None
) -> tuple[int, ...]:
    """Public-key sequence for the given private components."""
    variant = Variant(variant)
    base = [a % M * pow(W, fx, M) % M for a, fx in zip(A, f)]
    if variant is Variant.V1:
        return tuple(base)
    if delta is None:
        raise InvalidParams("variant V21 needs the exponent delta")
    return tuple(pow(c, delta, M) for c in base)


def keygen(
    params: SystemParams, m_choice: int | None = None, seed=None
) -> tuple[PrivateKey, PublicKey]:
    """Generate a key pair, deterministically for a fixed seed.

    m_choice None picks M as the smallest prime above the product of the
    coprime sequence; an explicit modulus must be a prime exceeding that
    product. For variant V21 the exponent is drawn coprime to M-1 (or
    validated, when params.delta is set), which keeps the transform
    invertible.
    """
    if seed is None:
        raise InvalidParams("keygen needs an explicit seed")
    if params.n < 6:
        raise InvalidParams(f"sequence length must be >= 6, got {params.n}")
    if params.rho < 17:
        raise InvalidParams(f"rho must be >= 17, got {params.rho}")
    if len(params.omega.elements) < params.n:
        raise InvalidParams(
            f"lever set has {len(params.omega.elements)} elements,"
            f" need >= {params.n}"
        )
    rng = random.Random(seed)
    A = coprime_sequence(rng, params.n, params.rho)
    product = math.prod(A)
    if m_choice is None:
        M = next_prime_above(product)
    else:
        if m_choice <= product:
            raise InvalidParams(
                f"explicit modulus {m_choice} does not exceed the sequence"
                f" product {product}"
            )
        if not is_prime(m_choice):
            raise InvalidParams(f"explicit modulus {m_choice} is not prime")
        M = m_choice
    W = rng.randrange(2, M - 1)
    f = tuple(rng.sample(params.omega.elements, params.n))
    if Variant(params.variant) is Variant.V21:
        delta = params.delta
        if delta is None:
            delta = rng.randrange(2, M - 1)
            while math.gcd(delta, M - 1) != 1:
                delta = rng.randrange(2, M - 1)
        elif math.gcd(delta, M - 1) != 1:
            raise InvalidParams(
                f"V21 exponent {delta} shares a factor with M-1 = {M - 1}"
            )
        params = replace(params, delta=delta)
    else:
        delta = None
    C = transform(A, W, f, M, params.variant, delta)
    priv = PrivateKey(params, A, W, f, M)
    pub = PublicKey(params.n, M, params.rho, C)
    return priv, pub


def _factor_bound_ok(value: int, rho: int) -> bool:
    """True iff every prime factor of value is <= rho."""
    rest = value
    for p in primes_up_to(rho):
        while rest % p == 0:
            rest //= p
    return rest == 1


def verify_keypair(priv: PrivateKey, pub: PublicKey):
    """Check every private-key invariant and the transform consistency.

    Returns (ok, reasons); reasons names each failed check.
    """
    reasons = []
    params = priv.params
    if not (
        params.n == pub.n == len(priv.A) == len(priv.f) and priv.M == pub.M
    ):
        reasons.append("ShapeMismatch")
    if not pairwise_coprime(priv.A):
        reasons.append("NotCoprime")
    if any(a < 2 or not _factor_bound_ok(a, params.rho) for a in priv.A):
        reasons.append("FactorBound")
    if not is_prime(priv.M):
        reasons.append("ModulusNotPrime")
    if priv.M <= math.prod(priv.A):
        reasons.append("ModulusTooSmall")
    omega = set(params.omega.elements)
    if len(set(priv.f)) != len(priv.f) or not set(priv.f) <= omega:
        reasons.append("LeverFunction")
    if any(not 1 <= c <= pub.M - 1 for c in pub.C):
        reasons.append("PublicRange")
    if "ShapeMismatch" not in reasons:
        expected = transform(
            priv.A, priv.W, priv.f, priv.M, params.variant, params.delta
        )
        if expected != tuple(pub.C):
            reasons.append("TransformMismatch")
    return not reasons, reasons


# ---------------------------------------------------------------------------
# JSON key files: every integer travels as a decimal string so values far
# beyond 64 bits survive any consumer.


def _s(v):
    return None if v is None else str(v)


def _omega_to_obj(omega: OmegaSet) -> dict:
    return {
        "family": omega.family.value,
        "n": _s(omega.n),
        "delta": _s(omega.delta),
        "elements": [_s(e) for e in omega.elements],
    }


def _ints(values) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {type(values).__name__}")
    return tuple(int(v) for v in values)


def _omega_from_obj(obj: dict) -> OmegaSet:
    return OmegaSet(
        OmegaFamily(obj["family"]),
        int(obj["n"]),
        None if obj["delta"] is None else int(obj["delta"]),
        _ints(obj["elements"]),
    )


def private_to_json(priv: PrivateKey) -> str:
    obj = {
        "n": _s(priv.params.n),
        "M": _s(priv.M),
        "rho": _s(priv.params.rho),
        "omega": _omega_to_obj(priv.params.omega),
        "variant": priv.params.variant.value,
        "delta": _s(priv.params.delta),
        "A": [_s(a) for a in priv.A],
        "W": _s(priv.W),
        "f": [_s(v) for v in priv.f],
    }
    return json.dumps(obj, indent=2) + "\n"


def _decode_key(text: str, build):
    """build(obj) over the parsed JSON object, with every missing field or
    wrong-typed value reported as MalformedKey."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise MalformedKey(
            f"key file must hold a JSON object, got {type(obj).__name__}"
        )
    try:
        return build(obj)
    except KeyError as exc:
        raise MalformedKey(f"key file lacks field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise MalformedKey(f"malformed key file: {exc}") from None


def private_from_json(text: str) -> PrivateKey:
    return _decode_key(text, _private_from_obj)


def _private_from_obj(obj: dict) -> PrivateKey:
    params = SystemParams(
        n=int(obj["n"]),
        rho=int(obj["rho"]),
        omega=_omega_from_obj(obj["omega"]),
        variant=Variant(obj["variant"]),
        delta=None if obj["delta"] is None else int(obj["delta"]),
    )
    return PrivateKey(
        params,
        _ints(obj["A"]),
        int(obj["W"]),
        _ints(obj["f"]),
        int(obj["M"]),
    )


def public_to_json(pub: PublicKey) -> str:
    obj = {
        "n": _s(pub.n),
        "M": _s(pub.M),
        "rho": _s(pub.rho),
        "C": [_s(c) for c in pub.C],
    }
    return json.dumps(obj, indent=2) + "\n"


def public_from_json(text: str) -> PublicKey:
    return _decode_key(text, _public_from_obj)


def _public_from_obj(obj: dict) -> PublicKey:
    return PublicKey(
        int(obj["n"]),
        int(obj["M"]),
        int(obj["rho"]),
        _ints(obj["C"]),
    )
