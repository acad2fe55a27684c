"""Reconstruction of the convergent-scanning key attack and its filters.

For a public key C and indices (i, j, k) the scan expands
Z = C_i * C_j * C_k**-1 mod M as a continued fraction and collects
convergent denominators q_u as candidate values for A_k. Candidates pass

  * the approximation bound |Z/M - p_u/q_u| < 1/(legendre_k * q_u**2),
  * optionally the jump condition q_{u+1} > q_u * Delta, with
    Delta**2 = M / (2 * P) for P a product of consecutive primes, decided
    exactly as q_{u+1}**2 * 2P > q_u**2 * M,
  * a denominator window min_q <= q_u <= maxA,

always at a non-final index (u < t). A planted lever relation
f(i) + f(j) = f(k) guarantees a passing candidate, but the converse fails:
the scan also fires on unrelated triples, which is what the report
machinery here measures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .contfrac import bound_holds, cf_head
from .keys import InvalidParams, PublicKey
from .numtheory import (
    dlog_bruteforce,
    mod_inv,
    mult_order,
    nth_prime,
    prime_index_leq,
    primes_up_to,
)


class IndexClash(ValueError):
    """A scan index collides with the target index k."""


class IndexOutOfRange(IndexError):
    """A key index outside [1, n]."""


class InvalidRange(ValueError):
    """Empty prime-index range for the jump parameter."""


class NoGenerator(ValueError):
    """The supplied base does not generate the multiplicative group."""


@dataclass(frozen=True)
class AttackFilter:
    """Toggleable candidate filters.

    legendre_k = 2 is the plain approximation bound; 2**(n-3) is the
    strict variant that prunes most spurious candidates. max_a_override
    replaces the computed denominator ceiling (the original program's
    exact cutoff rule is not public, so reproductions can pin it).
    """

    legendre_k: int = 2
    use_jump: bool = False
    max_a_override: int | None = None
    min_q: int = 2


LEGENDRE_ONLY = AttackFilter()
FULL_FILTER = AttackFilter(use_jump=True)


def strict_filter(n: int) -> AttackFilter:
    """The sharpened bound 1/(2**(n-3) * q**2) for an n-element key."""
    if n < 4:
        raise InvalidParams(f"strict bound needs n >= 4, got {n}")
    return AttackFilter(legendre_k=2 ** (n - 3))


@dataclass(frozen=True)
class CandidateHit:
    """One convergent that survived the active filters for (i, j, k).

    q_u is the candidate value for A_k (p_u the matching numerator);
    q_next, a_u, a_next are the growth diagnostics q_{u+1}, a_u, a_{u+1}.
    """

    k: int
    i: int
    j: int
    u: int
    q_u: int
    p_u: int
    q_next: int
    a_u: int
    a_next: int


@dataclass(frozen=True)
class AttackReport:
    """Scan output over a whole key, grouped the way the tables read.

    groups maps (k, candidate value) to the (i, j) pairs that produced it;
    ordered (i, j) and (j, i) both appear, mirroring the symmetric listing
    convention. delta_ratio is the exact rational Delta**2 = M/(2P);
    delta_display its square root to four decimals.
    """

    delta_display: str
    delta_ratio: Fraction
    max_a: int
    groups: dict
    hits: tuple[CandidateHit, ...]


def _check_indices(pub: PublicKey, *indices: int) -> None:
    for x in indices:
        if not 1 <= x <= pub.n:
            raise IndexOutOfRange(f"index {x} outside [1, {pub.n}]")


def _z_of(pub: PublicKey, i: int, j: int, k: int) -> int:
    return (
        pub.C[i - 1] * pub.C[j - 1] % pub.M * mod_inv(pub.C[k - 1], pub.M) % pub.M
    )


def compute_z(pub: PublicKey, i: int, j: int, k: int) -> int:
    """Z = C_i * C_j * C_k**-1 mod M; i = j is fine, i or j = k is not."""
    _check_indices(pub, i, j, k)
    if i == k or j == k:
        raise IndexClash(f"source index equals target index {k}")
    return _z_of(pub, i, j, k)


def compute_z_pair(pub: PublicKey, i: int, j: int, k1: int, k2: int) -> int:
    """Two-target variant: C_i * C_j * (C_k1 * C_k2)**-1 mod M."""
    _check_indices(pub, i, j, k1, k2)
    if k1 == k2 or {i, j} & {k1, k2}:
        raise IndexClash(f"indices ({i}, {j}) and targets ({k1}, {k2}) overlap")
    M = pub.M
    inv = mod_inv(pub.C[k1 - 1] * pub.C[k2 - 1] % M, M)
    return pub.C[i - 1] * pub.C[j - 1] % M * inv % M


def prime_product_P(n: int, rho: int) -> int:
    """Product of nth_prime(x) for x from n-2 through prime_index_leq(rho).

    Needs n >= 4 (a start index of at least 2) and a rho whose prime index
    reaches the start.
    """
    if n < 4:
        raise InvalidRange(f"need n >= 4, got {n}")
    m = prime_index_leq(rho)
    if m < n - 2:
        raise InvalidRange(
            f"prime index of {rho} is {m}, below the range start {n - 2}"
        )
    return math.prod(nth_prime(x) for x in range(n - 2, m + 1))


def delta_of(M: int, n: int, rho: int) -> tuple[Fraction, str]:
    """The jump threshold Delta as (exact ratio Delta**2, 4-decimal display).

    The display is decided in integers, so moduli of any size work.
    """
    ratio = Fraction(M, 2 * prime_product_P(n, rho))
    return ratio, _sqrt_display(ratio)


def _sqrt_display(ratio: Fraction) -> str:
    """sqrt(ratio) rounded to four decimals, half-way cases to even."""
    num, den = ratio.numerator, ratio.denominator
    scaled = math.isqrt(num * 10**8 // den)  # floor(sqrt(ratio) * 10**4)
    # sign of sqrt(ratio) * 10**4 - (scaled + 1/2), squared out
    excess = 4 * num * 10**8 - (2 * scaled + 1) ** 2 * den
    if excess > 0 or (excess == 0 and scaled % 2):
        scaled += 1
    return f"{scaled // 10**4}.{scaled % 10**4:04d}"


def max_a(M: int, n: int) -> int:
    """Ceiling for candidate values: M over the product of the n-1 smallest
    primes, floored.

    Any n-1 pairwise-coprime values of a key multiply to at least that
    primorial, so no true A_k can exceed this quotient.
    """
    if n < 2:
        raise InvalidParams(f"need n >= 2, got {n}")
    return M // math.prod(nth_prime(x) for x in range(1, n))


def _ceiling(pub: PublicKey, filt: AttackFilter) -> int:
    """The candidate ceiling: the filter's override, else max_a."""
    if filt.max_a_override is not None:
        return filt.max_a_override
    return max_a(pub.M, pub.n)


def _scan_z(
    Z: int, M: int, two_p: int, filt: AttackFilter, ceiling: int
) -> list[tuple[int, int, int, int, int, int]]:
    """Filtered convergents of Z/M as (u, p, q, q_next, a_u, a_next).

    Only the head of the expansion up to the ceiling is computed (see
    cf_head): denominators never decrease, so once q_u > ceiling no later
    index can qualify.
    """
    quotients, ps, qs = cf_head(Z, M, ceiling)
    out = []
    # the final index is never a candidate, and cf_head ends either there
    # or at the first q_u above the ceiling
    for u in range(len(qs) - 1):
        q = qs[u]
        if q < filt.min_q:
            continue
        p = ps[u]
        if not bound_holds(Z, M, p, q, filt.legendre_k):
            continue
        q_next = qs[u + 1]
        if filt.use_jump and q_next * q_next * two_p <= q * q * M:
            continue
        out.append((u, p, q, q_next, quotients[u], quotients[u + 1]))
    return out


def scan_triple(
    pub: PublicKey, i: int, j: int, k: int, filt: AttackFilter, rho: int
) -> list[CandidateHit]:
    """All candidate hits for one (i, j, k) under the active filters.

    Every qualifying convergent is kept: a single triple routinely yields
    several candidate values.
    """
    Z = compute_z(pub, i, j, k)
    two_p = 2 * prime_product_P(pub.n, rho) if filt.use_jump else 0
    ceiling = _ceiling(pub, filt)
    return [
        CandidateHit(k, i, j, u, q, p, q_next, a_u, a_next)
        for (u, p, q, q_next, a_u, a_next) in _scan_z(
            Z, pub.M, two_p, filt, ceiling
        )
    ]


def run_attack(pub: PublicKey, filt: AttackFilter, rho: int) -> AttackReport:
    """Scan every ordered index triple of the key and aggregate the hits.

    All n**3 ordered triples are scanned, including those where a source
    index equals the target (the historical program did so too: its output
    tables list rows such as (1, 1, 1), whose Z degenerates to C_j).
    Output ordering is canonical, so reruns are byte-identical.
    """
    n = pub.n
    two_p = 2 * prime_product_P(n, rho)
    ceiling = _ceiling(pub, filt)
    ratio, display = delta_of(pub.M, n, rho)
    hits = []
    cache: dict[int, list] = {}
    for k in range(1, n + 1):
        inv_k = mod_inv(pub.C[k - 1], pub.M)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                Z = pub.C[i - 1] * pub.C[j - 1] % pub.M * inv_k % pub.M
                found = cache.get(Z)
                if found is None:
                    found = _scan_z(Z, pub.M, two_p, filt, ceiling)
                    cache[Z] = found
                hits.extend(
                    CandidateHit(k, i, j, u, q, p, q_next, a_u, a_next)
                    for (u, p, q, q_next, a_u, a_next) in found
                )
    hits.sort(key=lambda h: (h.k, h.i, h.j, h.u))
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h in hits:
        groups.setdefault((h.k, h.q_u), []).append((h.i, h.j))
    groups = {
        key: sorted(groups[key]) for key in sorted(groups)
    }
    return AttackReport(display, ratio, ceiling, groups, tuple(hits))


def factor_pairs(product: int, bound: int | None = None) -> list[tuple[int, int]]:
    """Unordered divisor pairs (a, b), a <= b, a*b == product, a >= 2.

    With bound set, both members must stay <= bound.
    """
    if product < 2:
        raise InvalidParams(f"need product >= 2, got {product}")
    pairs = []
    for a in range(2, math.isqrt(product) + 1):
        if product % a == 0:
            b = product // a
            if bound is None or (a <= bound and b <= bound):
                pairs.append((a, b))
    return pairs


def count_compatible(report: AttackReport, M: int, cap: int) -> int:
    """Count mutually consistent candidate selections in a report.

    Candidate groups are classed by how many (i, j) tuples produced them.
    Under the scaled lever set a true relation with target value f(k) can
    arise from at most n-5 ordered lever pairs, so classes run 1..n-5
    (groups with more tuples cannot all come from one true relation). A
    compatible combination picks exactly one group from each populated
    class, with pairwise-distinct target indices, pairwise-coprime values,
    and product below M, i.e. the picks could sit together in one key.
    Counting stops at cap. n is inferred from the largest index the hits
    mention.
    """
    if not report.hits:
        return 0
    n = max(max(h.i, h.j, h.k) for h in report.hits)
    classes: dict[int, list[tuple[int, int]]] = {}
    for (k, value), tuples in report.groups.items():
        m = len(tuples)
        if 1 <= m <= n - 5:
            classes.setdefault(m, []).append((k, value))
    if not classes:
        return 0
    ordered = [classes[m] for m in sorted(classes)]
    count = 0

    def extend(depth: int, chosen: list[tuple[int, int]], product: int):
        nonlocal count
        if count >= cap:
            return
        if depth == len(ordered):
            count += 1
            return
        for k, value in ordered[depth]:
            if product * value >= M:
                continue
            if any(k == k2 for k2, _ in chosen):
                continue
            if any(math.gcd(value, v2) != 1 for _, v2 in chosen):
                continue
            chosen.append((k, value))
            extend(depth + 1, chosen, product * value)
            chosen.pop()

    extend(0, [], 1)
    return min(count, cap)


def construct_pseudo_relation(
    pub: PublicKey,
    i: int,
    j: int,
    k: int,
    a_k_prime: int,
    w_prime: int,
    f_i_prime: int,
    rho: int,
):
    """An alternative key decomposition whose lever values do sum.

    Even when the true levers satisfy f(i) + f(j) != f(k), any generator
    w_prime and any small a_k_prime admit values (A'_i, A'_j, f'_i, f'_j,
    f'_k) with C_x = A'_x * w_prime**f'(x) mod M for x in {i, j, k} and
    f'(i) + f'(j) = f'(k) mod M-1. Needs a modulus small enough for a
    brute-force discrete log.
    """
    _check_indices(pub, i, j, k)
    M = pub.M
    if M > 10**7:
        raise InvalidParams(
            f"modulus {M} too large for the brute-force discrete log"
        )
    largest = primes_up_to(rho)[-1]
    if not 2 <= a_k_prime <= largest:
        raise InvalidParams(
            f"target value {a_k_prime} outside [2, {largest}]"
        )
    if mult_order(w_prime, M) != M - 1:
        raise NoGenerator(f"{w_prime} does not generate the group modulo {M}")
    group = M - 1
    f_k = dlog_bruteforce(
        w_prime, pub.C[k - 1] * mod_inv(a_k_prime, M) % M, M, group - 1
    )
    f_i = f_i_prime % group
    f_j = (f_k - f_i) % group
    a_i = pub.C[i - 1] * mod_inv(pow(w_prime, f_i, M), M) % M
    a_j = pub.C[j - 1] * mod_inv(pow(w_prime, f_j, M), M) % M
    return a_i, a_j, f_i, f_j, f_k


# ---------------------------------------------------------------------------
# Report rendering: a JSON schema with all integers as decimal strings, and
# the two-column "A_k | Tuples (i, j, k)" text layout of the source tables.


def report_to_json(report: AttackReport) -> str:
    obj = {
        "delta_display": report.delta_display,
        "delta_ratio": {
            "num": str(report.delta_ratio.numerator),
            "den": str(report.delta_ratio.denominator),
        },
        "max_a": str(report.max_a),
        "groups": [
            {
                "k": str(k),
                "value": str(value),
                "tuples": [[str(i), str(j)] for (i, j) in tuples],
            }
            for (k, value), tuples in report.groups.items()
        ],
        "hits": [
            {
                "i": str(h.i),
                "j": str(h.j),
                "k": str(h.k),
                "u": str(h.u),
                "p": str(h.p_u),
                "q": str(h.q_u),
                "q_next": str(h.q_next),
                "a_u": str(h.a_u),
                "a_next": str(h.a_next),
            }
            for h in report.hits
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def report_to_table(report: AttackReport) -> str:
    """Two-column text layout; tuples are listed (j, i)-major, the order
    the historical program emitted them in."""
    lines = [
        f"Delta = {report.delta_display}  (Delta^2 = {report.delta_ratio})",
        f"max A = {report.max_a}",
        "A_k | Tuples (i, j, k)",
    ]
    for (k, value), tuples in report.groups.items():
        ordered = sorted(tuples, key=lambda t: (t[1], t[0]))
        listed = ", ".join(f"({i}, {j}, {k})" for (i, j) in ordered)
        lines.append(f"A_{k} = {value} | {listed}")
    return "\n".join(lines) + "\n"
