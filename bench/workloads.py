"""The benchmark's workloads: seeded inputs, the argv of each op, and the
check each op's output must pass.

A workload's set-up turns the workload seed into a pool of POOL ops. The
scan workloads write one key pair per op through `reesselab keygen`; the
study workload draws one study seed per op. The timed loop cycles through
the pool, so a faster program attacks the same keys again instead of
different ones.

Every modulus stays below 2**122. Above about 2**260 every `attack` op
fails in `attack.delta_of` (decimal.InvalidOperation), so no latency could
be measured there; that workload waits for the fix.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

POOL = 64
LISTED_TRIPLES = 32  # report-listed triples re-derived per scan op
MIN_Q = 2  # lower end of the candidate window of the CLI's filters
LEGENDRE_K = 2  # the plain approximation bound |Z/M - p/q| < 1/(2 q^2)
STUDY_TRIALS = 100


class CheckFailed(Exception):
    """An op's output disagrees with the oracle."""


@dataclass(frozen=True)
class Op:
    argv: list[str]
    out: Path
    slot: int  # index in the pool; golden digests are keyed by it
    triples: int  # index triples the op scans
    trials: int  # keys attacked: one per attack op, one per study trial


def _primes_up_to(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _first_primes(count: int) -> list[int]:
    limit = 8
    while len(primes := _primes_up_to(limit)) < count:
        limit *= 2
    return primes[:count]


def _sqrt_display(ratio: Fraction) -> str:
    """sqrt(ratio) rounded to four decimals, exactly."""
    scaled = math.isqrt(ratio.numerator * 10**8 // ratio.denominator)
    if 4 * ratio.numerator * 10**8 >= (2 * scaled + 1) ** 2 * ratio.denominator:
        scaled += 1
    return f"{scaled // 10**4}.{scaled % 10**4:04d}"


def _read_public_key(path: Path) -> tuple[int, int, int, list[int]]:
    obj = json.loads(path.read_text())
    return int(obj["n"]), int(obj["M"]), int(obj["rho"]), [int(c) for c in obj["C"]]


def expected_hits(contfrac, C, M, triple, ceiling, two_p, use_jump):
    """The paper's rules applied to one triple, from the full expansion.

    A convergent p_u/q_u of Z/M at a non-final index u is a candidate when
    min_q <= q_u <= ceiling and |Z/M - p_u/q_u| < 1/(2 q_u^2); the jump
    rule further demands q_{u+1}^2 * 2P > q_u^2 * M. Each hit is
    (u, p_u, q_u, q_{u+1}, a_u, a_{u+1}).
    """
    i, j, k = triple
    Z = C[i - 1] * C[j - 1] * pow(C[k - 1], -1, M) % M
    cf = contfrac.cf_expand(Z, M)
    conv = cf.convergents
    hits = []
    for u in range(len(conv) - 1):
        p, q = conv[u].p, conv[u].q
        if not MIN_Q <= q <= ceiling:
            continue
        if not contfrac.bound_holds(Z, M, p, q, LEGENDRE_K):
            continue
        q_next = conv[u + 1].q
        if use_jump and q_next * q_next * two_p <= q * q * M:
            continue
        hits.append((u, p, q, q_next, cf.quotients[u], cf.quotients[u + 1]))
    return hits


@dataclass(frozen=True)
class ScanWorkload:
    """`reesselab attack` over a pool of freshly generated keys."""

    name: str
    n: int
    rho: int
    filt: str  # --filter
    fmt: str  # --format

    def setup(self, cli, seed: int, work: Path) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for slot in range(POOL):
            key = work / f"key{slot}.json"
            argv = [
                "keygen", "--n", str(self.n), "--rho", str(self.rho),
                "--omega", "scaled:1", "--seed", str(rng.getrandbits(32)),
                "--out", str(key),
            ]
            if cli.main(argv) != 0:
                raise RuntimeError(f"keygen failed: {' '.join(argv)}")
            out = work / f"attack{slot}.{self.fmt}"
            argv = [
                "attack", "--pub", str(work / f"key{slot}.pub.json"),
                "--filter", self.filt, "--format", self.fmt, "--out", str(out),
            ]
            ops.append(Op(argv, out, slot, self.n**3, 1))
        return ops

    def check(self, contfrac, op: Op, rng: random.Random) -> None:
        n, M, rho, C = _read_public_key(Path(op.argv[op.argv.index("--pub") + 1]))
        ceiling = M // math.prod(_first_primes(n - 1))
        two_p = 2 * math.prod(_primes_up_to(rho)[n - 3 :])
        ratio = Fraction(M, two_p)
        text = op.out.read_text()
        if self.fmt == "json":
            reported = self._parse_json(text, ceiling, ratio)
        else:
            reported = self._parse_table(text, ceiling, ratio)
        # Every triple of one seeded target k, which catches dropped hits,
        # plus a seeded sample of the triples the report lists.
        k = rng.randrange(1, n + 1)
        listed = sorted(reported)
        sample = rng.sample(listed, min(len(listed), LISTED_TRIPLES))
        sample += [(i, j, k) for i in range(1, n + 1) for j in range(1, n + 1)]
        for triple in sample:
            want = expected_hits(
                contfrac, C, M, triple, ceiling, two_p, self.filt == "jump"
            )
            if self.fmt == "table":
                want = sorted({h[2] for h in want})
            got = reported.get(triple, [])
            if got != want:
                raise CheckFailed(f"triple {triple}: report {got}, oracle {want}")

    @staticmethod
    def _header_check(display, ratio_text, max_a, ceiling, ratio) -> None:
        if (display, ratio_text, max_a) != (_sqrt_display(ratio), str(ratio), ceiling):
            raise CheckFailed(
                f"header Delta={display} Delta^2={ratio_text} max A={max_a};"
                f" expected {_sqrt_display(ratio)}, {ratio}, {ceiling}"
            )

    def _parse_table(self, text: str, ceiling: int, ratio: Fraction) -> dict:
        """triple -> sorted candidate values, from the two-column layout."""
        lines = text.splitlines()
        head = re.fullmatch(r"Delta = (\S+)  \(Delta\^2 = (\S+)\)", lines[0])
        max_line = re.fullmatch(r"max A = (\d+)", lines[1])
        if not head or not max_line or lines[2] != "A_k | Tuples (i, j, k)":
            raise CheckFailed("table header malformed")
        self._header_check(head[1], head[2], int(max_line[1]), ceiling, ratio)
        reported: dict[tuple, list[int]] = {}
        for line in lines[3:]:
            row = re.fullmatch(r"A_(\d+) = (\d+) \| (.*)", line)
            if not row:
                raise CheckFailed(f"table row malformed: {line[:80]}")
            for i, j, k in re.findall(r"\((\d+), (\d+), (\d+)\)", row[3]):
                if k != row[1]:
                    raise CheckFailed(f"tuple target {k} in row A_{row[1]}")
                reported.setdefault((int(i), int(j), int(k)), []).append(int(row[2]))
        return {t: sorted(values) for t, values in reported.items()}

    def _parse_json(self, text: str, ceiling: int, ratio: Fraction) -> dict:
        """triple -> hits in report order, after checking groups against hits."""
        obj = json.loads(text)
        self._header_check(
            obj["delta_display"],
            f"{obj['delta_ratio']['num']}/{obj['delta_ratio']['den']}",
            int(obj["max_a"]), ceiling, ratio,
        )
        reported: dict[tuple, list[tuple]] = {}
        keys = set()
        for h in obj["hits"]:
            triple = (int(h["i"]), int(h["j"]), int(h["k"]))
            hit = tuple(int(h[f]) for f in ("u", "p", "q", "q_next", "a_u", "a_next"))
            reported.setdefault(triple, []).append(hit)
            keys.add((triple[2], hit[2]))
        groups = {(int(g["k"]), int(g["value"])) for g in obj["groups"]}
        tuples = sum(len(g["tuples"]) for g in obj["groups"])
        if groups != keys or tuples != len(obj["hits"]):
            raise CheckFailed("groups disagree with hits")
        return reported


class StudyWorkload:
    """`reesselab study fp` and `study completeness`, alternating."""

    name = "study"
    n, rho = 24, 97

    def setup(self, cli, seed: int, work: Path) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for slot in range(POOL):
            kind = ("fp", "completeness")[slot % 2]
            out = work / f"study{slot}.json"
            argv = [
                "study", kind, "--n", str(self.n), "--rho", str(self.rho),
                "--omega", "scaled:1", "--trials", str(STUDY_TRIALS),
                "--seed", str(rng.getrandbits(32)), "--format", "json",
                "--out", str(out),
            ]
            triples = STUDY_TRIALS * (1 if kind == "fp" else 2)
            ops.append(Op(argv, out, slot, triples, STUDY_TRIALS))
        return ops

    def check(self, contfrac, op: Op, rng: random.Random) -> None:
        text = op.out.read_text()
        decoder = json.JSONDecoder()
        results, pos = [], 0
        while pos < len(text):
            obj, end = decoder.raw_decode(text, pos)
            results.append(obj)
            pos = end + 1  # each result ends in one newline
        seed = op.argv[op.argv.index("--seed") + 1]
        rho_bar = _primes_up_to(self.rho)[-1]
        bound = 1 - Fraction(3, rho_bar + 2)
        for r in results:
            log = r["per_trial_log"]
            if (r["trials"], r["seed"], len(log)) != (str(STUDY_TRIALS), seed, STUDY_TRIALS):
                raise CheckFailed("trial count or seed differs from the argv")
            if _fraction(r["reference_bound"]) != bound:
                raise CheckFailed(f"reference bound {r['reference_bound']}")
        if op.argv[1] == "fp":
            (fp,) = results
            if any(e["hit"] != bool(e["candidates"]) for e in fp["per_trial_log"]):
                raise CheckFailed("fp trial hit flag disagrees with its candidates")
            _rate_check(fp, "hit")
            return
        plain, jump = results
        if _fraction(plain["hit_rate"]) != 1:
            raise CheckFailed(f"plain completeness rate {plain['hit_rate']}, not 1")
        for e in plain["per_trial_log"]:
            if not (e["oracle_exact"] and e["plain_hit"]):
                raise CheckFailed(f"trial {e['trial']}: oracle inexact or plain miss")
        _rate_check(jump, "jump_hit")


def _fraction(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _rate_check(result, flag: str) -> None:
    log = result["per_trial_log"]
    if _fraction(result["hit_rate"]) != Fraction(sum(e[flag] for e in log), len(log)):
        raise CheckFailed(f"hit rate {result['hit_rate']} disagrees with the trial log")


WORKLOADS = {
    w.name: w
    for w in (
        ScanWorkload("scan-jump", 24, 97, "jump", "table"),
        ScanWorkload("scan-legendre-json", 16, 61, "legendre", "json"),
        StudyWorkload(),
    )
}
