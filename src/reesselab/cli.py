"""Command-line front end.

Verbs: keygen, attack, reproduce, omega-gen, omega-check, study. Data goes
to --out (written atomically) or stdout; diagnostics go to stderr. Exit
codes: 0 success, 1 domain failure (a failed reproduction or a lever set
with violations), 2 usage or I/O errors. Every run is reproducible from
its command line alone: keygen and study require an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

from . import attack, keys, studies
from .keys import OmegaFamily, SumMode, Variant
from .reproduce import (
    EXAMPLE_IDS,
    reproduce as run_reproduction,
    result_to_json,
    result_to_table,
)


class UsageError(ValueError):
    """Bad command line; maps to exit code 2."""


@dataclass
class Command:
    verb: str
    options: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "table"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _omega_spec(text: str) -> tuple[OmegaFamily, int | None]:
    """Parse FAMILY[:DELTA], e.g. scaled:1, shifted:6, odd."""
    name, _, delta = text.partition(":")
    table = {
        "scaled": OmegaFamily.SCALED,
        "shifted": OmegaFamily.SHIFTED,
        "odd": OmegaFamily.ODD_SUMFREE,
    }
    if name not in table:
        raise UsageError(f"unknown lever family {name!r}")
    if delta:
        try:
            return table[name], int(delta)
        except ValueError:
            raise UsageError(f"bad delta in omega spec {text!r}") from None
    return table[name], None


def _build_parser() -> _Parser:
    parser = _Parser(prog="reesselab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--omega", required=True, help="FAMILY[:DELTA]")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", choices=["v1", "v21"], default="v1")
    p.add_argument("--delta", type=int, help="V21 exponent (drawn if omitted)")
    p.add_argument("--m", type=int, help="explicit modulus (default: auto)")
    p.add_argument("--out", required=True, help="private key file")
    p.add_argument("--pub-out", help="public key file (default: OUT.pub.json)")

    p = sub.add_parser("attack", help="scan a public key")
    p.add_argument("--pub", required=True)
    p.add_argument(
        "--filter", choices=["legendre", "jump", "strict"], default="jump"
    )
    p.add_argument("--max-a", type=int, help="override the candidate ceiling")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--out")

    p = sub.add_parser("reproduce", help="replay bundled reference cases")
    p.add_argument(
        "--example",
        required=True,
        choices=list(EXAMPLE_IDS) + ["all"],
    )
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--out")

    p = sub.add_parser("omega-gen", help="construct a lever set")
    p.add_argument("--family", required=True, help="scaled|shifted|odd")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("omega-check", help="validate a lever set")
    p.add_argument("--in", dest="infile", help="lever set JSON file")
    p.add_argument("--family", help="scaled|shifted|odd (instead of --in)")
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument(
        "--mode", choices=["distinct", "repetition"], default="distinct"
    )
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--out")

    p = sub.add_parser("study", help="seeded Monte-Carlo studies")
    p.add_argument("kind", choices=["fp", "completeness"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--omega", default="scaled:1", help="FAMILY[:DELTA]")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--out")
    return parser


def parse_args(argv) -> Command:
    """Turn argv into a validated Command; raises UsageError."""
    ns = _build_parser().parse_args(argv)
    options = vars(ns).copy()
    verb = options.pop("verb")
    out = options.pop("out", None)
    fmt = options.pop("format", "table")
    if options.get("omega"):
        _omega_spec(options["omega"])
    if options.get("family"):
        _omega_spec(options["family"])
    return Command(verb, options, out, fmt)


def _write_output(text: str, out: str | None) -> None:
    """Write data to --out atomically (temp file + rename) or to stdout."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-reesselab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _execute_keygen(cmd: Command) -> int:
    o = cmd.options
    family, delta = _omega_spec(o["omega"])
    omega = keys.build_omega(family, o["n"], delta)
    params = keys.SystemParams(
        n=o["n"],
        rho=o["rho"],
        omega=omega,
        variant=Variant.V21 if o["variant"] == "v21" else Variant.V1,
        delta=o.get("delta"),
    )
    priv, pub = keys.keygen(params, o.get("m"), o["seed"])
    _write_output(keys.private_to_json(priv), cmd.out)
    pub_path = o.get("pub_out") or _default_pub_path(cmd.out)
    _write_output(keys.public_to_json(pub), pub_path)
    print(f"private key: {cmd.out}", file=sys.stderr)
    print(f"public key: {pub_path}", file=sys.stderr)
    return 0


def _default_pub_path(priv_path: str) -> str:
    root, ext = os.path.splitext(priv_path)
    return f"{root}.pub{ext or '.json'}"


def _execute_attack(cmd: Command) -> int:
    o = cmd.options
    with open(o["pub"]) as handle:
        pub = keys.public_from_json(handle.read())
    if o["filter"] == "legendre":
        filt = attack.LEGENDRE_ONLY
    elif o["filter"] == "jump":
        filt = attack.FULL_FILTER
    else:
        filt = attack.strict_filter(pub.n)
    if o.get("max_a") is not None:
        filt = attack.AttackFilter(
            filt.legendre_k, filt.use_jump, o["max_a"], filt.min_q
        )
    report = attack.run_attack(pub, filt, pub.rho)
    if cmd.fmt == "json":
        _write_output(attack.report_to_json(report), cmd.out)
    else:
        _write_output(attack.report_to_table(report), cmd.out)
    return 0


def _execute_reproduce(cmd: Command) -> int:
    ids = (
        list(EXAMPLE_IDS)
        if cmd.options["example"] == "all"
        else [cmd.options["example"]]
    )
    results = [run_reproduction(i) for i in ids]
    if cmd.fmt == "json":
        payload = "".join(result_to_json(r) for r in results)
    else:
        payload = "".join(result_to_table(r) for r in results)
    _write_output(payload, cmd.out)
    return 0 if all(r.overall for r in results) else 1


def _omega_from_options(o) -> keys.OmegaSet:
    if o.get("infile"):
        with open(o["infile"]) as handle:
            obj = json.load(handle)
        return keys.OmegaSet(
            OmegaFamily(obj["family"]),
            int(obj["n"]),
            None if obj.get("delta") is None else int(obj["delta"]),
            tuple(int(e) for e in obj["elements"]),
        )
    if not o.get("family") or o.get("n") is None:
        raise UsageError("omega-check needs --in or --family with --n")
    family, spec_delta = _omega_spec(o["family"])
    delta = o.get("delta") if o.get("delta") is not None else spec_delta
    return keys.build_omega(family, o["n"], delta)


def _omega_json(omega: keys.OmegaSet) -> str:
    obj = {
        "family": omega.family.value,
        "n": str(omega.n),
        "delta": None if omega.delta is None else str(omega.delta),
        "elements": [str(e) for e in omega.elements],
    }
    return json.dumps(obj, indent=2) + "\n"


def _execute_omega_gen(cmd: Command) -> int:
    o = cmd.options
    family, spec_delta = _omega_spec(o["family"])
    delta = o.get("delta") if o.get("delta") is not None else spec_delta
    omega = keys.build_omega(family, o["n"], delta)
    if cmd.fmt == "table":
        _write_output(" ".join(str(e) for e in omega.elements) + "\n", cmd.out)
    else:
        _write_output(_omega_json(omega), cmd.out)
    return 0


def _execute_omega_check(cmd: Command) -> int:
    o = cmd.options
    omega = _omega_from_options(o)
    mode = SumMode.DISTINCT if o["mode"] == "distinct" else SumMode.REPETITION
    report = keys.validate_omega(omega, mode)
    if cmd.fmt == "json":
        obj = {
            "mode": report.mode.value,
            "ok": report.ok,
            "pair_violations": [
                [str(x) for x in v] for v in report.pair_violations
            ],
            "triple_violations": [
                [str(x) for x in v] for v in report.triple_violations
            ],
        }
        _write_output(json.dumps(obj, indent=2) + "\n", cmd.out)
    else:
        lines = [f"mode = {report.mode.value}"]
        lines += [
            f"pair violation: {e1} + {e2} = {e3}"
            for (e1, e2, e3) in report.pair_violations
        ]
        lines += [
            f"triple violation: {e1} + {e2} + {e3} = {e4}"
            for (e1, e2, e3, e4) in report.triple_violations
        ]
        lines.append("ok" if report.ok else "violations found")
        _write_output("\n".join(lines) + "\n", cmd.out)
    return 0 if report.ok else 1


def _execute_study(cmd: Command) -> int:
    o = cmd.options
    family, delta = _omega_spec(o["omega"])
    if o["kind"] == "fp":
        result = studies.study_false_positive(
            o["n"], o["rho"], family, o["trials"], o["seed"], delta
        )
        payload = (
            studies.study_to_json(result)
            if cmd.fmt == "json"
            else studies.study_to_table(result)
        )
    else:
        plain, jump = studies.study_completeness(
            o["n"], o["rho"], family, o["trials"], o["seed"], delta
        )
        if cmd.fmt == "json":
            payload = studies.study_to_json(plain) + studies.study_to_json(jump)
        else:
            payload = (
                "plain bound:\n"
                + studies.study_to_table(plain)
                + "jump filter:\n"
                + studies.study_to_table(jump)
            )
    _write_output(payload, cmd.out)
    return 0


_EXECUTORS = {
    "keygen": _execute_keygen,
    "attack": _execute_attack,
    "reproduce": _execute_reproduce,
    "omega-gen": _execute_omega_gen,
    "omega-check": _execute_omega_check,
    "study": _execute_study,
}


def execute(cmd: Command) -> int:
    """Dispatch a parsed command; returns the process exit code."""
    try:
        return _EXECUTORS[cmd.verb](cmd)
    except (
        UsageError, OSError, json.JSONDecodeError, keys.MalformedKey
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        cmd = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return execute(cmd)


if __name__ == "__main__":
    sys.exit(main())
