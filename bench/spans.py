"""Spans around the calls into each reesselab module, kept in memory.

Tracer.install() wraps each function in TRACED and rebinds the wrapper
under every name any loaded reesselab module holds the function by, so
`from .numtheory import next_prime_above` in keys and studies is timed as
well as the module's own global that `next_prime_above` calls `is_prime`
through. A span is recorded only while `tracer.op` is set: 0 during the
traced set-up, 1, 2, ... for the timed ops. Each span has a name, start,
end, parent span and op id; self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from array import array

from workloads import MIN_Q

TRACED = (
    "cli.main",
    "keys.keygen",
    "keys.public_from_json",
    "keys.coprime_sequence",
    "keys.transform",
    "numtheory.next_prime_above",
    "numtheory.is_prime",
    "numtheory.primes_up_to",
    "contfrac.cf_expand",
    "attack.run_attack",
    "attack.scan_triple",
    "attack.max_a",
    "attack.prime_product_P",
    "attack.report_to_json",
    "attack.report_to_table",
    "studies.study_false_positive",
    "studies.study_completeness",
)
MODULES = ("cli", "keys", "numtheory", "contfrac", "attack", "studies")
SETUP = 0

# Totals over the timed ops, divided by the number of ops.
OP_TIMES = (
    "contfrac.cf_expand.s",
    "attack.run_attack.s",
    "attack.run_attack.self_s",
    "attack.report_to_json.s",
    "attack.report_to_table.s",
    "attack.scan_triple.s",
    "attack.scan_triple.self_s",
    "numtheory.next_prime_above.s",
    "numtheory.primes_up_to.s",
    "keys.public_from_json.s",
    "keys.coprime_sequence.s",
    "keys.transform.s",
    "studies.study_false_positive.self_s",
    "studies.study_completeness.self_s",
    "cli.main.self_s",
)
OP_CALLS = (
    "contfrac.cf_expand.calls",
    "attack.scan_triple.calls",
    "attack.max_a.calls",
    "attack.prime_product_P.calls",
    "numtheory.next_prime_above.calls",
    "numtheory.is_prime.calls",
    "numtheory.primes_up_to.calls",
)
OP_COUNTS = (
    "contfrac.convergents_built",
    "attack.triples",
    "attack.hits",
    "attack.groups",
    "attack.report_to_json.bytes",
)
# The one traced set-up: key generation for the scan workloads.
SETUP_METRICS = (
    "keys.keygen.s",
    "keys.coprime_sequence.s",
    "keys.transform.s",
    "numtheory.next_prime_above.s",
    "numtheory.is_prime.calls",
    "cli.main.self_s",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {m: "s/op" for m in OP_TIMES}
    units.update({m: "1/op" for m in OP_CALLS + OP_COUNTS})
    units["attack.report_to_json.bytes"] = "B/op"
    units["contfrac.window_ratio"] = "ratio"
    units["attack.z_cache_hit_ratio"] = "ratio"
    units["trace.op_p50_s"] = "s"
    units["trace.op_mean_s"] = "s"
    units["trace.ops"] = "count"
    units.update(
        {f"setup.{m}": "count" if m.endswith(".calls") else "s" for m in SETUP_METRICS}
    )
    return units


class Tracer:
    """Spans as parallel columns (one row per span) and counters keyed by
    (in set-up, name). `bindings` counts the names each traced function was
    rebound under; 0 means its span would silently read 0."""

    def __init__(self):
        self.op = None
        self.name_ix = array("l")
        self.parent = array("l")
        self.op_ix = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[tuple[bool, str], int] = {}
        self.bindings: dict[str, int] = {}
        self._stack = [-1]
        self._ceiling: dict[int, int] = {}  # modulus -> attack.max_a result
        self._restore = []

    def install(self) -> None:
        after = {
            "attack.max_a": self._after_max_a,
            "contfrac.cf_expand": self._after_cf_expand,
            "attack.run_attack": self._after_run_attack,
            "attack.report_to_json": self._after_report_to_json,
        }
        wrappers = {}
        for ix, name in enumerate(TRACED):
            module, func = name.split(".")
            fn = getattr(sys.modules[f"reesselab.{module}"], func, None)
            if fn is None:
                print(f"trace: {name} not found; its span reads 0", file=sys.stderr)
                continue
            wrappers[id(fn)] = fn, self._wrap(ix, fn, after.get(name))
            self.bindings[name] = 0
        for modname, module in list(sys.modules.items()):
            if modname != "reesselab" and not modname.startswith("reesselab."):
                continue
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    self.bindings[TRACED[wrapper.span_ix]] += 1

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, ix: int, fn, after):
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name_ix.append(ix)
            self.parent.append(stack[-1])
            self.op_ix.append(op)
            self.start.append(0)
            self.end.append(0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[span] = t0
                self.end[span] = t1
            if after is not None:
                after(op, args, result)
            return result

        traced.span_ix = ix
        return traced

    def _count(self, op, name: str, value: int) -> None:
        key = (op == SETUP, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def _after_max_a(self, op, args, ceiling):
        self._ceiling[args[0]] = ceiling

    def _after_cf_expand(self, op, args, cf):
        ceiling = self._ceiling.get(args[1], 0)
        window = 0
        for c in cf.convergents:  # q_u never decreases
            if c.q > ceiling:
                break
            window += c.q >= MIN_Q
        self._count(op, "contfrac.convergents_built", len(cf.convergents))
        self._count(op, "contfrac.window", window)

    def _after_run_attack(self, op, args, report):
        self._count(op, "attack.triples", args[0].n ** 3)
        self._count(op, "attack.hits", len(report.hits))
        self._count(op, "attack.groups", len(report.groups))

    def _after_report_to_json(self, op, args, text):
        self._count(op, "attack.report_to_json.bytes", len(text))

    def metrics(self, op_seconds: list[float]) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics of the timed ops and of the set-up, and each
        module's share of the ops' wall time (its spans' self time)."""
        names = TRACED
        total, own, calls = {}, {}, {}
        child = [0] * len(self.end)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[span] - self.start[span]
        cf_ix, attack_ix = names.index("contfrac.cf_expand"), names.index("attack.run_attack")
        scans_in_attack = 0
        for span, ix in enumerate(self.name_ix):
            key = (self.op_ix[span] == SETUP, names[ix])
            duration = (self.end[span] - self.start[span]) / 1e9
            total[key] = total.get(key, 0.0) + duration
            own[key] = own.get(key, 0.0) + duration - child[span] / 1e9
            calls[key] = calls.get(key, 0) + 1
            parent = self.parent[span]
            if ix == cf_ix and parent >= 0 and self.name_ix[parent] == attack_ix:
                scans_in_attack += not key[0]

        def value(setup: bool, metric: str) -> float:
            stem, _, field = metric.rpartition(".")
            if field == "s":
                return total.get((setup, stem), 0.0)
            if field == "self_s":
                return own.get((setup, stem), 0.0)
            if field == "calls":
                return calls.get((setup, stem), 0)
            return self.counts.get((setup, metric), 0)

        ops = len(op_seconds)
        out = {m: value(False, m) / ops for m in OP_TIMES + OP_CALLS + OP_COUNTS}
        built = value(False, "contfrac.convergents_built")
        out["contfrac.window_ratio"] = value(False, "contfrac.window") / built if built else 0.0
        triples = value(False, "attack.triples")
        out["attack.z_cache_hit_ratio"] = 1 - scans_in_attack / triples if triples else 0.0
        op_time = value(False, "cli.main.s")
        shares = {
            module: sum(
                t for (setup, name), t in own.items()
                if not setup and name.startswith(module + ".")
            ) / op_time
            for module in MODULES
        }
        out["trace.op_p50_s"] = statistics.median(op_seconds)
        out["trace.op_mean_s"] = op_time / ops
        out["trace.ops"] = ops
        out.update({f"setup.{m}": value(True, m) for m in SETUP_METRICS})
        return out, shares

    def write(self, path, header: dict) -> None:
        """Write every span, column by column, as gzipped JSON."""
        obj = dict(
            header,
            names=list(TRACED),
            bindings=self.bindings,
            columns=["name", "start_ns", "end_ns", "parent", "op"],
            name=self.name_ix.tolist(),
            start_ns=self.start.tolist(),
            end_ns=self.end.tolist(),
            parent=self.parent.tolist(),
            op=self.op_ix.tolist(),
            counts={f"{'setup' if s else 'ops'}.{k}": v for (s, k), v in self.counts.items()},
        )
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(obj, handle)
