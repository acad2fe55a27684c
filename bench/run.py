"""Benchmark of the reesselab command line.

    python3 bench/run.py --workload scan-jump --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all        # each workload in its own process
    python3 bench/run.py --write-golden        # re-capture bench/golden.json

One client in a closed loop: each op is one in-process call of
`reesselab.cli.main(argv)` on inputs the set-up generated from --seed, and
the next op starts when the previous one has returned. Ops run until their
summed wall time reaches --seconds. Every op's output is checked against
an oracle outside the timed region; at the default seed its digest is also
compared with bench/golden.json. With --trace 1 a separate run records
spans around the calls into each module and reports per-layer metrics
instead of the end-to-end ones. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, metric_units
from workloads import POOL, WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1
SETUPS = 5  # set-ups per run; setup_s is their median
# op_tail_s is the p70 op: a run makes at least MIN_OPS ops, so at least
# 10 samples lie beyond it. It stays p70 when a faster program runs more
# ops, so two commits compare the same percentile.
TAIL_PERCENTILE = 70
MIN_OPS = 34
HARD_STOP_S = 150.0  # keeps a run of a much slower program under 180 s
# The host's speed switches between regimes up to 2x apart that last
# seconds (CPU time equals wall time, so this is not descheduling). A
# fixed pure-Python computation, timed right before and right after each
# set-up and each op, measures the speed the op ran at: each time is
# scaled by REFERENCE_CALIBRATION_S over the mean of its two calibrations,
# giving seconds on a host that runs the calibration in
# REFERENCE_CALIBRATION_S. The unscaled values are printed as "raw" lines.
REFERENCE_CALIBRATION_S = 0.030
_calib_rng = random.Random(0)
CALIBRATION_PAIRS = [(_calib_rng.getrandbits(120), _calib_rng.getrandbits(120)) for _ in range(200)]
CALIBRATION_MODULI = [_calib_rng.getrandbits(120) | 1 for _ in range(40)]

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "triples_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def environment(workload: str, seed: int) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": cpus,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_cli():
    """Import reesselab afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "reesselab" or m.startswith("reesselab.")]:
        del sys.modules[name]
    cli = importlib.import_module("reesselab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"reesselab imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload, seed: int, work: Path, tracer: Tracer | None):
    """Import the package and generate the workload's inputs; returns
    (cli module, ops, seconds taken)."""
    t0 = time.perf_counter()
    cli = import_cli()
    if tracer is not None:
        tracer.install()
        tracer.op = 0
    with contextlib.redirect_stderr(io.StringIO()):
        ops = workload.setup(cli, seed, work)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    return cli, ops, elapsed


def calibrate() -> float:
    """Wall time of a fixed mix of the program's kinds of work: continued
    fractions of 120-bit ratios, modular powers and JSON rendering. The
    collector is off, so the program's heap does not change its cost."""
    gc.disable()
    t0 = time.perf_counter()
    rows = []
    for z, m in CALIBRATION_PAIRS:
        p0, p1, q0, q1 = 0, 1, 1, 0
        while m:
            a, r = divmod(z, m)
            p0, p1 = p1, a * p1 + p0
            q0, q1 = q1, a * q1 + q0
            z, m = m, r
            rows.append({"a": a, "p": str(p1), "q": str(q1)})
    for m in CALIBRATION_MODULI:
        rows.append({"w": pow(3, m - 1, m)})
    json.dumps(rows, sort_keys=True)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def on_reference_host(elapsed: float, before: float, after: float) -> float:
    return elapsed * REFERENCE_CALIBRATION_S * 2 / (before + after)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(cli, op) -> str | None:
    """Run one op; returns a failure message or None."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception:
        return traceback.format_exc()
    if code != 0:
        return f"exit {code}: {err.getvalue().strip()}"
    return None


def check(workload, contfrac, op, seed: int, index: int, golden: dict) -> str | None:
    rng = random.Random(f"{seed}:{index}")
    try:
        workload.check(contfrac, op, rng)
    except CheckFailed as exc:
        return f"output check: {exc}"
    except Exception:
        return f"output check raised:\n{traceback.format_exc()}"
    want = golden.get(str(op.slot))
    if want is not None and digest(op.out) != want:
        return f"output digest of slot {op.slot} differs from bench/golden.json"
    return None


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    work.mkdir()
    tracer = Tracer() if trace else None
    try:
        setups, setups_ref = [], []
        for _ in range(1 if trace else SETUPS):
            before = calibrate()
            cli, ops, elapsed = set_up(workload, seed, work, tracer)
            setups.append(elapsed)
            setups_ref.append(on_reference_host(elapsed, before, calibrate()))
        contfrac = sys.modules["reesselab.contfrac"]
        golden = {}
        if seed == DEFAULT_SEED and GOLDEN.is_file():
            golden = json.loads(GOLDEN.read_text()).get(workload.name, {})
        samples, samples_ref, failed, busy, triples, trials = [], [], 0, 0.0, 0, 0
        started = time.perf_counter()
        while (busy < seconds or len(samples) < MIN_OPS) and (
            time.perf_counter() - started < HARD_STOP_S
        ):
            op = ops[len(samples) % len(ops)]
            gc.collect()  # each op starts from the same collector state
            before = calibrate()
            if tracer is not None:
                tracer.op = len(samples) + 1
            t0 = time.perf_counter()
            problem = run_op(cli, op)
            samples.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = None
            samples_ref.append(on_reference_host(samples[-1], before, calibrate()))
            busy += samples[-1]
            if problem is None:
                problem = check(workload, contfrac, op, seed, len(samples), golden)
            if problem is not None:
                failed += 1
                if failed <= 3:
                    print(f"op {len(samples)} ({' '.join(op.argv[:2])}) failed: {problem}",
                          file=sys.stderr)
            else:
                triples += op.triples
                trials += op.trials
        print(f"ops: {len(samples)} attempted, {failed} failed,"
              f" fail_rate {failed / len(samples):.4f} ratio; op_p50_s over"
              f" {len(samples)} samples; op_tail_s is p{TAIL_PERCENTILE}, with"
              f" {len(samples) - math.ceil(len(samples) * TAIL_PERCENTILE / 100)}"
              " samples beyond it")
        if tracer is not None:
            tracer.uninstall()
            metrics, shares = tracer.metrics(samples)
            units = metric_units()
            print("self-time share of op wall time: "
                  + ", ".join(f"{m} {share:.3f}" for m, share in shares.items()))
            print(f"trace: bindings wrapped {tracer.bindings}")
            tracer.write(
                OUT / f"trace-{workload.name}.json.gz",
                dict(environment(workload.name, seed), seconds=seconds, op_seconds=samples),
            )
        else:
            for name, value in end_to_end(setups, samples, triples, trials).items():
                print(f"raw {name} {value:.6g} {END_TO_END[name]}")
            metrics = end_to_end(setups_ref, samples_ref, triples, trials)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = rss / (2**20 if sys.platform == "darwin" else 1024)
            units = END_TO_END
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        return result, len(samples), failed
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(setups, samples, triples, trials) -> dict[str, float]:
    ordered = sorted(samples)
    rank = math.ceil(len(ordered) * TAIL_PERCENTILE / 100)  # nearest rank
    busy = sum(samples)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(ordered),
        "op_tail_s": ordered[rank - 1],
        "triples_per_s": triples / busy,
        "trials_per_s": trials / busy,
    }


def write_golden() -> int:
    """Run every pool slot once at the default seed and store the digests
    of the outputs that pass their check."""
    OUT.mkdir(exist_ok=True)
    golden = {}
    for workload in WORKLOADS.values():
        work = OUT / f"golden-{workload.name}-{os.getpid()}"
        work.mkdir()
        try:
            cli, ops, _ = set_up(workload, DEFAULT_SEED, work, None)
            contfrac = sys.modules["reesselab.contfrac"]
            golden[workload.name] = {}
            for index, op in enumerate(ops, start=1):
                problem = run_op(cli, op) or check(workload, contfrac, op, DEFAULT_SEED, index, {})
                if problem is not None:
                    print(f"{workload.name} slot {op.slot}: {problem}", file=sys.stderr)
                    return 1
                golden[workload.name][str(op.slot)] = digest(op.out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} workloads x {POOL} slots)")
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so memory and caches start cold."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not (SRC / "reesselab" / "__init__.py").is_file():
        print(f"error: no reesselab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()
    if args.workload == "all":
        return run_all(args)
    print("env: " + json.dumps(environment(args.workload, args.seed)))
    metrics, attempted, failed = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
