"""Benchmark of sglink's CLI commands, run in-process on seeded inputs.

Run from the root of a checkout (the package is imported from ``src/``;
nothing needs to be installed):

    python3 bench/run.py --workload invariant_walked --seed 1 --seconds 25 --trace 0

Each operation is one ``sglink`` command line passed to
``sglink.cli.main`` with its standard output captured.  A run makes the
workload's inputs from the seed, times set-up, runs one checked pass over
every command and then whole passes until ``--seconds`` have gone by.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, which holds the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
A fuller record of the run is written to ``bench/out/``.  See
``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

import oracle
from spans import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up is timed once before the first command and then again this many
# times, spread over the timed phase so that no single phase of the host
# decides it; the median is reported.
SETUP_REPEATS = 30
# A fresh interpreter that imports the CLI and reads the inputs: what every
# command line pays before its own work starts.
PROBE = ("import sys\nsys.path.insert(0, sys.argv[1])\nimport sglink.cli\n"
         "for p in sys.argv[2:]:\n    open(p, 'rb').read()\n")

# The reference loop's length, and about its median time on the machine
# the bounds were set on (2-core Xeon at 2.0 GHz, CPython 3.11.7), timed
# between commands as the runs time it (1.57 ms over 60 runs).  Command
# and set-up times are reported as multiples of the loop's time beside
# them, times REF_NOMINAL_MS: close to wall time at that machine's usual
# speed, with most of the host's fast and slow phases taken out (see
# README.md).
REF_ITERATIONS = 15_000
REF_NOMINAL_MS = 1.5
# Reference loops timed before and after each set-up probe; their median
# is the host's speed around the probe.
SETUP_REF_LOOPS = 5
# Runs execute under this PYTHONHASHSEED (see main).
HASH_SEED = "0"

# (metric, span, field): field 0 = calls, 1 = duration, 2 = self time; each
# is the median over a command's traced repeats, averaged over commands.
PER_LAYER = (
    ("linking.over_under_consistent.self_ms", "linking.over_under_consistent", 2),
    ("linking.linking_matrix.self_ms", "linking.linking_matrix", 2),
    ("linking.linking_matrix.calls", "linking.linking_matrix", 0),
    ("homology.cycle_basis.ms", "homology.cycle_basis", 1),
    ("homology.cycle_basis.calls", "homology.cycle_basis", 0),
    ("homology.spanning_tree.ms", "homology.spanning_tree", 1),
    ("smith.smith_normal_form.self_ms", "smith.smith_normal_form", 2),
    ("smith.verify_certificate.ms", "smith.verify_certificate", 1),
    ("smith.calls", "smith.smith_normal_form", 0),
    ("moves.walk.self_ms", "moves.walk_steps", 2),
    ("moves.apply_move.ms", "moves.apply_move", 1),
    ("moves.canonical_diagram.ms", "moves.canonical_diagram", 1),
    ("sgd.validate.ms", "sgd.validate", 1),
    ("sgd.parse_sgd.self_ms", "sgd.parse_sgd", 2),
    ("sgd.serialize_sgd.ms", "sgd.serialize_sgd", 1),
    ("cli.self_ms", "cli", 2),
)


def ref_loop() -> int:
    """Fixed pure-Python work, run before every command, whose time tells
    the host's speed at that moment and nothing about the program."""
    start = perf_counter_ns()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return perf_counter_ns() - start


def setup_once(files: list[str]) -> float:
    """One set-up probe in seconds at the reference host speed: its wall
    time over the reference loop's time around it, times REF_NOMINAL_MS."""
    # The probe and the loops around it share one CPU.  Unpinned, the
    # probe often runs on the other core, whose speed the loop does not
    # see: one probe then varied by ~30% (IQR over median), pinned by ~10%.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        before = statistics.median(ref_loop() for _ in range(SETUP_REF_LOOPS))
        start = perf_counter_ns()
        # No timeout: Popen.wait with one polls with sleeps of up to 50 ms,
        # which would quantise the measurement.
        subprocess.run([sys.executable, "-c", PROBE, str(SRC), *files], check=True)
        ns = perf_counter_ns() - start
        after = statistics.median(ref_loop() for _ in range(SETUP_REF_LOOPS))
    finally:
        os.sched_setaffinity(0, allowed)
    return ns / ((before + after) / 2) * REF_NOMINAL_MS / 1e3


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, defined for any non-empty sample."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1] \
        if len(values) > 1 else values[0]


class Run:
    """State of one benchmark run over a fixed list of commands."""

    def __init__(self, cli_main, ops, tracer: Tracer | None):
        self.cli_main = cli_main
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []      # outputs that failed a check
        self.failures: list[str] = []    # commands that exited non-zero
        self.digest: list[bytes | None] = [None] * len(ops)
        self.output_bytes = 0
        # per command: (command ns, reference-loop ns around it[, span totals, steps])
        self.samples: list[list[tuple]] = [[] for _ in ops]
        self.traced: list[list[tuple]] = [[] for _ in ops]
        self.passes = {"untraced": 0, "traced": 0}
        self._ref_before = ref_loop()

    def call(self, argv, traced: bool):
        out, err = io.StringIO(), io.StringIO()
        tb = None
        with redirect_stdout(out), redirect_stderr(err):
            if traced:
                self.tracer.totals, self.tracer.steps = {}, 0
                self.tracer.enter()
            start = perf_counter_ns()
            try:
                rc = self.cli_main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc, tb = None, traceback.format_exc()
            ns = perf_counter_ns() - start
            if traced:
                self.tracer.exit("cli")
        return rc, ns, out.getvalue(), tb or err.getvalue()

    def run_pass(self, checked: bool, traced: bool = False) -> None:
        if self.tracer is not None:
            (self.tracer.enable if traced else self.tracer.disable)()
        for i, op in enumerate(self.ops):
            gc.collect()
            rc, ns, out, err = self.call(op.argv, traced)
            ref_after = ref_loop()
            ref = (self._ref_before + ref_after) / 2
            self._ref_before = ref_after
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                if checked:
                    self.failures.append(f"{op.label}: exit {rc}: {err.strip()[-400:]}")
                continue
            data = out.encode("utf-8")
            if checked:
                self.output_bytes += len(data)
                try:
                    op.check(out)
                except (oracle.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
                    self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    continue
                self.digest[i] = hashlib.sha256(data).digest()
                continue
            if hashlib.sha256(data).digest() != self.digest[i]:
                self.errors.append(f"{op.label}: output differs from the checked first pass")
            if traced:
                self.traced[i].append((ns, ref, self.tracer.totals, self.tracer.steps))
            else:
                self.samples[i].append((ns, ref))
        if not checked:
            self.passes["traced" if traced else "untraced"] += 1


def scaled_ms(samples) -> float:
    """A command's time at the reference host speed: the median over its
    repeats of (command time / reference-loop time) times REF_NOMINAL_MS."""
    return statistics.median(ns / ref for ns, ref, *_ in samples) * REF_NOMINAL_MS


def end_to_end(run: Run, setup_s: float) -> dict:
    ms = [scaled_ms(s) for s in run.samples if s]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (quantile(ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "output_kb": (run.output_bytes / 1000, "kB"),
    }


def per_layer(run: Run, tracer: Tracer) -> dict:
    traced = [s for s in run.traced if s]
    n = len(traced)
    out = {}
    for metric, span, field in PER_LAYER:
        # Times are scaled like the end-to-end ones; counts are not.
        per_op = [statistics.median(
            totals.get(span, (0, 0, 0))[field] * (1 if field == 0 else REF_NOMINAL_MS / ref)
            for _, ref, totals, _ in s) for s in traced]
        out[metric] = (sum(per_op) / n, "calls/op" if field == 0 else "ms/op")
    out["moves.steps"] = (sum(statistics.median(st for *_, st in s) for s in traced) / n, "steps/op")
    out["smith.transform_bits.max"] = (tracer.max_bits, "bits")
    refs = [ref for s in run.samples + run.traced for _, ref, *_ in s]
    out["host.ref_loop_ms"] = (statistics.median(refs) / 1e6, "ms")
    untraced = sum(scaled_ms(s) for s in run.samples if s)
    out["trace.overhead"] = (untraced / sum(scaled_ms(s) for s in traced), "ratio")
    return out


def benchmark(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ops = WORKLOADS[workload](seed, work)
    files = sorted({a for op in ops for a in op.argv if os.path.isfile(a)})
    setups = [setup_once(files)]

    sys.path.insert(0, str(SRC))
    import sglink.cli
    if not Path(sglink.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported {sglink.cli.__file__}, not the package under {SRC}")
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.prepare()

    run = Run(sglink.cli.main, ops, tracer)
    run.run_pass(checked=True)
    begin = perf_counter()
    k = 0
    while True:
        run.run_pass(checked=False, traced=trace and k % 2 == 1)
        k += 1
        elapsed = perf_counter() - begin
        while len(setups) < 1 + SETUP_REPEATS * min(1.0, elapsed / seconds):
            setups.append(setup_once(files))
        if elapsed >= seconds and (not trace or k >= 2):
            break
    if tracer is not None:
        tracer.disable()
    if not any(run.samples):
        raise SystemExit("error: every command failed:\n" + "\n".join(run.failures[:10]))

    metrics = per_layer(run, tracer) if trace else end_to_end(run, statistics.median(setups))
    return {
        "result": {
            "correct": not run.errors,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
        "detail": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "passes": run.passes, "errors": run.errors, "failures": run.failures,
            "absent_spans": tracer.absent if tracer else [],
            "ops": [{"label": op.label,
                     "argv": list(op.argv[:1]) + [Path(a).name for a in op.argv[1:]],
                     "scaled_ms": scaled_ms(s) if s else None,
                     "raw_ms_min": min(ns for ns, _ in s) / 1e6 if s else None,
                     "raw_ms_median": statistics.median(ns for ns, _ in s) / 1e6 if s else None}
                    for op, s in zip(ops, run.samples)],
            "ref_loop_ms_median": statistics.median(ref for s in run.samples for _, ref in s) / 1e6,
            "setup_s": setups,
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides dict layouts, and with it a command's time:
        # with random hashing the same run differs by ~4% from process to
        # process.  Replace this process with one that has a fixed seed.
        os.execve(sys.executable, sys.orig_argv, {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (SRC / "sglink" / "cli.py").is_file():
        print(f"error: no sglink package at {SRC / 'sglink'}; "
              "run from the root of a sglink checkout", file=sys.stderr)
        return 2

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    result = report["result"]
    for line in report["detail"]["failures"][:10]:
        print(f"command failed: {line}", file=sys.stderr)
    for line in report["detail"]["errors"][:10]:
        print(f"check failed: {line}", file=sys.stderr)
    if report["detail"]["absent_spans"]:
        print(f"absent spans: {' '.join(report['detail']['absent_spans'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
