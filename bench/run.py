"""Benchmark of the airytau engine.

    python3 bench/run.py --workload free-energy --seed 1 --seconds 28 --trace 0

Runs one workload (see ``workloads.py`` and README.md) single-process: sets
it up, runs one untimed warm-up pass, then timed passes until ``--seconds``
would be exceeded.  After each pass it runs a fixed reference loop for a
share of the pass's time, and after some passes one more setup, until there
have been ``SETUP_REPEATS``.  Every pass does the same ops in the same order
on fresh state.  Every op's output is checked against oracle values outside
the timed region.

With ``--trace 0`` it reports the end-to-end metrics: the mean setup, the
mean pass and the mean time of the slowest op, each scaled by
``REFERENCE_BASE_S`` over the reference loop's mean time in the run.  A
shared host's speed swings by up to 2x within seconds and minutes; the
reference loop, interleaved with the passes, slows down with it, so the
scaled times stay put while the unscaled ones (also printed) do not.
With ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of the median traced pass and writes that pass's spans
to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every op passed its check; it is 2 when the checkout's ``src/``
is missing or the package would be imported from anywhere else.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "airytau"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 12
# Time spent in the reference loop after each pass, as a share of the pass.
REFERENCE_SHARE = 0.15
# The mean time of one reference loop that the reported times are scaled
# to: about its time on an idle core of the 2-vCPU Xeon described in
# README.md.
REFERENCE_BASE_S = 0.004
MODULES = ("airy", "cli", "grassmann", "multipoly", "npoint", "partitions",
           "series", "verify", "wave")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "slowest_op_s": "s",
                    "peak_rss_mb": "MB"}


class PackageMissing(Exception):
    """The checkout's src/ does not provide the package."""


def import_package():
    """Import the package afresh from the checkout's src/; returns its
    modules as attributes of one namespace."""
    for name in package_modules():
        del sys.modules[name]
    origin = Path(importlib.import_module(PACKAGE).__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise PackageMissing(f"{PACKAGE} imported from {origin}, "
                             f"not from {SRC}")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"{PACKAGE}.{name}")
        for name in MODULES})


def reference_loop() -> int:
    """A fixed few milliseconds of rational and big-integer arithmetic,
    written with the stdlib only, so that no change to the package can
    change its time."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i * i)
    x, y = 3 ** 4000, 7 ** 3000
    for _ in range(30):
        z = x * y // 12345678901234567
    return total.denominator ^ z


def time_reference(seconds: float, times: list) -> None:
    """Run the reference loop for about ``seconds``, recording each run."""
    end = perf_counter() + seconds
    while True:
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
        if start > end:
            return


def package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def set_up(workload, seed: int):
    """Import the package afresh and build the inputs; returns (seconds,
    package, inputs)."""
    start = perf_counter()
    pkg = import_package()
    inputs = workload.build(pkg, random.Random(seed))
    return perf_counter() - start, pkg, inputs


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


class Runner:
    """Runs and checks passes of one workload on one set of inputs."""

    def __init__(self, workload, pkg, inputs, expected):
        self.workload = workload
        self.pkg = pkg
        self.inputs = inputs
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer: Tracer | None = None):
        """One pass; returns (pass seconds, [(key, value, error, seconds)])."""
        records = []
        gc.collect()  # every pass starts from the same collector state

        def op(key, fn):
            start = perf_counter()
            try:
                value, error = fn(), None
            except Exception as exc:  # an op that raises is a failed op
                value, error = None, exc
            records.append((key, value, error, perf_counter() - start))
            return value

        def body():
            self.workload.run(self.pkg, self.inputs, op)

        if tracer is None:
            start = perf_counter()
            body()
            seconds = perf_counter() - start
        else:
            tracer.install()
            try:
                seconds = tracer.run(body)
            finally:
                tracer.uninstall()
        self.check(records)
        return seconds, records

    def check(self, records) -> None:
        for key, value, error, _ in records:
            self.attempted += 1
            if error is None:
                try:
                    if self.workload.check(self.expected, key, value):
                        continue
                    reason = "wrong value"
                except Exception:
                    reason = traceback.format_exc()
            else:
                reason = "".join(traceback.format_exception(error))
            self.failed += 1
            print(f"FAILED op {key!r}: {reason}", file=sys.stderr)


def source_provenance() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines,
            "commit": git_head()}


def git_head() -> str | None:
    """The checked-out commit, read from .git without running git; None
    when the checkout is not a repository."""
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
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    # the on-disk kernel cache must not change timings or values
    os.environ.pop("WK_KERNEL_CACHE", None)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    try:
        setup_s, pkg, inputs = set_up(workload, args.seed)
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_times = [setup_s]
    modules = package_modules()
    runner = Runner(workload, pkg, inputs, workload.oracle(pkg, inputs))

    def set_up_again():
        """One more timed setup, spread through the run so that its figure
        does not hang on the host's speed at start-up; the package modules
        of the first setup stay the ones in use."""
        setup_times.append(set_up(workload, args.seed)[0])
        sys.modules.update(modules)

    start = perf_counter()
    warm_up_s = runner.run_pass()[0]  # untimed
    # spread the setups over the run's expected passes
    setup_every = max(1, int(args.seconds / warm_up_s
                             / (1 + REFERENCE_SHARE) / SETUP_REPEATS))
    plain, traced, reference = [], [], []
    op_times: dict = {}  # op key -> its times in the timed passes
    while True:
        seconds, records = runner.run_pass()
        plain.append(seconds)
        for key, _, _, op_seconds in records:
            op_times.setdefault(key, []).append(op_seconds)
        time_reference(REFERENCE_SHARE * seconds, reference)
        if (len(setup_times) < SETUP_REPEATS
                and len(plain) % setup_every == 0):
            set_up_again()
        if args.trace:
            tracer = Tracer(PACKAGE)
            traced.append((runner.run_pass(tracer)[0], tracer))
        budget = statistics.median(plain) * (1 + REFERENCE_SHARE) + (
            statistics.median(t for t, _ in traced) if traced else 0.0)
        if perf_counter() - start + budget > args.seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        set_up_again()
    ops_per_pass = len(records)

    reference_s = statistics.fmean(reference)
    unscaled = {}
    if args.trace:
        traced.sort(key=lambda item: item[0])
        tracer = traced[(len(traced) - 1) // 2][1]
        layers = tracer.layer_metrics()
        # traced and untraced passes alternate, so means over the run see
        # the same host speed
        layers["trace.overhead_ratio"] = statistics.fmean(
            t for t, _ in traced) / statistics.fmean(plain) - 1
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "reported_pass": tracer.dump(),
            "traced_passes": [tr.layer_metrics() for _, tr in traced],
            "untraced_pass_s": plain}))
    else:
        unscaled = {
            "setup_s": statistics.fmean(setup_times),
            "pass_s": statistics.fmean(plain),
            "slowest_op_s": max(map(statistics.fmean, op_times.values()))}
        speed = REFERENCE_BASE_S / reference_s
        values = {
            **{name: value * speed for name, value in unscaled.items()},
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}

    print(f"workload {workload.name}, seed {args.seed}: {ops_per_pass} ops "
          f"per pass, {len(plain)} timed passes, {len(traced)} traced "
          f"passes, failed_frac {runner.failed / runner.attempted:.4g} "
          f"({runner.failed}/{runner.attempted})")
    print("  untraced passes (s): " + " ".join(f"{t:.4f}" for t in plain))
    print(f"  reference loop mean {reference_s:.6g} s; unscaled: "
          + ", ".join(f"{name} {value:.6g} s"
                      for name, value in unscaled.items()))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    provenance = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "package_dir": str(Path(pkg.npoint.__file__).parent.relative_to(
            ROOT)),
        "kernel_cache_env": os.environ.get("WK_KERNEL_CACHE"),
        "setup_repeats": SETUP_REPEATS, "ops_per_pass": ops_per_pass,
        "reference_base_s": REFERENCE_BASE_S,
        "reference_share": REFERENCE_SHARE,
        "reference_loops": len(reference), "reference_mean_s": reference_s,
        "unscaled_s": unscaled,
        "timed_passes": len(plain), "traced_passes": len(traced),
        "settings": workload.settings, **source_provenance(),
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
