"""Run one benchmark workload of apn_forge and print its metrics.

    python3 perfbench/run.py --workload scan-x9-binary-n13 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload runs whole rounds of its job, each through the public API,
until the next round would end past ``--seconds`` (at least two rounds).
After timing, every output is checked against ``oracle.py``.

``--trace 0`` reports the end-to-end metrics: candidates per second (median
over rounds), set-up seconds (median over fresh interpreters) and peak
resident memory.  Both timings are CPU seconds of the thread that does the
work, reported at the reference speed of ``calibrate.py``: each median is
scaled by the median CPU time of the calibration kernel run beside it, so
that the shared machine's changes of speed cancel.  ``--trace 1`` spends
half the time on untraced rounds and half on traced ones, and reports the
per-layer metrics of ``tracing.py``.
The last line of standard output is one JSON object; the details of the run
go to ``perfbench/out/<workload>/``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 9
# After the machine has idled, fresh interpreters start up to twice as slow
# for about two seconds; set-up probes in that time are discarded.
SETUP_WARMUP_S = 3.0
# Calibration kernel passes before the first round and after every round.
KERNEL_PASSES = 5
CTX_BUILDS = 5


def at_reference_speed(seconds, kernel):
    """Scale a median CPU time by the median calibration kernel time beside it."""
    return seconds * calibrate.REF_S / statistics.median(kernel)


def probe_setup(name, seed):
    """Set-up CPU seconds at the reference speed, from fresh interpreters.

    Every probe also times the calibration kernel.  Probes are discarded
    for the first ``SETUP_WARMUP_S`` seconds.  Returns the scaled median and
    the raw (set-up, kernel) samples.
    """

    def once():
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return tuple(map(float, out.stdout.split()[-2:]))

    start = time.perf_counter()
    once()
    while time.perf_counter() - start < SETUP_WARMUP_S:
        once()
    samples = [once() for _ in range(SETUP_PROBES)]
    setup, kernel = zip(*samples)
    return at_reference_speed(statistics.median(setup), kernel), samples


def run_rounds(workload, seconds, min_rounds):
    """Whole rounds until the next one would end past the wall-time budget.

    Returns the rounds and the calibration kernel's times, ``KERNEL_PASSES``
    passes before the first round and after every round.
    """
    rounds = []
    start = time.perf_counter()
    kernel = [calibrate.seconds() for _ in range(KERNEL_PASSES)]
    while True:
        before = time.perf_counter()
        rounds.append(workload.round())
        kernel += [calibrate.seconds() for _ in range(KERNEL_PASSES)]
        now = time.perf_counter()
        if len(rounds) >= min_rounds and (now - start) + (now - before) > seconds:
            return rounds, kernel


def import_package():
    sys.path.insert(0, str(SRC))
    import apn_forge

    return apn_forge


def end_to_end(name, workload, args):
    # The set-up probes run before this process imports the package.
    setup_s, setup_samples = probe_setup(name, args.seed)
    pkg = import_package()
    workload.setup(pkg)
    rounds, kernel = run_rounds(workload, args.seconds, min_rounds=2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "candidates_per_s": {
            "value": 1 / at_reference_speed(
                statistics.median(r.cpu_s / r.candidates for r in rounds), kernel
            ),
            "unit": "candidates/s",
        },
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    details = {
        "round_seconds": [r.seconds for r in rounds],
        "round_cpu_s": [r.cpu_s for r in rounds],
        "kernel_seconds": kernel,
        "round_candidates": [r.candidates for r in rounds],
        "setup_samples": setup_samples,
    }
    print(
        f"{name}: {len(rounds)} rounds of {rounds[0].candidates} candidates, "
        f"{len(setup_samples)} set-up samples"
    )
    return rounds, metrics, details


def traced(name, workload, args):
    import tracemalloc

    from tracing import Tracer, inclusive_shares, layer_metrics

    pkg = import_package()
    workload.setup(pkg)
    builds = []
    for _ in range(CTX_BUILDS):
        t0 = time.perf_counter()
        for n in workload.degrees:
            pkg.field.FieldCtx(n)
        builds.append(time.perf_counter() - t0)
    plain, plain_kernel = run_rounds(workload, args.seconds / 2, min_rounds=1)
    tracer = Tracer()
    tracer.install(pkg)
    try:
        spanned, spanned_kernel = run_rounds(workload, args.seconds / 2, min_rounds=1)
    finally:
        tracer.uninstall()
    measured = {
        "field.ctx.build_s": statistics.median(builds),
        "trace.overhead_ratio": at_reference_speed(
            statistics.median(r.cpu_s for r in spanned), spanned_kernel
        )
        / at_reference_speed(statistics.median(r.cpu_s for r in plain), plain_kernel),
    }
    if hasattr(workload, "largest_batch"):
        ctx, l1, l2 = workload.largest_batch()
        tracemalloc.start()
        try:
            pkg.search.conjecture_batch(ctx, l1, l2)
            measured["search.conjecture_batch.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    wall = sum(r.seconds for r in spanned)
    metrics = layer_metrics(
        tracer,
        rounds=len(spanned),
        candidates=sum(r.candidates for r in spanned),
        hits=sum(r.hits for r in spanned),
        wall_s=wall,
        measured=measured,
    )
    details = {
        "untraced_round_seconds": [r.seconds for r in plain],
        "traced_round_seconds": [r.seconds for r in spanned],
        "traced_wall_s": wall,
        "span_self_sum_s": tracer.self_sum(),
        "inclusive_shares": inclusive_shares(tracer, wall),
        "counts": dict(tracer.counts),
        "spans": tracer.table(),
    }
    for metric, entry in metrics.items():
        print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
    return plain + spanned, metrics, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "apn_forge" / "__init__.py").is_file():
        print(f"run.py: no apn_forge package under {SRC}", file=sys.stderr)
        return 2
    outdir = HERE / "out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, outdir)
    measure = traced if args.trace else end_to_end
    rounds, metrics, details = measure(args.workload, workload, args)
    check = workload.check(rounds)
    correct = check.failed == 0 and not check.problems
    for text in check.problems:
        print(f"{args.workload}: check: {text}")
    result = {
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    kind = "trace" if args.trace else "run"
    with open(outdir / f"{kind}-seed{args.seed}.json", "w") as fh:
        json.dump({**result, "details": details, "problems": check.problems}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
