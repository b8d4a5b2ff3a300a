"""postmax benchmark: one workload, one process, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk|wide|oracle --seed N \
        --seconds S --trace 0|1

The workload is built from `--seed`, then repeated back to back while
another repetition fits in `--seconds` (at least once; twice when traced).
Every repetition runs the workload's parts in order and is checked against
the workload's correctness gates and against the output digest of the
first repetition.  A fixed reference kernel, which does not touch postmax,
runs before the first part and after each part, so every timed interval
is bracketed by two readings of the host's current speed.

With `--trace 0` the last line of stdout carries the end-to-end metrics:
`norm_wall_s` (the time from the first library call to the checked
result, at reference host speed: per part, the median over the run of its
time divided by its brackets' mean, summed and scaled by REF_KERNEL_S),
`setup_s` (median over fresh child processes of importing postmax and
building the workload's validated config, each probe normalised the same
way) and `peak_rss_mb` (ru_maxrss of this process).  The raw wall times
are in the info line.  With `--trace 1` untraced and traced repetitions
alternate, and the last line carries the per-layer metrics (spans.py)
plus `trace.overhead_frac`.  The line before it is an informational JSON
object: quality numbers, gates, the records digest and host facts.  The
exit code is 1 when any repetition fails, and nonzero without a result
line when postmax cannot be imported.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads; child processes inherit this.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import functools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_PROBES = 7
# Nominal time of one _reference_kernel() call on the host the benchmark
# was written on; normalised times are in seconds at that speed.
REF_KERNEL_S = 0.05
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("desk", "wide", "oracle")
MEASUREMENT_NOTE = (
    "timers: time.perf_counter and time.process_time in the benchmark's own "
    "processes, memory: getrusage(RUSAGE_SELF); no system-wide tracing and no "
    "cache dropping"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in this fresh process and print it
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_postmax():
    if not (SRC / "postmax" / "__init__.py").is_file():
        sys.exit(f"error: postmax sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports postmax

    return workloads


def _setup_probe_child(args) -> None:
    """Time one set-up in this fresh process and print it."""
    t0 = time.perf_counter()
    workloads = _import_postmax()
    workloads.WORKLOADS[args.workload].build(args.seed)
    print(repr(time.perf_counter() - t0))


def _time_setup(args) -> float:
    """Set-up time of a fresh process, so imports are paid every time."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(done.returncode)
    return float(done.stdout.strip().splitlines()[-1])


@functools.cache
def _reference_inputs():
    # numpy is imported here, not at the top, so that a set-up probe's
    # timed import of postmax still pays for numpy
    import numpy as np

    rng = np.random.default_rng(20250408)
    x = rng.standard_normal((32, 10))
    y = np.eye(2)[rng.integers(0, 2, 32)]
    w1 = rng.standard_normal((10, 16)) * 0.1
    w2 = rng.standard_normal((16, 2)) * 0.1
    a = rng.standard_normal((256, 256))
    return np, x, y, w1, w2, a


def _reference_kernel() -> float:
    """Fixed work unrelated to postmax; returns its wall time in seconds.

    The host's speed changes by up to ~1.7x within seconds, and every kind
    of work slows together, so a timing divided by this kernel's time
    right around it measures the program rather than the host.  The kernel
    mixes what the workloads do: small-array numpy steps of a 10-16-2 MLP
    (desk), 256x256 matmuls (wide) and interpreted Python (oracle, cli).
    """
    np, x, y, w1, w2, a = _reference_inputs()
    t0 = time.perf_counter()
    w1, w2 = w1.copy(), w2.copy()
    for _ in range(550):
        h = np.maximum(x @ w1, 0.0)
        z = h @ w2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = (p - y) / 32.0
        gh = g @ w2.T
        gh[h <= 0.0] = 0.0
        w2 -= 0.01 * (h.T @ g)
        w1 -= 0.01 * (x.T @ gh)
        np.isfinite(w1).all()
    b = a
    for _ in range(16):
        b = np.tanh(a @ b * 0.01)
    acc = 0
    for i in range(50000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _host_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "measurement": MEASUREMENT_NOTE,
    }


@dataclass
class Rep:
    part_s: list  # seconds of each part, then of the check
    ref_s: list  # reference kernel before the first part and after each
    cpu_s: float  # CPU seconds of the parts and the check
    outcome: object  # workloads.Outcome, or None when a part raised
    traced: bool
    elapsed_s: float = 0.0  # the whole repetition, kernels included


def _timed_part(rep, fn, arg):
    c0 = time.process_time()
    t0 = time.perf_counter()
    result = fn(arg)
    rep.part_s.append(time.perf_counter() - t0)
    rep.cpu_s += time.process_time() - c0
    rep.ref_s.append(_reference_kernel())
    return result


def _run_reps(workload, job, seconds, tracer, between):
    """Repeat the workload within the budget; traced reps alternate.

    A repetition starts only if one as long as the last still fits.
    """
    reps = []
    layer = []
    deadline = time.perf_counter() + seconds
    min_reps = 2 if tracer is not None else 1
    while (
        len(reps) < min_reps
        or time.perf_counter() + reps[-1].elapsed_s <= deadline
    ):
        t_rep = time.perf_counter()
        traced = tracer is not None and len(reps) % 2 == 1
        rep = Rep([], [_reference_kernel()], 0.0, None, traced)
        if rep.traced:
            tracer.reset()
        try:
            with tracer.installed() if rep.traced else contextlib.nullcontext():
                results = [_timed_part(rep, fn, arg) for fn, arg in job.parts]
                rep.outcome = _timed_part(rep, lambda r: workload.check(job, r), results)
        except Exception:
            traceback.print_exc()
        rep.elapsed_s = time.perf_counter() - t_rep
        reps.append(rep)
        if rep.traced and rep.outcome is not None:
            layer.append(tracer.metrics(rep.outcome.records))
        between()
    return reps, layer


def _normalised(seconds, ref_before, ref_after) -> float:
    """Seconds at reference host speed: REF_KERNEL_S per kernel time."""
    return REF_KERNEL_S * seconds / ((ref_before + ref_after) / 2.0)


def _normalised_sum(reps) -> float:
    """Sum over parts of each part's median normalised time in the run.

    Host speed on a shared machine drifts by up to ~1.7x, over seconds
    to minutes, so raw times measure the host's state as much as the
    program.  Each part's time is divided by the mean of the reference
    kernel's times just before and just after it, which cancels the
    drift; the median over repetitions then removes what is left.
    """
    complete = [r for r in reps if r.outcome is not None] or reps
    per_rep = (
        [_normalised(t, r.ref_s[i], r.ref_s[i + 1]) for i, t in enumerate(r.part_s)]
        for r in complete
    )
    return sum(statistics.median(times) for times in zip(*per_rep))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        _setup_probe_child(args)
        return 0
    _reference_kernel()  # warm-up, untimed
    setup = []  # (raw seconds, normalised seconds) per probe

    def probe():
        before = _reference_kernel()
        raw = _time_setup(args)
        setup.append((raw, _normalised(raw, before, _reference_kernel())))

    probe()
    workloads = _import_postmax()
    import spans

    workload = workloads.WORKLOADS[args.workload]
    job = workload.build(args.seed)
    tracer = spans.Tracer(spans.boundaries(workloads)) if args.trace else None

    def between():
        # spread the set-up probes over the run, as host speed drifts
        if len(setup) < SETUP_PROBES:
            probe()

    reps, layer = _run_reps(workload, job, args.seconds, tracer, between)
    while len(setup) < SETUP_PROBES:
        between()

    outcomes = [r.outcome for r in reps]
    reference = next((o for o in outcomes if o is not None), None)
    failed = sum(
        o is None or not o.passed or o.digest != reference.digest for o in outcomes
    )
    untraced = [r for r in reps if not r.traced]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "reps": len(reps),
        "rep_wall_s": [sum(r.part_s) for r in reps],
        "rep_cpu_s": [r.cpu_s for r in reps],
        "rep_ref_kernel_s": [statistics.median(r.ref_s) for r in reps],
        "setup_s_probes_raw": [raw for raw, _ in setup],
        "setup_s_probes": [norm for _, norm in setup],
        "records_sha256": reference.digest if reference else None,
        "quality": (
            {k: _metric(v, u) for k, (v, u) in reference.quality.items()}
            if reference
            else {}
        ),
        "gates": reference.gates if reference else {},
        "host": _host_facts(),
    }
    if args.trace:
        traced = [r for r in reps if r.traced]
        metrics = spans.median_metrics(layer) if layer else {}
        metrics["trace.overhead_frac"] = (
            _normalised_sum(traced) / _normalised_sum(untraced) - 1.0
        )
        metrics = {k: _metric(v, spans.unit(k)) for k, v in metrics.items()}
    else:
        metrics = {
            "norm_wall_s": _metric(_normalised_sum(untraced), "s"),
            "setup_s": _metric(statistics.median(n for _, n in setup), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(reps),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
