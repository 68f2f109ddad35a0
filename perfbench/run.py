"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop: each job starts when the previous one
returns. The job list comes from --seed. The untraced run (--trace 0) times
jobs for --seconds, but always finishes the workload's quality set, and
prints the end-to-end metrics. The traced run (--trace 1) runs the quality
set untraced, then each of its first jobs again twice, untraced and with
span wrappers installed, and prints the per-layer metrics. The last line of standard output is the
result JSON; the line before it is a report with the run environment, the
output digest and the quality numbers, also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# CPD's dense solve would otherwise use every core; one thread is within any
# machine's nproc and gives the same arithmetic, so the same digests, everywhere
BLAS_THREADS = 1
SETUP_SAMPLES = 3  # this process plus two fresh ones; setup_s is their median
TAIL_BEYOND = 10  # job_ms_tail: highest percentile with this many jobs beyond it

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True


def load_workloads():
    """Import the package from this checkout's src/; returns (module, seconds)."""
    if not (SRC / "keycontact" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no keycontact sources under {SRC}")
    sys.path[:0] = [str(ROOT), str(SRC)]
    t0 = time.perf_counter()
    from perfbench import workloads

    import_s = time.perf_counter() - t0
    if not Path(workloads.sim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("perfbench: keycontact was not imported from this checkout")
    return workloads, import_s


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Measured:
    """Latencies, kept outputs and failures of one closed-loop pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kept: list = []
        self.errors: list[str | None] = []
        self.wall_s = 0.0


def run_one(wl, job, m: Measured) -> None:
    """Run one job, time it, check its output and keep it in m."""
    t0 = time.perf_counter()
    try:
        out = wl.run(job)
    except Exception as exc:  # a failed job is counted, the run goes on
        m.latencies.append(time.perf_counter() - t0)
        m.errors.append(f"{type(exc).__name__}: {exc}")
        m.kept.append(None)
        traceback.print_exc(file=sys.stderr)
        return
    m.latencies.append(time.perf_counter() - t0)
    m.errors.append(wl.check(job, out))
    m.kept.append(wl.retain(out))


def run_loop(wl, seconds: float, min_jobs: int) -> Measured:
    """Take jobs from the list, cycling, until min_jobs are done and seconds have passed."""
    m = Measured()
    start = time.perf_counter()
    i = 0
    while i < min_jobs or time.perf_counter() - start < seconds:
        run_one(wl, wl.jobs[i % len(wl.jobs)], m)
        i += 1
    m.wall_s = time.perf_counter() - start
    return m


def run_pairs(wl, tracer) -> tuple[Measured, Measured]:
    """Run each of the first trace_jobs jobs untraced and traced back to back.

    The order alternates, and host speed drifts over seconds, so adjacent
    runs give a fairer overhead than two separate phases.
    """
    from perfbench import spans

    untraced, traced = Measured(), Measured()
    for i, job in enumerate(wl.jobs[: wl.trace_jobs]):
        tracer.job = i
        for side in (untraced, traced) if i % 2 == 0 else (traced, untraced):
            if side is traced:
                with spans.instrument(tracer):
                    run_one(wl, job, traced)
            else:
                run_one(wl, job, untraced)
    tracer.job = -1
    return untraced, traced


def repeat_mismatches(wl, m: Measured) -> None:
    """A job repeated from an earlier pass must give byte-identical output."""
    n = len(wl.jobs)
    for i in range(n, len(m.kept)):
        first, again = m.kept[i % n], m.kept[i]
        if first is not None and again is not None and wl.fingerprint(first) != wl.fingerprint(again):
            m.errors[i] = "output differs from an earlier run of the same job"


def tail(latencies: list[float]) -> tuple[int, float]:
    """(percentile, seconds): highest whole percentile with TAIL_BEYOND jobs
    beyond it by nearest rank, floored at the median for short runs."""
    xs = sorted(latencies)
    n = len(xs)
    pct = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, xs[rank - 1]


def openblas_threads() -> dict[str, int]:
    import ctypes

    import numpy
    import scipy

    found = {}
    for mod, libs in ((numpy, "numpy.libs"), (scipy, "scipy.libs")):
        pattern = os.path.join(os.path.dirname(mod.__file__), os.pardir, libs, "lib*openblas*.so*")
        for lib in sorted(glob.glob(pattern)):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    found[mod.__name__] = int(fn())
                    break
    return found


def git_commit() -> str:
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


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas_threads_pinned": BLAS_THREADS,
        "openblas_threads": openblas_threads(),
        "git_commit": git_commit(),
    }


def metric_units() -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workloads, import_s = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} (choose from {workloads.WORKLOADS})")
    from perfbench import spans

    wl = workloads.make_workload(args.workload, args.seed)  # input generation: untimed
    setup_tracer = spans.Tracer()
    t0 = time.perf_counter()
    with spans.instrument(setup_tracer) if args.trace else contextlib.nullcontext():
        wl.prepare()
    setup_s = import_s + time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    with wl.session():
        if args.trace:
            m = run_loop(wl, 0.0, wl.quality_jobs)
            tracer = spans.Tracer()
            untraced, traced = run_pairs(wl, tracer)
        else:
            m = run_loop(wl, args.seconds, wl.quality_jobs)
    repeat_mismatches(wl, m)

    q = wl.quality(wl.jobs[: wl.quality_jobs], m.kept[: wl.quality_jobs])
    report["quality"] = q
    report["digest"] = workloads.digest(
        [wl.fingerprint(k) if k is not None else b"failed\n" for k in m.kept[: wl.quality_jobs]])
    errors = [e for e in m.errors if e is not None]
    attempted = len(m.errors)
    workloads.OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        errors += [e for e in untraced.errors + traced.errors if e is not None]
        attempted += len(untraced.errors) + len(traced.errors)
        untraced_s, traced_s = sum(untraced.latencies), sum(traced.latencies)
        values = spans.layer_metrics(tracer, setup_tracer)
        # traced jobs_per_s over untraced jobs_per_s on the same jobs, minus 1
        values["bench.trace_overhead_ratio"] = untraced_s / traced_s - 1.0
        values.update({key: q.get(key, 0.0) for key in workloads.QUALITY_METRICS})
        times = tracer.layer_times()
        report["layers"] = times
        report["counts"] = dict(tracer.counts)
        report["reconcile"] = {
            "traced_jobs": wl.trace_jobs,
            "untraced_job_s": untraced_s,
            "traced_job_s": traced_s,
            "layer_self_sum_s": sum(row["self_s"] for row in times.values()),
        }
        tracer.write(workloads.OUT_DIR / f"spans_{args.workload}_seed{args.seed}.csv")
    else:
        setup_samples = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
        pct, tail_s = tail(m.latencies)
        report["setup_samples_s"] = setup_samples
        report["jobs"] = len(m.latencies)
        report["job_ms_tail_percentile"] = pct
        values = {
            "setup_s": statistics.median(setup_samples),
            "jobs_per_s": len(m.latencies) / m.wall_s,
            "job_ms_p50": 1e3 * statistics.median(m.latencies),
            "job_ms_tail": 1e3 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - len(errors) / attempted,
            "success_rate": q["success_rate"],
        }
    report["failures"] = sorted(set(errors))
    units = metric_units()
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
    # a diverged filter is a failed job, but the campaign reports it as designed
    correct = all(e == workloads.DIVERGED for e in errors)

    (workloads.OUT_DIR / f"report_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
