"""evfam benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog-check --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; evfam is imported from ``src/``.
A single process calls evfam as a closed loop with one caller and no
threads, repeating whole passes over the workload's fixed operation list
until ``--seconds`` have elapsed.  Every output is checked against an
independent reference after the timed loop; a wrong value, wrong verdict,
exception or unexpected exit code counts the operation as failed, and
``correct`` is false only when an operation's output changes from pass to
pass (evfam promises deterministic output for fixed inputs).

On a virtual machine whose cores are shared with other tenants, speed can
drift by half within seconds.  A fixed kernel of small numpy calls in a Python loop
(``calibrate``) runs before, every 0.2 s during, and after each operation
(``SpeedProbe``), and each operation's time is multiplied by
``CAL_REFERENCE_S`` over the mean kernel time around it: times are given in
seconds of a machine on which the kernel takes 10 ms.  Set-up interpreters
time their own import against a numpy-free kernel in the same way.  The
raw wall times are printed and recorded beside them.

With ``--trace 0`` the last line carries the end-to-end metrics:

* ``setup_s``: ``import evfam, evfam.cli`` in a fresh interpreter (the CLI
  cold start), median of ``SETUP_RUNS`` interpreters;
* ``pass_ref_s``: the sum over the workload's operations of each
  operation's median latency across passes (time for one pass);
* ``op_p50_ref_s``: the median over operations of those medians;
* ``peak_rss_mb``: peak resident memory of this process after the loop.

With ``--trace 1`` half the time runs untraced and half with spans around
evfam's public functions (see spans.py), and the last line carries the
per-layer metrics, per pass.  Earlier lines print the throughputs named
after what users pay for (check points/s, evalue rows/s, growth
evaluations/s, sequential path-rounds/s, per wall second), the check
latency median and tail, the failed share, the environment and the drift
fingerprint; the same go to ``.perfbench_work/<workload>/`` as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5
MIN_TAIL_BEYOND = 10
CAL_REFERENCE_S = 0.010
CAL_ITERS = 3000
PROBE_ITERS = 300
PROBE_INTERVAL_S = 0.2
_CAL_X = np.arange(8.0)

sys.path.insert(0, str(SRC))


def calibrate(iters: int = CAL_ITERS) -> float:
    """Seconds a fixed kernel of small numpy calls in a Python loop takes, per CAL_ITERS."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc = 0.0
        for i in range(iters):
            acc += float(np.all(_CAL_X >= 0.0)) + math.log1p(i)
        return (time.perf_counter() - t) * CAL_ITERS / iters
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Kernel samples before, every PROBE_INTERVAL_S during, and after one call.

    A SIGALRM handler runs a short kernel while the call is in progress, so
    a call that spans slow and fast stretches of the machine is rescaled by
    its own average; the handler's time is not counted as the call's.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probe_s = 0.0

    def _probe(self, _signum, _frame) -> None:
        t = time.perf_counter()
        self.samples.append(calibrate(PROBE_ITERS))
        self.probe_s += time.perf_counter() - t

    def __enter__(self) -> "SpeedProbe":
        self.samples, self.probe_s = [calibrate()], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())

    @property
    def speed(self) -> float:
        return CAL_REFERENCE_S / statistics.fmean(self.samples)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# a fresh interpreter times its own import between two runs of a numpy-free
# kernel, since it may run on another core than this process; the kernel's
# mean time is scaled to CAL_REFERENCE_S like the in-process one
_SETUP_CHILD = """
import math, time
def kernel():
    t = time.perf_counter()
    acc = 0.0
    for i in range(80000):
        acc += math.log1p(i)
    return time.perf_counter() - t
before = kernel()
t = time.perf_counter()
import evfam, evfam.cli
took = time.perf_counter() - t
print(repr(took), repr(before), repr(kernel()))
"""


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Import seconds of evfam and its CLI in fresh interpreters, wall and rescaled."""
    wall, ref = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        took, before, after = map(float, proc.stdout.split())
        wall.append(took)
        ref.append(took * CAL_REFERENCE_S / (0.5 * (before + after)))
    return wall, ref


def _blas_threads() -> int | str:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return "unknown"


def environment() -> dict:
    import scipy
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "EVFAM_THREADS": os.environ.get("EVFAM_THREADS"),
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_passes(ops, seconds: float, tracer=None) -> list[dict]:
    """Whole passes over ``ops`` until ``seconds`` have elapsed (at least one)."""
    passes: list[dict] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        records = []
        for op in ops:
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        output = op.run(len(passes))
                    else:
                        with tracer.span(f"op.{op.kind}"):
                            output = op.run(len(passes))
                except Exception as exc:  # a crashed operation is a counted failure
                    output = exc
                seconds_taken = time.perf_counter() - t0 - probe.probe_s
            records.append({"op": op, "seconds": seconds_taken, "output": output,
                            "speed": probe.speed})
        passes.append({"records": records, "traced": tracer is not None})
    return passes


def judge(passes) -> tuple[list[dict], dict, list[str]]:
    """Check every output; return failures, pass-0 fingerprints and drift problems."""
    failures, fingerprints, problems = [], {}, []
    for p, pass_ in enumerate(passes):
        for rec in pass_["records"]:
            op, output = rec["op"], rec["output"]
            key = f"{op.kind}:{op.label}"
            raised = isinstance(output, Exception)
            fp = f"{type(output).__name__}: {output}" if raised else op.fingerprint(output)
            if raised and not op.checks_exceptions:
                reason = f"raised {type(output).__name__}: {output}"
            else:
                reason = op.check(output)
            rec["work"] = 0 if raised or reason else op.work(output)
            if reason:
                failures.append({"op": key, "pass": p, "reason": reason})
            if p == 0:
                fingerprints[key] = fp
            elif fingerprints[key] != fp:
                problems.append(f"{key} changed between passes: {fingerprints[key]!r} -> {fp!r}")
    return failures, fingerprints, problems


def timing(passes) -> dict:
    """Per-operation median latencies, wall and at the kernel's reference speed."""
    wall: dict[str, list[float]] = {}
    ref: dict[str, list[float]] = {}
    for pass_ in passes:
        for rec in pass_["records"]:
            key = f"{rec['op'].kind}:{rec['op'].label}"
            wall.setdefault(key, []).append(rec["seconds"])
            ref.setdefault(key, []).append(rec["seconds"] * rec["speed"])
    out = {"op_median_s": {key: statistics.median(v) for key, v in wall.items()},
           "op_median_ref_s": {key: statistics.median(v) for key, v in ref.items()}}
    for tag in ("", "ref_"):
        medians = out[f"op_median_{tag}s"].values()
        out[f"pass_{tag}s"] = sum(medians)
        out[f"op_p50_{tag}s"] = statistics.median(medians)
    return out


def tail_latency(samples: list[float]) -> dict | None:
    """Value at the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= MIN_TAIL_BEYOND:
        return None
    return {"value": sorted(samples)[n - MIN_TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - MIN_TAIL_BEYOND) / n, "samples": n}


def kind_summary(passes) -> dict:
    """Per-kind throughputs per wall second, and the check latency median and tail.

    Work (points, rows, evaluations, path-rounds) counts only for operations
    whose output passed its check; their time counts either way.
    """
    by_kind: dict[str, list[dict]] = {}
    for pass_ in passes:
        for rec in pass_["records"]:
            by_kind.setdefault(rec["op"].kind, []).append(rec)
    out: dict = {}
    for kind, name in (("check", "check_points_per_s"), ("battery", "check_points_per_s"),
                       ("evalue", "evalue_rows_per_s"), ("growth", "growth_per_s"),
                       ("sequential", "sequential_path_rounds_per_s")):
        recs = by_kind.get(kind)
        if recs:
            out[name] = sum(r["work"] for r in recs) / sum(r["seconds"] for r in recs)
    checks = [r["seconds"] for r in by_kind.get("check", [])]
    if checks:
        out["check_p50_s"] = statistics.median(checks)
        out["check_tail_s"] = tail_latency(checks)
    return out


def trace_run(ops, seconds: float, workdir: Path) -> tuple[list[dict], dict, dict]:
    import spans
    untraced = run_passes(ops, seconds / 2.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_passes(ops, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    metrics = {name: 0.0 for name in spans.per_layer_names()}
    metrics.update(spans.import_times(sys.executable, _child_env()))
    metrics.update(spans.layer_metrics(tracer, len(traced)))
    plain, with_spans = timing(untraced), timing(traced)
    metrics["trace.overhead_ratio"] = with_spans["pass_ref_s"] / plain["pass_ref_s"]
    by_op = spans.self_time_by_op(tracer, len(traced))
    tracer.write(workdir / "spans.npz")
    return untraced + traced, metrics, by_op


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "families.newton_mean_evals_per_inversion":
        return "evals/inversion"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="evfam benchmark (one workload run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evfam" / "__init__.py").is_file():
        print(f"perfbench: no evfam sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("EVFAM_THREADS") is not None:
        print("perfbench: EVFAM_THREADS must be unset (one caller, no threads)", file=sys.stderr)
        return 2
    from inputs import WORKLOADS, make_inputs
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    inputs = make_inputs(args.workload, args.seed, workdir)
    env = environment()
    setup_wall, setup_ref = measure_setup(SETUP_RUNS) if not args.trace else (None, None)

    import evfam
    if Path(evfam.__file__).resolve().parent != (SRC / "evfam").resolve():
        print(f"perfbench: imported evfam from {evfam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import build_ops
    ops = build_ops(args.workload, inputs, workdir)

    tag = f"seed{args.seed}-trace{args.trace}"
    by_op = None
    if args.trace:
        passes, metrics, by_op = trace_run(ops, args.seconds, workdir)
    else:
        passes = run_passes(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, fingerprints, problems = judge(passes)
    for stale in workdir.glob("evalue_*.csv"):
        stale.unlink()
    attempted = sum(len(p["records"]) for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    times = timing(untraced)
    summary = kind_summary(untraced)
    summary.update(failed_share=len(failures) / attempted, passes=len(passes),
                   pass_wall_s=times["pass_s"], op_p50_wall_s=times["op_p50_s"])
    if not args.trace:
        summary["setup_wall_s"] = statistics.median(setup_wall)
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "pass_ref_s": times["pass_ref_s"],
            "op_p50_ref_s": times["op_p50_ref_s"],
            "peak_rss_mb": peak_rss_mb,
        }

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_samples_s": setup_wall,
              "metrics": metrics, "summary": summary, "failures": failures,
              "drift_problems": problems, "op_median_s": times["op_median_s"],
              "op_median_ref_s": times["op_median_ref_s"],
              "fingerprint": fingerprints, "self_time_by_op": by_op,
              "samples": [[[r["seconds"], r["speed"]] for r in p["records"]] for p in untraced]}
    (workdir / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for key, value in summary.items():
        print(f"{key}: {json.dumps(value)}")
    for failure in failures:
        print(f"failed: {failure['op']} (pass {failure['pass']}): {failure['reason']}")
    for problem in problems:
        print(f"drift: {problem}")
    for op_kind, top in (by_op or {}).items():
        print(f"self time per pass under {op_kind}: "
              + ", ".join(f"{n} {s:.3f}s" for n, s in top))
    print(f"fingerprint: {json.dumps(fingerprints, sort_keys=True)}")
    units = {"setup_s": "s", "pass_ref_s": "s", "op_p50_ref_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": units.get(name) or _layer_unit(name)}
                    for name, value in metrics.items()},
    }
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        raise RuntimeError(f"non-finite metric in {result['metrics']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
