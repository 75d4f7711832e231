"""Benchmark for the altdiff package: one workload, one seed, one run.

    python3 perfbench/run.py --workload qp-dense --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports the package from its ``src``
directory. One client drives ops in a closed loop, each op starting after
the previous one returned, with BLAS pinned to one thread.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: it wraps the public functions of each module in span
recorders (see spans.py), checks that traced and untraced ops give
bit-identical outputs, alternates traced and untraced passes over the pool,
and writes the spans to ``perfbench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when any output check failed.
"""

import os
import sys
import time

T_START = time.perf_counter()

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Pinned before numpy is imported anywhere in the process.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"

# Set-up (pool generation and warm-up ops) is repeated and its median kept.
SETUP_REPS = 3
WARMUP_OPS = 2
# p90 needs at least ten samples beyond it, so a run times at least this
# many ops even when --seconds has passed.
MIN_SAMPLES = 110
# Stop early in any case, so a pathologically slow build still exits well
# within the harness limit.
MAX_LOOP_S = 120.0
# x_rel_err and deriv_rel_err come from one checked pass over the pool of
# this fixed seed, run after the timed loop. The seeded pools differ a lot in
# how hard their instances are, so their largest errors move with --seed far
# more than any bound allows; the fixed pass repeats exactly for one build.
ACCURACY_SEED = 0

END_TO_END = {
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "throughput_per_s": "1/s",
    "deriv_rel_err": "1",
    "x_rel_err": "1",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Counts averaged over the traced identity pass; the pass is fixed by the
# seed, so they repeat exactly.
COUNT_METRICS = {
    "linalg.factorize.calls": "linalg.factorize",
    "linalg.solve.calls": "linalg.solve",
    "forward.primal_update.calls": "forward.primal_update",
    "layers.hessian_factor.calls": "layers.hessian_factor",
}
# Median per-op self time over the traced passes of the timed loop.
TIME_METRICS = {
    "linalg.factorize.ms": "linalg.factorize",
    "linalg.solve.ms": "linalg.solve",
    "problem.validate.ms": "problem.validate",
    "problem.spec.ms": "problem.spec",
    "forward.primal_update.ms": "forward.primal_update",
    "forward.slack_update.ms": "forward.slack_update",
    "forward.dual_update.ms": "forward.dual_update",
    "backward.differentiate.ms": "backward.differentiate",
    "layers.solve_and_diff.ms": "layers.solve_and_diff",
    "energy.mlp.ms": "energy.mlp",
    "energy.adam_step.ms": "energy.adam_step",
}


def load_package():
    """Import altdiff from this checkout's src directory, or exit nonzero."""
    if not (SRC / "altdiff" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'altdiff'} not found; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import altdiff

    if Path(altdiff.__file__).resolve().parent != (SRC / "altdiff").resolve():
        raise SystemExit(f"perfbench: imported altdiff from {altdiff.__file__}, not from {SRC}")


def environment(args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs and checks ops, keeping latencies, errors and failure counts."""

    def __init__(self, workload, tracer):
        self.w = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.x_err = 0.0
        self.deriv_err = 0.0
        self.failures: list[str] = []

    def _fail(self, i, what):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {i}: {what}")

    def op(self, i, latencies):
        """Run op i; its wall time goes to latencies. Returns its output or None."""
        from workloads import CheckFailed

        if self.tracer is not None:
            self.tracer.op_id = i
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = self.w.op(i)
            latencies.append((time.perf_counter() - t0) * 1e3)
        except Exception:
            self._fail(i, traceback.format_exc(limit=3))
            return None
        if self.tracer is not None:
            self.tracer.op_id = f"ref:op{i}"
        try:
            errs = self.w.check(i, out)
        except CheckFailed as exc:
            self._fail(i, str(exc))
            return out
        except Exception:
            self._fail(i, "check raised\n" + traceback.format_exc(limit=3))
            return out
        if errs is not None:
            self.checked += 1
            self.x_err = max(self.x_err, errs[0])
            self.deriv_err = max(self.deriv_err, errs[1])
        return out

    def references(self):
        for k in self.w.ref_keys():
            if self.tracer is not None:
                self.tracer.op_id = f"ref:{k}"
            self.w.refs[k] = self.w.compute_reference(k)


def confirm_sweeps(report, eps) -> int:
    """Sweeps after the first one at which both step norms are below eps."""
    pairs = list(zip(report.forward.step_norms, report.jac_step_norms))
    for k, (xs, js) in enumerate(pairs):
        if xs < eps and js < eps:
            return len(pairs) - k - 1
    return 0


def digest(out):
    rep = out.report
    return (out.x.tobytes(), out.deriv.tobytes(), rep.forward.iterations,
            rep.forward.num_factorizations)


def timed_loop(runner, first_op, seconds, traced_op=None):
    """Closed loop from op first_op until --seconds have passed and at least
    MIN_SAMPLES ops ran. traced_op(i) says whether op i runs with the span
    recorders installed. Returns the untraced and traced latencies."""
    plain, traced = [], []
    tracer = runner.tracer
    i = first_op
    t_loop = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - t_loop
            if elapsed >= MAX_LOOP_S or (elapsed >= seconds and i - first_op >= MIN_SAMPLES):
                break
            on = traced_op is not None and traced_op(i)
            if tracer is not None:
                if on:
                    tracer.install()
                else:
                    tracer.uninstall()
            runner.op(i, traced if on else plain)
            i += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    return plain, traced


def run_untraced(args, w, setup_s):
    runner = Runner(w, None)
    runner.references()
    lat, _ = timed_loop(runner, 0, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = {
        "samples": len(lat),
        "timed_s": sum(lat) / 1e3,
        "checked_ops": runner.checked,
        "seeded_x_rel_err": runner.x_err,
        "seeded_deriv_rel_err": runner.deriv_err,
    }

    probe = Runner(type(w)(ACCURACY_SEED), None)
    probe.references()
    for i in range(probe.w.pass_len):
        probe.op(i, [])
    runner.attempted += probe.attempted
    runner.failed += probe.failed
    runner.failures += probe.failures
    extra["accuracy_ops"] = probe.checked

    values = {
        "latency_ms.p50": statistics.median(lat) if lat else None,
        "latency_ms.p90": float(np.percentile(lat, 90)) if lat else None,
        "throughput_per_s": len(lat) / (sum(lat) / 1e3) if lat else None,
        "deriv_rel_err": probe.deriv_err if probe.checked else None,
        "x_rel_err": probe.x_err if probe.checked else None,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    # Printed with the metrics but left out of the result line: fail_rate is
    # 0 on a good run (the result carries attempted and failed instead), and
    # train_loss exists on energy-train only.
    shown = {"fail_rate": (runner.failed / max(runner.attempted, 1), "1")}
    if hasattr(w, "train_loss"):
        shown["train_loss"] = (w.train_loss(), "1")
    return runner, metrics, extra, shown


def run_traced(args, w):
    import spans

    tracer = spans.Tracer()
    runner = Runner(w, tracer)
    with tracer:
        runner.references()

    # Identity pass: the same ops untraced, then traced from the same state.
    n = w.pass_len
    snap = w.snapshot()
    plain_out = [runner.op(i, []) for i in range(n)]
    w.restore(snap)
    first_span = len(tracer.spans)
    with tracer:
        traced_out = [runner.op(i, []) for i in range(n, 2 * n)]
    mismatches = sum(
        1 for a, b in zip(plain_out, traced_out)
        if a is None or b is None or digest(a) != digest(b)
    )
    if mismatches:
        runner.failed += mismatches
        runner.failures.append(f"{mismatches} of {n} traced ops differ from their untraced runs")
    identity = tracer.per_op(first_span)

    # Timed loop, alternating untraced and traced ops. The phase flips every
    # pass, so each pool instance runs both ways.
    t_first = len(tracer.spans)
    plain_lat, traced_lat = timed_loop(runner, 2 * n, args.seconds,
                                       traced_op=lambda i: (i + i // n) % 2 == 1)
    timed = tracer.per_op(t_first)
    traced_ops = [k for k in timed if isinstance(k, int)]

    metrics = {}
    for metric, span in COUNT_METRICS.items():
        calls = sum(identity[i][span][0] for i in range(n, 2 * n) if i in identity)
        metrics[metric] = (calls / n, "count")
    ok_out = [o for o in traced_out if o is not None]
    metrics["forward.sweeps"] = (
        sum(o.report.forward.iterations for o in ok_out) / max(len(ok_out), 1), "count")
    metrics["forward.confirm_sweeps"] = (
        sum(confirm_sweeps(o.report, w.cfg.eps) for o in ok_out) / max(len(ok_out), 1), "count")
    for metric, span in TIME_METRICS.items():
        per_op = [timed[k][span][1] if span in timed[k] else 0.0 for k in traced_ops]
        metrics[metric] = (statistics.median(per_op) if per_op else None, "ms")
    all_ops = tracer.per_op()
    ref_ms = [row["reference.implicit_diff_solve"][1] for k, row in all_ops.items()
              if isinstance(k, str) and "reference.implicit_diff_solve" in row]
    metrics["reference.implicit_diff_solve.ms"] = (statistics.median(ref_ms) if ref_ms else None, "ms")
    overhead = None
    if plain_lat and traced_lat:
        overhead = (statistics.median(traced_lat) / statistics.median(plain_lat) - 1.0) * 100.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    for span in spans.SPAN_NAMES:
        errors = sum(row[span][2] for row in all_ops.values() if span in row)
        metrics[f"{span}.errors"] = (errors, "count")

    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(path)
    extra = {
        "identity_ops": n,
        "identity_mismatches": mismatches,
        "traced_samples": len(traced_lat),
        "untraced_samples": len(plain_lat),
        "spans": len(tracer.spans),
        "spans_file": str(path.relative_to(ROOT)),
    }
    return runner, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra, {}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - T_START
    cls = workloads.WORKLOADS[args.workload]

    setup_runs = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        w = cls(args.seed)
        for i in range(WARMUP_OPS):
            w.op(i)
        setup_runs.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_runs)

    if args.trace:
        runner, metrics, extra, shown = run_traced(args, w)
    else:
        runner, metrics, extra, shown = run_untraced(args, w, setup_s)
    correct = runner.failed == 0 and all(m["value"] is not None for m in metrics.values())

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(args)))
    print("ops " + json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                               "import_s": import_s, "setup_runs_s": setup_runs, **extra}))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value} {unit}")
    for what in runner.failures:
        print("FAILED " + what.rstrip().replace("\n", "\n  "))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
