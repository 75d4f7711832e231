"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest -q perfbench

Runs are shortened (tiny pools, a handful of timed ops, one set-up pass) so
the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run  # pins the BLAS thread variables before numpy does any work

run.load_package()

import altdiff  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in BENCH["workloads"]]
# Workloads on which every op passes today (see README.md for the others).
PASSING = ["qp-dense", "qp-layer", "energy-train"]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


@pytest.fixture
def short(monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 4)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "OUT_DIR", run.ROOT / "perfbench_out" / "test")
    for cls in (workloads.QpDense, workloads.QpLayer, workloads.SparsemaxLayer,
                workloads.SoftmaxLayer):
        monkeypatch.setattr(cls, "pool_size", 3)
    monkeypatch.setattr(workloads.EnergyTrain, "days", 5)


def bench(capsys, workload, seed=1, trace=0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.05",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_benchmark_json_lists_what_run_reports():
    assert set(END_TO_END_UNITS) == set(run.END_TO_END)
    assert all(END_TO_END_UNITS[k] == u for k, u in run.END_TO_END.items())
    assert set(GATED) <= set(PASSING) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_workload_prints_every_end_to_end_metric(short, capsys, workload):
    code, result, lines = bench(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END_UNITS
    printed = {line.split(" = ")[0].strip() for line in lines if line.startswith("  ")}
    assert set(END_TO_END_UNITS) | {"fail_rate"} <= printed
    assert ("train_loss" in printed) == (workload == "energy-train")
    if workload in PASSING:
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", PASSING)
def test_traced_counts_repeat_exactly_for_one_seed(short, capsys, workload):
    runs = [bench(capsys, workload, seed=3, trace=1) for _ in range(2)]
    for code, result, _ in runs:
        assert code == 0 and result["correct"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER_UNITS
    (_, a, _), (_, b, _) = runs
    for name in ("forward.sweeps", "linalg.factorize.calls", "linalg.solve.calls",
                 "forward.primal_update.calls", "forward.confirm_sweeps"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    assert a["metrics"]["linalg.factorize.calls"]["value"] == 1.0


def _instance_arrays(w):
    if isinstance(w, workloads.EnergyTrain):
        return [w.X, w.Y, w.mlp.W1]
    return [np.concatenate([np.ravel(a) for a in (inst.values() if isinstance(inst, dict) else inst)])
            for inst in w.instances]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_fixes_the_instances(short, workload):
    cls = workloads.WORKLOADS[workload]
    a, a_again, b = (_instance_arrays(cls(s)) for s in (1, 1, 2))
    assert all(np.array_equal(x, y) for x, y in zip(a, a_again))
    assert not any(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


def _double_jx(differentiate):
    def corrupted(*args, **kwargs):
        rep = differentiate(*args, **kwargs)
        rep.jac.Jx[...] *= 2.0
        return rep
    return corrupted


def _double_grad(spo_grad_theta):
    return lambda *args, **kwargs: 2.0 * spo_grad_theta(*args, **kwargs)


@pytest.mark.parametrize("workload, module, attr, corrupt", [
    ("qp-dense", altdiff, "differentiate", _double_jx),
    ("qp-layer", altdiff.layers, "differentiate", _double_jx),
    ("energy-train", altdiff.energy, "spo_grad_theta", _double_grad),
])
def test_corrupted_derivative_fails_the_run(short, capsys, monkeypatch, workload, module,
                                            attr, corrupt):
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    code, result, lines = bench(capsys, workload)
    assert code == 1 and not result["correct"]
    assert result["failed"] > 0
    assert any(line.startswith("FAILED") and "derivative relative error" in line for line in lines)


def test_tracer_wraps_every_binding_and_restores_it():
    modules = [m for k, m in sys.modules.items() if k == "altdiff" or k.startswith("altdiff.")]
    classes = [altdiff.Factorization, altdiff.ProblemSpec, altdiff.energy.Mlp]

    def bindings():
        # Callables only: module counters such as linalg._factorize_calls move.
        return {(id(owner), k): v for owner in modules + classes
                for k, v in vars(owner).items() if callable(v) or isinstance(v, staticmethod)}

    before = bindings()
    factorize = altdiff.linalg.factorize
    tracer = spans.Tracer()
    with tracer:
        for mod in (altdiff, altdiff.linalg, altdiff.forward, altdiff.backward, altdiff.layers,
                    altdiff.reference):
            assert mod.factorize is not factorize
            assert mod.factorize.__wrapped__ is factorize
        assert altdiff.energy.differentiate.__wrapped__ is altdiff.backward.differentiate.__wrapped__
        p = altdiff.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=[[1.0, 1.0]], b=[1.0])
        rep = altdiff.differentiate(p, altdiff.EqRhs(), altdiff.SolverConfig(eps=1e-8))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    per_op = tracer.per_op()[None]
    assert per_op["backward.differentiate"][0] == 1
    assert per_op["linalg.factorize"][0] == 1
    assert per_op["forward.primal_update"][0] == rep.forward.iterations
    assert all(row[1] >= 0.0 and row[2] == 0 for row in per_op.values())


def test_run_without_the_package_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qp-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
