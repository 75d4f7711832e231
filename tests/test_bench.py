import csv
import math

import numpy as np
import pytest

import altdiff as ad
from altdiff import bench, cli
from altdiff.errors import BadArgument


def test_gen_random_qp_deterministic():
    a = bench.gen_random_qp(20, 8, 4, 5)
    b = bench.gen_random_qp(20, 8, 4, 5)
    assert np.array_equal(a.objective.P, b.objective.P)
    assert np.array_equal(a.objective.q, b.objective.q)
    assert np.array_equal(a.constraints.G, b.constraints.G)
    assert np.array_equal(a.constraints.h, b.constraints.h)


def test_gen_random_qp_curvature_floor():
    p = bench.gen_random_qp(30, 10, 5, 2)
    lam_min = np.linalg.eigvalsh(p.objective.P)[0]
    assert lam_min >= 0.1 - 1e-9


def test_gen_random_qp_strictly_feasible():
    # Mirror the documented construction to recover the feasible point z.
    n, m, peq, seed = 25, 10, 5, 7
    p = bench.gen_random_qp(n, m, peq, seed)
    rng = np.random.default_rng(seed)
    rng.standard_normal((n, n))  # M
    rng.standard_normal(n)       # q
    rng.standard_normal((peq, n))  # A
    rng.standard_normal((m, n))    # G
    z = rng.standard_normal(n)
    con = p.constraints
    assert np.abs(con.A @ z - con.b).max() <= 1e-12
    assert np.all(con.G @ z < con.h)


def test_case_validation():
    with pytest.raises(ValueError):
        bench.BenchCase(name="bad", n=0, m_ineq=1, p_eq=1)
    with pytest.raises(ValueError):
        bench.BenchCase(name="bad", n=4, m_ineq=1, p_eq=5)
    with pytest.raises(ValueError):
        bench.BenchCase(name="bad", n=4, m_ineq=1, p_eq=1, kind="lp")


@pytest.mark.parametrize("setting, message", [
    ({"n": True}, "n must be an integer"), ({"n": 2.5}, "n must be an integer"),
    ({"m_ineq": True}, "m_ineq must be an integer"), ({"m_ineq": 2.5}, "m_ineq must be an integer"),
    ({"p_eq": True}, "p_eq must be an integer"), ({"p_eq": 2.5}, "p_eq must be an integer"),
    ({"seed": True}, "seed must be an integer"), ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": -1}, "seed must be an integer of at least 0"),
])
def test_case_rejects_bad_integers(setting, message):
    """Counts and the seed are integers (not bools) when the case is made, so
    run_case never meets numpy's TypeError or ValueError for them."""
    fields = {"name": "bad", "n": 4, "m_ineq": 2, "p_eq": 1, **setting}
    with pytest.raises(ValueError, match=message):
        bench.BenchCase(**fields)
    bench.BenchCase(**{**fields, **{k: np.int64(2) for k in setting}})


@pytest.mark.parametrize("setting", [{"eps": -1.0}, {"eps": 0.0}, {"eps": math.inf},
                                     {"eps": math.nan}, {"rho": -1.0}, {"rho": math.inf}])
def test_case_rejects_bad_solver_settings(setting, tmp_path):
    """eps and rho are checked with the dimensions, when the case is made,
    so run_case never meets a SolverConfig it cannot build; `bench qp`
    rejects the same settings as a usage error before any solve."""
    with pytest.raises(ValueError, match="must be positive and finite"):
        bench.BenchCase(name="bad", n=4, m_ineq=1, p_eq=1, **setting)
    (name, value), = setting.items()
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "qp", "--sizes", "4:1:1", f"--{name}={value}",
                  "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2 and not (tmp_path / "r.csv").exists()


def test_run_case_tiny_qp():
    case = bench.BenchCase(name="tiny", n=50, m_ineq=20, p_eq=10, seed=0, eps=1e-3)
    record = bench.run_case(case)
    assert record.converged
    assert record.error == ""
    assert record.cosine is not None
    assert record.cosine >= 0.999
    assert record.alt_total_ms > 0 and record.kkt_ms > 0
    assert record.iterations > 0
    assert record.polished and record.polish_factorizations == 1


def test_run_case_records_refused_reference():
    # The tight solve of this case stops short of the optimality test the
    # reference route needs; the row carries the named refusal and no cosine.
    case = bench.BenchCase(name="sparsemax-30", n=30, m_ineq=10, p_eq=3, kind="sparsemax")
    record = bench.run_case(case)
    assert record.error.startswith("NotOptimal: point is not optimal enough")
    assert record.cosine is None
    assert record.alt_total_ms > 0 and record.iterations > 0


def test_run_case_tight_tolerance():
    case = bench.BenchCase(name="tight", n=50, m_ineq=20, p_eq=10, seed=0, eps=1e-6)
    record = bench.run_case(case)
    assert record.cosine is not None
    assert record.cosine >= 0.999999
    prob = bench.case_problem(case)
    rep = ad.differentiate(prob, ad.EqRhs(), ad.SolverConfig(eps=1e-6))
    tight = ad.admm_solve(prob, ad.SolverConfig(eps=1e-8, max_outer_iters=200000))
    st = tight.state
    ref = ad.implicit_diff_solve(prob, st.x, st.lam, st.nu, ad.EqRhs())
    assert np.linalg.norm(rep.Jx - ref) / np.linalg.norm(ref) <= 1e-3


def test_run_case_deterministic_accuracy_fields():
    case = bench.BenchCase(name="det", n=25, m_ineq=10, p_eq=5, seed=3, eps=1e-3)
    a = bench.run_case(case)
    b = bench.run_case(case)
    assert a.cosine == b.cosine
    assert a.iterations == b.iterations


def _run_case_on(monkeypatch, problem):
    monkeypatch.setattr(bench, "case_problem", lambda case: problem)
    return bench.run_case(bench.BenchCase(name="degen", n=problem.n, m_ineq=1, p_eq=1, seed=0))


def test_run_case_flags_weak_activity(monkeypatch):
    # Active with a zero multiplier: the oracle's strict-complementarity guard
    # raises before the weak-activity branch is reached.
    degenerate = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[1.0]], h=[0.0])
    record = _run_case_on(monkeypatch, degenerate)
    assert record.cosine is None
    assert record.error == "SingularKkt: strict complementarity fails on constraints [0]"


def test_run_case_omits_cosine_when_weakly_active(monkeypatch):
    # x1 <= 5e-7 holds with margin 5e-7 and a zero multiplier: weakly active
    # under WEAK_ACTIVITY_TOL (1e-6), but the margin clears the oracle's 1e-8
    # strict-complementarity guard.
    weak = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2), A=[[0.0, 1.0]], b=[1.0],
                                    G=[[1.0, 0.0]], h=[5e-7])
    record = _run_case_on(monkeypatch, weak)
    assert record.cosine is None
    assert record.error == "weakly active constraint; cosine omitted"


def test_run_case_layer_kinds():
    case = bench.BenchCase(name="spx", n=20, m_ineq=40, p_eq=1, seed=1, kind="sparsemax")
    record = bench.run_case(case)
    assert record.converged
    case2 = bench.BenchCase(name="sm", n=15, m_ineq=30, p_eq=1, seed=1, kind="softmax")
    record2 = bench.run_case(case2)
    assert record2.converged


@pytest.mark.timing
def test_truncation_report_ordering():
    case = bench.BenchCase(name="tr", n=30, m_ineq=12, p_eq=6, seed=0)
    # wall times at this size are single milliseconds; min over repeats
    # strips scheduler noise before the monotonicity check
    runs = [bench.truncation_report(case, [1e-1, 1e-2, 1e-3]) for _ in range(3)]
    records = runs[0]
    walls = [min(r[i].wall_ms for r in runs) for i in range(3)]
    iters = [r.iterations for r in records]
    assert iters == sorted(iters)
    # loosest-first: wall time nondecreasing as the tolerance tightens
    assert walls[0] <= walls[1] <= walls[2]
    assert records[-1].x_error == 0.0 and records[-1].jac_error == 0.0
    assert records[0].x_error >= records[1].x_error


@pytest.mark.parametrize("eps_list", [[1e-1, 1e-2, 1e-3], [1e-2]], ids=["three", "one"])
def test_truncation_report_matches_differentiate(eps_list, monkeypatch):
    """Each record is differentiate() at its tolerance, measured against the
    tightest tolerance's, from one warm-up solve and REPEATS timed rounds."""
    case = bench.BenchCase(name="tr", n=30, m_ineq=12, p_eq=6, seed=0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ad.differentiate(*args, **kwargs)

    monkeypatch.setattr(bench, "differentiate", counted)
    records = bench.truncation_report(case, eps_list)
    assert len(calls) == 1 + bench.REPEATS * len(eps_list)
    prob = bench.case_problem(case)
    reports = [ad.differentiate(prob, ad.EqRhs(), ad.SolverConfig(rho=case.rho, eps=e))
               for e in eps_list]
    for rec, e, r in zip(records, eps_list, reports):
        assert (rec.eps, rec.iterations) == (e, r.forward.iterations)
        assert rec.x_error == np.linalg.norm(r.x - reports[-1].x)
        assert rec.jac_error == np.linalg.norm(r.Jx - reports[-1].Jx)
    assert records[-1].x_error == records[-1].jac_error == 0.0


@pytest.mark.parametrize("eps_list", [[], [1e-3, 1e-1]], ids=["empty", "tightening-first"])
def test_truncation_report_rejects_bad_eps_list(eps_list):
    case = bench.BenchCase(name="tr1", n=10, m_ineq=4, p_eq=2, seed=0)
    with pytest.raises(ValueError, match="loosest first"):
        bench.truncation_report(case, eps_list)


def test_truncation_report_checks_every_eps_before_solving(monkeypatch):
    case = bench.BenchCase(name="tr1", n=10, m_ineq=4, p_eq=2, seed=0)
    calls = []
    monkeypatch.setattr(bench, "differentiate", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        bench.truncation_report(case, [1e-1, -1.0])
    assert calls == []


def test_truncation_report_singleton():
    case = bench.BenchCase(name="tr1", n=10, m_ineq=4, p_eq=2, seed=0)
    (only,) = bench.truncation_report(case, [1e-2])
    assert only.x_error == 0.0
    assert only.jac_error == 0.0
    assert math.isnan(only.error_ratio)


def test_scaling_sweep_requires_ascending():
    with pytest.raises(ValueError):
        bench.scaling_sweep([(20, 4, 4), (10, 4, 4)])


@pytest.mark.parametrize("sizes, message", [
    ([(10, 4, 20)], "more equality rows than variables"),
    ([(10, 0, 2)], "m_ineq must be an integer of at least 1, got 0"),
    ([(10.0, 4, 2)], "n must be an integer"),
], ids=["p-over-n", "zero-rows", "float-n"])
def test_scaling_sweep_checks_each_size_as_bench_case_does(sizes, message, monkeypatch):
    monkeypatch.setattr(bench, "differentiate", None)  # a solve would raise TypeError
    with pytest.raises(ValueError, match=message):
        bench.scaling_sweep(sizes)


def test_scaling_sweep_checks_its_seed_before_solving(monkeypatch):
    monkeypatch.setattr(bench, "differentiate", None)  # a solve would raise TypeError
    with pytest.raises(BadArgument, match="seed must be an integer of at least 0, got -1"):
        bench.scaling_sweep([(10, 4, 2)], seed=-1)


def test_scaling_sweep_single_size():
    (rec,) = bench.scaling_sweep([(20, 8, 8)], seed=0, eps=1e-4)
    assert math.isnan(rec.factorization_ratio)
    assert rec.factorization_ms > 0
    assert rec.per_iter_backward_ms > 0


def test_csv_round_trip(tmp_path):
    case = bench.BenchCase(name="tiny", n=20, m_ineq=8, p_eq=4, seed=0, eps=1e-3)
    record = bench.run_case(case)
    path = tmp_path / "out.csv"
    bench.write_csv(path, bench.BenchRecord, [record])
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "name", "n", "m_ineq", "p_eq", "seed", "kind", "eps", "rho",
        "alt_total_ms", "alt_factorization_ms", "alt_iteration_ms",
        "kkt_ms", "cosine", "iterations", "converged", "polished", "polish_factorizations",
        "jacobian_sweeps", "error",
    ]
    parsed = rows[1]
    assert float(parsed[rows[0].index("alt_total_ms")]) == record.alt_total_ms
    assert float(parsed[rows[0].index("kkt_ms")]) == record.kkt_ms
    assert float(parsed[rows[0].index("cosine")]) == record.cosine
    assert int(parsed[rows[0].index("iterations")]) == record.iterations
    assert parsed[rows[0].index("polished")] == str(record.polished)
    assert int(parsed[rows[0].index("polish_factorizations")]) == record.polish_factorizations
    assert int(parsed[rows[0].index("jacobian_sweeps")]) == record.jacobian_sweeps
