import csv
import math

import numpy as np
import pytest

import altdiff as ad
from altdiff import bench


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


def test_run_cases_parallel_matches_sequential():
    cases = [bench.BenchCase(name=f"c{s}", n=20, m_ineq=8, p_eq=4, seed=s) for s in (0, 1)]
    seq = bench.run_cases(cases)
    par = bench.run_cases(cases, parallel=True)
    for a, b in zip(seq, par):
        assert a.case == b.case
        assert a.cosine == pytest.approx(b.cosine, abs=1e-12)
        assert a.iterations == b.iterations
        assert not b.timing_reliable


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


def test_truncation_report_singleton():
    case = bench.BenchCase(name="tr1", n=10, m_ineq=4, p_eq=2, seed=0)
    (only,) = bench.truncation_report(case, [1e-2])
    assert only.x_error == 0.0
    assert only.jac_error == 0.0
    assert math.isnan(only.error_ratio)


def test_scaling_sweep_requires_ascending():
    with pytest.raises(ValueError):
        bench.scaling_sweep([(20, 4, 4), (10, 4, 4)])


def test_scaling_sweep_single_size():
    (rec,) = bench.scaling_sweep([(20, 8, 8)], seed=0, eps=1e-4)
    assert math.isnan(rec.factorization_ratio)
    assert rec.factorization_ms > 0
    assert rec.per_iter_backward_ms > 0


def test_csv_round_trip(tmp_path):
    case = bench.BenchCase(name="tiny", n=20, m_ineq=8, p_eq=4, seed=0, eps=1e-3)
    record = bench.run_case(case)
    path = tmp_path / "out.csv"
    bench.write_csv(path, bench.CSV_HEADER, [record.csv_row()])
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == bench.CSV_HEADER
    parsed = rows[1]
    assert float(parsed[rows[0].index("alt_total_ms")]) == record.alt_total_ms
    assert float(parsed[rows[0].index("kkt_ms")]) == record.kkt_ms
    assert float(parsed[rows[0].index("cosine")]) == record.cosine
    assert int(parsed[rows[0].index("iterations")]) == record.iterations
    assert parsed[rows[0].index("polished")] == str(record.polished)
    assert int(parsed[rows[0].index("polish_factorizations")]) == record.polish_factorizations
