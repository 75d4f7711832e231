"""Acceptance gate: each numbered criterion runs at its stated tolerance and
prints one pass/fail line. Run with `pytest -s tests/test_acceptance.py` to
see the lines as they complete."""

import time

import numpy as np
import pytest

import altdiff as ad
from altdiff import bench, energy
from altdiff.backward import jacobian_allocations
from altdiff.reference import kkt_residual
from conftest import SUITE_RHO, SUITE_SEEDS, cosine
from test_layers import brute_force_box_simplex_projection

GRID = {
    "cos_at_loose": 0.999,
    "frob_at_tight": 1e-3,
    "fd_rtol": 1e-4,
    "fd_floor": 1e-8,
    "identity_tol": 1e-4,
    "ratio_headroom": 10.0,
    "backward_band": (2.5, 6.5),
    "factorization_band": (5.0, 12.0),
    "loss_gap": 0.05,
    "grad_cosine": 0.99,
}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_oracle_equivalence(suite):
    t0 = time.perf_counter()
    cos_min, frob_max = 1.0, 0.0
    for seed in SUITE_SEEDS:
        loose = suite.diff(seed, ad.EqRhs(), 1e-3)
        tight = suite.diff(seed, ad.EqRhs(), 1e-6)
        ref = suite.kkt_jacobian(seed, ad.EqRhs())
        cos_min = min(cos_min, cosine(loose.Jx, ref))
        frob_max = max(frob_max, np.linalg.norm(tight.Jx - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - t0
    ok = cos_min >= GRID["cos_at_loose"] and frob_max <= GRID["frob_at_tight"] and elapsed < 60
    _report(1, "oracle equivalence", ok,
            f"cos_min={cos_min:.6f} frob_max={frob_max:.2e} elapsed={elapsed:.1f}s")


def _entrywise_ok(jac, fd):
    err = np.abs(jac - fd)
    return bool(((err <= GRID["fd_rtol"] * np.abs(fd)) | (err <= GRID["fd_floor"])).all())


def test_criterion_2_finite_difference_agreement(suite):
    t0 = time.perf_counter()
    failures = []
    for seed in SUITE_SEEDS:
        p = suite.problem(seed)
        rep = suite.diff(seed, ad.EqRhs(), 1e-8)
        if rep.weakly_active_warning:
            continue
        fd = ad.finite_diff_jacobian(p, ad.EqRhs(), ad.SolverConfig(rho=SUITE_RHO))
        if not _entrywise_ok(rep.Jx, fd):
            failures.append(f"qp-{seed}")

    layer_cases = [
        ("sparsemax", ad.SparsemaxLayer(
            y=np.linspace(-0.4, 0.6, 10), u=np.full(10, 0.5)), ad.LinearCost()),
        ("softmax-b", ad.SoftmaxLayer(
            y=np.linspace(-0.5, 0.5, 8), u=np.full(8, 4.0)), ad.EqRhs()),
        ("softmax-q", ad.SoftmaxLayer(
            y=np.array([0.8, -0.3, 0.1, 0.4, -0.6]), u=np.full(5, 3.0)), ad.LinearCost()),
    ]
    for name, kind, sel in layer_cases:
        prob = ad.build(kind)
        # Entries that are exactly zero must land under the absolute floor,
        # so the layer runs use a tolerance well below it.
        rep = ad.solve_and_diff(kind, sel, ad.SolverConfig(eps=1e-10))
        assert not rep.weakly_active_warning
        fd = ad.finite_diff_jacobian(prob, sel, ad.SolverConfig())
        if not _entrywise_ok(rep.Jx, fd):
            failures.append(name)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    _report(2, "finite-difference agreement", ok,
            f"failures={failures or 'none'} elapsed={elapsed:.1f}s")


def test_criterion_3_fixed_point_identities(suite):
    worst_eq, worst_lin, worst_rows = 0.0, 0.0, 0.0
    for seed in SUITE_SEEDS:
        p = suite.problem(seed)
        A, G = p.constraints.A, p.constraints.G
        scale = GRID["identity_tol"] * (1 + np.linalg.norm(A))
        rep = suite.diff(seed, ad.EqRhs(), 1e-6)
        worst_eq = max(worst_eq,
                       np.linalg.norm(A @ rep.Jx - np.eye(A.shape[0])) / scale)
        lin = suite.diff(seed, ad.LinearCost(), 1e-6)
        worst_lin = max(worst_lin, np.linalg.norm(A @ lin.Jx) / scale)
        st = rep.forward.state
        gjx = G @ rep.Jx
        for i in range(G.shape[0]):
            row = rep.jac.Jnu[i] if st.s[i] > 1e-6 else gjx[i]
            worst_rows = max(worst_rows, np.linalg.norm(row) / GRID["identity_tol"])
    ok = max(worst_eq, worst_lin, worst_rows) <= 1.0
    _report(3, "fixed-point identities", ok,
            f"worst normalized: A.Jx-I {worst_eq:.3f}, A.Jx {worst_lin:.3f}, "
            f"slack rows {worst_rows:.3f} (1.0 is the bound)")


@pytest.mark.timing
def test_criterion_4_truncation_bound(suite):
    worst_factor = 0.0
    for seed in SUITE_SEEDS:
        rep = suite.diff(seed, ad.EqRhs(), 1e-6, trace=True)
        xe, je = rep.x_errors, rep.jac_errors
        scale = 1e-13 * (1 + np.linalg.norm(rep.x))
        half = range(len(xe) // 2, len(xe) - 1)
        ratios = [je[k] / xe[k] for k in half if xe[k] > scale]
        if len(ratios) >= 2:
            worst_factor = max(worst_factor, max(ratios) / ratios[0])

    # aggregate wall time per tolerance, loosest first; min over rounds
    # strips scheduler noise from the tens-of-milliseconds measurements
    eps_list = [1e-1, 1e-2, 1e-3]
    ad.differentiate(suite.problem(0), ad.EqRhs(),
                     ad.SolverConfig(rho=SUITE_RHO, eps=1e-3))  # warmup
    rounds = []
    for _ in range(5):
        row = []
        for eps in eps_list:
            t0 = time.perf_counter()
            for seed in SUITE_SEEDS:
                ad.differentiate(suite.problem(seed), ad.EqRhs(),
                                 ad.SolverConfig(rho=SUITE_RHO, eps=eps))
            row.append(time.perf_counter() - t0)
        rounds.append(row)
    walls = [min(r[i] for r in rounds) for i in range(len(eps_list))]
    monotone = walls[0] < walls[1] < walls[2]
    ok = worst_factor <= GRID["ratio_headroom"] and monotone
    _report(4, "truncation bound", ok,
            f"worst late-half ratio growth {worst_factor:.2f}x (cap 10x); "
            f"wall seconds loosest->tightest {[f'{w:.2f}' for w in walls]}")


@pytest.mark.timing
def test_criterion_5_backward_scaling():
    t0 = time.perf_counter()
    records = bench.scaling_sweep(
        [(100, 60, 50), (200, 60, 100)], seed=0, eps=1e-6, selector=ad.IneqRhs(),
        rounds=7)
    elapsed = time.perf_counter() - t0
    bwd = records[1].backward_ratio
    fac = records[1].factorization_ratio
    lo_b, hi_b = GRID["backward_band"]
    lo_f, hi_f = GRID["factorization_band"]
    ok = lo_b <= bwd <= hi_b and lo_f <= fac <= hi_f and elapsed < 300
    _report(5, "backward quadratic scaling", ok,
            f"per-iteration backward ratio {bwd:.2f} in [{lo_b},{hi_b}], "
            f"setup ratio {fac:.2f} in [{lo_f},{hi_f}], elapsed={elapsed:.1f}s")


def test_criterion_6_hessian_reuse(suite):
    rep = ad.differentiate(suite.problem(0), ad.EqRhs(),
                           ad.SolverConfig(rho=SUITE_RHO, eps=1e-6))
    counts = [rep.forward.num_factorizations]
    fwd_only = ad.admm_solve(suite.problem(1), ad.SolverConfig(rho=SUITE_RHO, eps=1e-6))
    counts.append(fwd_only.num_factorizations)
    layer = ad.SparsemaxLayer(y=np.linspace(0.0, 0.5, 6), u=np.full(6, 0.6))
    spec = ad.solve_and_diff(layer, ad.EqRhs(), ad.SolverConfig(eps=1e-8))
    counts.append(spec.forward.num_factorizations)
    allocs_before = jacobian_allocations()
    ad.differentiate(suite.problem(2), ad.EqRhs(), ad.SolverConfig(rho=SUITE_RHO, eps=1e-6))
    single_state = jacobian_allocations() == allocs_before + 1
    ok = all(c == 1 for c in counts) and single_state
    _report(6, "hessian reuse", ok,
            f"factorizations per solve {counts} (want all 1), "
            f"one jacobian state allocated: {single_state}")


def test_criterion_7_layer_correctness():
    y, u = np.array([2.0, 0.0]), np.array([1.0, 1.0])
    oracle = brute_force_box_simplex_projection(y, u)
    sp = ad.solve_and_diff(ad.SparsemaxLayer(y=y, u=u), ad.EqRhs(),
                           ad.SolverConfig(eps=1e-9))
    sparsemax_err = float(np.abs(sp.x - oracle).max())

    sm = ad.solve_and_diff(ad.SoftmaxLayer(y=np.array([np.log(2.0), 0.0]),
                                           u=np.array([10.0, 10.0])),
                           ad.EqRhs(), ad.SolverConfig(eps=1e-9))
    softmax_err = float(np.abs(sm.x - np.array([2.0 / 3.0, 1.0 / 3.0])).max())

    kind = ad.SparsemaxLayer(y=np.array([0.2, 0.5, 0.1]), u=np.full(3, 0.8))
    prob = ad.build(kind)
    rho = 1.0
    from altdiff.forward import penalty_matrix
    generic = prob.objective.P.T + penalty_matrix(prob, rho)
    closed = (2.0 + 2.0 * rho) * np.eye(3) + rho * np.ones((3, 3))
    hessian_exact = np.array_equal(generic, closed)

    smk = ad.SoftmaxLayer(y=np.array([0.1, -0.2]), u=np.full(2, 3.0))
    x_pt = np.array([0.6, 0.4])
    f_spec = ad.specialized_hessian_factor(smk, x_pt, rho)
    prob_sm = ad.build(smk)
    f_gen = ad.factorize(prob_sm.objective.hessian(x_pt) + penalty_matrix(prob_sm, rho))
    probe = np.eye(2)
    softmax_hessian_err = float(np.abs(f_spec.solve(probe) - f_gen.solve(probe)).max())

    ok = (sparsemax_err <= 1e-5 and softmax_err <= 1e-5 and hessian_exact
          and softmax_hessian_err <= 1e-8)
    _report(7, "layer correctness", ok,
            f"sparsemax err {sparsemax_err:.1e}, softmax err {softmax_err:.1e}, "
            f"sparsemax curvature exact: {hessian_exact}, "
            f"softmax curvature err {softmax_hessian_err:.1e}")


def test_criterion_8_training_truncation_insensitivity():
    t0 = time.perf_counter()
    dataset = energy.synth_demand(seed=0, days=30)
    log = energy.train(dataset, epochs=10,
                       tolerance_list=[1e-1, 1e-3], lr=1e-3, seed=0)
    loose, tight = log.final_loss(1e-1), log.final_loss(1e-3)
    gap = abs(loose - tight) / max(loose, tight)
    cos_mean = float(log.grad_cosines(1e-1, 1e-3).mean())
    elapsed = time.perf_counter() - t0
    first = [r[2] for r in log.rows if r[1] == 1e-3][0]
    ok = (gap <= GRID["loss_gap"] and cos_mean >= GRID["grad_cosine"]
          and tight < first and elapsed < 600)
    _report(8, "training truncation insensitivity", ok,
            f"final losses ({loose:.3f}, {tight:.3f}) gap {100 * gap:.2f}% (cap 5%), "
            f"grad cosine {cos_mean:.4f} over first 50 steps, elapsed={elapsed:.0f}s")


def test_criterion_9_forward_optimality(suite):
    worst = 0.0
    for seed in SUITE_SEEDS:
        p = suite.problem(seed)
        con = p.constraints
        for eps in (1e-3, 1e-6):
            rep = ad.admm_solve(p, ad.SolverConfig(rho=SUITE_RHO, eps=eps))
            assert rep.converged
            st = rep.state
            res = np.linalg.norm(kkt_residual(p, st.x, st.lam, st.nu))
            worst = max(worst, res / (10 * eps * (1 + np.linalg.norm(st.x))))
            assert np.linalg.norm(con.A @ st.x - con.b) <= 10 * eps * (1 + np.linalg.norm(con.b))
            assert np.linalg.norm(con.G @ st.x + st.s - con.h) <= 10 * eps * (1 + np.linalg.norm(con.h))
            assert st.nu.min() >= -10 * eps
            assert abs(st.nu @ st.s) <= 10 * eps * (1 + np.linalg.norm(st.nu) * np.linalg.norm(st.s))
    ok = worst <= 1.0
    _report(9, "forward optimality", ok,
            f"worst KKT residual at {worst:.3f} of the 10*eps*(1+|x|) budget")
