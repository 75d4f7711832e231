import csv

import numpy as np
import pytest

import altdiff as ad
from altdiff import cli, energy
from altdiff.errors import AltdiffError, BadArgument, DimensionMismatch, NewtonDiverged


def test_energy_problem_slack_ramp_tracks_demand():
    d = np.array([10.0, 40.0, 90.0, 20.0])
    p = energy.energy_problem(d, ramp=1000.0)
    rep = ad.admm_solve(p, ad.SolverConfig(eps=1e-9))
    # the stopping rule is relative; demand sits at the 1e2 scale
    assert np.abs(rep.state.x - d).max() <= 1e-6


def test_energy_problem_two_slot_ramp():
    # KKT by hand: active ramp, x = (3, 7) with multiplier 6.
    p = energy.energy_problem([0.0, 10.0], ramp=4.0)
    rep = ad.admm_solve(p, ad.SolverConfig(eps=1e-9))
    assert rep.state.x == pytest.approx([3.0, 7.0], abs=1e-6)


@pytest.mark.parametrize("ramp", [-5.0, -1e-9, float("nan"), float("inf")])
def test_energy_problem_rejects_negative_ramp(ramp, tmp_path):
    # |x_{k+1} - x_k| <= ramp has no solution for ramp < 0, and an infinite
    # limit is no number the solver can take; the demo's --ramp refuses both
    # as a usage error (exit code 2) before any training.
    with pytest.raises(BadArgument, match=f"ramp must be nonnegative and finite, got {ramp}"):
        energy.energy_problem([1.0, 2.0, 3.0], ramp=ramp)
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "energy", "--epochs", "1", "--days", "4", f"--ramp={ramp}",
                  "--out", str(tmp_path / "e.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "e.csv").exists()


def test_energy_problem_needs_two_slots():
    with pytest.raises(DimensionMismatch, match="at least two time slots"):
        energy.energy_problem([5.0])


def test_energy_problem_flat_demand():
    p = energy.energy_problem([5.0, 5.0], ramp=0.5)
    rep = ad.admm_solve(p, ad.SolverConfig(eps=1e-9))
    assert rep.state.x == pytest.approx([5.0, 5.0], abs=1e-7)


@pytest.mark.parametrize("seed", range(3))
def test_ramp_limits_respected(seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0, 100, size=24)
    ramp, eps = 8.0, 1e-8
    rep = ad.admm_solve(energy.energy_problem(d, ramp), ad.SolverConfig(eps=eps))
    steps = np.abs(np.diff(rep.state.x))
    assert steps.max() <= ramp + 10 * eps * 100


def test_spo_loss_examples():
    assert energy.spo_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert energy.spo_loss([2.0, 3.0], [1.0, 2.0]) == 1.0
    assert energy.spo_loss([3.0, 4.0], [0.0, 0.0]) == 12.5
    with pytest.raises(DimensionMismatch):
        energy.spo_loss([1.0], [1.0, 2.0])


def test_spo_grad_zero_at_optimum():
    theta = np.linspace(20, 60, 24)
    rep = ad.differentiate(energy.energy_problem(theta, 1000.0), ad.LinearCost(),
                           ad.SolverConfig(eps=1e-9))
    g = energy.spo_grad_theta(rep, rep.x)
    assert np.abs(g).max() <= 1e-12


def test_spo_grad_unconstrained_identity():
    # With a slack ramp, x* = theta, so the composed Jacobian is identity.
    theta = np.linspace(30, 70, 24)
    x_true = np.linspace(35, 65, 24)
    rep = ad.differentiate(energy.energy_problem(theta, 1000.0), ad.LinearCost(),
                           ad.SolverConfig(eps=1e-9))
    g = energy.spo_grad_theta(rep, x_true)
    assert np.abs(g - (rep.x - x_true)).max() <= 1e-6


def test_spo_grad_matches_finite_differences_on_active_toy():
    theta0 = np.array([0.0, 10.0])
    x_true = np.array([2.0, 6.0])
    ramp = 4.0
    cfg = ad.SolverConfig(eps=1e-9)

    def loss(theta):
        rep = ad.admm_solve(energy.energy_problem(theta, ramp), cfg)
        return energy.spo_loss(rep.state.x, x_true)

    rep = ad.differentiate(energy.energy_problem(theta0, ramp), ad.LinearCost(), cfg)
    g = energy.spo_grad_theta(rep, x_true)
    step = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        fd = (loss(theta0 + e) - loss(theta0 - e)) / (2 * step)
        assert abs(g[j] - fd) <= 1e-4 * max(abs(fd), 1.0)


def test_adam_step_examples():
    params = {"w": np.array([1.0])}
    state = energy.AdamState.for_params(params)
    params, state = energy.adam_step(state, params, {"w": np.array([0.0])}, lr=1e-3)
    assert params["w"][0] == 1.0  # zero gradient leaves the parameter alone

    params = {"w": np.array([1.0])}
    state = energy.AdamState.for_params(params)
    params, state = energy.adam_step(state, params, {"w": np.array([1.0])}, lr=1e-3)
    assert 1.0 - params["w"][0] == pytest.approx(1e-3, rel=1e-6)

    w1 = params["w"][0]
    params, state = energy.adam_step(state, params, {"w": np.array([1.0])}, lr=1e-3)
    assert params["w"][0] < w1


def test_adam_shape_check():
    params = {"w": np.zeros(3)}
    state = energy.AdamState.for_params(params)
    with pytest.raises(DimensionMismatch):
        energy.adam_step(state, params, {"w": np.zeros(2)}, lr=1e-3)


def test_synth_demand_deterministic_and_bounded():
    X1, Y1 = energy.synth_demand(11, 6)
    X2, Y2 = energy.synth_demand(11, 6)
    assert np.array_equal(X1, X2) and np.array_equal(Y1, Y2)
    assert X1.min() >= 0.0 and X1.max() <= 100.0
    assert Y1.min() >= 0.0 and Y1.max() <= 100.0


def test_synth_demand_window_count():
    X, Y = energy.synth_demand(0, 4)
    assert X.shape == (1, 72)
    assert Y.shape == (1, 24)
    with pytest.raises(ValueError):
        energy.synth_demand(0, 3)


@pytest.mark.parametrize("seed, days, message", [
    (-1, 8, "seed must be an integer of at least 0, got -1"),
    (0, 4.0, "days must be an integer of at least 4, got 4.0"),
], ids=["seed-negative", "days-float"])
def test_synth_demand_checks_seed_and_days(seed, days, message):
    with pytest.raises(BadArgument, match=message):
        energy.synth_demand(seed, days)


def test_synth_demand_exercises_ramp_limit():
    X, Y = energy.synth_demand(0, 10)
    series = np.concatenate([X[0], Y[0]])
    assert np.abs(np.diff(series)).max() > energy.DEFAULT_RAMP


def test_train_zero_lr_keeps_loss_constant():
    X, Y = energy.synth_demand(0, 5)
    log = energy.train((X[:6], Y[:6]), epochs=3, tolerance_list=[1e-2], lr=0.0, seed=1)
    losses = [r[2] for r in log.rows]
    assert losses[0] == pytest.approx(losses[1]) == pytest.approx(losses[2])


def test_train_rejects_empty_dataset():
    X, Y = energy.synth_demand(0, 4)
    with pytest.raises(ValueError, match="dataset is empty"):
        energy.train((X[:0], Y[:0]), epochs=1, tolerance_list=[1e-1])


@pytest.mark.parametrize("kwargs, message", [
    ({"epochs": 0}, "epochs must be an integer of at least 1, got 0"),
    ({"lr": -1.0}, "lr must be nonnegative and finite"),
    ({"lr": float("nan")}, "lr must be nonnegative and finite"),
    ({"lr": float("inf")}, "lr must be nonnegative and finite"),
    ({"tolerance_list": []}, "tolerance_list must list at least one tolerance"),
    ({"tolerance_list": [1e-1, 0.0]}, "eps must be positive and finite"),
    ({"seed": -1}, "seed must be an integer of at least 0, got -1"),
], ids=["epochs-0", "lr-negative", "lr-nan", "lr-inf", "tolerances-empty", "tolerance-zero",
        "seed-negative"])
def test_train_checks_its_arguments_before_any_solve(kwargs, message, monkeypatch):
    monkeypatch.setattr(energy, "admm_solve", None)  # a solve would raise TypeError
    X, Y = energy.synth_demand(0, 4)
    with pytest.raises(BadArgument, match=message):
        energy.train((X[:2], Y[:2]), **kwargs)


def test_train_loss_decreases():
    X, Y = energy.synth_demand(3, 8)
    log = energy.train((X[:40], Y[:40]), epochs=3, tolerance_list=[1e-2],
                       lr=1e-3, seed=0)
    losses = [r[2] for r in log.rows]
    assert losses[-1] < losses[0]


def test_train_shared_seed_grad_log():
    X, Y = energy.synth_demand(2, 5)
    log = energy.train((X[:10], Y[:10]), epochs=1, tolerance_list=[1e-1, 1e-3],
                       lr=1e-3, seed=0)
    cos = log.grad_cosines(1e-1, 1e-3)
    assert len(cos) == 10
    assert cos.mean() >= 0.98


def test_train_names_the_step_a_solve_fails_at(monkeypatch):
    """An AltdiffError from a training solve is raised again with the epoch,
    sample and tolerance it stopped at, chained to the original."""
    calls = []

    def fails_on_the_sixth_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 6:
            raise NewtonDiverged("injected")
        return ad.differentiate(*args, **kwargs)

    monkeypatch.setattr(energy, "differentiate", fails_on_the_sixth_call)
    X, Y = energy.synth_demand(0, 5)
    with pytest.raises(AltdiffError) as exc:
        energy.train((X[:4], Y[:4]), epochs=2, tolerance_list=[1e-2])
    assert str(exc.value) == "epoch 1 aborted at sample 1 (tolerance 0.01): injected"
    assert isinstance(exc.value.__cause__, NewtonDiverged)


def test_training_log_csv_round_trip(tmp_path):
    X, Y = energy.synth_demand(0, 4)
    log = energy.train((X, Y), epochs=2, tolerance_list=[1e-1], lr=1e-3, seed=0)
    path = tmp_path / "log.csv"
    energy.write_training_log(log, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "tolerance", "mean_loss", "mean_solver_iters", "wall_time_ms"]
    assert len(rows) == 1 + len(log.rows)
    for parsed, original in zip(rows[1:], log.rows):
        assert float(parsed[2]) == original[2]
