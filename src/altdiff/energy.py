"""Predict-then-optimize demo: generation scheduling under ramp limits.

A small feed-forward network maps the last 72 hourly demand values to a
24-hour demand forecast. The forecast parameterizes a scheduling problem

    min sum_k (x_k - demand_k)^2   s.t.  |x_{k+1} - x_k| <= ramp,

and training minimizes the distance between the schedule computed from the
forecast and the schedule computed from the true demand, with gradients
pulled through the scheduling layer. Demand is synthetic (seeded sinusoids
plus noise, normalized to [0, 100]) and is generated with ramps steep enough
to activate the constraint path.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .backward import admm_solve, differentiate, vjp
from .errors import AltdiffError, DimensionMismatch
from .forward import SolverConfig
from .problem import LinearCost, ProblemSpec

HORIZON = 24
HISTORY = 72
DEFAULT_RAMP = 20.0

# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# train() keeps the demand gradient of this many first steps per tolerance.
GRAD_LOG_STEPS = 50


def energy_problem(demand, ramp: float = DEFAULT_RAMP) -> ProblemSpec:
    """Scheduling problem for one day: track demand under a ramp limit."""
    if not ramp >= 0:  # a negative limit |x_{k+1} - x_k| <= ramp is infeasible
        raise ValueError(f"ramp must be nonnegative, got {ramp}")
    d = np.asarray(demand, dtype=float).reshape(-1)
    T = d.shape[0]
    if T < 2:
        raise DimensionMismatch("need at least two time slots")
    diff = np.zeros((T - 1, T))
    idx = np.arange(T - 1)
    diff[idx, idx + 1] = 1.0
    diff[idx, idx] = -1.0
    G = np.vstack([diff, -diff])
    h = np.full(2 * (T - 1), float(ramp))
    return ProblemSpec.quadratic(P=2.0 * np.eye(T), q=-2.0 * d, G=G, h=h)


def spo_loss(x_hat, x_true) -> float:
    """(1/2) || x_hat - x_true ||^2."""
    a = np.asarray(x_hat, dtype=float).reshape(-1)
    b = np.asarray(x_true, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return 0.5 * float(np.sum((a - b) ** 2))


def spo_grad_theta(report, x_true) -> np.ndarray:
    """Loss gradient w.r.t. the predicted demand.

    The report must come from differentiating the scheduling problem w.r.t.
    its linear cost; the chain factor -2 maps the cost q = -2 theta back to
    the demand parameter.
    """
    x_true = np.asarray(x_true, dtype=float).reshape(-1)
    g_x = report.x - x_true
    return -2.0 * vjp(report, g_x)


@dataclass
class AdamState:
    """First/second moment accumulators for a dict of parameter arrays."""

    m: dict
    v: dict
    t: int = 0

    @staticmethod
    def for_params(params: dict) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(state: AdamState, params: dict, grads: dict, lr: float) -> tuple[dict, AdamState]:
    """One bias-corrected update; parameter arrays are updated in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise DimensionMismatch(f"gradient shape {g.shape} != parameter shape {p.shape} for {k}")
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * g * g
        m_hat = state.m[k] / (1 - b1 ** state.t)
        v_hat = state.v[k] / (1 - b2 ** state.t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


@dataclass
class Mlp:
    """Two hidden ReLU layers (128, 64); maps 72 demand values to 24."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray

    @staticmethod
    def init(seed: int) -> "Mlp":
        rng = np.random.default_rng(seed)
        scale = lambda n: np.sqrt(2.0 / n)
        return Mlp(
            W1=rng.standard_normal((128, HISTORY)) * scale(HISTORY),
            b1=np.zeros(128),
            W2=rng.standard_normal((64, 128)) * scale(128),
            b2=np.zeros(64),
            W3=rng.standard_normal((HORIZON, 64)) * scale(64),
            # Start predictions at mid-range demand instead of zero.
            b3=np.full(HORIZON, 50.0),
        )

    def params(self) -> dict:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2,
                "W3": self.W3, "b3": self.b3}

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=float).reshape(-1) / 100.0
        z1 = self.W1 @ x + self.b1
        a1 = np.maximum(z1, 0.0)
        z2 = self.W2 @ a1 + self.b2
        a2 = np.maximum(z2, 0.0)
        out = self.W3 @ a2 + self.b3
        return out, (x, z1, a1, z2, a2)

    def backward(self, cache, grad_out: np.ndarray) -> dict:
        x, z1, a1, z2, a2 = cache
        g3 = np.asarray(grad_out, dtype=float).reshape(-1)
        dW3 = np.outer(g3, a2)
        g2 = (self.W3.T @ g3) * (z2 > 0)
        dW2 = np.outer(g2, a1)
        g1 = (self.W2.T @ g2) * (z1 > 0)
        dW1 = np.outer(g1, x)
        return {"W1": dW1, "b1": g1, "W2": dW2, "b2": g2, "W3": dW3, "b3": g3}


def synth_demand(seed: int, days: int):
    """Seeded synthetic hourly demand, windowed into (72 -> 24) pairs.

    Daily plus half-daily sinusoids with drifting phase and noise, clipped to
    [0, 100]; the half-daily component makes hourly ramps regularly exceed
    the default ramp limit.
    """
    if days < 4:
        raise ValueError("need at least 4 days to form one window")
    rng = np.random.default_rng(seed)
    t = np.arange(days * 24, dtype=float)
    phase = rng.uniform(0, 2 * np.pi)
    drift = rng.standard_normal(days).repeat(24) * 0.3
    series = (
        50.0
        + 28.0 * np.sin(2 * np.pi * t / 24.0 + phase + drift)
        + 14.0 * np.sin(4 * np.pi * t / 24.0 + 0.7 * phase)
        + rng.standard_normal(t.shape[0]) * 6.0
    )
    series = np.clip(series, 0.0, 100.0)
    window = HISTORY + HORIZON
    count = series.shape[0] - window + 1
    X = np.stack([series[i:i + HISTORY] for i in range(count)])
    Y = np.stack([series[i + HISTORY:i + window] for i in range(count)])
    return X, Y


@dataclass
class TrainingLog:
    """Per-epoch rows plus the per-step demand gradients of the early steps."""

    rows: list = field(default_factory=list)  # (epoch, tolerance, mean_loss, mean_iters, wall_ms)
    step_grads: dict = field(default_factory=dict)  # tolerance -> list of arrays

    def final_loss(self, tolerance: float) -> float:
        losses = [r[2] for r in self.rows if r[1] == tolerance]
        return losses[-1]

    def grad_cosines(self, tol_a: float, tol_b: float) -> np.ndarray:
        ga, gb = self.step_grads[tol_a], self.step_grads[tol_b]
        out = []
        for a, b in zip(ga, gb):
            denom = np.linalg.norm(a) * np.linalg.norm(b)
            out.append(float(a @ b / denom) if denom > 0 else 1.0)
        return np.array(out)


def train(
    dataset,
    epochs: int = 10,
    tolerance_list: Sequence[float] = (1e-1, 1e-3),
    lr: float = 1e-3,
    seed: int = 0,
    ramp: float = DEFAULT_RAMP,
) -> TrainingLog:
    """Train one network per tolerance with shared initialization and data order.

    The schedules for the true demand are precomputed at a tight tolerance;
    each training step solves and differentiates the scheduling layer at the
    run's tolerance, pulls the loss gradient back through the network, and
    applies one Adam update per sample. The solver takes SolverConfig's rho
    and sweep budget. Before any solve it checks for at least one epoch, a
    finite lr >= 0 and one or more tolerances, each a valid SolverConfig eps.
    """
    X, Y = dataset
    if X.shape[0] == 0:
        raise ValueError("dataset is empty")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    if not 0 <= lr < math.inf:  # NaN fails too
        raise ValueError(f"lr must be nonnegative and finite, got {lr}")
    run_cfgs = [SolverConfig(eps=float(tol)) for tol in tolerance_list]
    if not run_cfgs:
        raise ValueError("tolerance_list must list at least one tolerance")
    log = TrainingLog()

    tight = SolverConfig(eps=1e-8)
    x_true_cache = [
        admm_solve(energy_problem(Y[i], ramp), tight).state.x for i in range(Y.shape[0])
    ]

    for run_cfg in run_cfgs:
        tol = run_cfg.eps
        mlp = Mlp.init(seed)
        params = mlp.params()
        adam = AdamState.for_params(params)
        log.step_grads[tol] = []
        step = 0
        for epoch in range(epochs):
            t0 = time.perf_counter()
            losses, iters = [], []
            for i in range(X.shape[0]):
                theta_hat, cache = mlp.forward(X[i])
                try:
                    report = differentiate(energy_problem(theta_hat, ramp),
                                           LinearCost(), run_cfg)
                except AltdiffError as exc:
                    raise AltdiffError(
                        f"epoch {epoch} aborted at sample {i} "
                        f"(tolerance {tol:g}): {exc}"
                    ) from exc
                losses.append(spo_loss(report.x, x_true_cache[i]))
                iters.append(report.forward.iterations)
                g_theta = spo_grad_theta(report, x_true_cache[i])
                if step < GRAD_LOG_STEPS:
                    log.step_grads[tol].append(g_theta.copy())
                if lr != 0.0:
                    grads = mlp.backward(cache, g_theta)
                    adam_step(adam, params, grads, lr)
                step += 1
            log.rows.append((
                epoch,
                tol,
                float(np.mean(losses)),
                float(np.mean(iters)),
                (time.perf_counter() - t0) * 1e3,
            ))
    return log


def write_training_log(log: TrainingLog, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "tolerance", "mean_loss", "mean_solver_iters", "wall_time_ms"])
        for row in log.rows:
            writer.writerow(row)
