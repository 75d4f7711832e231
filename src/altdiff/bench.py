"""Benchmark harness: seeded problem generation, accuracy/timing comparison
against the one-shot linearized-optimality route, truncation sweeps, and
empirical complexity-scaling checks.

All randomness flows from each case's seed, so records are reproducible;
wall-clock numbers are the only nondeterministic fields.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .backward import differentiate, truncated_differentiate
from .errors import AltdiffError
from .forward import SolverConfig, admm_solve, penalty_matrix
from .layers import SoftmaxLayer, SparsemaxLayer, build
from .linalg import factorize
from .problem import EqRhs, ProblemSpec
from .reference import implicit_diff_solve

REPEATS = 5


@dataclass(frozen=True)
class BenchCase:
    """One benchmark configuration; everything derives from these fields."""

    name: str
    n: int
    m_ineq: int
    p_eq: int
    seed: int = 0
    kind: str = "qp"  # qp | sparsemax | softmax
    eps: float = 1e-3
    rho: float = 1.0

    def __post_init__(self):
        if min(self.n, self.m_ineq, self.p_eq) <= 0:
            raise ValueError("dimensions must be positive")
        if self.p_eq > self.n:
            raise ValueError("more equality rows than variables")
        if self.kind not in ("qp", "sparsemax", "softmax"):
            raise ValueError(f"unknown kind {self.kind!r}")


@dataclass
class BenchRecord:
    case: BenchCase
    alt_total_ms: float = float("nan")
    alt_factorization_ms: float = float("nan")
    alt_iteration_ms: float = float("nan")
    kkt_ms: float = float("nan")
    cosine: Optional[float] = None
    iterations: int = 0
    converged: bool = False
    polished: bool = False
    polish_factorizations: int = 0
    timing_reliable: bool = True
    error: str = ""

    def csv_row(self) -> list:
        c = self.case
        return [
            c.name, c.n, c.m_ineq, c.p_eq, c.seed, c.kind, c.eps, c.rho,
            self.alt_total_ms, self.alt_factorization_ms, self.alt_iteration_ms,
            self.kkt_ms, "" if self.cosine is None else self.cosine,
            self.iterations, self.converged, self.polished, self.polish_factorizations,
            self.timing_reliable, self.error,
        ]


CSV_HEADER = [
    "name", "n", "m_ineq", "p_eq", "seed", "kind", "eps", "rho",
    "alt_total_ms", "alt_factorization_ms", "alt_iteration_ms",
    "kkt_ms", "cosine", "iterations", "converged", "polished", "polish_factorizations",
    "timing_reliable", "error",
]


def gen_random_qp(n: int, m_ineq: int, p_eq: int, seed: int) -> ProblemSpec:
    """Seeded dense QP with P = M'M + 0.1 I and a strictly feasible point z
    baked in through b = Az, h = Gz + |w| + 0.1."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    P = M.T @ M + 0.1 * np.eye(n)
    q = rng.standard_normal(n)
    A = rng.standard_normal((p_eq, n))
    G = rng.standard_normal((m_ineq, n))
    z = rng.standard_normal(n)
    b = A @ z
    h = G @ z + np.abs(rng.standard_normal(m_ineq)) + 0.1
    return ProblemSpec.quadratic(P=P, q=q, A=A, b=b, G=G, h=h)


def case_problem(case: BenchCase) -> ProblemSpec:
    if case.kind == "qp":
        return gen_random_qp(case.n, case.m_ineq, case.p_eq, case.seed)
    rng = np.random.default_rng(case.seed)
    y = rng.standard_normal(case.n)
    u = rng.uniform(2.0 / case.n, 6.0 / case.n, size=case.n)
    layer = SparsemaxLayer(y=y, u=u) if case.kind == "sparsemax" else SoftmaxLayer(y=y, u=u)
    return build(layer)


def run_case(case: BenchCase) -> BenchRecord:
    """Differentiate w.r.t. b by both routes, averaging wall times over
    repeated runs; failures are recorded in the row, not raised."""
    record = BenchRecord(case=case)
    prob = case_problem(case)
    cfg = SolverConfig(rho=case.rho, eps=case.eps)
    try:
        alt_total, fact_ms, iter_ms = [], [], []
        report = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            report = differentiate(prob, EqRhs(), cfg)
            alt_total.append((time.perf_counter() - t0) * 1e3)
            fact_ms.append(report.forward.factorization_ms)
            iter_ms.append(report.forward.iteration_ms + report.jacobian_ms)
        record.alt_total_ms = float(np.mean(alt_total))
        record.alt_factorization_ms = float(np.mean(fact_ms))
        record.alt_iteration_ms = float(np.mean(iter_ms))
        record.iterations = report.forward.iterations
        record.converged = report.forward.converged
        record.polished = report.forward.polished
        record.polish_factorizations = report.forward.polish_factorizations

        tight = admm_solve(prob, replace(cfg, eps=1e-8, max_outer_iters=200000))
        st = tight.state
        kkt_ms, ref = [], None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            ref = implicit_diff_solve(prob, st.x, st.lam, st.nu, EqRhs())
            kkt_ms.append((time.perf_counter() - t0) * 1e3)
        record.kkt_ms = float(np.mean(kkt_ms))

        if report.weakly_active_warning:
            record.error = "weakly active constraint; cosine omitted"
        else:
            denom = np.linalg.norm(report.Jx) * np.linalg.norm(ref)
            record.cosine = float(np.sum(report.Jx * ref) / denom)
    except AltdiffError as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def run_cases(cases: Sequence[BenchCase], parallel: bool = False) -> list[BenchRecord]:
    """Sequential by default for stable timings; the parallel path produces
    identical records apart from wall-clock fields, which it marks unreliable."""
    if not parallel:
        return [run_case(c) for c in cases]
    with ProcessPoolExecutor() as pool:
        records = list(pool.map(run_case, cases))
    for r in records:
        r.timing_reliable = False
    return records


@dataclass
class ScalingRecord:
    n: int
    m_ineq: int
    p_eq: int
    factorization_ms: float
    per_iter_forward_ms: float
    per_iter_backward_ms: float
    iterations: int
    # Ratios against the previous size in the sweep (nan for the first).
    factorization_ratio: float = float("nan")
    backward_ratio: float = float("nan")

    def csv_row(self) -> list:
        return [self.n, self.m_ineq, self.p_eq, self.factorization_ms,
                self.per_iter_forward_ms, self.per_iter_backward_ms, self.iterations,
                self.factorization_ratio, self.backward_ratio]


SCALING_HEADER = ["n", "m_ineq", "p_eq", "factorization_ms", "per_iter_forward_ms",
                  "per_iter_backward_ms", "iterations", "factorization_ratio",
                  "backward_ratio"]


def _timed_factorization_ms(H: np.ndarray, target_ms: float = 20.0) -> float:
    """Wall time of factorize plus inverse formation, the cubic set-up model
    behind the set-up ratio of criterion 5, amortized over enough repeats
    that the sample is not swamped by timer resolution or call overhead.
    differentiate() w.r.t. q forms the same inverse, from the Cholesky factor
    by LAPACK potri; for the other selectors its set-up is one factorization
    and one solve, against [A; G]' with q and dq alongside."""
    eye = np.eye(H.shape[0])

    def setup():
        factorize(H, spd_hint=True).solve(eye)

    t0 = time.perf_counter()
    setup()
    single = (time.perf_counter() - t0) * 1e3
    reps = max(3, int(target_ms / max(single, 1e-3)))
    t0 = time.perf_counter()
    for _ in range(reps):
        setup()
    return (time.perf_counter() - t0) * 1e3 / reps


def scaling_sweep(
    sizes: Sequence[tuple[int, int, int]],
    seed: int = 0,
    eps: float = 1e-6,
    rho: float = 1.0,
    selector=None,
    rounds: int = REPEATS,
) -> list[ScalingRecord]:
    """Per-size timings split into the one-time factorization and the
    per-iteration solve/Jacobian costs, with consecutive-size ratios.

    Measurement rounds are interleaved across sizes and reduced by medians,
    so machine-load drift hits every size equally instead of biasing the
    ratios. The default selector differentiates w.r.t. b; pass IneqRhs()
    with a fixed m_ineq across sizes to hold the Jacobian width constant.
    """
    if any(a[0] >= b[0] for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be ascending in n")
    selector = selector if selector is not None else EqRhs()
    problems = [gen_random_qp(n, m, p, seed) for (n, m, p) in sizes]
    hessians = [prob.objective.P.T + penalty_matrix(prob, rho) for prob in problems]
    cfg = SolverConfig(rho=rho, eps=eps)

    fact = [[] for _ in sizes]
    fwd = [[] for _ in sizes]
    bwd = [[] for _ in sizes]
    iters = [0 for _ in sizes]
    for _ in range(rounds):
        for i, prob in enumerate(problems):
            rep = differentiate(prob, selector, cfg)
            iters[i] = max(rep.forward.iterations, 1)
            fwd[i].append(rep.forward.iteration_ms / iters[i])
            bwd[i].append(rep.jacobian_ms / iters[i])
            fact[i].append(_timed_factorization_ms(hessians[i]))

    records = [
        ScalingRecord(
            n=n, m_ineq=m, p_eq=p,
            factorization_ms=float(np.median(fact[i])),
            per_iter_forward_ms=float(np.median(fwd[i])),
            per_iter_backward_ms=float(np.median(bwd[i])),
            iterations=iters[i],
        )
        for i, (n, m, p) in enumerate(sizes)
    ]
    for i in range(1, len(records)):
        # Median of per-round ratios: drift-robust.
        records[i].factorization_ratio = float(np.median(
            np.array(fact[i]) / np.array(fact[i - 1])))
        records[i].backward_ratio = float(np.median(
            np.array(bwd[i]) / np.array(bwd[i - 1])))
    return records


@dataclass
class TruncationRecord:
    eps: float
    iterations: int
    wall_ms: float
    x_error: float
    jac_error: float

    @property
    def error_ratio(self) -> float:
        return self.jac_error / self.x_error if self.x_error > 0 else float("nan")

    def csv_row(self) -> list:
        return [self.eps, self.iterations, self.wall_ms, self.x_error,
                self.jac_error, self.error_ratio]


TRUNCATION_HEADER = ["eps", "iterations", "wall_ms", "x_error", "jac_error", "error_ratio"]


def truncation_report(case: BenchCase, eps_list: Sequence[float]) -> list[TruncationRecord]:
    """One record per tolerance (loosest first); errors are measured against
    the tightest run's final solution and Jacobian. Each wall time is the
    minimum over REPEATS rounds that interleave the tolerances, so one noisy
    sample of a millisecond solve cannot reorder them."""
    prob = case_problem(case)
    cfg = SolverConfig(rho=case.rho, eps=case.eps)
    differentiate(prob, EqRhs(), replace(cfg, eps=float(eps_list[0])))  # warmup
    walls = [float("inf")] * len(eps_list)
    for _ in range(REPEATS):
        for i, e in enumerate(eps_list):
            t0 = time.perf_counter()
            differentiate(prob, EqRhs(), replace(cfg, eps=float(e)))
            walls[i] = min(walls[i], (time.perf_counter() - t0) * 1e3)
    reports = truncated_differentiate(prob, EqRhs(), cfg, eps_list=eps_list)
    return [
        TruncationRecord(
            eps=float(e),
            iterations=r.forward.iterations,
            wall_ms=w,
            x_error=r.x_error_vs_ref,
            jac_error=r.jac_error_vs_ref,
        )
        for e, w, r in zip(eps_list, walls, reports)
    ]


def write_csv(path, header: list, rows: list) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
