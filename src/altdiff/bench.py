"""Benchmark harness: seeded problem generation, accuracy/timing comparison
against the one-shot linearized-optimality route, truncation sweeps, and
empirical complexity-scaling checks.

All randomness flows from each case's seed, so records are reproducible;
wall-clock numbers are the only nondeterministic fields.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .backward import admm_solve, differentiate
from .errors import AltdiffError
from .forward import SolverConfig, penalty_matrix
from .layers import SoftmaxLayer, SparsemaxLayer, build
from .linalg import factorize
from .problem import EqRhs, ProblemSpec
from .reference import implicit_diff_solve

REPEATS = 5

# _timed_factorization_ms repeats its set-up until the repeats take about this long.
SETUP_TIMING_MS = 20.0


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
        for name in ("n", "m_ineq", "p_eq", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if min(self.n, self.m_ineq, self.p_eq) <= 0:
            raise ValueError("dimensions must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.p_eq > self.n:
            raise ValueError("more equality rows than variables")
        if self.kind not in ("qp", "sparsemax", "softmax"):
            raise ValueError(f"unknown kind {self.kind!r}")
        for name in ("eps", "rho"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")


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
    jacobian_sweeps: int = 0
    error: str = ""


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
        record.jacobian_sweeps = report.jacobian_sweeps

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


def _timed_factorization_ms(H: np.ndarray) -> float:
    """Wall time of factorize plus inverse formation, the cubic set-up model
    behind the set-up ratio of criterion 5, amortized over enough repeats
    that the sample is not swamped by timer resolution or call overhead.
    differentiate() w.r.t. q forms the same inverse, from the Cholesky factor
    by LAPACK potri; for the other selectors its set-up is one factorization
    and one solve, against [A; G]' with q and dq alongside."""
    eye = np.eye(H.shape[0])

    def setup():
        factorize(H).solve(eye)

    t0 = time.perf_counter()
    setup()
    single = (time.perf_counter() - t0) * 1e3
    reps = max(3, int(SETUP_TIMING_MS / max(single, 1e-3)))
    t0 = time.perf_counter()
    for _ in range(reps):
        setup()
    return (time.perf_counter() - t0) * 1e3 / reps


def check_sizes(sizes: Sequence[tuple[int, int, int]]) -> None:
    """Raise ValueError unless every (n, m_ineq, p_eq) is a size BenchCase
    takes and the sizes ascend in n, as scaling_sweep's ratios need."""
    for n, m, p in sizes:
        BenchCase("size", n, m, p)
    if any(a[0] >= b[0] for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be ascending in n")


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
    check_sizes(sizes)
    cfg = SolverConfig(rho=rho, eps=eps)
    selector = selector if selector is not None else EqRhs()
    problems = [gen_random_qp(n, m, p, seed) for (n, m, p) in sizes]
    hessians = [prob.objective.P.T + penalty_matrix(prob, rho) for prob in problems]

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
    error_ratio: float = field(init=False)

    def __post_init__(self):
        self.error_ratio = self.jac_error / self.x_error if self.x_error > 0 else float("nan")


def check_eps_list(eps_list: Sequence[float]) -> None:
    """Raise ValueError unless eps_list is nonempty and loosest first."""
    if not eps_list or any(a < b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be nonempty and nonincreasing (loosest first)")


def truncation_report(case: BenchCase, eps_list: Sequence[float]) -> list[TruncationRecord]:
    """One record per tolerance (loosest first); errors are measured against
    the tightest run's final solution and Jacobian. Each wall time is the
    minimum over REPEATS rounds that interleave the tolerances, so one noisy
    sample of a millisecond solve cannot reorder them; the errors come from
    the last round's reports."""
    eps_list = [float(e) for e in eps_list]
    check_eps_list(eps_list)
    cfgs = [SolverConfig(rho=case.rho, eps=e) for e in eps_list]  # each checked before any solve
    prob = case_problem(case)
    differentiate(prob, EqRhs(), cfgs[0])  # warmup
    walls = [float("inf")] * len(eps_list)
    for _ in range(REPEATS):
        reports = []
        for i, cfg in enumerate(cfgs):
            t0 = time.perf_counter()
            reports.append(differentiate(prob, EqRhs(), cfg))
            walls[i] = min(walls[i], (time.perf_counter() - t0) * 1e3)
    ref = reports[-1]
    return [
        TruncationRecord(
            eps=e,
            iterations=r.forward.iterations,
            wall_ms=w,
            x_error=float(np.linalg.norm(r.x - ref.x)),
            jac_error=float(np.linalg.norm(r.Jx - ref.Jx)),
        )
        for e, w, r in zip(eps_list, walls, reports)
    ]


def write_csv(path, cls, records: Sequence) -> None:
    """Records of the dataclass cls as CSV, one column per field in order; a
    field that holds a dataclass (BenchRecord.case) is spread over that
    class's fields. None writes as an empty cell."""
    hints, columns = get_type_hints(cls), []  # attribute paths
    for f in fields(cls):
        inner = hints[f.name]
        columns += [(f.name, g.name) for g in fields(inner)] if is_dataclass(inner) else [(f.name,)]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c[-1] for c in columns])
        writer.writerows([reduce(getattr, c, r) for c in columns] for r in records)
