"""Command-line entry points.

    altdiff bench qp --sizes 50:20:10,100:40:20 --seed 0 --eps 1e-3 --out results.csv
    altdiff bench truncation --case 50:20:10 --eps-list 1e-1,1e-2,1e-3
    altdiff bench scaling --sizes 100:20:40,200:20:40
    altdiff demo energy --epochs 10 --tolerances 1e-1,1e-3 --out log.csv
    altdiff check --problem file.json --sel b [--fd]

Size strings are n[:m_ineq[:p_eq]]; omitted counts default to m = n/3 and
p = n/8 (at least one row each). The parser only converts text; the library
object that takes a value checks its range, and its BadArgument is a usage
error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench
from .backward import admm_solve, differentiate
from .energy import synth_demand, train, write_training_log
from .errors import AltdiffError, BadArgument
from .forward import SolverConfig
from .io import load_problem
from .problem import EqRhs, IneqRhs, LinearCost
from .reference import finite_diff_jacobian, implicit_diff_solve

SELECTORS = {"q": LinearCost, "b": EqRhs, "h": IneqRhs}


def _parse_size(token: str) -> tuple[int, int, int]:
    """A size string as (n, m_ineq, p_eq) integers; BenchCase checks them."""
    try:
        parts = [int(v) for v in token.split(":")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 3:
        raise argparse.ArgumentTypeError(f"must be n[:m_ineq[:p_eq]] in integers, got {token!r}")
    n = parts[0]
    m = parts[1] if len(parts) > 1 else max(1, n // 3)
    p = parts[2] if len(parts) > 2 else max(1, n // 8)
    return n, m, p


def _listof(item):
    """The argparse type of a comma-separated list of at least one item."""
    def parse(text: str) -> list:
        values = [item(tok) for tok in text.split(",") if tok]
        if not values:
            raise argparse.ArgumentTypeError(f"must list at least one value, got {text!r}")
        return values
    parse.__name__ = f"{item.__name__} list"  # argparse's "invalid float list value"
    return parse


_parse_sizes = _listof(_parse_size)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="altdiff")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="benchmark harness")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_qp = bench_sub.add_parser("qp", help="accuracy/timing vs the one-shot route")
    p_qp.add_argument("--sizes", type=_parse_sizes,
                      default="50:20:10,100:40:20,200:70:30,400:130:50")
    p_qp.add_argument("--seed", type=int, default=0)
    p_qp.add_argument("--eps", type=float, default=1e-3)
    p_qp.add_argument("--rho", type=float, default=1.0)
    p_qp.add_argument("--kind", choices=["qp", "sparsemax", "softmax"], default="qp")
    p_qp.add_argument("--out", default="results.csv")
    p_qp.set_defaults(run=_cmd_bench_qp, parser=p_qp)

    p_tr = bench_sub.add_parser("truncation", help="tolerance sweep on one case")
    p_tr.add_argument("--case", type=_parse_size, default="50:20:10")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--eps-list", type=_listof(float), default="1e-1,1e-2,1e-3")
    p_tr.add_argument("--rho", type=float, default=1.0)
    p_tr.add_argument("--out", default="truncation.csv")
    p_tr.set_defaults(run=_cmd_bench_truncation, parser=p_tr)

    p_sc = bench_sub.add_parser("scaling", help="empirical complexity ratios")
    p_sc.add_argument("--sizes", type=_parse_sizes, default="100:60:50,200:60:100")
    p_sc.add_argument("--seed", type=int, default=0)
    p_sc.add_argument("--eps", type=float, default=1e-6)
    p_sc.add_argument("--rho", type=float, default=1.0)
    p_sc.add_argument("--sel", choices=sorted(SELECTORS), default="h",
                      help="parameter the Jacobian is taken against")
    p_sc.add_argument("--out", default="scaling.csv")
    p_sc.set_defaults(run=_cmd_bench_scaling, parser=p_sc)

    p_demo = sub.add_parser("demo", help="training demos")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    p_en = demo_sub.add_parser("energy", help="predict-then-optimize scheduling")
    p_en.add_argument("--epochs", type=int, default=10)
    p_en.add_argument("--tolerances", type=_listof(float), default="1e-1,1e-3")
    p_en.add_argument("--days", type=int, default=30)
    p_en.add_argument("--seed", type=int, default=0)
    p_en.add_argument("--lr", type=float, default=1e-3)
    p_en.add_argument("--ramp", type=float, default=20.0)
    p_en.add_argument("--out", default="training.csv")
    p_en.set_defaults(run=_cmd_demo_energy, parser=p_en)

    p_check = sub.add_parser("check", help="compare Jacobian routes on a problem file")
    p_check.add_argument("--problem", required=True)
    p_check.add_argument("--sel", choices=sorted(SELECTORS), required=True)
    p_check.add_argument("--fd", action="store_true", help="also run finite differences")
    p_check.add_argument("--eps", type=float, default=1e-6)
    p_check.add_argument("--rho", type=float, default=1.0)
    p_check.set_defaults(run=_cmd_check, parser=p_check)
    return parser


def _cmd_bench_qp(args) -> int:
    cases = [bench.BenchCase(name=f"{args.kind}-{n}", n=n, m_ineq=m, p_eq=p, seed=args.seed,
                             kind=args.kind, eps=args.eps, rho=args.rho)
             for (n, m, p) in args.sizes]
    records = [bench.run_case(c) for c in cases]  # one after another: timings do not compete
    bench.write_csv(args.out, bench.BenchRecord, records)
    for r in records:
        cos = "-" if r.cosine is None else f"{r.cosine:.6f}"
        print(f"{r.case.name:>14}  alt {r.alt_total_ms:9.2f} ms  kkt {r.kkt_ms:9.2f} ms  "
              f"cosine {cos}  iters {r.iterations}  polished {r.polished} "
              f"({r.polish_factorizations} LU)  jacobian sweeps {r.jacobian_sweeps}  {r.error}")
    print(f"wrote {args.out}")
    return 0


def _cmd_bench_truncation(args) -> int:
    n, m, p = args.case
    case = bench.BenchCase(name=f"trunc-{n}", n=n, m_ineq=m, p_eq=p, seed=args.seed, rho=args.rho)
    records = bench.truncation_report(case, args.eps_list)
    bench.write_csv(args.out, bench.TruncationRecord, records)
    for r in records:
        print(f"eps {r.eps:8.1e}  iters {r.iterations:5d}  wall {r.wall_ms:8.2f} ms  "
              f"|x_k - x*| {r.x_error:9.3e}  |J_k - J*| {r.jac_error:9.3e}")
    print(f"wrote {args.out}")
    return 0


def _cmd_bench_scaling(args) -> int:
    records = bench.scaling_sweep(args.sizes, seed=args.seed, eps=args.eps, rho=args.rho,
                                  selector=SELECTORS[args.sel]())
    bench.write_csv(args.out, bench.ScalingRecord, records)
    for r in records:
        print(f"n {r.n:5d}  factorization {r.factorization_ms:8.3f} ms "
              f"(ratio {r.factorization_ratio:5.2f})  per-iter backward "
              f"{r.per_iter_backward_ms:8.4f} ms (ratio {r.backward_ratio:5.2f})")
    print(f"wrote {args.out}")
    return 0


def _cmd_demo_energy(args) -> int:
    dataset = synth_demand(args.seed, args.days)
    log = train(dataset, epochs=args.epochs,
                tolerance_list=args.tolerances, lr=args.lr, seed=args.seed, ramp=args.ramp)
    write_training_log(log, args.out)
    for tol in args.tolerances:
        first = next(r[2] for r in log.rows if r[1] == tol)
        print(f"tolerance {tol:8.1e}: first-epoch loss {first:10.3f}  "
              f"final loss {log.final_loss(tol):10.3f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_check(args) -> int:
    cfg = SolverConfig(rho=args.rho, eps=args.eps)  # checked before the file is read
    # A missing or unreadable file is an OSError, bad JSON, a malformed
    # document or non-finite data a ValueError, a layer its data cannot build
    # or a problem that fails validation an AltdiffError.
    try:
        prob = load_problem(args.problem)
    except (OSError, ValueError, AltdiffError) as exc:
        raise BadArgument(f"argument --problem: cannot load {args.problem!r}: {exc}") from exc
    # A problem the solve or an oracle rejects (a degenerate active set, a
    # solve that does not converge) ends in one error line, not a traceback.
    try:
        return _compare_jacobians(args, prob, cfg)
    except AltdiffError as exc:
        print(f"altdiff: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _compare_jacobians(args, prob, cfg) -> int:
    sel = SELECTORS[args.sel]()
    report = differentiate(prob, sel, cfg)
    st = admm_solve(prob, SolverConfig(rho=args.rho, eps=1e-8, max_outer_iters=200000)).state
    kkt = implicit_diff_solve(prob, st.x, st.lam, st.nu, sel)

    np.set_printoptions(precision=6, suppress=True, linewidth=120)
    fwd = report.forward
    print(f"solution x* ({fwd.iterations} iterations, converged={fwd.converged}, "
          f"polished={fwd.polished}, polish factorizations={fwd.polish_factorizations}, "
          f"jacobian sweeps={report.jacobian_sweeps}):")
    print(report.x)
    print(f"\nalternating-recursion Jacobian dx*/d{args.sel}:")
    print(report.Jx)
    print("\nlinearized-optimality Jacobian:")
    print(kkt)
    print(f"\nmax |alternating - linearized| = {np.abs(report.Jx - kkt).max(initial=0.0):.3e}")
    if args.fd:
        fd = finite_diff_jacobian(prob, sel, cfg)
        print("\nfinite-difference Jacobian:")
        print(fd)
        fd_gap = np.abs(report.Jx - fd).max(initial=0.0)  # 0 for an empty Jacobian
        print(f"max |alternating - finite difference| = {fd_gap:.3e}")
    if report.weakly_active_warning:
        print("warning: weakly active constraint detected; derivatives may be one-sided")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Each library object checks its values before any solve; a value out of
    # range is a usage error of the command, any other exception is not.
    try:
        return args.run(args)
    except BadArgument as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
