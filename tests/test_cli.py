import csv
import json

import numpy as np
import pytest

import altdiff as ad
from altdiff import cli, io
from altdiff.errors import DimensionMismatch


def test_problem_json_round_trip_quadratic(tmp_path):
    p = ad.ProblemSpec.quadratic(
        P=np.array([[2.0, 0.5], [0.5, 1.0]]), q=np.array([1.0, -1.0]),
        A=np.array([[1.0, 1.0]]), b=np.array([1.0]),
        G=np.array([[1.0, 0.0]]), h=np.array([0.8]),
    )
    path = tmp_path / "p.json"
    io.save_problem(p, path)
    q = io.load_problem(path)
    assert np.array_equal(q.objective.P, p.objective.P)
    assert np.array_equal(q.objective.q, p.objective.q)
    assert np.array_equal(q.constraints.A, p.constraints.A)
    assert np.array_equal(q.constraints.h, p.constraints.h)


def test_problem_json_empty_blocks(tmp_path):
    p = ad.ProblemSpec.quadratic(P=np.eye(2), q=np.zeros(2))
    path = tmp_path / "p.json"
    io.save_problem(p, path)
    doc = json.loads(path.read_text())
    assert doc["A"] == [] and doc["b"] == []
    q = io.load_problem(path)
    assert q.constraints.n_eq == 0 and q.constraints.n_ineq == 0


def test_problem_json_zero_variables_round_trip(tmp_path):
    p = ad.ProblemSpec.quadratic(P=np.zeros((0, 0)), q=np.zeros(0))
    path = tmp_path / "p.json"
    io.save_problem(p, path)
    q = io.load_problem(path)
    assert q.n == 0
    assert q.objective.P.shape == (0, 0) and q.objective.q.shape == (0,)
    assert q.constraints.A.shape == (0, 0) and q.constraints.G.shape == (0, 0)
    assert ad.admm_solve(q).converged


def test_problem_json_softmax_round_trip(tmp_path):
    layer = ad.SoftmaxLayer(y=np.array([0.2, -0.1, 0.4]), u=np.full(3, 2.0))
    p = ad.build(layer)
    path = tmp_path / "sm.json"
    io.save_problem(p, path)
    doc = json.loads(path.read_text())
    assert doc["objective"]["type"] == "softmax_entropy"
    q = io.load_problem(path)
    x = np.array([0.2, 0.3, 0.5])
    assert q.objective.value(x) == pytest.approx(p.objective.value(x))
    assert np.array_equal(q.constraints.G, p.constraints.G)


def test_problem_json_sparsemax_dict():
    # No constraint blocks in the file: the loader builds the box simplex.
    doc = {"n": 2, "objective": {"type": "sparsemax", "y": [0.6, 0.4], "u": [0.9, 0.9]}}
    p = io.problem_from_dict(doc)
    assert np.array_equal(p.objective.q, -2.0 * np.array([0.6, 0.4]))
    assert np.array_equal(p.objective.P, 2.0 * np.eye(2))
    assert np.array_equal(p.constraints.h, [0.0, 0.0, 0.9, 0.9])


def test_problem_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        io.problem_from_dict({"n": 1, "objective": {"type": "cone"}})
    with pytest.raises(ValueError):
        io.problem_from_dict({"objective": {}})


@pytest.mark.parametrize("objective, key", [
    ({"type": "quadratic", "P": [[1.0]]}, "q"),
    ({"type": "quadratic", "q": [0.0]}, "P"),
    ({"type": "sparsemax", "y": [1.0]}, "u"),
    ({"type": "softmax_entropy", "u": [1.0]}, "y"),
])
def test_problem_json_reports_missing_objective_key(objective, key):
    with pytest.raises(ValueError, match=f"malformed problem document: objective has no '{key}'"):
        io.problem_from_dict({"n": 1, "objective": objective})


_QP_2 = {"type": "quadratic", "P": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]}


@pytest.mark.parametrize("doc, match", [
    ({"n": 2, "objective": {"type": "sparsemax", "y": [0.5, 0.5, 0.1], "u": [1, 1, 1]}},
     r"y: cannot reshape array of size 3 into shape \(2,\)"),
    ({"n": 2, "objective": {"type": "softmax_entropy", "y": [0.5, 0.5], "u": [1, 1, 1]}},
     r"u: cannot reshape array of size 3 into shape \(2,\)"),
    ({"n": 2, "objective": {"type": "quadratic", "P": [[1.0]], "q": [0.0, 0.0]}},
     r"P: cannot reshape array of size 1 into shape \(2,2\)"),
    ({"n": 2, "objective": _QP_2, "A": [[1.0, 1.0, 1.0]], "b": [1.0]},
     r"A: cannot reshape array of size 3"),
    ({"n": 2, "objective": _QP_2, "G": [1.0, 1.0, 1.0], "h": [1.0]},
     r"G: cannot reshape array of size 3"),
], ids=["sparsemax-y", "softmax-u", "P", "A", "G"])
def test_problem_json_reports_wrong_block_size(doc, match):
    # A layer's y and u must have n entries; P, A and G must reshape to n columns.
    with pytest.raises(ValueError, match="malformed problem document: " + match):
        io.problem_from_dict(doc)


def test_problem_json_rejects_callback_objective():
    p = ad.ProblemSpec.general(n=1, value=lambda x: float(x @ x), gradient=lambda x: 2 * x,
                               hessian=lambda x: 2 * np.eye(1))
    with pytest.raises(ValueError, match="only quadratic and entropy-layer objectives"):
        io.problem_to_dict(p)


def test_problem_json_linear_cost_length_is_validated():
    with pytest.raises(DimensionMismatch, match=r"q has shape \(3,\)"):
        io.problem_from_dict({"n": 2, "objective": {"type": "quadratic", "P": np.eye(2).tolist(),
                                                    "q": [1.0, 2.0, 3.0]}})


def test_cli_check_command(tmp_path, capsys):
    p = ad.ProblemSpec.quadratic(P=[[1.0]], q=[0.0], G=[[-1.0]], h=[-1.0])
    path = tmp_path / "toy.json"
    io.save_problem(p, path)
    rc = cli.main(["check", "--problem", str(path), "--sel", "h", "--fd"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True, polished=True, polish factorizations=1" in out
    assert "max |alternating - linearized|" in out
    assert "finite-difference" in out


def test_cli_bench_qp(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = cli.main(["bench", "qp", "--sizes", "20:8:4", "--eps", "1e-3",
                   "--out", str(out)])
    assert rc == 0
    # a solve polished at its first attempt runs none of its Jacobian sweeps
    assert "polished True (1 LU)  jacobian sweeps 0" in capsys.readouterr().out
    rows = list(csv.reader(out.open()))
    assert rows[0] == [
        "name", "n", "m_ineq", "p_eq", "seed", "kind", "eps", "rho",
        "alt_total_ms", "alt_factorization_ms", "alt_iteration_ms",
        "kkt_ms", "cosine", "iterations", "converged", "polished", "polish_factorizations",
        "jacobian_sweeps", "error",
    ]
    assert len(rows) == 2
    assert rows[1][rows[0].index("jacobian_sweeps")] == "0"


def test_cli_bench_truncation(tmp_path):
    out = tmp_path / "t.csv"
    rc = cli.main(["bench", "truncation", "--case", "20:8:4",
                   "--eps-list", "1e-1,1e-2", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["eps", "iterations", "wall_ms", "x_error", "jac_error", "error_ratio"]
    assert len(rows) == 3


def test_cli_bench_scaling(tmp_path):
    out = tmp_path / "s.csv"
    rc = cli.main(["bench", "scaling", "--sizes", "20:8:8,40:8:16",
                   "--eps", "1e-4", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["n", "m_ineq", "p_eq", "factorization_ms", "per_iter_forward_ms",
                       "per_iter_backward_ms", "iterations", "factorization_ratio",
                       "backward_ratio"]
    assert len(rows) == 3


@pytest.mark.parametrize("argv, flag", [
    (["bench", "qp", "--sizes", "4:1:1", "--eps", "-1"], "--eps"),
    (["check", "--problem", "{path}", "--sel", "h", "--rho", "inf"], "--rho"),
    (["check", "--problem", "{path}", "--sel", "h", "--eps", "nan"], "--eps"),
    (["bench", "scaling", "--sizes", "20:8:8", "--eps", "0"], "--eps"),
    (["bench", "truncation", "--case", "20:8:4", "--eps-list", "1e-1,-1"], "--eps-list"),
    (["bench", "truncation", "--case", "20:8:4", "--rho", "abc"], "--rho"),
    (["demo", "energy", "--tolerances", "1e-1,0"], "--tolerances"),
], ids=["qp-eps", "check-rho", "check-eps", "scaling-eps", "truncation-eps-list",
        "truncation-rho", "energy-tolerances"])
def test_cli_bad_solver_settings_are_usage_errors(argv, flag, tmp_path, capsys):
    """A non-positive or non-finite eps or rho ends in argparse's usage error
    (exit code 2), before any file is read or solve is run."""
    argv = [a.format(path=tmp_path / "missing.json") for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv if argv[0] == "check" else argv + ["--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: altdiff") and flag in err
    assert "must be a positive finite number" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv, flag, message", [
    (["demo", "energy", "--epochs", "0"], "--epochs", "an integer of at least 1"),
    (["demo", "energy", "--days", "3"], "--days", "an integer of at least 4"),
    (["demo", "energy", "--ramp", "-1"], "--ramp", "a nonnegative finite number"),
    (["demo", "energy", "--lr", "-1"], "--lr", "a nonnegative finite number"),
    (["demo", "energy", "--lr", "abc"], "--lr", "a nonnegative finite number"),
    (["demo", "energy", "--epochs", "1.5"], "--epochs", "an integer of at least 1"),
    (["bench", "qp", "--seed", "abc"], "--seed", "an integer of at least 0"),
    (["bench", "qp", "--sizes", "10:5:20"], "--sizes", "p_eq <= n"),
    (["bench", "qp", "--sizes", "abc"], "--sizes", "n[:m_ineq[:p_eq]] in integers"),
    (["bench", "truncation", "--case", "0"], "--case", "positive counts"),
    (["bench", "scaling", "--sizes", "200:20:40,100:20:40"], "--sizes", "ascending in n"),
    (["bench", "qp", "--seed", "-1"], "--seed", "an integer of at least 0"),
    (["bench", "truncation", "--seed", "-1"], "--seed", "an integer of at least 0"),
    (["bench", "scaling", "--seed", "-1"], "--seed", "an integer of at least 0"),
    (["demo", "energy", "--seed", "-1"], "--seed", "an integer of at least 0"),
    (["bench", "qp", "--sizes", ","], "--sizes", "at least one value"),
    (["bench", "scaling", "--sizes", ","], "--sizes", "at least one value"),
    (["demo", "energy", "--tolerances", ","], "--tolerances", "at least one value"),
    (["bench", "truncation", "--eps-list", ","], "--eps-list", "at least one value"),
    (["bench", "truncation", "--eps-list", "1e-3,1e-1"], "--eps-list", "loosest first"),
], ids=["energy-epochs", "energy-days", "energy-ramp", "energy-lr", "energy-lr-text",
        "energy-epochs-fraction", "qp-seed-text", "qp-sizes-p",
        "qp-sizes-text", "truncation-case", "scaling-sizes-order", "qp-seed",
        "truncation-seed", "scaling-seed", "energy-seed", "qp-sizes-empty",
        "scaling-sizes-empty", "energy-tolerances-empty", "truncation-eps-list-empty",
        "truncation-eps-list-order"])
def test_cli_bad_inputs_are_usage_errors(argv, flag, message, tmp_path, capsys):
    """Inputs the demo or the bench cannot run end in argparse's usage error
    (exit code 2) with no traceback, before any solve is run."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: altdiff") and flag in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    ("directory", "Is a directory"),
    ("{not json", "Expecting property name"),
    ('{"n": 1}', "malformed problem document"),
    ('{"n": 1, "objective": {"type": "quadratic", "P": [[1]], "q": [0]}, "h": [1], "G": [[1, 2]]}',
     "cannot reshape"),
    ('{"n": 1, "objective": {"type": "sparsemax", "y": [1], "u": [-1]}}', "strictly positive"),
    ('{"n": 2, "objective": {"type": "quadratic", "P": [[1, 0], [0, 1]], "q": [0, 0, 0]}}',
     "q has shape (3,), expected (2,)"),
    ('{"n": 2, "objective": {"type": "quadratic", "P": [[1, 0], [0, -1]], "q": [0, 0]}}',
     "smallest eigenvalue -1.000e+00"),
    ('{"n": 2, "objective": {"type": "quadratic", "P": [[1, 1], [0, 1]], "q": [0, 0]}}',
     "not symmetric"),
    ('{"n": 1, "objective": {"type": "quadratic", "P": [[1]], "q": {"a": 1}}}',
     "malformed problem document: q: float() argument"),
    ('{"n": 2, "objective": {"type": "quadratic", "P": [[1, 0], [0, 1]], "q": [0, 0]}, '
     '"A": [[1, 1]], "b": {"a": 1}}', "malformed problem document: b: float() argument"),
    ('{"n": 1, "objective": {"type": "sparsemax", "y": {"a": 1}, "u": [1]}}',
     "malformed problem document: y: float() argument"),
    ('{"n": 1.7, "objective": {"type": "quadratic", "P": [[1]], "q": [0]}}',
     "malformed problem document: n must be an integer >= 0, got 1.7"),
    ('{"n": true, "objective": {"type": "quadratic", "P": [[1]], "q": [0]}}',
     "malformed problem document: n must be an integer >= 0, got True"),
    ('{"n": "1", "objective": {"type": "quadratic", "P": [[1]], "q": [0]}}',
     "malformed problem document: n must be an integer >= 0, got '1'"),
    ('{"n": -1, "objective": {"type": "quadratic", "P": [[1]], "q": [0]}}',
     "malformed problem document: n must be an integer >= 0, got -1"),
    ('{"n": 2, "objective": {"type": "quadratic", "P": [[1, 0], [0, 1]], "q": [0, NaN]}}',
     "vector entries must be finite"),
    ('{"n": 2, "objective": {"type": "quadratic", "P": [[1, 0], [0, Infinity]], "q": [0, 0]}}',
     "matrix entries must be finite"),
], ids=["missing", "unreadable", "not-json", "no-objective", "wrong-block-size", "bad-layer",
        "q-length", "not-psd", "not-symmetric", "q-object", "b-object", "sparsemax-y-object",
        "n-float", "n-bool", "n-string", "n-negative", "q-nan", "P-inf"])
def test_cli_check_bad_problem_file_is_usage_error(content, message, tmp_path, capsys):
    """A problem file that cannot be loaded, or loads but fails validation,
    ends in a one-line usage error (exit code 2), not a traceback."""
    path = tmp_path / "p.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--problem", str(path), "--sel", "h"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: altdiff") and "Traceback" not in err
    (line,) = [ln for ln in err.splitlines() if "error:" in ln]
    assert "--problem" in line and str(path) in line and message in line


@pytest.mark.parametrize("argv", [["--sel", "h"], ["--sel", "b"], ["--sel", "b", "--fd"]],
                         ids=["h", "b", "b-fd"])
def test_cli_check_empty_jacobian(argv, tmp_path, capsys):
    """min x^2 / 2 has no b and no h: the Jacobians are 1 x 0 and their
    largest difference reads 0."""
    path = tmp_path / "p.json"
    path.write_text('{"n": 1, "objective": {"type": "quadratic", "P": [[1]], "q": [0]}}')
    assert cli.main(["check", "--problem", str(path)] + argv) == 0
    out = capsys.readouterr().out
    assert "max |alternating - linearized| = 0.000e+00" in out
    assert ("max |alternating - finite difference| = 0.000e+00" in out) == ("--fd" in argv)


def test_cli_energy_rates_parse():
    args = cli.build_parser().parse_args(["demo", "energy", "--lr", "0.5", "--ramp", "0"])
    assert args.lr == 0.5 and args.ramp == 0.0


def _check_bound_toy(tmp_path, q):
    """cli.main's exit code on check --sel h of min x^2 + q x s.t. x <= 0."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 1, "objective": {"type": "quadratic", "P": [[2.0]],
                                                      "q": [q]}, "G": [[1.0]], "h": [0.0]}))
    return cli.main(["check", "--problem", str(path), "--sel", "h"])


def test_cli_check_solve_error_is_one_error_line(tmp_path, capsys):
    """At q = 0 the bound x <= 0 is active with a zero multiplier; the oracle
    raises SingularKkt, which ends in one error line (exit code 1), not a
    traceback."""
    assert _check_bound_toy(tmp_path, 0.0) == 1
    captured = capsys.readouterr()
    assert captured.err == ("altdiff: error: SingularKkt: strict complementarity fails on "
                            "constraints [0]\n")
    assert captured.out == ""


def test_cli_check_warns_on_weak_activity(tmp_path, capsys):
    # At q = -2e-7 the bound is active with multiplier 2e-7: within the solver's
    # weak-activity tolerance, outside the oracle's strict-complementarity one.
    assert _check_bound_toy(tmp_path, -2e-7) == 0
    out = capsys.readouterr().out
    assert out.endswith("warning: weakly active constraint detected; derivatives may be "
                        "one-sided\n")


def test_cli_demo_energy(tmp_path, capsys):
    out = tmp_path / "e.csv"
    rc = cli.main(["demo", "energy", "--epochs", "1", "--days", "4",
                   "--tolerances", "1e-1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 2  # header + one epoch x one tolerance


def test_cli_size_parsing():
    assert cli._parse_size("100:40:20") == (100, 40, 20)
    assert cli._parse_size("90") == (90, 30, 11)
    assert cli._parse_sizes("10:4:2,20:8:4") == [(10, 4, 2), (20, 8, 4)]
