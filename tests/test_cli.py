import csv
import json

import numpy as np
import pytest

import altdiff as ad
from altdiff import bench, cli, io
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


def test_problem_json_linear_cost_length_is_validated():
    p = io.problem_from_dict({"n": 2, "objective": {"type": "quadratic", "P": np.eye(2).tolist(),
                                                    "q": [1.0, 2.0, 3.0]}})
    with pytest.raises(DimensionMismatch, match=r"q has shape \(3,\)"):
        ad.validate(p)


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
    assert "polished True (1 LU)" in capsys.readouterr().out
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "name"
    assert len(rows) == 2


def test_cli_bench_truncation(tmp_path):
    out = tmp_path / "t.csv"
    rc = cli.main(["bench", "truncation", "--case", "20:8:4",
                   "--eps-list", "1e-1,1e-2", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 3


def test_cli_bench_scaling(tmp_path):
    out = tmp_path / "s.csv"
    rc = cli.main(["bench", "scaling", "--sizes", "20:8:8,40:8:16",
                   "--eps", "1e-4", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == bench.SCALING_HEADER
    assert len(rows) == 3


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
