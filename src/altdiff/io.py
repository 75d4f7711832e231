"""Problem files: a single JSON document per problem.

Schema:

    {"n": int >= 0,
     "objective": {"type": "quadratic", "P": [[...]], "q": [...]}
                | {"type": "sparsemax", "y": [...], "u": [...]}
                | {"type": "softmax_entropy", "y": [...], "u": [...]},
     "A": [[...]], "b": [...], "G": [[...]], "h": [...]}

Absent constraint blocks are empty arrays. The constraint blocks are always
written explicitly, including for the layer types whose polyhedron is implied
by their data.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .layers import (SoftmaxEntropyObjective, SoftmaxLayer, SparsemaxLayer,
                     box_layer_objective, build)
from .problem import Polyhedron, ProblemSpec, QuadraticObjective


def problem_to_dict(p: ProblemSpec) -> dict:
    obj = p.objective
    if isinstance(obj, SoftmaxEntropyObjective):
        u = p.constraints.h[p.n:]
        objective = {"type": "softmax_entropy", "y": obj.y.tolist(), "u": u.tolist()}
    elif isinstance(obj, QuadraticObjective):
        objective = {"type": "quadratic", "P": obj.P.tolist(), "q": obj.q.tolist()}
    else:
        raise ValueError("only quadratic and entropy-layer objectives are serializable")
    con = p.constraints
    return {
        "n": p.n,
        "objective": objective,
        "A": con.A.tolist(),
        "b": con.b.tolist(),
        "G": con.G.tolist(),
        "h": con.h.tolist(),
    }


def problem_from_dict(doc: dict) -> ProblemSpec:
    try:
        n = doc["n"]
        obj_doc = doc["objective"]
        kind = obj_doc["type"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed problem document: {exc}") from exc
    if type(n) is not int or n < 0:  # a JSON integer: not a float, a bool or a string
        raise ValueError(f"malformed problem document: n must be an integer >= 0, got {n!r}")

    def field(key, *shape):
        if key not in obj_doc:
            raise ValueError(f"malformed problem document: objective has no '{key}'")
        return reshaped(key, obj_doc[key], shape or None)

    def reshaped(key, value, shape):  # value as a float array, of shape unless None
        try:
            a = np.array(value, dtype=float)
            return a if shape is None else a.reshape(shape)
        except (TypeError, ValueError) as exc:  # TypeError: an object where numbers belong
            raise ValueError(f"malformed problem document: {key}: {exc}") from exc

    # Row counts from b and h, not inferred: numpy cannot infer them for n = 0.
    b, h = (reshaped(key, doc.get(key, []), None) for key in ("b", "h"))
    constraints = Polyhedron.build(
        n,
        A=reshaped("A", doc.get("A", []), (np.size(b), n)),
        b=b,
        G=reshaped("G", doc.get("G", []), (np.size(h), n)),
        h=h,
    )
    if kind == "quadratic":
        objective = QuadraticObjective(P=field("P", n, n), q=field("q"))
        return ProblemSpec(n=n, objective=objective, constraints=constraints)
    if kind not in ("sparsemax", "softmax_entropy"):
        raise ValueError(f"unknown objective type {kind!r}")
    layer_kind = SparsemaxLayer if kind == "sparsemax" else SoftmaxLayer
    layer = layer_kind(y=field("y", n), u=field("u", n))
    if not (constraints.n_eq or constraints.n_ineq):
        return build(layer)
    # Explicit blocks in the file win over the implied box/simplex; one spec, checked once.
    return ProblemSpec(n=n, objective=box_layer_objective(layer)[0], constraints=constraints)


def save_problem(p: ProblemSpec, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(p), indent=1))


def load_problem(path: Union[str, Path]) -> ProblemSpec:
    return problem_from_dict(json.loads(Path(path).read_text()))

