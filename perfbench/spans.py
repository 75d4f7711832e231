"""Span recording around the public functions of each altdiff module.

The wrappers are installed from outside the package: every module attribute
(and the few class attributes) bound to a traced function is replaced by a
recorder that forwards the call unchanged. Modules bind imported names
(``backward`` imports ``primal_update`` and ``factorize``, ``layers`` and
``energy`` import ``differentiate``), so each target is swapped at every
binding site, not just where it is defined.

A span is ``[name, start, end, parent, op_id, raised]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (or
``None``). Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

SPAN_FIELDS = ["name", "start", "end", "parent", "op_id", "raised"]

# (span name, module, attribute) of each function to wrap. Every binding of
# the same function object in any altdiff module gets the same recorder.
FUNCTION_SPANS = [
    ("linalg.factorize", "altdiff.linalg", "factorize"),
    ("problem.validate", "altdiff.problem", "validate"),
    ("problem.spec", "altdiff.energy", "energy_problem"),
    ("problem.spec", "altdiff.layers", "build"),
    ("forward.primal_update", "altdiff.forward", "primal_update"),
    ("forward.slack_update", "altdiff.forward", "slack_update"),
    ("forward.dual_update", "altdiff.forward", "dual_update"),
    ("backward.differentiate", "altdiff.backward", "differentiate"),
    ("layers.solve_and_diff", "altdiff.layers", "solve_and_diff"),
    ("layers.hessian_factor", "altdiff.layers", "specialized_hessian_factor"),
    ("energy.adam_step", "altdiff.energy", "adam_step"),
    ("reference.implicit_diff_solve", "altdiff.reference", "implicit_diff_solve"),
]

# (span name, module, class, attribute, is_static) of each function reached
# through a class; these are wrapped on the class itself.
METHOD_SPANS = [
    ("linalg.solve", "altdiff.linalg", "Factorization", "solve", False),
    ("problem.spec", "altdiff.problem", "ProblemSpec", "quadratic", True),
    ("energy.mlp", "altdiff.energy", "Mlp", "forward", False),
    ("energy.mlp", "altdiff.energy", "Mlp", "backward", False),
]

SPAN_NAMES = sorted({site[0] for site in FUNCTION_SPANS + METHOD_SPANS})


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` swap the wrappers in."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._sites: list[tuple] = []  # (owner, attribute, original, recorder)
        self.installed = False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def recorder(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else None, self.op_id, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        recorder.__wrapped__ = fn
        recorder.__name__ = getattr(fn, "__name__", name)
        recorder.__doc__ = getattr(fn, "__doc__", None)
        return recorder

    def _find_sites(self) -> list[tuple]:
        """Every binding of a traced function, found once while none is wrapped."""
        targets = {}
        for name, mod_name, attr in FUNCTION_SPANS:
            fn = getattr(sys.modules[mod_name], attr)
            targets[id(fn)] = (fn, self._wrap(name, fn))
        sites = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "altdiff" or mod_name.startswith("altdiff.")):
                continue
            for attr, value in vars(mod).items():
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    sites.append((mod, attr, value, hit[1]))
        for name, mod_name, cls_name, attr, static in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = vars(cls)[attr]
            wrapped = self._wrap(name, raw.__func__ if static else raw)
            sites.append((cls, attr, raw, staticmethod(wrapped) if static else wrapped))
        return sites

    def install(self) -> None:
        if self.installed:
            return
        if not self._sites:
            self._sites = self._find_sites()
        for owner, attr, _, recorder in self._sites:
            setattr(owner, attr, recorder)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)
        self.installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def per_op(self, first: int = 0) -> dict:
        """For each op id seen from span index ``first`` on:
        ``{name: [calls, self_ms, errors]}``.

        Self time is a span's duration minus the durations of its direct
        children, so nested spans of the same name are not counted twice.
        """
        spans = self.spans
        child_s = defaultdict(float)
        for rec in spans[first:]:
            if rec[3] is not None:
                child_s[rec[3]] += rec[2] - rec[1]
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0]))
        for i in range(first, len(spans)):
            name, start, end, _, op_id, raised = spans[i]
            row = out[op_id][name]
            row[0] += 1
            row[1] += (end - start - child_s[i]) * 1e3
            row[2] += int(raised)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON: ``{"fields": [...], "spans": [[...], ...]}``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh, separators=(",", ":"))
