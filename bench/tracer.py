"""Outside-in tracing of imexssp's layers for the benchmark's traced run.

The tracer wraps public functions and methods from outside the package: it
changes no source file. ``verify``, ``cli`` and ``__init__`` copy names with
``from .x import y``, so a wrapped function is rebound in every
``imexssp.*`` module that holds the same object. Methods are wrapped on
their class, and acceptance criteria through the ``verify.CRITERIA`` dict,
which ``cli`` shares. ``imexssp.integrate`` is the re-exported function, so
modules are reached through ``sys.modules``.

Each call records a span (name, start, end, parent, pass id, raised) in
flat arrays kept in memory; ``write`` saves them when the run ends. Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, qualified name) of every wrapped function or method
TRACED = (
    ("schemes", "CoefficientSet.a_array"),
    ("schemes", "CoefficientSet.b_array"),
    ("schemes", "CoefficientSet.c_array"),
    ("schemes", "char_polys"),
    ("integrate", "step"),
    ("integrate", "ScalarOperator.apply"),
    ("integrate", "ScalarOperator.solve_shifted"),
    ("integrate", "ZeroOperator.apply"),
    ("integrate", "ZeroOperator.solve_shifted"),
    ("integrate", "empirical_stability"),
    ("integrate", "solve_cyclic_tridiagonal"),
    ("integrate", "CirculantOperator.apply"),
    ("integrate", "CirculantOperator.solve_shifted"),
    ("integrate", "integrate"),
    ("stability", "root_condition"),
    ("stability", "image_winding_number"),
    ("stability", "imex_alpha_sweep"),
    ("stability", "mu_image"),
    ("stability", "explicit_boundary"),
    ("stability", "implicit_boundary"),
    ("problems", "total_variation"),
    ("cli", "cmd_regions"),
    ("cli", "cmd_angles"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_converge"),
    ("cli", "cmd_tvd"),
)

CRITERIA = (
    "biased-implicit-a-stability",
    "centred-angle-closed-form",
    "imex-k3-left-half-plane",
    "imex-k4-wedge",
    "zero-slope-expansion",
    "angle-table",
    "root-vs-winding",
    "convergence-order",
    "tvd-ssp",
    "root-vs-empirical",
    "advection-symbol",
)

# spans whose raised exceptions are reported as a metric
ERRORS_REPORTED = ("integrate.step",)

# the useful-work ratio inside one criterion: useful calls / attempted calls
USEFUL_RATIO = ("root-vs-empirical", "integrate.empirical_stability", "stability.root_condition")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, in order, with its unit."""
    units = {}
    for module, qualname in TRACED:
        units[f"{module}.{qualname}.calls"] = "count"
        units[f"{module}.{qualname}.self_s"] = "s"
    for name in ERRORS_REPORTED:
        units[f"{name}.errors"] = "count"
    for criterion in CRITERIA:
        units[f"verify.{criterion}.total_s"] = "s"
    units[f"verify.{USEFUL_RATIO[0]}.useful_ratio"] = "ratio"
    return units


class Tracer:
    """Span recorder that installs wrappers on the imported imexssp package."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.pass_first: list[int] = []  # index of the first span of each pass
        self._stack = [-1]
        self._patches = []  # (owner, attribute or key, original)

    def _wrapper(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        raised, stack, clock = self.raised, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            raised.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return wrapper

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "imexssp" or n.startswith("imexssp."))]
        for module_name, qualname in TRACED:
            module = sys.modules[f"imexssp.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrapper(cls.__dict__[method], name))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrapper(original, name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        criteria = sys.modules["imexssp.verify"].CRITERIA
        for criterion in CRITERIA:
            self._patch(criteria, criterion,
                        self._wrapper(criteria[criterion], f"verify.{criterion}"))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def begin_pass(self) -> None:
        self.pass_first.append(len(self.start))

    def spans(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "raised": np.array(self.raised, dtype=np.int8),
            "pass_id": np.searchsorted(self.pass_first, np.arange(n), side="right") - 1,
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def per_pass(self) -> dict[str, np.ndarray]:
        """Per pass and span name: calls, self time, total time and raised count,
        each an array of shape (passes, names)."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        shape = (len(self.pass_first), len(self.names))
        key = sp["pass_id"] * shape[1] + sp["name_id"]

        def tally(weights=None):
            return np.bincount(key, weights=weights, minlength=shape[0] * shape[1]).reshape(shape)

        return {
            "calls": tally(),
            "self_s": tally(dur - child),
            "total_s": tally(dur),
            "raised": tally(sp["raised"].astype(float)),
            "useful_ratio": self._useful_ratio(sp),
        }

    def _useful_ratio(self, sp) -> np.ndarray:
        """Per pass: useful calls / attempted calls inside the USEFUL_RATIO criterion."""
        criterion, useful, attempted = USEFUL_RATIO
        ids = {name: i for i, name in enumerate(self.names)}
        ratios = np.zeros(len(self.pass_first))
        for span in np.flatnonzero(sp["name_id"] == ids[f"verify.{criterion}"]):
            inside = (sp["start"] >= sp["start"][span]) & (sp["end"] <= sp["end"][span])
            n_useful = np.count_nonzero(inside & (sp["name_id"] == ids[useful]))
            n_attempted = np.count_nonzero(inside & (sp["name_id"] == ids[attempted]))
            if n_attempted:
                ratios[sp["pass_id"][span]] = n_useful / n_attempted
        return ratios

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics (medians over traced passes) and the names whose
        call counts differ between passes."""
        tab = self.per_pass()
        ids = {name: i for i, name in enumerate(self.names)}
        med = {k: np.median(v, axis=0) for k, v in tab.items() if k != "useful_ratio"}
        unsteady = [name for name, i in ids.items()
                    if np.ptp(tab["calls"][:, i]) != 0]
        metrics = {}
        for metric in layer_metric_units():
            name, _, stat = metric.rpartition(".")
            if stat == "useful_ratio":
                metrics[metric] = float(np.median(tab["useful_ratio"]))
            elif stat == "errors":
                metrics[metric] = float(med["raised"][ids[name]])
            else:
                metrics[metric] = float(med[stat][ids[name]])
        return metrics, unsteady
