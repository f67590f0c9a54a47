"""Spans around evfam's public functions, installed from outside the package.

The traced run replaces each listed function wherever an ``evfam`` module
binds it by name (``from .families import log_partition_at`` makes a second
binding in ``conditions`` and ``tilt``), plus ``DomainDescriptor.contains``
and ``.shifted`` on the class.  Spans (name, start, end, parent) go into
flat arrays in memory and are written once when the run ends.  A span's
self time is its duration minus the time its child spans cover.  Untraced
runs never construct a ``Tracer``, so they run evfam unmodified.
"""

from __future__ import annotations

import importlib
import re
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# span name -> (module, attribute); the attribute is looked up once and the
# function object found there is replaced in every evfam module binding it
TRACED = {
    "cli.main": ("evfam.cli", "main"),
    **{f"conditions.{fn}": ("evfam.conditions", fn) for fn in (
        "run_condition_battery", "mean_grid", "mean_pairs", "check_preconditions",
        "check_sigma_ordering", "check_beta_pairing", "check_kl_ordering",
        "check_logz_ordering", "simple_evalue", "growth_rate")},
    **{f"families.{fn}": ("evfam.families", fn) for fn in (
        "log_partition_at", "mean_from_canonical", "canonical_from_mean",
        "covariance_at_canonical", "covariance_at_mean", "kl_between_means")},
    **{f"numdiff.{fn}": ("evfam.numdiff", fn) for fn in (
        "fd_gradient", "fd_jacobian", "fd_hessian")},
    "tilt.build_tilted_family": ("evfam.tilt", "build_tilted_family"),
    "tilt.f_gap_info": ("evfam.tilt", "f_gap_info"),
    "linear_model.params_from_mean": ("evfam.linear_model", "params_from_mean"),
    "oracles.expect_quadrature": ("evfam.oracles", "expect_quadrature"),
    "sequential.simulate_two_sample": ("evfam.sequential", "simulate_two_sample"),
}
CLASS_TRACED = {
    "domains.contains": ("evfam.domains", "DomainDescriptor", "contains"),
    "domains.shifted": ("evfam.domains", "DomainDescriptor", "shifted"),
}
# every public pairing constructor shares one span name; only the outermost
# span of a nested build (negbinom_vs_poisson -> nef_pairing) is counted
PAIRING_BUILDERS = [("evfam.models", fn) for fn in (
    "ksample_pairing", "gaussian_location_pairing", "gaussian_location_constrained",
    "gaussian_scale_pairing", "nef_pairing", "negbinom_vs_poisson", "abm_vs_poisson",
    "tweedie_pair", "ig_vs_exp_pairing")] + [("evfam.linear_model", "linmodel_pairing")]
PAIRING_SPAN = "models.pairing_build"

IMPORT_MODULES = ("evfam", "evfam.cli", "evfam.conditions", "evfam.domains", "evfam.errors",
                  "evfam.families", "evfam.figures", "evfam.linear_model", "evfam.models",
                  "evfam.numdiff", "evfam.oracles", "evfam.sequential", "evfam.tilt",
                  "evfam.util", "scipy.stats")

WITH_ERRORS = {"cli.main", "conditions.growth_rate"} | {
    f"conditions.{fn}" for fn in (
        "run_condition_battery", "mean_grid", "mean_pairs", "check_preconditions",
        "check_sigma_ordering", "check_beta_pairing", "check_kl_ordering", "check_logz_ordering")}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"import.{mod}.s" for mod in IMPORT_MODULES]
    for span in TRACED:
        names += [f"{span}.calls", f"{span}.self_s"]
        if span in WITH_ERRORS:
            names.append(f"{span}.errors")
    names += ["domains.contains.calls", "domains.contains.self_s", "domains.shifted.calls",
              "conditions.mean_pairs.fill_ratio", "families.newton_mean_evals_per_inversion",
              f"{PAIRING_SPAN}.s", "trace.overhead_ratio"]
    return names


class Tracer:
    """In-memory span recorder with install/uninstall of function wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.errors: Counter[str] = Counter()
        self.pairs_requested = 0
        self.pairs_returned = 0
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(idx)
            if name == "conditions.mean_pairs":
                tracer._observe_pairs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observe_pairs(self, args, kwargs, result) -> None:
        spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
        from evfam.conditions import GridSpec
        self.pairs_requested += (spec or GridSpec()).n_pairs
        self.pairs_returned += int(np.shape(result)[0])

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "evfam" and not mod_name.startswith("evfam."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(importlib.import_module(mod_name), attr)
            self._replace_everywhere(original, self._wrap(name, original))
        for name, (mod_name, cls_name, attr) in CLASS_TRACED.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for mod_name, attr in PAIRING_BUILDERS:
            original = getattr(importlib.import_module(mod_name), attr)
            self._replace_everywhere(original, self._wrap(PAIRING_SPAN, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(tracer: Tracer) -> tuple[dict, np.ndarray, np.ndarray]:
    """Per-span self time = duration minus the duration of direct children.

    Spans on one thread nest without overlap, so the direct children's
    durations are exactly the part of the parent's interval they cover.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    return a, dur, dur - child


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass calls, self seconds and errors for every traced name."""
    a, dur, own = self_times(tracer)
    ids = a["name_id"]
    n_names = len(tracer.names)
    calls = np.bincount(ids, minlength=n_names)
    self_s = np.bincount(ids, weights=own, minlength=n_names)
    out: dict[str, float] = {}
    for span in list(TRACED) + list(CLASS_TRACED):
        nid = tracer._ids.get(span)
        out[f"{span}.calls"] = float(calls[nid]) / passes if nid is not None else 0.0
        out[f"{span}.self_s"] = float(self_s[nid]) / passes if nid is not None else 0.0
        if span in WITH_ERRORS:
            out[f"{span}.errors"] = tracer.errors[span] / passes
    out.pop("domains.shifted.self_s")
    out["conditions.mean_pairs.fill_ratio"] = (
        tracer.pairs_returned / tracer.pairs_requested if tracer.pairs_requested else 0.0)

    names = np.array(tracer.names)
    span_names = names[ids] if ids.size else np.array([], dtype=str)
    parent_names = np.where(a["parent"] >= 0, span_names[np.maximum(a["parent"], 0)], "")
    outer_build = (span_names == PAIRING_SPAN) & (parent_names != PAIRING_SPAN)
    out[f"{PAIRING_SPAN}.s"] = float(dur[outer_build].sum()) / passes
    out["families.newton_mean_evals_per_inversion"] = _newton_ratio(tracer, a)
    return out


def _newton_ratio(tracer: Tracer, a: dict) -> float:
    """Mean-map evaluations under canonical_from_mean, per inversion that made any."""
    cfm = tracer._ids.get("families.canonical_from_mean")
    mfc = tracer._ids.get("families.mean_from_canonical")
    if cfm is None or mfc is None:
        return 0.0
    ids, parent = a["name_id"], a["parent"]
    # nearest canonical_from_mean ancestor of every span; parents precede children
    owner = np.full(ids.size, -1, dtype=np.int64)
    for i in range(ids.size):
        p = parent[i]
        if p >= 0:
            owner[i] = p if ids[p] == cfm else owner[p]
    inner = owner[(ids == mfc) & (owner >= 0)]
    if inner.size == 0:
        return 0.0
    return float(inner.size) / float(np.unique(inner).size)


def self_time_by_op(tracer: Tracer, passes: int, top: int = 3) -> dict[str, list[tuple[str, float]]]:
    """Largest evfam self times per pass under each operation kind (op.* root spans)."""
    a, _, own = self_times(tracer)
    ids, parent = a["name_id"], a["parent"]
    root = np.arange(ids.size)
    for i in range(ids.size):
        if parent[i] >= 0:
            root[i] = root[parent[i]]
    table: dict[str, Counter] = {}
    for op_id in np.unique(ids[root]):
        op_name = tracer.names[op_id]
        inside = (ids[root] == op_id) & (ids != op_id)
        per_name = np.bincount(ids[inside], weights=own[inside], minlength=len(tracer.names))
        table[op_name] = Counter({tracer.names[i]: float(v) / passes
                                  for i, v in enumerate(per_name) if v > 0})
    return {op: counter.most_common(top) for op, counter in sorted(table.items())}


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_times(python: str, env: dict, runs: int = 3) -> dict[str, float]:
    """Cumulative import seconds per module, median over fresh interpreters."""
    samples: dict[str, list[float]] = {mod: [] for mod in IMPORT_MODULES}
    for _ in range(runs):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import evfam, evfam.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        seen: dict[str, float] = {}
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                seen[match.group(3).strip()] = int(match.group(2)) * 1e-6
        for mod in IMPORT_MODULES:
            samples[mod].append(seen.get(mod, 0.0))
    return {f"import.{mod}.s": statistics.median(vals) for mod, vals in samples.items()}
