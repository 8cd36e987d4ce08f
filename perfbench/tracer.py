"""Outside-in span tracer for the pwcycles layers.

The package imports layer functions by name (``from .zeros import
place_zeros``), so patching one module attribute would miss calls made
through the other modules' copies of the name.  `Tracer.install` therefore
wraps each public function of the traced modules and rebinds the wrapper
under every name, in every loaded ``pwcycles`` module, that holds the
original function object.  It also wraps ``PolarField.__post_init__`` (the
field's validation grid) and the ``solve_ivp`` that ``pwcycles.poincare``
calls.  `Tracer.uninstall` puts every original object back.

Spans are kept in memory as tuples and handed out by `Tracer.spans` at the
end; `layer_metrics` turns them into per-layer counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("kernels", "averaging", "smooth", "zeros", "poincare", "manifest", "cli")

# Spans of the integrator that ``return_map`` calls are counted, not timed
# as a layer of their own.
COUNT_ONLY = frozenset({"poincare.solve_ivp"})

# A span: (name, start, end, parent index or -1, run id, extra counters).
Span = Tuple[str, float, float, int, int, Optional[Dict[str, Any]]]


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _survey_probe(args, kw, res) -> Dict[str, Any]:
    """Both surveys take (system, n, draws, ...) and return (best, histogram)."""
    return {
        "draws": args[2] if len(args) > 2 else kw["draws"],
        "n": args[1] if len(args) > 1 else kw["n"],
        "hist": dict(res[1]),
    }


# Counters taken at a layer boundary from the call's arguments and result.
# Each probe returns a dict that is stored with the span.
_PROBES: Dict[str, Callable[[tuple, dict, Any], Dict[str, Any]]] = {
    "kernels.a00": lambda args, kw, res: {"points": int(getattr(args[0] if args else kw["r"], "size", 1))},
    "zeros.count_simple_zeros": lambda args, kw, res: {
        "grid_in": args[2] if len(args) > 2 else kw.get("grid", 400),
        "grid_out": res.grid_resolution,
        "non_simple": len(res.non_simple),
    },
    "zeros.random_search_max_zeros": _survey_probe,
    "smooth.random_search_max_smooth_zeros": _survey_probe,
    "poincare.solve_ivp": lambda args, kw, res: {"nfev": int(res.nfev)},
    "poincare.displacement_profile": lambda args, kw, res: {"radii": len(res)},
    "poincare.find_fixed_points": lambda args, kw, res: {
        "grid": len(res.samples),
        "found": len(res.fixed_points),
    },
    "manifest.emit_table": lambda args, kw, res: {"bytes": _file_bytes(res)},
}


def targets() -> Dict[str, Tuple[Any, str, Any]]:
    """Span name -> (owner, attribute, original) for everything traced."""
    found: Dict[str, Tuple[Any, str, Any]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"pwcycles.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            found[f"{layer}.{attr}"] = (module, attr, obj)
    poincare = importlib.import_module("pwcycles.poincare")
    field_cls = poincare.PolarField
    found["poincare.PolarField"] = (field_cls, "__post_init__", field_cls.__dict__["__post_init__"])
    found["poincare.solve_ivp"] = (poincare, "solve_ivp", poincare.solve_ivp)
    return found


class Tracer:
    """Wraps the layer functions of a loaded ``pwcycles`` and records spans."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self._spans: List[Span] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, func: Callable) -> Callable:
        probe = _PROBES.get(name)
        spans, stack, clock, run_id = self._spans, self._stack, time.perf_counter, self.run_id

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            extra = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                end = clock()
                if probe is not None:
                    extra = probe(args, kwargs, result)
                return result
            except BaseException as exc:
                end = clock()
                extra = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
                spans[index] = (name, start, end, parent, run_id, extra)

        traced.perfbench_span = name
        return traced

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items()) if key == "pwcycles" or key.startswith("pwcycles.")]
        for name, (owner, attr, original) in targets().items():
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> List[Span]:
        if self._stack:
            raise RuntimeError("spans requested while a traced call is open")
        return list(self._spans)


def remaining_wrappers() -> List[str]:
    """Names in loaded ``pwcycles`` modules and classes still bound to a wrapper."""
    left = []
    for key, module in sorted(sys.modules.items()):
        if key != "pwcycles" and not key.startswith("pwcycles."):
            continue
        for attr, value in vars(module).items():
            owners = [(f"{key}.{attr}", value)]
            if isinstance(value, type) and value.__module__ == key:
                owners += [(f"{key}.{attr}.{k}", v) for k, v in vars(value).items()]
            left += [label for label, obj in owners if hasattr(obj, "perfbench_span")]
    return left


def _ancestor_named(spans: List[Span], index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer counts and self times of one traced workload pass.

    A span's self time is its duration minus the time covered by its
    child spans.  ``solve_ivp`` spans only count calls and ``nfev``: the
    integration is the work of ``return_map`` and stays in its self time.  A call that a function makes to itself (``a00`` recurses
    once for negative parameters) adds self time but not a call.  The
    ``<layer>.share`` values divide each layer's self time by the summed
    duration of the root spans, the ``cli.main`` calls.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0 and name not in COUNT_ONLY:
            child_time[parent] += end - start
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    extra: Dict[str, float] = defaultdict(int)
    for i, (name, start, end, parent, _, ext) in enumerate(spans):
        if name not in COUNT_ONLY:
            self_s[name] += end - start - child_time[i]
        if parent >= 0 and spans[parent][0] == name:
            continue
        calls[name] += 1
        for key, value in (ext or {}).items():
            if isinstance(value, (int, float)):
                extra[f"{name}.{key}"] += value
    root_s = sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)

    pfe_assembles = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "averaging.assemble" and _ancestor_named(spans, i, "averaging.perturbation_for_expansion")
    )
    doublings = sum(
        math.log2(ext["grid_out"] / ext["grid_in"])
        for name, _, _, _, _, ext in spans
        if name == "zeros.count_simple_zeros" and ext and "grid_out" in ext
    )
    ffp_maps = sum(
        1
        for name, _, _, parent, _, _ in spans
        if name == "poincare.return_map" and parent >= 0 and spans[parent][0] == "poincare.find_fixed_points"
    )
    found = extra["poincare.find_fixed_points.found"]
    pfe_calls = calls["averaging.perturbation_for_expansion"]
    out = {
        "kernels.a00.calls": calls["kernels.a00"],
        "kernels.a00.points": extra["kernels.a00.points"],
        "kernels.a00.self_s": self_s["kernels.a00"],
        "averaging.assemble.calls": calls["averaging.assemble"],
        "averaging.assemble.self_s": self_s["averaging.assemble"],
        "averaging.perturbation_for_expansion.calls": pfe_calls,
        "averaging.perturbation_for_expansion.self_s": self_s["averaging.perturbation_for_expansion"],
        "averaging.perturbation_for_expansion.assemble_calls": (
            pfe_assembles / pfe_calls if pfe_calls else 0.0
        ),
        "zeros.place_zeros.calls": calls["zeros.place_zeros"],
        "zeros.place_zeros.failed": sum(
            1 for s in spans if s[0] == "zeros.place_zeros" and s[5] and "raised" in s[5]
        ),
        "zeros.place_zeros.self_s": self_s["zeros.place_zeros"],
        "zeros.count_simple_zeros.calls": calls["zeros.count_simple_zeros"],
        "zeros.count_simple_zeros.self_s": self_s["zeros.count_simple_zeros"],
        "zeros.count_simple_zeros.doublings": doublings,
        "zeros.count_simple_zeros.non_simple": extra["zeros.count_simple_zeros.non_simple"],
        "zeros.random_search_max_zeros.draws": extra["zeros.random_search_max_zeros.draws"],
        "zeros.random_search_max_zeros.self_s": self_s["zeros.random_search_max_zeros"],
        "smooth.assemble_smooth.calls": calls["smooth.assemble_smooth"],
        "smooth.assemble_smooth.self_s": self_s["smooth.assemble_smooth"],
        "smooth.random_search_max_smooth_zeros.draws": extra["smooth.random_search_max_smooth_zeros.draws"],
        "smooth.random_search_max_smooth_zeros.self_s": self_s["smooth.random_search_max_smooth_zeros"],
        "smooth.place_smooth_zeros.self_s": self_s["smooth.place_smooth_zeros"],
        "smooth.count_smooth_zeros.self_s": self_s["smooth.count_smooth_zeros"],
        "smooth.smooth_generating_rank.self_s": self_s["smooth.smooth_generating_rank"],
        "poincare.PolarField.calls": calls["poincare.PolarField"],
        "poincare.PolarField.self_s": self_s["poincare.PolarField"],
        "poincare.return_map.calls": calls["poincare.return_map"],
        "poincare.return_map.self_s": self_s["poincare.return_map"],
        "poincare.solve_ivp.calls": calls["poincare.solve_ivp"],
        "poincare.solve_ivp.nfev": extra["poincare.solve_ivp.nfev"],
        "poincare.displacement_profile.radii": extra["poincare.displacement_profile.radii"],
        "poincare.displacement_profile.self_s": self_s["poincare.displacement_profile"],
        "poincare.find_fixed_points.self_s": self_s["poincare.find_fixed_points"],
        "poincare.find_fixed_points.return_maps_per_fixed_point": (
            (ffp_maps - extra["poincare.find_fixed_points.grid"]) / found if found else 0.0
        ),
        "manifest.run_manifest.self_s": self_s["manifest.run_manifest"],
        "manifest.emit_table.self_s": self_s["manifest.emit_table"],
        "manifest.emit_table.bytes": extra["manifest.emit_table.bytes"],
        "cli.main.self_s": self_s["cli.main"],
    }
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.share"] = layer_self / root_s if root_s else 0.0
    return out


def survey_histograms(spans: List[Span]) -> List[Dict[str, Any]]:
    """The survey histograms, in call order, as captured at each return.

    ``op`` is the position of the enclosing root span (the ``cli.main``
    call) among the root spans, i.e. the operation the survey belongs to.
    """
    root_of: List[int] = []
    roots: Dict[int, int] = {}
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        root = i if parent < 0 else root_of[parent]
        root_of.append(root)
        if parent < 0:
            roots[i] = len(roots)
    return [
        {
            "op": roots[root_of[i]],
            "function": name,
            "n": ext["n"],
            "hist": {str(k): v for k, v in sorted(ext["hist"].items())},
        }
        for i, (name, _, _, _, _, ext) in enumerate(spans)
        if ext and "hist" in ext
    ]
