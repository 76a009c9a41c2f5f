"""Per-layer tracing of ftors, done from outside the package.

`install()` wraps the public functions named in `LAYERS` after `ftors.cli`
is imported and before `ftors.cli.main` runs.  Each wrapper counts calls and
records a span: self time is the span minus the spans of wrapped calls made
inside it, and inclusive time is summed over outermost entries only, so a
recursive function is not counted twice.

`from .modules import hom_basis` gives `tors`, `ar_quiver` and the package
`__init__` their own binding of the same function object (`classify_type` is
bound in eight modules), so the tracer rebinds every attribute of every
loaded ftors module that *is* the original.  A listed function that no
longer exists raises `TracerError`; the benchmark also fails when a function
records no call on a workload it is listed for, so a rename cannot silently
zero a metric.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

FINITE = "finite-exact"
KRONECKER = "bounded-kronecker"
CERTIFICATES = "certificates"
ALL = (FINITE, KRONECKER, CERTIFICATES)


class TracerError(RuntimeError):
    """A function listed in LAYERS cannot be traced."""


@dataclass(frozen=True)
class Layer:
    """One traced function, the metrics it reports, and the workloads where it
    should move the end-to-end metrics, so it must be called there.
    bench/README.md maps each metric to the end-to-end metric it moves."""

    module: str
    function: str
    stats: tuple[str, ...]
    workloads: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


CS = ("calls", "self_s")
CI = ("calls", "incl_s")

LAYERS = (
    Layer("linalg", "rref", CS + ("calls.lt8", "calls.lt32", "calls.ge32"), (FINITE, KRONECKER)),
    Layer("linalg", "kernel_basis", CS, (FINITE, KRONECKER)),
    Layer("linalg", "solve", CS, (FINITE, KRONECKER)),
    Layer("linalg", "column_space_basis", CS, (FINITE, KRONECKER)),
    Layer("linalg", "is_invertible", CS, (FINITE, KRONECKER, CERTIFICATES)),
    Layer("linalg", "check_prime", ("calls",), (FINITE, KRONECKER)),
    Layer("modules", "hom_basis", CS + ("incl_s", "cells"), (FINITE, KRONECKER)),
    Layer("modules", "carve", CI, (FINITE, KRONECKER)),
    Layer("modules", "trace_submodule", CI, (FINITE, KRONECKER)),
    Layer("modules", "is_isomorphic", CI + ("true_ratio",), (CERTIFICATES,)),
    Layer("modules", "decompose", CI + ("summands", "inconclusive"), (CERTIFICATES,)),
    Layer("modules", "middle_terms", CI + ("terms", "cap_errors"), (CERTIFICATES,)),
    Layer("tors", "torsion_closure", CI + ("hit_ratio",), (FINITE,)),
    Layer("tors", "in_torsion_closure", ("calls", "peel_steps", "incl_s"), (FINITE, KRONECKER)),
    Layer("tors", "in_gen_closure", CI, (FINITE, KRONECKER)),
    Layer("tors", "enumerate_torsion_classes", ("incl_s",), (FINITE,)),
    Layer("tors", "lattice_check", ("incl_s",), (FINITE,)),
    Layer("tors", "find_cover", ("incl_s",), (FINITE,)),
    Layer("tors", "two_vertex_check", ("incl_s", "universe"), (KRONECKER,)),
    Layer("tors", "filtration_universe", ("incl_s", "objects"), (CERTIFICATES,)),
    Layer("tors", "no_cover_evidence", ("incl_s",), (CERTIFICATES,)),
    Layer("ar_quiver", "knit_ar_quiver", CI + ("nodes",), (FINITE,)),
    Layer("tubes", "find_regular_simples", CI, (CERTIFICATES,)),
    Layer("ext_pairs", "find_ext_pair", CI, (CERTIFICATES,)),
    Layer("ext_pairs", "verify_ext_pair", CI, (CERTIFICATES,)),
    Layer("quiver", "load_quiver", CI, ALL),
    Layer("quiver", "classify_type", CI, ALL),
    Layer("cli", "main", ("incl_s",), ALL),
)

OVERHEAD = "trace.overhead_ratio"


def metric_names() -> list[str]:
    """Every per-layer metric, in table order, then the tracing overhead."""
    return [f"{layer.name}.{stat}" for layer in LAYERS for stat in layer.stats] + [OVERHEAD]


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def metric_better(name: str) -> str:
    return "higher" if name.endswith(("hit_ratio", "true_ratio")) else "lower"


# ---------------------------------------------------------------------------
# raw counters: what one child records, summed over the commands of a round

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rref(raw, args, kwargs, result, outer):
    shape = getattr(_arg(args, kwargs, 0, "a"), "shape", None) or (0,)
    big = max(shape)
    raw["lt8" if big < 8 else "lt32" if big < 32 else "ge32"] += 1


def _hom_basis(raw, args, kwargs, result, outer):
    X, Y = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "Y")
    cols = sum(x * y for x, y in zip(X.dims, Y.dims))
    rows = sum(Y.dims[a.target] * X.dims[a.source] for a in X.quiver.arrows)
    raw["cells"] += rows * cols


def _decompose(raw, args, kwargs, result, outer):
    if outer:   # inner calls return parts of the outer result
        raw["summands"] += len(result)


def _torsion_closure(raw, args, kwargs, result, outer):
    raw["keys"].add((id(_arg(args, kwargs, 0, "u")), frozenset(_arg(args, kwargs, 1, "gens"))))


def _add(counter: str, measure):
    def observe(raw, args, kwargs, result, outer):
        raw[counter] += measure(result)
    return observe


OBSERVERS = {
    "linalg.rref": _rref,
    "modules.hom_basis": _hom_basis,
    "modules.is_isomorphic": _add("true", bool),
    "modules.decompose": _decompose,
    "modules.middle_terms": _add("terms", len),
    "tors.torsion_closure": _torsion_closure,
    "tors.two_vertex_check": _add("universe", lambda report: report.universe_size),
    "tors.filtration_universe": _add("objects", lambda fu: len(fu.objects)),
    "ar_quiver.knit_ar_quiver": _add("nodes", lambda ar: len(ar.nodes)),
}


class _Raw(dict):
    """Counters of one function; missing counters read as zero."""

    def __missing__(self, key):
        value = set() if key == "keys" else 0
        self[key] = value
        return value


class Tracer:
    def __init__(self):
        self.raw: dict[str, _Raw] = {}
        self.bindings: dict[str, int] = {}
        self._child_time = [0.0]

    def wrap(self, name: str, fn):
        raw = self.raw[name] = _Raw(calls=0, outer=0, self_s=0.0, incl_s=0.0, depth=0)
        observe = OBSERVERS.get(name)
        child_time = self._child_time
        clock = time.perf_counter

        def leave(start: float) -> bool:
            span = clock() - start
            raw["self_s"] += span - child_time.pop()
            child_time[-1] += span
            raw["depth"] -= 1
            if raw["depth"]:
                return False
            raw["incl_s"] += span
            raw["outer"] += 1
            return True

        def traced(*args, **kwargs):
            raw["calls"] += 1
            raw["depth"] += 1
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if leave(start):
                    raw["error." + type(exc).__name__] += 1
                raise
            outer = leave(start)
            if observe is not None:
                observe(raw, args, kwargs, result, outer)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def snapshot(self) -> dict[str, float]:
        """Flat raw counters, `<module>.<function>.<counter>`."""
        out: dict[str, float] = {}
        for name, raw in self.raw.items():
            for key, value in raw.items():
                if key == "depth":
                    continue
                out[f"{name}.{key}"] = len(value) if key == "keys" else value
        return out


def install(layers=LAYERS) -> Tracer:
    """Wrap every listed function wherever an ftors module binds it."""
    import ftors  # noqa: F401  (loads every submodule the package exports)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "ftors" or n.startswith("ftors."))]
    tracer = Tracer()
    for layer in layers:
        owner = sys.modules.get(f"ftors.{layer.module}")
        original = getattr(owner, layer.function, None)
        if not callable(original):
            raise TracerError(f"ftors.{layer.name} is missing; update bench/tracer.py LAYERS")
        wrapped = tracer.wrap(layer.name, original)
        count = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    count += 1
        tracer.bindings[layer.name] = count
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics from summed raw counters

def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics (without the overhead ratio) from summed raw counters."""
    out = {}
    for layer in LAYERS:
        r = {key[len(layer.name) + 1:]: value for key, value in raw.items()
             if key.startswith(layer.name + ".")}
        calls = r.get("calls", 0)
        derived = {
            "calls": calls,
            "self_s": r.get("self_s", 0.0),
            "incl_s": r.get("incl_s", 0.0),
            "calls.lt8": r.get("lt8", 0),
            "calls.lt32": r.get("lt32", 0),
            "calls.ge32": r.get("ge32", 0),
            "cells": r.get("cells", 0),
            "true_ratio": (r.get("true", 0) / calls) if calls else 0.0,
            "summands": r.get("summands", 0),
            "inconclusive": r.get("error.DecompositionInconclusive", 0),
            "terms": r.get("terms", 0),
            "cap_errors": r.get("error.ExtensionCapError", 0),
            "hit_ratio": (1.0 - r.get("keys", 0) / calls) if calls else 0.0,
            "peel_steps": calls - r.get("outer", 0),
            "universe": r.get("universe", 0),
            "objects": r.get("objects", 0),
            "nodes": r.get("nodes", 0),
        }
        for stat in layer.stats:
            out[f"{layer.name}.{stat}"] = derived[stat]
    return out


def split_counters(raw: dict[str, float]) -> dict[str, float]:
    """The deterministic part of the raw counters: everything but times."""
    return {k: v for k, v in raw.items() if not k.endswith("_s")}


def unused(raw: dict[str, float], workload: str) -> list[str]:
    """Functions listed for this workload that recorded no call."""
    return [layer.name for layer in LAYERS
            if workload in layer.workloads and not raw.get(f"{layer.name}.calls")]
