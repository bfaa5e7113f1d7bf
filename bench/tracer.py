"""Span tracer that wraps ptegkit's public functions from outside.

ptegkit modules import each other's functions by name
(`from .tropical import mat_mul`), so a wrapper installed on
`ptegkit.tropical` alone would miss the calls that `spectral`, `analysis`,
`model` and `cli` make.  `install` therefore replaces every binding of a
wrapped function in every loaded ptegkit module, and `uninstall` puts the
originals back.  Each span records name, start, end, parent span and
request in typed arrays (about 30 bytes a span, since a long run makes
millions of them); spans stay in memory until `write` dumps them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# The modules of ptegkit at the time the benchmark was written; a module
# added later is traced as a layer of its own.
LAYERS = ("tropical", "spectral", "model", "analysis", "cli")

# Private helpers wrapped only to count work; absent names are skipped.
COUNTED_PRIVATE = ("analysis._candidate_pool",)

# Computed metrics and the functions they are read from.  A metric whose
# function is no longer wrapped, or whose counter failed, is None rather
# than 0, so that moving work out of sight of the tracer does not read as
# a gain.
DERIVED = {
    "tropical.mat_mul.mac": ("tropical.mat_mul",),
    "tropical.mat_mul.fraction_calls": ("tropical.mat_mul",),
    "tropical.mat_pow.products": ("tropical.mat_pow", "tropical.mat_mul"),
    "spectral.closures": ("tropical.kleene_star", "tropical.kleene_plus"),
    "spectral.coupling_index.products": ("spectral.coupling_index", "tropical.mat_mul"),
    "spectral.eigenvectors.self_s": ("spectral.eigenvectors", "spectral.min_eigenvectors"),
    "analysis.candidates.returned": ("analysis.fastest_init", "analysis.slowest_init"),
    "analysis.candidate_yield": (
        "analysis.fastest_init", "analysis.slowest_init", "analysis._candidate_pool"),
    "analysis.verify_trajectory.states": ("analysis.verify_trajectory",),
    "model.dim_ratio": ("model.normalize",),
}


def _has_fraction(m) -> bool:
    return Fraction in map(type, m.entries)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name of each name id
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")  # per span: name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # span index, -1 for a root
        self.request_of = array("i")
        self.stack: list[int] = []
        self.request = 0
        self.counts: dict[str, float] = {}
        self.wrapped: set[str] = set()  # names of the functions install wrapped
        self.broken: set[str] = set()  # functions whose work counter failed
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _after(self, name: str, args, result) -> None:
        """Work counters read from arguments and results of one call."""
        if name == "tropical.mat_mul":
            a, b = args[0], args[1]
            self._count("tropical.mat_mul.mac", a.rows * a.cols * b.cols)
            if _has_fraction(a) or _has_fraction(b):
                self._count("tropical.mat_mul.fraction_calls")
        elif name == "model.normalize":
            self._count("model.declared", len(args[0].transitions))
            self._count("model.normalized", len(result.transitions))
        elif name in ("analysis.fastest_init", "analysis.slowest_init"):
            self._count("analysis.candidates.returned", len(result))
        elif name == "analysis._candidate_pool":
            self._count("analysis.candidates.tested", len(result))
        elif name == "analysis.verify_trajectory":
            self._count("analysis.verify_trajectory.states", len(args[1].states))

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, starts, ends = self.stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request_of.append(self.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            try:
                self._after(name, args, result)
            except (AttributeError, TypeError, IndexError):
                self.broken.add(name)  # a changed signature costs a counter, not the call
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer at every binding site."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("ptegkit.") and name != "ptegkit.__main__" and m is not None]
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                counted = f"{layer}.{attr}" in COUNTED_PRIVATE
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or counted)
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                    self.wrapped.add(f"{layer}.{attr}")
        for mod in [sys.modules["ptegkit"], *modules]:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ results

    def self_times(self) -> array:
        """Per span: duration minus the durations of its direct children."""
        out = array("d", (e - b for b, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def root_total(self) -> float:
        return sum(e - b for b, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def metrics(self) -> dict[str, float | None]:
        """Aggregate spans and counters into per-layer metrics.

        `<function>.calls` and `.self_s` are 0 for a wrapped function that
        was not called and absent for one that was not wrapped; a metric
        in DERIVED is None when a function it is read from was not wrapped
        or its counter failed."""
        n = len(self.start)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        # Flags per span; a child always comes after its parent.
        under_spectral = bytearray(n)
        under_coupling = bytearray(n)
        closures = coupling_products = pow_products = 0
        spectral = {i for i, name in enumerate(self.names) if name.startswith("spectral.")}
        kleene = {self.name_ids.get(f"tropical.kleene_{k}") for k in ("star", "plus")} - {None}
        coupling = self.name_ids.get("spectral.coupling_index")
        mat_mul = self.name_ids.get("tropical.mat_mul")
        mat_pow = self.name_ids.get("tropical.mat_pow")
        for i, (nid, parent, own) in enumerate(zip(self.name_of, self.parent, self.self_times())):
            calls[nid] += 1
            self_s[nid] += own
            pid = self.name_of[parent] if parent >= 0 else -1
            under_spectral[i] = nid in spectral or (parent >= 0 and under_spectral[parent])
            under_coupling[i] = nid == coupling or (parent >= 0 and under_coupling[parent])
            if nid in kleene and under_spectral[i] and pid not in kleene:
                closures += 1
            if nid == mat_mul:
                coupling_products += under_coupling[i]
                pow_products += pid == mat_pow
        by_name = {name: (0, 0.0) for name in self.wrapped}
        by_name.update((name, (calls[i], self_s[i]))
                       for i, name in enumerate(self.names) if calls[i])
        c = self.counts
        tested = c.get("analysis.candidates.tested", 0)
        returned = c.get("analysis.candidates.returned", 0)
        declared = c.get("model.declared", 0)
        out = {
            "tropical.mat_mul.mac": c.get("tropical.mat_mul.mac", 0),
            "tropical.mat_mul.fraction_calls": c.get("tropical.mat_mul.fraction_calls", 0),
            "tropical.mat_pow.products": pow_products,
            "spectral.closures": closures,
            "spectral.coupling_index.products": coupling_products,
            "analysis.candidates.returned": returned,
            "analysis.candidate_yield": returned / tested if tested else 0.0,
            "analysis.verify_trajectory.states": c.get("analysis.verify_trajectory.states", 0),
            "model.dim_ratio": c.get("model.normalized", 0) / declared if declared else 0.0,
            "trace.total_s": self.root_total(),
        }
        for layer in {name.split(".", 1)[0] for name in by_name}:
            out[f"{layer}.self_s"] = sum(t for name, (_, t) in by_name.items()
                                         if name.startswith(layer + "."))
        for name, (count, seconds) in by_name.items():
            out[f"{name}.calls"] = count
            out[f"{name}.self_s"] = seconds
        out["spectral.eigenvectors.self_s"] = sum(
            by_name.get(name, (0, 0.0))[1]
            for name in ("spectral.eigenvectors", "spectral.min_eigenvectors")
        )
        for key, sources in DERIVED.items():
            if not self.wrapped.issuperset(sources) or self.broken.intersection(sources):
                out[key] = None
        return out

    def write(self, path) -> None:
        """Dump every span as a gzip-compressed CSV line
        `index,name,start_ns,duration_ns,parent,request`, the start counted
        from the first span."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_ns,duration_ns,parent,request\n")
            for i, (nid, b, e, p, r) in enumerate(
                zip(self.name_of, self.start, self.end, self.parent, self.request_of)
            ):
                fh.write(f"{i},{self.names[nid]},{round((b - origin) * 1e9)},"
                         f"{round((e - b) * 1e9)},{p},{r}\n")
