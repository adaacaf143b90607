"""Per-layer tracing by wrapping hhengine's public functions and methods.

`install()` wraps, in place, every public module-level function of each
engine layer (in the defining module and wherever another module imported
it by name) and every public method, property and constructor of the
layer's classes, plus the arithmetic operators of `Matrix`.  Time is
charged to the innermost layer on the call stack, so a layer's `self_s`
is its time less the time of nested calls into other layers; stdlib work,
`fractions` arithmetic included, counts toward the layer that called it.
`linalg.scalar` and `linalg.format_scalar` are left unwrapped: each
coerces or prints one number, they run millions of times per workspace,
and like the `fractions` calls they wrap they count toward their caller.

The tracer's own counting of matrix entries and nonzeros is charged to no
layer; the wrappers' call overhead still counts toward the layers.

Counts are exact and repeat run to run; `self_s` is a timing.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("linalg", "algebras", "complexes", "kernels", "hochschild",
          "diagrams", "cli")

UNWRAPPED = {"linalg.scalar", "linalg.format_scalar"}

OPERATORS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__",
             "__neg__", "__matmul__", "__eq__")

# metric name -> wrapped names whose calls it counts
OP_COUNTS = {
    "linalg.matrices": ["linalg.Matrix.__init__"],
    "linalg.echelon_inserts": ["linalg.Echelon.insert"],
    "linalg.solves": ["linalg.solve", "linalg.nullspace_basis",
                      "linalg.SpanSolver.express"],
    "algebras.resolutions": ["algebras.projective_resolution"],
    "algebras.bimodule_tensors": ["algebras.bimodule_tensor"],
    "algebras.hom_bases": ["algebras.hom_basis"],
    "complexes.tensor_complexes": ["complexes.tc_of"],
    "complexes.hom_complexes": ["complexes.HomComplex.__init__"],
    "complexes.nullhomotopy_solves": ["complexes.nullhomotopy"],
    "complexes.lifts": ["complexes.lift_through", "complexes.colift_through"],
    "kernels.conv_kernels": ["kernels.conv_kernel"],
    "kernels.serre_traces": ["kernels.serre_trace"],
    "kernels.two_morphism_spaces": ["kernels.two_morphism_space"],
    "hochschild.mukai_pairings": ["hochschild.mukai_pairing"],
    "hochschild.cherns": ["hochschild.chern"],
    "diagrams.evaluations": ["diagrams.evaluate"],
    "cli.tasks": ["cli.run_task"],
    "cli.builds": ["cli.Workspace.__init__"],
}

# wrapped names whose results are memoised objects: a call answered with an
# object this process has returned before counts as a hit
HIT_TRACKED = {"algebras.hom_basis": "algebras.hom_bases.hit_share",
               "complexes.tc_of": "complexes.tensor_complexes.hit_share",
               "kernels.conv_kernel": "kernels.conv_kernels.hit_share"}


class Tracer:
    """Layer stack, per-layer self time, boundary calls and per-name counts."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)      # entries from another layer
        self.named = {}                            # wrapped name -> calls
        self.hits = dict.fromkeys(HIT_TRACKED, 0)
        self.entries = 0                           # rows*cols of every Matrix
        self.nonzeros = 0
        self.stack = []
        self.mark = 0.0
        self._seen = {name: {} for name in HIT_TRACKED}   # id -> object

    def wrap(self, fn, layer, name):
        named = self.named
        named[name] = 0
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            named[name] += 1
            if stack and stack[-1] == layer:
                return fn(*args, **kwargs)
            calls[layer] += 1
            now = clock()
            if stack:
                self_s[stack[-1]] += now - tracer.mark
            stack.append(layer)
            tracer.mark = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[layer] += now - tracer.mark
                stack.pop()
                tracer.mark = now

        out = traced
        if name in HIT_TRACKED:
            seen = self._seen[name]
            hits = self.hits

            def tracked(*args, **kwargs):
                res = traced(*args, **kwargs)
                if id(res) in seen:
                    hits[name] += 1
                else:
                    seen[id(res)] = res     # pinned, so the id is not reused
                return res
            out = tracked
        if name == "linalg.Matrix.__init__":
            def counted(m, *args, **kwargs):
                traced(m, *args, **kwargs)
                t0 = clock()
                tracer.entries += m.rows * m.cols
                tracer.nonzeros += sum(map(bool, m.data))
                # the counting is the tracer's own work: charge it to no layer
                tracer.mark += clock() - t0
            out = counted
        return out

    def metrics(self):
        """Flat {metric: value} of every per-layer metric."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            if layer != "cli":
                out[f"{layer}.calls"] = self.calls[layer]
        for metric, names in OP_COUNTS.items():
            out[metric] = sum(self.named.get(n, 0) for n in names)
        out["linalg.matrix_entries"] = self.entries
        out["linalg.matrix_nonzeros"] = self.nonzeros
        for name, metric in HIT_TRACKED.items():
            out[f"{metric}.hits"] = self.hits[name]
        return out


def _public(name):
    return not name.startswith("_") or name in OPERATORS


def install():
    """Wrap the engine's layers in place; return the Tracer."""
    tracer = Tracer()
    mods = {layer: importlib.import_module(f"hhengine.{layer}")
            for layer in LAYERS}
    replaced = {}      # id(original function) -> wrapper
    for layer, mod in mods.items():
        for attr, val in list(vars(mod).items()):
            if (inspect.isfunction(val) and val.__module__ == mod.__name__
                    and _public(attr) and f"{layer}.{attr}" not in UNWRAPPED):
                w = tracer.wrap(val, layer, f"{layer}.{attr}")
                replaced[id(val)] = w
                setattr(mod, attr, w)
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                _wrap_class(tracer, val, layer)
    # names other modules imported from a layer ("from .linalg import solve")
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            w = replaced.get(id(val))
            if w is not None and inspect.isfunction(val):
                setattr(mod, attr, w)
    return tracer


def _wrap_class(tracer, cls, layer):
    for attr, val in list(vars(cls).items()):
        if not _public(attr):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(val, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(val.__func__, layer, name)))
        elif isinstance(val, property) and val.fget is not None:
            setattr(cls, attr, property(tracer.wrap(val.fget, layer, name),
                                        val.fset, val.fdel, val.__doc__))
        elif inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(val, layer, name))
