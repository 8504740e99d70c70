"""Runtime span wrappers around the public entry points of every layer.

Installing a ``Tracer`` replaces each public function and method of the
layer modules with a wrapper that records one span per call: the span's
name, start, end and the index of its parent span.  Spans stay in memory
and are turned into per-layer metrics (and written out as JSON) after the
pass.  ``uninstall`` puts every original object back, so an untraced pass
runs the package exactly as imported.

Nothing under ``src/`` is edited: the wrappers are attribute assignments
made at run time, in the module namespaces that bind the functions (a
``from .npoint import free_energy`` in another module is a second binding
and is patched too) and in module-level dispatch tables such as
``airy.ROUTES``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# The layers are the package's modules; their names prefix every span.
LAYERS = ("airy", "npoint", "multipoly", "series", "wave", "grassmann",
          "schur", "linalg", "cli")

# Arithmetic dunders are entry points of the container layers (Series1 and
# MultiPoly products go through them); other dunders are not wrapped.
OPERATORS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__"}

# Per-term monomial helpers, called hundreds of thousands of times a pass;
# wrapping them would multiply the trace's size and overhead.  Their time is
# charged to the calling span's layer.
UNWRAPPED = {"multipoly.mono_weight", "multipoly.mono_degree",
             "multipoly.mono_mul"}

# The verification module is the correctness oracle; it is never timed,
# so its namespace keeps the unwrapped functions.
UNPATCHED = {"airytau.verify"}


def _kernel_entries(args, result):
    return len(result.table)


def _certifying(args, result):
    engine, _js, cutoff = args[:3]
    return cutoff > engine.cutoff


def _nonzero(args, result):
    return result != 0


def _first_arg_id(args, result):
    return id(args[0])


# Span tags recorded from a call's arguments or result, by span name.
HOOKS = {
    "airy.kernel_closed": _kernel_entries,
    "airy.kernel_series": _kernel_entries,
    "airy.kernel_gmatrix": _kernel_entries,
    "airy.kernel_frame": _kernel_entries,
    "npoint.NPointEngine.connected_at": _certifying,
    "grassmann.plucker_minor": _nonzero,
    "grassmann.plucker_from_admissible": _nonzero,
    "wave.bilinear_matrix": _first_arg_id,
}


class Tracer:
    """Spans of one traced pass.

    ``spans[i]`` is ``(name_index, start, end, parent_index)``; span 0 is
    the pass itself (``bench.pass``, parent -1).  ``tags`` maps a span index
    to the value its HOOKS entry recorded.
    """

    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = ["bench.pass"]
        self.spans: list[tuple | None] = []
        self.tags: dict[int, object] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, tags = self.spans, self._stack, self.tags
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_index, start, end, parent)
            if hook is not None:
                tags[index] = hook(args, result)
            return result

        return traced

    def _targets(self):
        """(span name, owner, attribute, function, descriptor type or None)
        for every public function and method defined in a layer module."""
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if f"{layer}.{name}" not in UNWRAPPED:
                        yield f"{layer}.{name}", module, name, obj, None
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in OPERATORS:
                            continue
                        span = f"{layer}.{name}.{attr}"
                        if isinstance(member, (classmethod, staticmethod)):
                            yield (span, obj, attr, member.__func__,
                                   type(member))
                        elif inspect.isfunction(member):
                            yield span, obj, attr, member, None

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for span, owner, attr, fn, kind in self._targets():
            wrapper = wrapped.get(id(fn))
            if wrapper is None:
                wrapper = wrapped[id(fn)] = self._wrap(fn, span)
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper if kind is None else kind(wrapper))
        # second bindings: names imported into other modules, and values of
        # module-level dispatch tables
        prefix = self.package
        for mod_name, module in list(sys.modules.items()):
            if (mod_name != prefix and not mod_name.startswith(prefix + ".")
                    or mod_name in UNPATCHED):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._undo.append((obj, key, value))
                            obj[key] = wrapped[id(value)]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- one traced pass ---------------------------------------------------

    def run(self, body) -> float:
        """Run ``body()`` as the root span and return its duration."""
        self.spans.clear()
        self.tags.clear()
        self.spans.append(None)
        self._stack.append(0)
        start = perf_counter()
        try:
            body()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[0] = (0, start, end, -1)
        return end - start

    def dump(self) -> dict:
        """The recorded spans as JSON-ready data, times relative to the
        pass start."""
        origin = self.spans[0][1]
        return {"names": self.names,
                "spans": [[n, round(s - origin, 9), round(e - origin, 9), p]
                          for n, s, e, p in self.spans],
                "tags": {str(k): v for k, v in self.tags.items()}}

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and work counts of the recorded pass.

        A span's self time is its duration minus the durations of its
        children; the self time of the root span is ``bench.unattributed_s``,
        so the layer self times and it add up to ``trace.pass_s``.
        """
        names, spans, tags = self.names, self.spans, self.tags
        child = [0.0] * len(spans)
        by_name: dict[str, list[int]] = {}
        for i, (name_index, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
            by_name.setdefault(names[name_index], []).append(i)
        self_s = {layer: 0.0 for layer in ("bench",) + LAYERS}
        for i, (name_index, start, end, _) in enumerate(spans):
            self_s[names[name_index].split(".", 1)[0]] += (end - start
                                                           - child[i])

        def each(*span_names):
            return [i for n in span_names for i in by_name.get(n, ())]

        def seconds(indices):
            return sum(spans[i][2] - spans[i][1] for i in indices)

        def ratio(num, den):
            return num / den if den else 0.0

        evals = each("npoint.NPointEngine.connected_at")
        evaluating = {spans[i][3] for i in evals}
        connected = each("npoint.NPointEngine.connected")
        minors = each("grassmann.plucker_minor",
                      "grassmann.plucker_from_admissible")
        builds = each("wave.bilinear_matrix")
        kernels = each("airy.kernel_closed", "airy.kernel_series",
                       "airy.kernel_gmatrix", "airy.kernel_frame")

        return {
            "trace.pass_s": spans[0][2] - spans[0][1],
            "bench.unattributed_s": self_s["bench"],
            "airy.self_s": self_s["airy"],
            "airy.calls": sum(len(v) for n, v in by_name.items()
                              if n.startswith("airy.")),
            "airy.kernel_entries": sum(tags.get(i, 0) for i in kernels),
            "npoint.self_s": self_s["npoint"],
            "npoint.certify_s": seconds(i for i in evals if tags.get(i)),
            "npoint.eval_calls": len(evals),
            "npoint.useful_eval_ratio": ratio(
                sum(1 for i in evals if not tags.get(i)), len(evals)),
            "npoint.cache_hit_ratio": ratio(
                sum(1 for i in connected if i not in evaluating),
                len(connected)),
            "multipoly.self_s": self_s["multipoly"],
            "multipoly.mul_calls": len(each("multipoly.MultiPoly.mul")),
            "multipoly.exp_s": seconds(each("multipoly.MultiPoly.exp")),
            "series.self_s": self_s["series"],
            "series.mul_calls": len(each("series.Series1.__mul__",
                                         "series.Laurent2.mul")),
            "wave.self_s": self_s["wave"],
            "wave.bilinear_builds": len(builds),
            "wave.bilinear_reuse_ratio": ratio(
                len({tags.get(i) for i in builds}), len(builds)),
            "grassmann.self_s": self_s["grassmann"],
            "grassmann.minor_calls": len(minors),
            "grassmann.nonzero_minor_ratio": ratio(
                sum(1 for i in minors if tags.get(i)), len(minors)),
            "schur.self_s": self_s["schur"],
            "schur.schur_at_calls": len(each("schur.schur_at")),
            "linalg.self_s": self_s["linalg"],
            "cli.self_s": self_s["cli"],
        }
