"""Outside-in tracer: spans and counters around radialmult's public functions.

The tracer wraps functions from the benchmark's side; radialmult itself is
not edited.  Modules bind each other's functions by name
(`from .multiplier import apply`), so a wrapper is installed in every
`radialmult` module namespace that binds the original object, not only in
the defining module.  `numpy.fft` transforms are counted (calls and input
points) and attributed to the innermost open layer span.

A span is (id, parent id, layer, name, start, end).  Spans are kept in
memory and written out by `write_spans`; a layer's self time is its spans'
durations minus the time covered by their child spans.  `uninstall`
restores every binding it replaced.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: Layer modules whose public functions are wrapped, in metric-prefix form.
LAYERS = {
    "grid": "grid",
    "symbols": "symbols",
    "rotation": "rotation",
    "radialize": "radialize",
    "multiplier": "multiplier",
    "norms": "norms",
    "_kernels": "kernels",
}

#: Symbol classes whose `evaluate` method is a symbols-layer boundary.
SYMBOL_CLASSES = ("NamedSymbol", "SampledSymbol", "RadialSymbol")

#: Transforms counted in `numpy.fft`; radialmult calls them as `np.fft.<name>`.
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

#: CLI subcommands timed through `radialmult.cli.main`.
CLI_SUBCOMMANDS = ("radialize", "norms", "positivity", "converge", "demo")

#: Per-pass counters reported by the traced run, one name per metric.
COUNTERS = (
    "norms.power.calls",
    "norms.power.iterations",
    "norms.fft.calls",
    "norms.fft.points",
    "multiplier.apply.calls",
    "multiplier.rotate.calls",
    "multiplier.average_conjugated.nodes",
    "multiplier.kernel.calls",
    "multiplier.fft.calls",
    "kernels.rotate_interp.calls",
    "kernels.rotate_interp.points",
    "radialize.project.calls",
    "radialize.project.sphere_points",
    "radialize.spherical_mean.calls",
    "symbols.evaluate.calls",
    "symbols.evaluate.points",
    "rotation.quadrature.calls",
    "rotation.quadrature.nodes",
    "grid.transform.calls",
    "grid.lp_norm.calls",
)


#: Every metric `Tracer.pass_metrics` reports, with its unit, in report order.
METRIC_UNITS = {
    **{f"{prefix}.self_s": "s" for prefix in LAYERS.values()},
    **{key: "count" for key in COUNTERS},
    **{f"verification.c{i:02d}_s": "s" for i in range(1, 13)},
    **{f"cli.{sub}_s": "s" for sub in CLI_SUBCOMMANDS},
}


def _points(points) -> int:
    shape = np.shape(points)
    return int(np.prod(shape[:-1])) if shape else 1


# (module, function) -> counter increments computed from the bound call and its result.
# Names absent from the installed radialmult are skipped, so the tracer keeps
# working when a private helper is renamed; its counter then reads zero.
_HOOKS = {
    ("norms", "norm_lower_power"): lambda b, r: {
        "norms.power.calls": 1,
        "norms.power.iterations": r.iterations,
    },
    ("multiplier", "apply"): lambda b, r: {"multiplier.apply.calls": 1},
    ("multiplier", "apply_vector"): lambda b, r: {"multiplier.apply.calls": 1},
    ("multiplier", "_rotate_values"): lambda b, r: {"multiplier.rotate.calls": 1},
    ("multiplier", "average_conjugated"): lambda b, r: {
        "multiplier.average_conjugated.nodes": len(b.arguments["rq"].rotations)
    },
    ("multiplier", "kernel"): lambda b, r: {"multiplier.kernel.calls": 1},
    ("_kernels", "rotate_interp"): lambda b, r: {
        "kernels.rotate_interp.calls": 1,
        "kernels.rotate_interp.points": int(np.size(b.arguments["values"])),
    },
    ("radialize", "project"): lambda b, r: {
        "radialize.project.calls": 1,
        "radialize.project.sphere_points": (len(b.arguments["radii"]) - 1)
        * len(b.arguments["sq"].weights),
    },
    ("radialize", "spherical_mean"): lambda b, r: {"radialize.spherical_mean.calls": 1},
    ("symbols", "evaluate"): lambda b, r: {
        "symbols.evaluate.calls": 1,
        "symbols.evaluate.points": _points(b.arguments["points"]),
    },
    ("rotation", "so_quadrature"): lambda b, r: {
        "rotation.quadrature.calls": 1,
        "rotation.quadrature.nodes": len(r.weights),
    },
    ("rotation", "sphere_quadrature"): lambda b, r: {
        "rotation.quadrature.calls": 1,
        "rotation.quadrature.nodes": len(r.weights),
    },
    ("grid", "transform"): lambda b, r: {"grid.transform.calls": 1},
    ("grid", "lp_norm"): lambda b, r: {"grid.lp_norm.calls": 1},
}

#: Private functions wrapped in addition to each module's public ones.
_PRIVATE_TARGETS = (("multiplier", "_rotate_values"),)


class Tracer:
    """Installs wrappers, records spans and counters, and restores on uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, layer, name, start, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []  # (namespace, attribute, original)

    # -- spans -------------------------------------------------------------

    def _open(self, layer: str, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, layer, name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        sid, layer, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.spans.append((sid, parent[0] if parent else 0, layer, name, start, end))
        self.self_s[layer] += duration - child
        self.inclusive_s[f"{layer}.{name}"] += duration

    def reset_pass(self) -> None:
        """Zero the per-pass counters and times; spans are kept for write_spans."""
        self.counts.clear()
        self.self_s.clear()
        self.inclusive_s.clear()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, name, fn, hook=None):
        signature = inspect.signature(fn) if hook else None
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            tracer._open(layer, span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                for key, inc in hook(signature.bind(*args, **kwargs), result).items():
                    tracer.counts[key] += inc
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, namespace, attribute: str, value) -> None:
        self._undo.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, value)

    def _bind_everywhere(self, original, wrapper) -> None:
        """Replace `original` by `wrapper` in every radialmult module that binds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "radialmult" or modname.startswith("radialmult.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, wrapper)

    def _fft_counter(self, fn):
        tracer = self

        def wrapper(a, *args, **kwargs):
            layer = tracer._stack[-1][1] if tracer._stack else "none"
            tracer.counts[f"{LAYERS.get(layer, layer)}.fft.calls"] += 1
            tracer.counts[f"{LAYERS.get(layer, layer)}.fft.points"] += int(np.size(a))
            return fn(a, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer boundary; radialmult must already be imported."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        import radialmult.cli
        import radialmult.verification

        modules = {name: sys.modules[f"radialmult.{name}"] for name in LAYERS}
        for short, module in modules.items():
            names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            targets = [n for n in names if inspect.isfunction(getattr(module, n, None))]
            targets += [n for m, n in _PRIVATE_TARGETS if m == short and hasattr(module, n)]
            for fname in targets:
                fn = getattr(module, fname)
                if fn.__module__ != module.__name__:
                    continue  # re-exported from another layer; wrapped there
                wrapper = self._wrap(short, fname, fn, _HOOKS.get((short, fname)))
                self._bind_everywhere(fn, wrapper)
        for cls_name in SYMBOL_CLASSES:
            cls = getattr(modules["symbols"], cls_name)
            original = cls.__dict__["evaluate"]
            self._set(cls, "evaluate", self._wrap("symbols", "evaluate", original, _HOOKS[("symbols", "evaluate")]))

        verification = radialmult.verification
        wrapped_checks = []
        for i, check in enumerate(verification.CRITERIA, start=1):
            wrapper = self._wrap("verification", f"c{i:02d}", check)
            self._bind_everywhere(check, wrapper)
            wrapped_checks.append(wrapper)
        self._set(verification, "CRITERIA", wrapped_checks)

        main = radialmult.cli.main
        self._bind_everywhere(main, self._wrap("cli", lambda args: args[0][0] if args and args[0] else "main", main))

        for fname in FFT_FUNCTIONS:
            fn = getattr(np.fft, fname, None)
            if fn is not None:
                self._set(np.fft, fname, self._fft_counter(fn))

    def uninstall(self) -> None:
        """Restore every binding, newest first."""
        while self._undo:
            namespace, attribute, original = self._undo.pop()
            setattr(namespace, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last reset_pass."""
        out = {f"{prefix}.self_s": self.self_s.get(layer, 0.0) for layer, prefix in LAYERS.items()}
        out.update({key: float(self.counts.get(key, 0)) for key in COUNTERS})
        for i in range(1, 13):
            out[f"verification.c{i:02d}_s"] = self.inclusive_s.get(f"verification.c{i:02d}", 0.0)
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}_s"] = self.inclusive_s.get(f"cli.{sub}", 0.0)
        return out

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON line: id, parent, layer, name, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
