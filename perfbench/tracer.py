"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each library layer from outside
the library.  Every ``stiefelcodes`` module attribute that is bound to a
target function under the target's own name is replaced by a timing
wrapper, so calls through ``from .verify import certify`` bindings made at
import, through call-time imports and through module attributes are all
seen.  Private implementation names (``pairwise_sq_dists_numpy``, ...) are
left alone, so a kernel called from inside another kernel is not a span.

A span's self time is its duration minus the time its child spans cover.
The sum of top-level span durations is kept, so the harness can report how
much of an operation's wall time no span covers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

KERNELS = ("softmin_value", "softmin_value_grad", "pairwise_sq_dists", "gram_real_trace")

# (span name, module, public attribute names that make up the span)
SPANS = (
    *((f"kernels.{k}", "stiefelcodes._kernels", (k,)) for k in KERNELS),
    ("optimize.optimize", "stiefelcodes.optimize", ("optimize",)),
    ("verify.certify", "stiefelcodes.verify", ("certify",)),
    ("atlas.best_exact", "stiefelcodes.atlas", ("best_exact",)),
    ("atlas.find_ssc", "stiefelcodes.atlas", ("find_ssc",)),
    (
        "simplex.construct",
        "stiefelcodes.simplex",
        (
            "ssc_sphere",
            "ssc_radon_hurwitz",
            "ssc_regular_representation",
            "ssc_symplectic_lift",
            "ssc_from_bibd",
            "ssc_complexify",
            "ssc_pad_row",
            "ssc_kronecker",
            "ssc_realify",
        ),
    ),
    (
        "orthoplex.construct",
        "stiefelcodes.orthoplex",
        ("soc_complex_orbit", "soc_sphere_real", "soc_real_hadamard"),
    ),
    ("io.dumps_code", "stiefelcodes.io", ("dumps_code",)),
    ("io.loads_code", "stiefelcodes.io", ("loads_code",)),
)
# (span name, module, class, method)
METHOD_SPANS = (("core.max_stiefel_error", "stiefelcodes.core", "StiefelCode", "max_stiefel_error"),)

SPAN_NAMES = tuple(s[0] for s in SPANS) + tuple(s[0] for s in METHOD_SPANS)
SHAPE_ROWS = 12
BACKEND_SHAPES = 3


def _library_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "stiefelcodes" or name.startswith("stiefelcodes.")
    ]


class Tracer:
    """Per-span call counts and self times, kept in memory.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original bindings.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        # (span, parent span or None) -> calls
        self.parents = Counter()
        # (kernel span, (n, d, r)) -> [calls, self seconds]
        self.shapes = defaultdict(lambda: [0, 0.0])
        # io span -> characters written or parsed (ASCII, so bytes)
        self.io_bytes = Counter()
        self.top_s = 0.0
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        kernel = name.startswith("kernels.")
        io_text = name.startswith("io.")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                own = dt - frame[1]
                self.calls[name] += 1
                self.self_s[name] += own
                self.parents[(name, parent)] += 1
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt
            if kernel:
                row = self.shapes[(name, tuple(args[0].shape))]
                row[0] += 1
                row[1] += own
            elif io_text:
                self.io_bytes[name] += len(result if name == "io.dumps_code" else args[0])
            return result

        return span

    def __enter__(self):
        targets = {}  # attribute name -> (original, wrapper)
        for name, modname, attrs in SPANS:
            module = sys.modules[modname]
            for attr in attrs:
                fn = getattr(module, attr)
                targets[attr] = (fn, self._wrap(name, fn))
        for module in _library_modules():
            for attr, (fn, wrapper) in targets.items():
                if vars(module).get(attr) is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))
        for name, modname, clsname, meth in METHOD_SPANS:
            cls = getattr(sys.modules[modname], clsname)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, fn))
            self._restore.append((cls, meth, fn))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)
        return False

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics, name -> (value, unit), over traced op wall time
        `wall_s`.  Layers that did not run read 0.  ``flops`` and ``bytes``
        are computed from the call shapes (8 flops per complex multiply-add of
        the n x n Gram product; input read once, n x n output written once),
        not measured."""
        out = {}
        for k in KERNELS:
            span = f"kernels.{k}"
            out.update(self._busy(span, wall_s))
        for k in ("pairwise_sq_dists", "gram_real_trace"):
            span = f"kernels.{k}"
            rows = [(shape, calls) for (name, shape), (calls, _) in self.shapes.items() if name == span]
            out[f"{span}.flops"] = (sum(c * 8 * n * n * d * r for (n, d, r), c in rows), "flop")
            out[f"{span}.bytes"] = (sum(c * (16 * n * d * r + 8 * n * n) for (n, d, r), c in rows), "B")
        solves = self.calls["optimize.optimize"]
        grads = self.calls["kernels.softmin_value_grad"]
        values = self.calls["kernels.softmin_value"]
        out["optimize.self_s"] = (self.self_s["optimize.optimize"] / solves if solves else 0.0, "s")
        out["optimize.grad_evals"] = (grads / solves if solves else 0.0, "count")
        out["optimize.value_evals"] = (values / solves if solves else 0.0, "count")
        out["optimize.value_evals_per_grad"] = (values / grads if grads else 0.0, "count")
        out.update(self._busy("verify.certify", wall_s))
        out.update(self._busy("core.max_stiefel_error", wall_s))
        lookups = self.calls["atlas.best_exact"]
        out["atlas.best_exact.self_us"] = (self.self_s["atlas.best_exact"] * 1e6, "us")
        out["atlas.find_ssc.self_us"] = (self.self_s["atlas.find_ssc"] * 1e6, "us")
        certified = self.parents[("verify.certify", "atlas.best_exact")]
        out["atlas.candidates_per_call"] = (certified / lookups if lookups else 0.0, "count")
        for span in ("simplex.construct", "orthoplex.construct"):
            out[f"{span}.calls"] = (self.calls[span], "count")
            out[f"{span}.self_us"] = (self.self_s[span] * 1e6, "us")
        for span in ("io.dumps_code", "io.loads_code"):
            busy = self.self_s[span]
            out[f"{span}.mb_s"] = (self.io_bytes[span] / busy / 1e6 if busy else 0.0, "MB/s")
        out["io.bytes"] = (self.io_bytes["io.dumps_code"], "B")
        out["trace.untraced_frac"] = ((wall_s - self.top_s) / wall_s, "frac")
        return out

    def _busy(self, span: str, wall_s: float) -> dict:
        return {
            f"{span}.calls": (self.calls[span], "count"),
            f"{span}.self_us": (self.self_s[span] * 1e6, "us"),
            f"{span}.share": (self.self_s[span] / wall_s, "frac"),
        }

    def shape_lines(self, kernels) -> list[str]:
        """Per-kernel calls and self time for each (n, d, r) shape hit, largest
        self time first, then a timing of each backend of `kernels` on the top
        shapes: numpy always, numba only when it imports."""
        lines = []
        rng = np.random.default_rng(0)
        for span in sorted({span for span, _ in self.shapes}):
            rows = sorted(
                ((shape, c, s) for (name, shape), (c, s) in self.shapes.items() if name == span),
                key=lambda row: -row[2],
            )
            ns = [shape[0] for shape, _, _ in rows]
            lines.append(f"shapes {span}: {len(rows)} shapes, n {min(ns)}..{max(ns)}")
            for shape, calls, self_s in rows[:SHAPE_ROWS]:
                lines.append(
                    f"shape {span} {shape} calls={calls} self_us={self_s * 1e6:.1f}"
                    f" us_per_call={self_s * 1e6 / calls:.2f}"
                )
            rest = rows[SHAPE_ROWS:]
            if rest:
                lines.append(
                    f"shape {span} other calls={sum(r[1] for r in rest)}"
                    f" self_us={sum(r[2] for r in rest) * 1e6:.1f}"
                )
            kernel = span.split(".", 1)[1]
            extra = (64.0,) if kernel.startswith("softmin") else ()
            for shape, _, _ in rows[:BACKEND_SHAPES]:
                mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for backend in ("numpy", "numba"):
                    fn = getattr(kernels, f"{kernel}_{backend}", None)
                    if fn is not None:
                        us = _time_call(fn, mats, *extra) * 1e6
                        lines.append(f"backend {span} {shape} {backend} us_per_call={us:.2f}")
        return lines


def _time_call(fn, *args, budget_s=0.02):
    """Best of five timings of about `budget_s` each, per call."""
    fn(*args)
    t0 = time.perf_counter()
    fn(*args)
    number = max(1, int(budget_s / max(time.perf_counter() - t0, 1e-7)))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(number):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / number)
    return best
