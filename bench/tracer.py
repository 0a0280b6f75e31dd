"""Span tracing of the ``diskproj`` layers from outside the library.

``Tracer.install`` replaces every public function of the eight layer
modules, and every public method of their classes, with a wrapper that
records a span. A function is patched in every ``diskproj`` namespace
that binds it: ``operators`` calls ``kernel_integral_grid`` through its
own ``from .kernels import`` binding, so patching only ``kernels`` would
leave those calls without a span.

Spans are kept in memory as ``(qualname, layer, J, duration,
child_time)`` and reduced when the run ends. A layer's self time is the
duration of its spans minus the time covered by their direct children.
J is the quadrature depth of the call: taken from a quadrature among
the arguments (directly or as ``.quad``), from a ``J`` argument, or
else inherited from the parent span.

Counts come from argument and result sizes at the layer boundaries, so
they repeat exactly for one seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("measures", "kernels", "disk", "operators", "weights", "czd",
          "twoweight", "cli")
DEPTHS = (6, 7, 8, 9, 10, 12)
SCALAR_KERNEL_CALLS = {"nu_cauchy_transform", "kernel_integral", "shi_ratio",
                       "MomentConstruction.tail"}
NORM_FUNCTIONS = {"weighted_norm_p2", "weighted_norm_lp_lower"}
# Count metrics: they must repeat exactly between passes at one seed.
COUNTS = ("kernels.scalar_calls", "kernels.grid_points", "kernels.rule_nodes",
          "kernels.rule_nodes_useful", "operators.kernel_entries",
          "operators.matrix_bytes", "operators.dense_applies",
          "operators.matrix_free_applies", "operators.fast_applies",
          "weights.disc_family_size", "weights.strided_families",
          "czd.selected_squares", "czd.unresolved_cells",
          "twoweight.sparse_applies", "twoweight.stopping_squares",
          "disk.cells")


class Tracer:
    """Patches the layer modules, records spans and boundary counts."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"diskproj.{name}")
                        for name in LAYERS}
        self.package = importlib.import_module("diskproj")
        self.disk_quadrature = self.modules["disk"].DiskQuadrature
        self.center_cap = getattr(self.modules["weights"], "_CENTER_CAP", 4096)
        self.active = False
        self._undo = []
        self.reset()

    def reset(self):
        """Drop the spans and counts of the previous pass."""
        self.spans = []
        self.counts = Counter({name: 0 for name in COUNTS})
        self.inclusive = Counter()
        self._stack = []

    # -- patching -------------------------------------------------------------

    def install(self):
        wrapped = {}
        namespaces = [self.package, *self.modules.values()]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    layer = self._layer_of(obj)
                    rule = obj.__module__ == "diskproj._integrate" and \
                        obj.__name__ == "graded_gl_rule"
                    if layer is None and not rule:
                        continue
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = (self._count_rule(obj) if rule else
                                            self._wrap(obj, layer, obj.__name__))
                    self._set(ns, name, wrapped[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == ns.__name__ and \
                        ns is not self.package:
                    self._patch_class(obj, ns.__name__.rsplit(".", 1)[-1])
        self.active = True

    def uninstall(self):
        self.active = False
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def _set(self, target, name, value):
        original = (vars(target)[name] if inspect.isclass(target)
                    else getattr(target, name))
        self._undo.append((target, name, original))
        setattr(target, name, value)

    def _layer_of(self, fn):
        module = getattr(fn, "__module__", "") or ""
        layer = module.rsplit(".", 1)[-1]
        return layer if module.startswith("diskproj.") and layer in LAYERS \
            else None

    def _patch_class(self, cls, layer):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            qual = f"{cls.__name__}.{name}"
            if inspect.isfunction(raw):
                self._set(cls, name, self._wrap(raw, layer, qual))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, name, type(raw)(self._wrap(raw.__func__, layer,
                                                          qual)))

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, layer, qual):
        tracer = self
        depth_of = self._depth_finder(fn)
        before = _BEFORE.get(qual)
        after = _AFTER.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            J = depth_of(args, kwargs)
            if J is None and stack:
                J = stack[-1][1]
            # frame: [time covered by children, J, qualname, hook note]
            frame = [0.0, J, qual, None]
            stack.append(frame)
            start = time.perf_counter()
            try:
                if before is not None:
                    before(tracer, frame, args)
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                tracer.spans.append((qual, layer, J, duration, frame[0]))
            if after is not None:
                tracer.active = False
                try:
                    after(tracer, frame, args, kwargs, result, duration)
                finally:
                    tracer.active = True
            return result

        return traced

    def _depth_finder(self, fn):
        quad_type = self.disk_quadrature
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        j_pos = params.index("J") if "J" in params else None

        def depth_of(args, kwargs):
            for a in (*args, *kwargs.values()):
                if type(a) is quad_type:
                    return a.J
                q = getattr(a, "quad", None)
                if type(q) is quad_type:
                    return q.J
            if j_pos is not None:
                J = args[j_pos] if j_pos < len(args) else kwargs.get("J")
                if isinstance(J, int):
                    return J
            return None

        return depth_of

    def _count_rule(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            nodes, weights = fn(*args, **kwargs)
            if tracer.active:
                tracer.counts["kernels.rule_nodes"] += nodes.size
                tracer.counts["kernels.rule_nodes_useful"] += int(
                    np.count_nonzero(nodes < 1.0))
            return nodes, weights

        return counted

    # -- reduction ------------------------------------------------------------

    def layer_table(self):
        """Per-layer calls and self seconds, overall and by depth."""
        calls = Counter()
        self_s = defaultdict(float)
        by_fn = defaultdict(float)
        for qual, layer, J, duration, child in self.spans:
            own = duration - child
            calls[layer] += 1
            self_s[layer] += own
            self_s[(layer, J)] += own
            by_fn[f"{layer}.{qual}"] += own
        return calls, self_s, by_fn


# -- boundary hooks: counts derived from argument and result sizes ------------

APPLY = "OperatorHandle.apply"


def _set_route(tracer, route):
    """Mark the enclosing OperatorHandle.apply span with the route taken."""
    stack = tracer._stack
    if stack and stack[-1][2] == APPLY:
        stack[-1][3] = route


def _handle_instrument(tracer, handle):
    """Wrap a handle's kernel_block and fast_apply once, for entry counts
    and route detection."""
    block = handle.kernel_block
    if not getattr(block, "_bench_counted", False):
        size = handle.quad.size

        def counted_block(rows):
            if tracer.active:
                tracer.counts["operators.kernel_entries"] += np.size(rows) * size
            return block(rows)

        counted_block._bench_counted = True
        handle.kernel_block = counted_block
    fast = handle.fast_apply
    if fast is not None and not getattr(fast, "_bench_counted", False):
        def counted_fast(values):
            _set_route(tracer, "fast")
            return fast(values)

        counted_fast._bench_counted = True
        handle.fast_apply = counted_fast


def _before_apply(tracer, frame, args):
    _handle_instrument(tracer, args[0])
    frame[3] = "matrix_free"


def _after_apply(tracer, frame, args, kwargs, result, duration):
    tracer.counts[f"operators.{frame[3]}_applies"] += 1
    tracer.inclusive["operators.apply_s"] += duration


def _before_matrix(tracer, frame, args):
    handle = args[0]
    _handle_instrument(tracer, handle)
    frame[3] = handle._matrix is None
    # the matrix frame is on top; its parent is the apply, if any
    stack = tracer._stack
    if len(stack) > 1 and stack[-2][2] == APPLY:
        stack[-2][3] = "dense"


def _after_matrix(tracer, frame, args, kwargs, result, duration):
    if frame[3]:
        tracer.counts["operators.matrix_bytes"] += result.nbytes


def _after_scalar(tracer, frame, args, kwargs, result, duration):
    tracer.counts["kernels.scalar_calls"] += 1


def _after_grid(tracer, frame, args, kwargs, result, duration):
    w = kwargs.get("w_values", args[1] if len(args) > 1 else None)
    tracer.counts["kernels.grid_points"] += int(np.size(w))


def _after_norm(tracer, frame, args, kwargs, result, duration):
    tracer.inclusive["operators.norm_s"] += duration


def _after_disc_family(tracer, frame, args, kwargs, result, duration):
    quad = args[0] if args else kwargs["quad"]
    tracer.counts["weights.disc_family_size"] += len(result)
    tracer.counts["weights.strided_families"] += int(
        quad.size > tracer.center_cap)


def _after_cz(tracer, frame, args, kwargs, result, duration):
    tracer.counts["czd.selected_squares"] += len(result.selected)
    tracer.counts["czd.unresolved_cells"] += int(result.unresolved)


def _after_sparse(tracer, frame, args, kwargs, result, duration):
    tracer.counts["twoweight.sparse_applies"] += 1


def _after_stopping(tracer, frame, args, kwargs, result, duration):
    tracer.counts["twoweight.stopping_squares"] += len(
        result.stopping_squares())


def _after_testing(tracer, frame, args, kwargs, result, duration):
    tracer.inclusive["twoweight.testing_s"] += duration


def _after_quadrature(tracer, frame, args, kwargs, result, duration):
    tracer.counts["disk.cells"] += int(result.size)


_BEFORE = {APPLY: _before_apply,
           "OperatorHandle.matrix": _before_matrix}
_AFTER = {APPLY: _after_apply,
          "OperatorHandle.matrix": _after_matrix,
          "nu_cauchy_grid": _after_grid,
          "disc_family": _after_disc_family,
          "cz_decompose": _after_cz,
          "apply_sparse": _after_sparse,
          "stopping_family": _after_stopping,
          "testing_constants": _after_testing,
          "build_quadrature": _after_quadrature,
          **{name: _after_scalar for name in SCALAR_KERNEL_CALLS},
          **{name: _after_norm for name in NORM_FUNCTIONS}}
