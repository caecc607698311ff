"""Spans around the public functions of each ksub layer, installed from outside.

``from .expr import eval_jet`` copies a function into the importing module,
so a function is wrapped at every module binding it has, each binding by its
own wrapper: calls are then attributed to the module that made them. Methods
are wrapped on their class. Jet arithmetic is never wrapped.

Wrappers are installed only around a traced op and removed afterwards, so
untraced ops run the unmodified program. Spans (name, start, end, parent,
op) are kept in flat arrays while the run lasts and written when it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# layer -> public functions whose calls and self time are reported
TRACED = {
    "expr": ("parse", "eval_jet", "eval_value", "compose_jet"),
    "numdiff": ("partial1", "d1", "d2"),
    "geometry": ("bundle_curvature", "gauss_curvature", "connection", "ricci",
                 "metric_matrix", "connection_oracle", "riemann_closed",
                 "riemann_direct", "ricci_contraction", "KillingData.base_jets"),
    "surface": ("SurfaceEvaluator.data", "SurfaceEvaluator.weingarten",
                "analyze_point", "gauss_residual", "codazzi_residual",
                "compatibility_residuals", "SurfaceEvaluator.laplacian",
                "SurfaceEvaluator.brioschi_curvature"),
    "biharmonic": ("bitension_residual", "frame_system_residuals",
                   "classify_point", "cmc_probe"),
    "hopf": ("hopf_residuals", "geodesic_curvature", "arclength_reparam",
             "rotational_case_search"),
    "cli": ("main", "dumps_json"),
}

# verify-paper checks run by a function not named after them
VERIFY_FUNCTION = {"cli-determinism": "check_serialization_determinism"}


def verify_checks() -> dict[str, str]:
    """verify-paper check name -> the ``ksub.verify`` function that runs it."""
    from ksub.verify import CHECK_NAMES
    return {name: VERIFY_FUNCTION.get(name, "check_" + name.replace("-", "_"))
            for name in CHECK_NAMES}

SPAN_DTYPES = (("name", "i"), ("parent", "i"), ("op", "i"),
               ("start", "d"), ("end", "d"))


class Tracer:
    """Wrappers for every traced function, and the spans they record."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ksub" or name.startswith("ksub.")}
        targets = [(f"{layer}.{qual}", f"ksub.{layer}", qual)
                   for layer, quals in TRACED.items() for qual in quals]
        targets += [(f"verify.{check}", "ksub.verify", func)
                    for check, func in verify_checks().items()]
        self.names = [name for name, _, _ in targets]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        # calls counted per (name, calling module), for miss ratios
        self.binding_calls: dict[tuple[str, str], int] = {}
        self.spans = {key: array(code) for key, code in SPAN_DTYPES}
        self.op = -1
        self._stack: list[list] = []   # [span id, time in wrapped children]
        self._patches = []             # (namespace, attribute, original, wrapper)
        for index, (name, module, qual) in enumerate(targets):
            owner = modules[module]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patches.append(
                    (cls, attr, original, self._wrap(index, original, None)))
                continue
            original = getattr(owner, qual)
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append(
                            (mod, attr, original,
                             self._wrap(index, original, mod_name)))

    def _wrap(self, index: int, func, caller: str | None):
        key = (self.names[index], caller)
        self.binding_calls.setdefault(key, 0)
        spans = self.spans
        starts, ends = spans["start"], spans["end"]
        span_names, parents, ops = spans["name"], spans["parent"], spans["op"]
        stack = self._stack
        counts, self_s, total_s = self.calls, self.self_s, self.total_s
        binding_calls = self.binding_calls
        clock = self._clock

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            span_names.append(index)
            ops.append(self.op)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[span] = end
                elapsed = end - start
                counts[index] += 1
                binding_calls[key] += 1
                total_s[index] += elapsed
                self_s[index] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def install(self, op: int) -> None:
        self.op = op
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def remove(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def calls_from(self, name: str, caller: str) -> int:
        return self.binding_calls.get((name, caller), 0)

    def write_spans(self, path: str) -> int:
        """Write the spans as consecutive native-endian arrays; return count."""
        with open(path, "wb") as handle:
            for key, _ in SPAN_DTYPES:
                self.spans[key].tofile(handle)
        return len(self.spans["start"])
