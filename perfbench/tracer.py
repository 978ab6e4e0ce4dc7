"""Span tracer that instruments dyadicpara from outside the package.

The package imports names with ``from .x import y``, so a function is
bound in several module namespaces (and in tables such as
``harness.SUITES``).  The tracer replaces every binding of each traced
function, found by object identity, in every ``dyadicpara.*`` namespace,
and patches methods on their class.  Leaving the context restores every
binding.

Each span records its name, start, end and parent span; a name's self
time is its span time minus the time of its child spans.  Counts are
taken in the same wrappers, at the same function boundaries.

With ``spans=False`` only the two restricted-weak pipelines are wrapped,
to capture ``kappa`` per trial for the correctness gate; that costs one
Python call per trial and records no timing.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = (
    "transforms",
    "families",
    "operators",
    "paraproducts",
    "decomposition",
    "lattice",
    "norms",
    "signals",
    "harness",
)
METHODS = (
    ("lattice", "RectangleCollection", "of", "lattice.collection_of"),
    ("lattice", "RectangleCollection", "shadow_mask", "lattice.shadow_mask"),
    ("families", "AdaptedFamily", "profile_matrix", "families.profile_matrix"),
)
# private functions traced at their boundary: one call per kappa tried
PRIVATE = (("decomposition", "_omega_sets"),)
# lru-cached profile builders whose misses hold cached arrays
PROFILE_CACHES = ("_profile_matrix_cached", "_step_profile_cached", "_gaussian_profile_cached")
PIPELINES = ("restricted_weak_type_pipeline", "endpoint_pipeline")


def _namespaces():
    return [
        vars(mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "dyadicpara" or name.startswith("dyadicpara."))
    ]


class Tracer:
    def __init__(self, spans: bool = True):
        self.enabled = spans
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.kappas = []
        self.distinct = set()
        self._undo = []

    # -- patching -------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for ns in _namespaces():
            for key, value in list(ns.items()):
                if value is original:
                    self._undo.append((ns, key, value))
                    ns[key] = wrapper
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, v))
                            value[k] = wrapper

    def functions(self):
        """(function, span name, post hook) for every traced function, and
        (class, attribute, function, span name) for every traced method."""
        mods = {m: sys.modules[f"dyadicpara.{m}"] for m in MODULES}
        if not self.enabled:
            fns = [
                (getattr(mods["decomposition"], name), None, self._kappa_hook)
                for name in PIPELINES
            ]
            return fns, []
        fns = [
            (fn, f"{short}.{name}", self._hook(short, name))
            for short, mod in mods.items()
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn)
            and not name.startswith("_")
            and fn.__module__ == mod.__name__
        ]
        fns += [(getattr(mods[short], name), f"{short}.{name}", None) for short, name in PRIVATE]
        methods = []
        for short, cls_name, attr, span in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[attr]
            methods.append((cls, attr, getattr(raw, "__func__", raw), span))
        return fns, methods

    def __enter__(self):
        fns, methods = self.functions()
        for fn, span, hook in fns:
            self._replace_everywhere(fn, self._wrap(fn, span, hook))
        for cls, attr, fn, span in methods:
            raw = cls.__dict__[attr]
            wrapped = self._wrap(fn, span, None)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        if self.enabled:
            fam = vars(sys.modules["dyadicpara.families"])
            for name in PROFILE_CACHES:
                self._undo.append((fam, name, fam[name]))
                fam[name] = self._cache_counter(fam[name], name == PROFILE_CACHES[0])
        return self

    def __exit__(self, *exc):
        for container, key, value in reversed(self._undo):
            if isinstance(container, type):
                setattr(container, key, value)
            else:
                container[key] = value
        self._undo.clear()
        return False

    def _wrap(self, fn, span, hook):
        tracer = self

        if span is None:

            @functools.wraps(fn)
            def captured(*args, **kwargs):
                out = fn(*args, **kwargs)
                hook(args, kwargs, out, None)
                return out

            return captured

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            rec = [span, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(args, kwargs, out, rec)
            return out

        return traced

    def _cache_counter(self, cached, is_matrix):
        """Counts the arrays a profile cache newly stores, by their shapes;
        for the matrix cache also the misses and the time spent building."""
        counts = self.counts

        @functools.wraps(cached)
        def counted(*args):
            before = cached.cache_info().misses
            start = time.perf_counter()
            out = cached(*args)
            if cached.cache_info().misses != before:
                counts["families.profile_cache_bytes"] += out.nbytes
                if is_matrix:
                    counts["families.profile_matrix.build_s"] += time.perf_counter() - start
                    counts["families.profile_matrix.misses"] += 1
            return out

        return counted

    # -- per-function hooks ---------------------------------------------

    def _hook(self, short, name):
        return {
            ("transforms", "coefficients"): self._coefficients_hook,
            ("operators", "governing_operator"): self._operator_hook,
            ("decomposition", "classify_rectangles"): self._classify_hook,
            ("decomposition", "restricted_weak_type_pipeline"): self._pipeline_hook,
            ("decomposition", "endpoint_pipeline"): self._pipeline_hook,
        }.get((short, name))

    def _coefficients_hook(self, args, kwargs, out, rec):
        f = args[0] if args else kwargs["f"]
        family = args[1] if len(args) > 1 else kwargs["family"]
        digest = hashlib.blake2b(f.values.tobytes(), digest_size=16).digest()
        self.distinct.add((digest, f.values.shape, family))
        if family.is_orthonormal_basis:
            rec[0] = "transforms.coefficients.haar"
            return
        rec[0] = "transforms.coefficients.dense"
        # computed, not measured: one n x n float64 matrix per axis, read
        # once and copied once by the 2^-L scaling, n^(d+1) multiply-adds
        n = 1 << f.L
        self.counts["dense.matrix_bytes"] += f.d * n * n * 8
        self.counts["dense.scaled_copy_bytes"] += f.d * n * n * 8
        self.counts["dense.madds"] += f.d * n ** (f.d + 1)

    def _operator_hook(self, args, kwargs, out, rec):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        kinds = set(spec.sigma)
        rec[0] = "operators.governing_operator." + (kinds.pop() if len(kinds) == 1 else "mixed")

    def _classify_hook(self, args, kwargs, out, rec):
        self.counts["decomposition.rectangles_classified"] += len(out)

    def _pipeline_hook(self, args, kwargs, out, rec):
        self.counts["decomposition.classes"] += len(out["classes"])
        self._kappa_hook(args, kwargs, out, rec)

    def _kappa_hook(self, args, kwargs, out, rec):
        self.kappas.append(out["kappa"])

    # -- aggregation ----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def call_counts(self) -> dict:
        """Calls per traced function; sub-kinds fold into their function."""
        out = defaultdict(int)
        for name, row in self.summary().items():
            for base in ("transforms.coefficients", "operators.governing_operator"):
                if name.startswith(base + "."):
                    name = base
            out[name] += row["calls"]
        return dict(out)

    def outermost_seconds(self, names) -> float:
        """Inclusive time of spans in `names` not nested in another of them."""
        names = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total
