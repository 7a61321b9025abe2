"""Per-layer spans and counts for a traced benchmark pass.

``Tracer`` wraps the public functions of the ``jdl`` modules from outside:
each wrapper replaces the function in every ``jdl.*`` module that bound it,
including the ones that bound it by ``from ... import``, and the originals
come back on exit.  Nothing under ``src/`` is edited.

A span opens when a call enters a layer from a different layer; a call from
inside the same layer is part of the open span.  A layer's self time is the
time of its spans minus the time of the spans they caused.  ``calls`` counts
spans.  ``errors`` counts typed ``JdlError``s that leave a span, by module.
"""
import functools
import importlib
import sys
import time
import types
from collections import defaultdict

import numpy as np

MODULES = ("atiyah", "calculus", "chart", "contact", "dualpair", "fields",
           "homogenize", "jacobi", "leaves", "linalg")

# Functions with a layer of their own.  The other public functions of a
# module share the module's layer, except in dualpair, where only the
# checks are wrapped, so that a per-point helper counts to its check.
OWN_LAYERS = {
    ("contact", "contact_to_jacobi"): "contact.contact_to_jacobi",
    ("jacobi", "extract_pair_from_bracket"):
        "jacobi.extract_pair_from_bracket",
    ("fields", "jet_solve"): "fields.jet_solve",
    ("fields", "jet_inv"): "fields.jet_solve",
    ("chart", "tangent_map"): "chart.tangent_map",
    ("leaves", "leaf_trace"): "leaves.leaf_trace",
    # verify_dual_pair's own work is the pointwise equivalence check
    ("dualpair", "verify_dual_pair"): "dualpair.equivalence",
    ("dualpair", "check_transversality"): "dualpair.transversality",
    ("dualpair", "check_commutation"): "dualpair.commutation",
    ("dualpair", "check_curvature_orthogonality"):
        "dualpair.curvature_orthogonality",
    ("dualpair", "check_varpi_orthogonality"): "dualpair.varpi_orthogonality",
    ("dualpair", "check_rank_relation"): "dualpair.rank_relation",
    ("dualpair", "check_corollary_decomposition"):
        "dualpair.corollary_decomposition",
    ("dualpair", "check_vertical_dim_sum"): "dualpair.vertical_dim_sum",
}

FIELD_EVAL = "fields.eval"
MORPHISMS = "dualpair.morphisms"

LAYERS = tuple(sorted(
    set(OWN_LAYERS.values()) | {FIELD_EVAL, MORPHISMS}
    | {m for m in MODULES if m != "dualpair"}))

# Layers whose inclusive time is reported too: the extraction, the leaf
# trace and each check spend nearly all of it in the layers they call.
INCLUSIVE = tuple(layer for layer in LAYERS
                  if layer.startswith("dualpair.") or layer in (
                      "contact.contact_to_jacobi",
                      "jacobi.extract_pair_from_bracket",
                      "homogenize", "leaves.leaf_trace"))


class Tracer:
    """Context manager that traces every ``jdl`` layer while it is open."""

    def __init__(self):
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    # -- results ----------------------------------------------------------

    @property
    def memo_hit_ratio(self):
        """Share of all ``Field.__call__`` calls answered by the memo."""
        total = self.counts["fields.all_calls"]
        return self.counts["fields.memo_hits"] / total if total else 0.0

    # -- install / restore --------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _install(self):
        mods = {name: importlib.import_module(f"jdl.{name}")
                for name in MODULES}
        self._jdl_error = importlib.import_module("jdl.errors").JdlError
        jdl_modules = [m for name, m in list(sys.modules.items())
                       if name == "jdl" or name.startswith("jdl.")]

        wrappers = {}
        for name, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__
                        or attr.startswith("_")):
                    continue
                layer = OWN_LAYERS.get((name, attr))
                if layer is None and name == "dualpair":
                    continue
                wrappers[id(fn)] = (fn, self._span(layer or name, fn))
        for mod in jdl_modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

        spec = mods["dualpair"].DualPairSpec
        self._patch(spec, "check_morphisms",
                    self._span(MORPHISMS, vars(spec)["check_morphisms"]))
        self._patch(mods["fields"].Field, "__call__",
                    self._field_call(vars(mods["fields"].Field)["__call__"]))
        jet = importlib.import_module("jdl.jets").Jet
        self._patch(jet, "__init__",
                    self._counter("jets.constructed", vars(jet)["__init__"]))
        self._patch(mods["leaves"], "_rk4_step",
                    self._counter("leaves.rk4_steps",
                                  vars(mods["leaves"])["_rk4_step"]))
        self._patch(np.linalg, "svd",
                    self._counter("linalg.svd_calls", np.linalg.svd))

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer, fn):
        stack = self._stack
        incl_s, self_s, calls = self.incl_s, self.self_s, self.calls
        errors, jdl_error = self.errors, self._jdl_error
        module = layer.split(".")[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except jdl_error:
                errors[module] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                calls[layer] += 1
                incl_s[layer] += dt
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return traced

    def _field_call(self, call):
        """Span at the outermost ``Field.__call__``; memo hits at every call.

        A hit is a call whose key is already in the field's memo, keyed the
        way ``Field.__call__`` keys it.
        """
        span = self._span(FIELD_EVAL, call)
        counts = self.counts

        @functools.wraps(call)
        def traced_call(field, p, order=2):
            counts["fields.all_calls"] += 1
            memo = getattr(field, "_cache", None)
            if memo and (np.asarray(p, dtype=float).tobytes(), order) in memo:
                counts["fields.memo_hits"] += 1
            return span(field, p, order)

        return traced_call

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted
