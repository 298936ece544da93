"""Span recorder for the traced run.

It wraps public bcalc functions where callers look them up (a module
attribute, or a class attribute for methods), records one span per call
with its parent, and keeps everything in memory.  Very fine-grained calls
(``KernelTerm.evaluate``, ``ComplexRational.as_complex`` and
``from_complex``, ``scipy.integrate.quad`` and the integrands it
evaluates) are counted, not timed.  ``summary`` turns the spans into the
per-layer metrics; a layer's self time is its spans' durations minus the
part covered by their child spans.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

import scipy.integrate

from bcalc import boperators as bop
from bcalc import cli
from bcalc import geometry as geo
from bcalc import indexsets
from bcalc import numeric as num
from bcalc import serialize
from bcalc import transport
from bcalc.indexsets import IndexSet
from bcalc.rationals import ComplexRational

INDEXSET_METHODS = ("union", "__or__", "extended_union", "sum_with", "__add__", "shift",
                    "scale_down", "truncate")
GEOMETRY = ("model_quadrant", "blow_up_face", "compose", "induced_face_map", "check_b_fibration",
            "lifted_projection", "halfline_projection", "quadrant_projection", "x2b",
            "x2b_blowdown", "x3b_blowdown", "triple_b_space")
TRANSPORT = ("pull_back_family", "push_forward_family", "push_forward_halfline")
BOPERATORS = ("indicial", "split_spec", "model_inverse", "apply_check", "parametrix_indices",
              "compose_descriptors", "action_index", "hs_front_face_criterion", "polynomial_roots")
NUMERIC = ("integrate", "integrate_from_zero", "integrate_to_inf", "numeric_pushforward",
           "fit_expansion", "convolve_model_kernels", "solve_model_ode", "apply_bop_numeric",
           "pushforward_chart_split")
SERIALIZE = ("parse_object", "load_object", "load_typed")


def _class_key(z):
    return (z.im, z.re - (z.re.numerator // z.re.denominator))


def _raw_entries(name, args, entries):
    """Entries a top-level index-set call reduces, computed from its arguments."""
    if name in ("from_entries", "complete"):
        return len(entries)
    a = args[0].generators
    if name in ("union", "__or__"):
        return len(a) + len(args[1].generators)
    if name in ("sum_with", "__add__"):
        return len(a) * len(args[1].generators)
    if name == "extended_union":
        b = Counter(_class_key(g.z) for g in args[1].generators)
        return len(a) + len(args[1].generators) + sum(b[_class_key(g.z)] for g in a)
    if name == "scale_down":
        return len(a) * args[1]
    return None


class Recorder:
    def __init__(self):
        self.spans = []  # [layer, name, parent index, start, end]
        self.stack = []
        self.counts = Counter()
        self.raw = 0
        self.kept = 0
        self._saved = []

    # -- wrapping ------------------------------------------------------------

    def _span(self, layer, name, fn, after=None, listify=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if listify is not None:  # entries may be a one-shot iterator
                args = args[:listify] + (list(args[listify]),) + args[listify + 1:]
            idx = len(spans)
            spans.append([layer, name, stack[-1] if stack else None, 0.0, 0.0])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][3], spans[idx][4] = start, end
            if after is not None:
                after(idx, args, result)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _indexset_after(self, name):
        def after(idx, args, result):
            parent = self.spans[idx][2]
            if parent is not None and self.spans[parent][0] == "indexsets":
                return
            raw = _raw_entries(name, args, args[1] if name == "from_entries" else args[0])
            if raw is not None:
                self.raw += raw
                self.kept += len(result.generators)
        return after

    def install(self):
        # indexsets: methods on the class, module functions where imported
        for name in INDEXSET_METHODS:
            self._patch(IndexSet, name, self._span("indexsets", name, IndexSet.__dict__[name],
                                                   self._indexset_after(name)))
        from_entries = IndexSet.__dict__["from_entries"].__func__
        self._patch(IndexSet, "from_entries", classmethod(self._span(
            "indexsets", "from_entries", from_entries, self._indexset_after("from_entries"), listify=1)))
        for owner in (indexsets, cli):
            self._patch(owner, "complete", self._span("indexsets", "complete", indexsets.complete,
                                                      self._indexset_after("complete"), listify=0))

        def faces_out(idx, args, result):
            lattice = getattr(result, "result", result)
            self.counts["geometry.faces_out"] += len(lattice.faces)

        for name in GEOMETRY:
            after = faces_out if name in ("model_quadrant", "blow_up_face") else None
            self._patch(geo, name, self._span("geometry", name, getattr(geo, name), after))
        self._patch(transport, "check_b_fibration", geo.check_b_fibration)
        for name in TRANSPORT:
            self._patch(transport, name, self._span("transport", name, getattr(transport, name)))

        def inexact(idx, args, result):
            self.counts["boperators.inexact_roots"] += sum(not r.exact for r in result.roots)

        for name in BOPERATORS:
            self._patch(bop, name, self._span("boperators", name, getattr(bop, name),
                                              inexact if name == "indicial" else None))
        self._patch(bop.KernelTerm, "evaluate",
                    self._counter("boperators.kernel_evals", bop.KernelTerm.evaluate))

        def failed_points(idx, args, result):
            self.counts["numeric.failed_points"] += len(result.failed)

        for name in NUMERIC:
            after = failed_points if name == "numeric_pushforward" else None
            wrapped = self._span("numeric", name, getattr(num, name), after)
            self._patch(num, name, wrapped)
            if hasattr(bop, name):
                self._patch(bop, name, wrapped)
        quad = scipy.integrate.quad
        counts = self.counts

        def counted_quad(f, *args, **kwargs):
            counts["numeric.quad_calls"] += 1

            def integrand(*a):
                counts["numeric.integrand_evals"] += 1
                return f(*a)

            return quad(integrand, *args, **kwargs)

        self._patch(scipy.integrate, "quad", counted_quad)
        from_complex = ComplexRational.__dict__["from_complex"].__func__
        self._patch(ComplexRational, "from_complex", classmethod(
            self._counter("rationals.from_complex_calls", from_complex)))
        self._patch(ComplexRational, "as_complex",
                    self._counter("rationals.as_complex_calls", ComplexRational.as_complex))

        for name in SERIALIZE:
            wrapped = self._span("serialize", name, getattr(serialize, name))
            self._patch(serialize, name, wrapped)
            if hasattr(cli, name):
                self._patch(cli, name, wrapped)
        self._patch(cli, "main", self._span("cli", "main", cli.main))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls and self time, plus the counters."""
        child = [0.0] * len(self.spans)
        for layer, name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        extunion_under_transport = 0
        apply_check_s = 0.0
        for i, (layer, name, parent, start, end) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - child[i]
            if name == "apply_check":
                apply_check_s += end - start
            if name == "extended_union":
                p = parent
                while p is not None and self.spans[p][0] != "transport":
                    p = self.spans[p][2]
                extunion_under_transport += p is not None
        out = {}
        for layer in ("indexsets", "transport", "geometry", "boperators", "numeric", "serialize"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out["indexsets.raw_entries"] = self.raw
        out["indexsets.kept_ratio"] = self.kept / self.raw if self.raw else 0.0
        out["transport.extunion_calls"] = extunion_under_transport
        out["boperators.apply_check_s"] = apply_check_s
        out["cli.main_self_s"] = self_s["cli"]
        for key in ("geometry.faces_out", "boperators.inexact_roots", "boperators.kernel_evals",
                    "rationals.from_complex_calls", "rationals.as_complex_calls",
                    "numeric.quad_calls", "numeric.integrand_evals", "numeric.failed_points"):
            out[key] = self.counts[key]
        return out
