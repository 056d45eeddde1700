"""Layer spans recorded from outside the program.

`Tracer.install` wraps public functions of the phasetop layers.  Each
wrapper is put in place of the module attribute that callers look up, in
every loaded phasetop module that binds the name (so `zero_in_sum` is
wrapped both in `phasetop.covectors` and in `phasetop.suites`).  A seam
that no longer exists is reported as absent instead of failing the run.

Spans live in flat arrays while the certificate runs; the summary (calls
and self time per span name, calls per parent/child pair, exact counters)
and the full span table are produced after it ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute) of each wrapped public function
SEAMS = [
    ("phase", "hyper_sum_list"),
    ("phase", "min_enclosing_arc"),
    ("covectors", "zero_in_sum"),
    ("covectors", "enumerate_covectors"),
    ("covectors", "find_zero_triple"),
    ("order_complex", "join_to_model"),
    ("order_complex", "model_to_join"),
    ("cells", "bx_member"),
    ("cells", "bx_sample"),
    ("cells", "meet_all"),
    ("gluing", "check_gluing"),
    ("gluing", "sample_charts_point"),
    ("mesh", "slice_pieces"),
    ("mesh", "mesh_chart"),
    ("mesh", "assemble_slice"),
    ("mesh", "boundary_subcomplex"),
    ("mesh", "complex_to_doc"),
    ("mesh", "complex_from_doc"),
    ("mesh", "SimplicialComplex.faces"),
    ("mesh", "assemble_full"),
    ("mesh", "full_space_pieces"),
    ("homology", "betti"),
    ("homology", "mayer_vietoris_assemble"),
    ("homology", "order_complex_of_poset"),
    ("suites", "run_suite"),
]


def _field(args, kwargs, pos):
    tag = kwargs.get("field", args[pos] if len(args) > pos else "q")
    return "f2" if str(tag).lower() in ("f2", "gf2", "z2") else "q"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.requests: list[str] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.pauses: list[tuple] = []  # (innermost span, start, end)
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._pieces = None

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def innermost(self) -> int:
        """The innermost open span, or -1; safe to call from a signal."""
        return self._stack[-1] if self._stack else -1

    def _open(self, nid: int) -> int:
        # the span is pushed before its start is taken and popped after
        # its end, so a pause seen inside it either lies in its interval
        # or is caught by the interval check in `summary`
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(len(self.requests) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def step(self, name: str):
        """A root span for one benchmark step; each step is a request."""
        self.requests.append(name)
        idx = self._open(self._id(f"bench.{name}"))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, name, after):
        namer = name if callable(name) else None
        nid = None if namer else self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid if namer is None else self._id(namer(args, kwargs)))
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- seams -----------------------------------------------------------

    def install(self) -> None:
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "phasetop" or k.startswith("phasetop."))]
        for modname, attr in SEAMS:
            try:
                mod = importlib.import_module(f"phasetop.{modname}")
            except ImportError:
                self.absent.append(f"{modname}.{attr}")
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = getattr(cls, meth, None) if cls is not None else None
                if orig is None:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                self._originals[attr] = orig
                setattr(cls, meth, self._wrap(orig, f"{modname}.{meth}",
                                              self._after(attr)))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._originals[attr] = orig
            wrapped = self._wrap(orig, self._span_name(modname, attr),
                                 self._after(attr))
            for m in mods:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapped)

    @staticmethod
    def _span_name(modname, attr):
        if attr == "betti":
            return lambda a, k: f"homology.betti.{_field(a, k, 1)}"
        if attr == "mayer_vietoris_assemble":
            return lambda a, k: f"homology.mayer_vietoris.{_field(a, k, 5)}"
        return f"{modname}.{attr}"

    def _faces(self, K) -> dict:
        # the unwrapped method: the faces are cached by then, and the
        # counting must not add spans
        return self._originals["SimplicialComplex.faces"](K)

    def _after(self, attr):
        """The hook that records exact counts after a call returns."""
        if attr == "enumerate_covectors":
            def after(a, k, out):
                field = a[0] if a else k.get("field")
                n = a[1] if len(a) > 1 else k.get("n")
                m = a[2] if len(a) > 2 else k.get("m")
                base = m + 1 if field == "phase" else 3
                self.count("enumerate.tried", base ** n - 1)
                self.count("enumerate.returned", len(out))
        elif attr == "bx_member":
            def after(a, k, out):
                self.count("bx_member.true", 1 if out else 0)
        elif attr == "mesh_chart":
            def after(a, k, out):
                x, m = a[0], a[1] if len(a) > 1 else k.get("m")
                toks = [str(lab) for lab in x]
                ul = toks.count("U") + toks.count("L")
                f = toks.count("F")
                tried = (m ** ul * (2 * m) ** f
                         * math.factorial(ul + 2 * f) // 2 ** f)
                self.count("mesh_chart.tried", tried)
                self.count("mesh_chart.kept", len(out.complex.tops))
        elif attr == "slice_pieces":
            def after(a, k, out):
                self._pieces = out
        elif attr == "assemble_slice":
            def after(a, k, out):
                pieces, self._pieces = self._pieces, None
                if pieces:
                    p = len(pieces)
                    faces = sum(len(fs) for K in pieces.values()
                                for fs in self._faces(K).values())
                    self.count("interface.pairs", p * (p - 1) // 2)
                    self.count("interface.faces_scanned", (p - 1) * faces)
                self._complex_size(out)
        elif attr == "assemble_full":
            def after(a, k, out):
                self._complex_size(out)
        elif attr == "betti":
            def after(a, k, out):
                bs = out.betti
                if not bs:
                    return
                fs = self._faces(a[0] if a else k["K"])
                fv = [len(fs[d]) for d in range(len(bs))]
                ranks, r = [], 0
                for d in range(len(bs) - 1):  # rank of the boundary map d+1
                    r = fv[d] - bs[d] - r
                    ranks.append(r)
                tag = _field(a, k, 1)
                self.count(f"homology.columns.{tag}", sum(fv[1:]))
                self.count(f"homology.pivots.{tag}", sum(ranks))
        else:
            after = None
        return after

    def _complex_size(self, K) -> None:
        if hasattr(K, "tops"):
            self.counters["mesh.vertices"] = max(
                self.counters.get("mesh.vertices", 0), len(K.vertices))
            self.counters["mesh.tops"] = max(
                self.counters.get("mesh.tops", 0), len(K.tops))

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self time and total time per span name; pair counts.

        Pauses are taken out of every span whose interval holds them.
        """
        n = len(self.start)
        parent, start, end, name = self.parent, self.start, self.end, self.name
        dur = [end[i] - start[i] for i in range(n)]
        for at, t0, t1 in self.pauses:
            while at >= 0 and not start[at] <= t0 <= t1 <= end[at]:
                at = parent[at]
            while at >= 0:
                dur[at] -= t1 - t0
                at = parent[at]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        spans: dict[str, list] = {}
        pairs: dict[str, int] = {}
        for i in range(n):
            nm = self.names[name[i]]
            d = dur[i]
            s = spans.setdefault(nm, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += d - child[i]
            s[2] += d
            p = parent[i]
            if p >= 0:
                key = f"{self.names[name[p]]}>{nm}"
                pairs[key] = pairs.get(key, 0) + 1
        return {"spans": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                          for k, v in sorted(spans.items())},
                "pairs": dict(sorted(pairs.items())),
                "counters": dict(sorted(self.counters.items())),
                "absent": self.absent, "span_count": n}

    def write(self, path) -> None:
        """The span table, column by column, as one JSON document."""
        doc = {
            "names": self.names,
            "requests": self.requests,
            "columns": ["name", "parent", "request", "start", "end"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "pauses": self.pauses,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# Per-layer metrics: (name, unit, function of the summary).
def _self(span):
    return lambda s: s["spans"].get(span, {}).get("self_s", 0.0)


def _self_sum(*names):
    return lambda s: sum(_self(n)(s) for n in names)


def _calls(span):
    return lambda s: s["spans"].get(span, {}).get("calls", 0)


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


def _counter(key):
    return lambda s: s["counters"].get(key, 0)


def _pair(parent, child):
    return lambda s: s["pairs"].get(f"{parent}>{child}", 0)


LAYERS = ("phase", "covectors", "order_complex", "cells", "gluing", "mesh",
          "homology", "suites", "bench")


def _share(layer):
    def f(s):
        total = sum(v["self_s"] for v in s["spans"].values())
        part = sum(v["self_s"] for k, v in s["spans"].items()
                   if k.split(".")[0] == layer)
        return part / total if total else 0.0
    return f


PER_LAYER = [
    ("phase.hyper_sum_list.calls", "count", _calls("phase.hyper_sum_list")),
    ("phase.hyper_sum_list.self_s", "s", _self("phase.hyper_sum_list")),
    ("phase.min_enclosing_arc.calls", "count", _calls("phase.min_enclosing_arc")),
    ("phase.min_enclosing_arc.self_s", "s", _self("phase.min_enclosing_arc")),
    ("covectors.zero_in_sum.calls", "count", _calls("covectors.zero_in_sum")),
    ("covectors.zero_in_sum.self_s", "s", _self("covectors.zero_in_sum")),
    ("covectors.enumerate_covectors.self_s", "s",
     _self("covectors.enumerate_covectors")),
    ("covectors.enumerate_covectors.yield", "ratio",
     _ratio(_counter("enumerate.returned"), _counter("enumerate.tried"))),
    ("covectors.find_zero_triple.calls", "count",
     _calls("covectors.find_zero_triple")),
    ("covectors.find_zero_triple.self_s", "s",
     _self("covectors.find_zero_triple")),
    ("covectors.find_zero_triple.probes_per_call", "count",
     _ratio(_pair("covectors.find_zero_triple", "covectors.zero_in_sum"),
            _calls("covectors.find_zero_triple"))),
    ("order_complex.join_to_model.self_s", "s",
     _self("order_complex.join_to_model")),
    ("order_complex.model_to_join.self_s", "s",
     _self("order_complex.model_to_join")),
    ("order_complex.round_trips", "count",
     lambda s: (_calls("order_complex.join_to_model")(s)
                + _calls("order_complex.model_to_join")(s)) // 2),
    ("cells.bx_member.calls", "count", _calls("cells.bx_member")),
    ("cells.bx_member.self_s", "s", _self("cells.bx_member")),
    ("cells.bx_member.true_ratio", "ratio",
     _ratio(_counter("bx_member.true"), _calls("cells.bx_member"))),
    ("cells.bx_sample.calls", "count", _calls("cells.bx_sample")),
    ("cells.bx_sample.self_s", "s", _self("cells.bx_sample")),
    ("cells.meet_all.calls", "count", _calls("cells.meet_all")),
    ("cells.meet_all.self_s", "s", _self("cells.meet_all")),
    ("gluing.check_gluing.calls", "count", _calls("gluing.check_gluing")),
    ("gluing.check_gluing.self_s", "s", _self("gluing.check_gluing")),
    ("gluing.sample_charts_point.calls", "count",
     _calls("gluing.sample_charts_point")),
    ("gluing.sample_charts_point.self_s", "s",
     _self("gluing.sample_charts_point")),
    ("gluing.sample_charts_point.members_per_call", "count",
     _ratio(_pair("gluing.sample_charts_point", "cells.bx_member"),
            _calls("gluing.sample_charts_point"))),
    ("mesh.slice_pieces.self_s", "s", _self("mesh.slice_pieces")),
    ("mesh.mesh_chart.calls", "count", _calls("mesh.mesh_chart")),
    ("mesh.mesh_chart.kept_ratio", "ratio",
     _ratio(_counter("mesh_chart.kept"), _counter("mesh_chart.tried"))),
    ("mesh.assemble_slice.self_s", "s", _self("mesh.assemble_slice")),
    ("mesh.interface_pairs", "count", _counter("interface.pairs")),
    ("mesh.interface_faces_scanned", "count",
     _counter("interface.faces_scanned")),
    ("mesh.interface_member_tests", "count",
     _pair("mesh.assemble_slice", "cells.bx_member")),
    ("mesh.boundary_subcomplex.self_s", "s", _self("mesh.boundary_subcomplex")),
    ("mesh.doc_roundtrip.self_s", "s",
     _self_sum("mesh.complex_to_doc", "mesh.complex_from_doc")),
    ("mesh.faces.self_s", "s", _self("mesh.faces")),
    ("mesh.assemble_full.self_s", "s", _self("mesh.assemble_full")),
    ("mesh.full_space_pieces.self_s", "s", _self("mesh.full_space_pieces")),
    ("mesh.vertices", "count", _counter("mesh.vertices")),
    ("mesh.tops", "count", _counter("mesh.tops")),
    ("homology.order_complex_of_poset.self_s", "s",
     _self("homology.order_complex_of_poset")),
    ("suites.run_suite.self_s", "s", _self("suites.run_suite")),
] + [
    metric
    for f in ("q", "f2")
    for metric in (
        (f"homology.betti.{f}.self_s", "s", _self(f"homology.betti.{f}")),
        (f"homology.columns.{f}", "count", _counter(f"homology.columns.{f}")),
        (f"homology.pivots.{f}", "count", _counter(f"homology.pivots.{f}")),
        (f"homology.zero_column_ratio.{f}", "ratio",
         _ratio(lambda s, f=f: (_counter(f"homology.columns.{f}")(s)
                                - _counter(f"homology.pivots.{f}")(s)),
                _counter(f"homology.columns.{f}"))),
        (f"homology.mayer_vietoris.{f}.self_s", "s",
         _self(f"homology.mayer_vietoris.{f}")),
    )
] + [(f"share.{layer}", "ratio", _share(layer)) for layer in LAYERS]

# exact counts: these must repeat from one cold process to the next
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"] + [
    "covectors.enumerate_covectors.yield", "cells.bx_member.true_ratio",
    "mesh.mesh_chart.kept_ratio", "homology.zero_column_ratio.q",
    "homology.zero_column_ratio.f2"]


def layer_metrics(summary: dict) -> dict:
    return {name: fn(summary) for name, _, fn in PER_LAYER}
