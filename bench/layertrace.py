"""Outside-in layer trace.

The benchmark's own wrappers are bound in place of the package's public
functions, in every zeromix module that holds a reference to them (so
`interpolate.ind_poly` is wrapped along with `exact.ind_poly`).  Each call
becomes a span with a name, start, end and parent span; a span's self time
is its duration minus the spans it encloses.  The time a wrapper spends on
its own bookkeeping is charged to nobody, so self times stay close to the
untraced ones and the bookkeeping shows only in the traced round's wall time.

Nothing inside the package is instrumented; the wrappers are installed for a
traced round and removed afterwards.
"""

import contextlib
import functools
import json
import sys
import time
from array import array

import numpy as np

# metric prefix -> (module, attribute); a prefix may name several callables
TARGETS = (
    ("graphs.apply_hardcore_boundary", "graphs", "apply_hardcore_boundary"),
    ("graphs.induced_subgraph", "graphs", "induced_subgraph"),
    ("graphs.ball", "graphs", "ball"),
    ("exact.ind_poly", "exact", "ind_poly"),
    ("exact.IndPoly.eval", "exact", "IndPoly.__call__"),
    ("exact.IndPoly.eval", "exact", "IndPoly.derivative_at"),
    ("exact.cond_prob_hardcore", "exact", "cond_prob_hardcore"),
    ("exact.hom_Z", "exact", "hom_Z"),
    ("exact.hom_Z_poly", "exact", "hom_Z_poly"),
    ("exact.edge_matrix_Z", "exact", "edge_matrix_Z"),
    ("series.PowerSeries.mul", "series", "PowerSeries.mul"),
    ("series.PowerSeries.compose", "series", "PowerSeries.compose"),
    ("series.PowerSeries.reciprocal", "series", "PowerSeries.reciprocal"),
    ("cluster.ratio_series_division", "cluster", "ratio_series_division"),
    ("cluster.ratio_series_cluster", "cluster", "ratio_series_cluster"),
    ("cluster.connected_subsets", "cluster", "connected_subsets"),
    ("interpolate.approx_cond_prob", "interpolate", "approx_cond_prob"),
    ("interpolate.choose_strip_spec", "interpolate", "choose_strip_spec"),
    ("interpolate.estimate_M", "interpolate", "estimate_M"),
    ("polymers.enumerate_polymers", "polymers", "enumerate_polymers"),
    ("polymers.hom_ratio_series", "polymers", "hom_ratio_series"),
    ("polymers.bounded_ratio_check", "polymers", "bounded_ratio_check"),
    ("polymers.hom_ssm_experiment", "polymers", "hom_ssm_experiment"),
    ("polymers.barvinok_zero_check", "polymers", "barvinok_zero_check"),
    ("harness.ssm_scan", "harness", "ssm_scan"),
    ("harness.zero_scan", "harness", "zero_scan"),
    ("harness.clawfree_root_check", "harness", "clawfree_root_check"),
    ("harness.ratio_bound_scan", "harness", "ratio_bound_scan"),
    ("cli.main", "cli", "main"),
    ("families.generate_family", "families", "generate_family"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

COUNT_NAMES = (
    "exact.ind_poly.distinct_graphs",
    "exact.ind_poly.vertices",
    "exact.hom.colorings",
    "cluster.connected_subsets.count",
    "interpolate.depth_used.total",
    "polymers.enumerate_polymers.count",
    "harness.ssm_scan.records",
    "harness.zero_scan.cells",
)


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _colorings(g, q, sigma):
    pinned = len(sigma.assignment) if sigma is not None else 0
    return q ** (g.n - pinned)


def _count_ind_poly(tr, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    tr.distinct_graphs.add(g)
    tr.counts["exact.ind_poly.vertices"] += g.n


def _count_hom(tr, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    q = np.asarray(_arg(args, kwargs, 1, "A")).shape[0]
    tr.counts["exact.hom.colorings"] += _colorings(g, q, _arg(args, kwargs, 3, "sigma"))


def _count_hom_poly(tr, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    q = np.asarray(_arg(args, kwargs, 1, "A")).shape[0]
    tr.counts["exact.hom.colorings"] += _colorings(g, q, _arg(args, kwargs, 2, "sigma"))


def _count_edge_matrix(tr, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    mats = _arg(args, kwargs, 1, "matrices")
    q = np.asarray(next(iter(mats.values()))).shape[0] if mats else 1
    tr.counts["exact.hom.colorings"] += _colorings(g, q, _arg(args, kwargs, 3, "sigma"))


def _adder(count_name, measure):
    def count(tr, args, kwargs, result):
        tr.counts[count_name] += measure(result)

    return count


COUNTERS = {
    "exact.ind_poly": _count_ind_poly,
    "exact.hom_Z": _count_hom,
    "exact.hom_Z_poly": _count_hom_poly,
    "exact.edge_matrix_Z": _count_edge_matrix,
    "cluster.connected_subsets": _adder("cluster.connected_subsets.count", len),
    "interpolate.approx_cond_prob": _adder(
        "interpolate.depth_used.total", lambda res: res.depth_used
    ),
    "polymers.enumerate_polymers": _adder("polymers.enumerate_polymers.count", len),
    "harness.ssm_scan": _adder("harness.ssm_scan.records", lambda res: len(res[0])),
    "harness.zero_scan": _adder(
        "harness.zero_scan.cells", lambda rep: rep.resolution[0] * rep.resolution[1]
    ),
}


class Tracer:
    """Spans and counts for traced rounds; see the module docstring."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.record_spans = False
        self.origin = time.perf_counter()
        self._stack = []  # [span id, time spent in enclosed spans]
        self._patches = []
        self.missing = []
        self.rounds = []
        self._begin_round_state()

    def _begin_round_state(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.distinct_graphs = set()

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ---------------------------------------------------------

    def _open(self, name_id, start):
        sid = -1
        if self.record_spans:
            sid = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(start - self.origin)
            self.span_end.append(0.0)
        self._stack.append([sid, 0.0])
        return sid

    def _close(self, sid, end):
        _, inner = self._stack.pop()
        if sid >= 0:
            self.span_end[sid] = end - self.origin
        return inner

    def call(self, name, name_id, fn, args, kwargs):
        entered = time.perf_counter()
        sid = self._open(name_id, entered)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            inner = self._close(sid, end)
            self.calls[name] += 1
            self.self_s[name] += (end - start) - inner
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(self, args, kwargs, result)
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - entered
        return result

    @contextlib.contextmanager
    def span(self, name):
        """A root span around one benchmark operation."""
        sid = self._open(self._name_id(name), time.perf_counter())
        try:
            yield
        finally:
            self._close(sid, time.perf_counter())

    # -- rounds --------------------------------------------------------

    def begin_round(self, record_spans):
        self._begin_round_state()
        self.record_spans = record_spans

    def end_round(self, scale):
        """Close the round; its self times are multiplied by `scale`, the
        factor that takes the round's times to the reference speed."""
        self.record_spans = False
        counts = dict(self.counts)
        counts["exact.ind_poly.distinct_graphs"] = len(self.distinct_graphs)
        self_s = {name: t * scale for name, t in self.self_s.items()}
        self.rounds.append({"calls": self.calls, "self_s": self_s, "counts": counts})
        self.distinct_graphs = set()

    def metrics(self):
        """Per-layer metrics: the median over traced rounds of each call
        count, self time and extra count."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = float(np.median([r["calls"][name] for r in self.rounds]))
            out[f"{name}.self_s"] = float(np.median([r["self_s"][name] for r in self.rounds]))
        for name in COUNT_NAMES:
            out[name] = float(np.median([r["counts"][name] for r in self.rounds]))
        return out

    # -- binding -------------------------------------------------------

    def install(self):
        """Bind wrappers in place of every target in every zeromix module."""
        modules = [
            m for key, m in sys.modules.items() if key == "zeromix" or key.startswith("zeromix.")
        ]
        for name, modname, attr in TARGETS:
            mod = sys.modules.get(f"zeromix.{modname}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(member) if owner is not None else None
            if orig is None:
                if f"{modname}.{attr}" not in self.missing:
                    self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, orig)
            if owner_name:
                self._patches.append((owner, member, orig))
                setattr(owner, member, wrapper)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, name_id, fn, args, kwargs)

        return wrapper

    def write(self, path, header):
        n = len(self.span_name)
        doc = dict(header)
        doc.update(
            {
                "names": self.names,
                "spans": {
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start_s": [round(t, 9) for t in self.span_start],
                    "end_s": [round(t, 9) for t in self.span_end],
                },
                "span_count": n,
                "rounds": self.rounds,
                "missing_targets": self.missing,
            }
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
