"""Command-line interface.

Outputs are CSV (default) or JSON; every randomized command takes --seed.
Exit codes: 0 on success, 1 on usage or input errors, 2 when a mathematical
hypothesis or certified bound fails (a zero in an assumed zero-free region,
a near-zero denominator, a violated box condition, a non-claw-free graph
passed to roots, or an unreachable truncation target).
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import re
import sys

import numpy as np

from . import interpolate
from .cluster import ratio_series_cluster, ratio_series_division
from .errors import (
    HypothesisViolationError,
    NearZeroDenominatorError,
    TruncationDepthError,
    ZeromixError,
    ZeroRegionViolationError,
)
from .exact import _check_activity, eval_Z, hom_ratio
from .families import FAMILY_KINDS, generate_family
from .graphs import HardcoreBoundary, SpinBoundary, parse_graph
from .harness import clawfree_root_check, ratio_bound_scan, ssm_scan, zero_scan
from .polymers import barvinok_zero_check, bounded_ratio_check, hom_ratio_series


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; usage errors are 1 here,
    # exit 2 is reserved for mathematical failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _arg(flag, **kwargs):
    """An argument spec: the flag and its add_argument keywords."""
    return flag, kwargs


def _helped(spec, text):
    """A shared spec with a command's own help text."""
    flag, kwargs = spec
    return flag, {**kwargs, "help": text}


_COMMON = (
    _arg("--output", choices=("csv", "json"), default="csv"),
    _arg("--out-file", default=None, help="write output here instead of stdout"),
)
_GRAPH = _arg("--graph", required=True)
_VERTEX = _arg("--vertex", type=int, required=True)
_COLOR = _arg("--color", type=int, required=True)
_MATRIX = _arg("--matrix", required=True)
_SPIN_BOUNDARY = _arg("--boundary", default=None)
_FAMILY = _arg("--family", choices=FAMILY_KINDS, required=True)
_PARAMS = _arg("--params", required=True)
_SEED = _arg("--seed", type=int, default=0, help="seed for randomized steps")


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _parse_assignments(path):
    out = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"boundary line {lineno}: expected 'vertex value', got {raw!r}")
        out[int(parts[0])] = int(parts[1])
    return out


def _entry_to_complex(x):
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, list) and len(x) == 2:
        return complex(x[0], x[1])
    raise ValueError(f"matrix entries must be numbers or [re, im] pairs, got {x!r}")


def _load(args):
    """The inputs named by a command's arguments, read in argument order:
    g from --graph; A and its spin boundary sigma from --matrix and the
    optional --boundary; otherwise the hard-core sigma from --boundary; and
    the family's graphs with their ids from --family and --params."""
    inputs = {}
    if hasattr(args, "graph"):
        inputs["g"] = parse_graph(_read_text(args.graph))
    if hasattr(args, "matrix"):
        data = json.loads(_read_text(args.matrix))
        A = np.array([[_entry_to_complex(x) for x in row] for row in data])
        pins = _parse_assignments(args.boundary) if args.boundary else {}
        inputs["A"], inputs["sigma"] = A, SpinBoundary(pins, A.shape[0])
    elif hasattr(args, "boundary"):
        inputs["sigma"] = HardcoreBoundary(_parse_assignments(args.boundary))
    if hasattr(args, "family"):
        graphs = generate_family(args.family, json.loads(args.params), seed=args.seed)
        inputs["graphs"] = graphs
        inputs["ids"] = [f"{args.family}-{k}" for k in range(len(graphs))]
    return inputs


def _fields(obj, names):
    return {name: getattr(obj, name) for name in names}


def _json_default(x):
    # complex values are written as [re, im] pairs
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _csv_row(row):
    """The row with each complex value split into <key>_re and <key>_im."""
    out = {}
    for key, x in row.items():
        if isinstance(x, complex):
            out[key + "_re"], out[key + "_im"] = x.real, x.imag
        else:
            out[key] = x
    return out


def _emit(args, payload, rows, fieldnames):
    if args.output == "json":
        # compact, on one line: with indent set, json cannot use its C encoder
        text = json.dumps(payload, default=_json_default) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(map(_csv_row, rows))
        text = buf.getvalue()
    if args.out_file:
        with open(args.out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _series_output(series, vertex, method):
    payload = {"vertex": vertex, "order": series.order, "method": method}
    payload["coefficients"] = series.coeffs
    rows = [{"k": k, "re": c.real, "im": c.imag} for k, c in enumerate(series.coeffs)]
    return payload, rows, ["k", "re", "im"]


def _exact_z(args, g):
    lam = complex(args.activity)
    row = {"activity": lam, "Z": eval_Z(g, lam)}
    return {"vertices": g.n, **row}, [row], ["activity_re", "activity_im", "Z_re", "Z_im"]


def _ratio_series(args, g):
    method = ratio_series_cluster if args.method == "cluster" else ratio_series_division
    return _series_output(method(g, args.vertex, args.order), args.vertex, args.method)


def _approx_prob(args, g, sigma):
    _check_activity(args.activity)
    spec = None
    if args.eps_region is not None:
        if not args.eps_region > 0:
            raise ValueError(f"--eps-region must be positive, got {args.eps_region}")
        try:
            spec = interpolate.StripSpec(args.eps_region / (2.0 * args.activity))
        except ValueError as exc:
            raise ValueError(f"--eps-region {args.eps_region}: {exc}") from None
    res = interpolate.approx_cond_prob(
        g,
        args.vertex,
        sigma,
        args.activity,
        args.eps_target,
        spec=spec,
        max_depth=args.max_depth,
    )
    # CSV columns are the result's field names, JSON keys their camelCase
    row = dataclasses.asdict(res)
    payload = {re.sub("_(.)", lambda m: m[1].upper(), f): x for f, x in row.items()}
    return payload, [row], list(row)


def _ssm_scan(args, graphs, ids):
    records, fit = ssm_scan(
        graphs, args.activity, args.trials, args.max_distance, seed=args.seed, graph_ids=ids
    )
    fields = ["graph_id", "vertex", "distance", "gap"]
    rows = [_fields(rec, fields) for rec in records]
    payload = {"records": rows}
    if fit is not None:
        gaps = {str(d): m for d, m in fit.mean_gap_by_distance.items()}
        payload["fit"] = {**dataclasses.asdict(fit), "mean_gap_by_distance": gaps}
    return payload, rows, fields


def _zero_scan(args, g):
    rect = tuple(float(x) for x in args.rect.split(","))
    if len(rect) != 4:
        raise ValueError("--rect needs re_min,re_max,im_min,im_max")
    parts = [int(x) for x in args.resolution.split(",")]
    if len(parts) > 2:
        raise ValueError("--resolution needs n or n_re,n_im")
    resolution = parts[0] if len(parts) == 1 else tuple(parts)
    rep = zero_scan(g, rect, resolution)
    rows = [
        {"i": i, "j": j, "count": rep.counts[i][j]}
        for i in range(rep.resolution[0])
        for j in range(rep.resolution[1])
    ]
    return dataclasses.asdict(rep), rows, ["i", "j", "count"]


def _roots(args, g):
    rep = clawfree_root_check(g)
    rows = [{"re": z.real, "im": z.imag} for z in rep.roots]
    return dataclasses.asdict(rep), rows, ["re", "im"]


def _ratio_scan(args, graphs, ids):
    activities = [complex(s) for s in args.activities.split(",")]
    rep = ratio_bound_scan(graphs, activities, graph_ids=ids)
    keys = ("kind", "graph_id", "vertex", "activity")
    violations = [dict(zip(keys, v)) for v in rep.violations]
    payload = dataclasses.asdict(rep)
    payload["witness"] = None if rep.witness is None else dict(zip(keys[1:], rep.witness))
    payload["violations"] = violations
    fields = ["kind", "graph_id", "vertex", "activity_re", "activity_im"]
    return payload, violations, fields, 0 if not rep.violations else 2


def _hom_prob(args, g, A, sigma):
    z = complex(args.z)
    val = hom_ratio(g, args.vertex, args.color, sigma, A, z)
    payload = {"vertex": args.vertex, "color": args.color, "z": z, "ratio": val}
    return payload, [{"ratio": val}], ["ratio_re", "ratio_im"]


def _hom_series(args, g, A, sigma):
    s = hom_ratio_series(g, args.vertex, args.color, sigma, A, order=args.order)
    return _series_output(s, args.vertex, "polymer")


def _hom_check(args, g, A, sigma):
    if args.mode == "zero":
        rep = barvinok_zero_check(g, A, sigma=sigma, samples=args.samples, seed=args.seed)
        payload = {"mode": "zero", **dataclasses.asdict(rep)}
        # NaN (no edge samples) is not valid JSON
        payload["min_edge_abs_Z"] = rep.min_edge_abs_Z if rep.edge_samples else None
        code = 0 if rep.hypothesis_ok and rep.zero_free else 2
    else:
        if args.vertex is None or args.color is None:
            raise ValueError("--mode bounded needs --vertex and --color")
        v, i = args.vertex, args.color
        rep = bounded_ratio_check(
            g, v, i, sigma, A, args.eta, args.eps, samples=args.samples, seed=args.seed
        )
        names = (
            "delta",
            "box_limit",
            "max_deviation",
            "hypothesis_ok",
            "ratio_cap",
            "max_abs_ratio",
        )
        payload = {"mode": "bounded", **_fields(rep, names), "n_violations": len(rep.violations)}
        payload["max_identity_residual"] = rep.max_identity_residual
        code = 0 if rep.hypothesis_ok and not rep.violations else 2
    return payload, [payload], list(payload), code


# ((name, help, command), argument specs...), in --help order.  A command takes
# the parsed arguments and the inputs _load read for them, and returns
# (payload, rows, CSV fieldnames), plus an exit code when it reports a check.
_COMMANDS = (
    (
        ("exact-z", "evaluate Z at one activity", _exact_z),
        _helped(_GRAPH, "edge-list file, or - for stdin"),
        _arg("--activity", required=True, help="complex literal, e.g. 0.5 or -0.1+0.2j"),
    ),
    (
        ("ratio-series", "occupation-ratio Taylor series", _ratio_series),
        _GRAPH,
        _VERTEX,
        _arg("--order", type=int, default=8),
        _arg("--method", choices=("cluster", "division"), default="cluster"),
    ),
    (
        ("approx-prob", "conditional probability with certified error", _approx_prob),
        _GRAPH,
        _VERTEX,
        _arg("--boundary", required=True, help="file of 'vertex value' lines"),
        _arg("--activity", type=float, required=True),
        _arg("--eps-target", type=float, required=True),
        _arg(
            "--eps-region",
            type=float,
            default=None,
            help="width of the zero-free neighborhood of [0, activity]; auto-tuned if omitted",
        ),
        _arg("--max-depth", type=int, default=interpolate.DEFAULT_MAX_DEPTH),
    ),
    (
        ("ssm-scan", "boundary-pair gap scan over a family", _ssm_scan),
        _FAMILY,
        _helped(_PARAMS, "family parameters as JSON"),
        _arg("--activity", type=float, required=True),
        _arg("--trials", type=int, default=100),
        _arg("--max-distance", type=int, default=5),
        _SEED,
    ),
    (
        ("zero-scan", "per-cell zero counts in a rectangle", _zero_scan),
        _GRAPH,
        _arg("--rect", required=True, help="re_min,re_max,im_min,im_max"),
        _arg("--resolution", default="4", help="cells per axis: n or n_re,n_im"),
    ),
    (("roots", "independence-polynomial roots (claw-free)", _roots), _GRAPH),
    (
        ("ratio-scan", "ratio magnitude sweep over a family", _ratio_scan),
        _FAMILY,
        _PARAMS,
        _arg("--activities", required=True, help="comma-separated complex literals"),
        _SEED,
    ),
    (
        ("hom-prob", "conditional color ratio at one z", _hom_prob),
        _GRAPH,
        _VERTEX,
        _COLOR,
        _helped(_MATRIX, "JSON q x q matrix file"),
        _helped(_SPIN_BOUNDARY, "file of 'vertex color' lines"),
        _arg("--z", default="1"),
    ),
    (
        ("hom-series", "color-ratio series in z", _hom_series),
        _GRAPH,
        _VERTEX,
        _COLOR,
        _MATRIX,
        _SPIN_BOUNDARY,
        _arg("--order", type=int, default=6),
    ),
    (
        ("hom-check", "zero-freeness / bounded-ratio checks", _hom_check),
        _arg("--mode", choices=("zero", "bounded"), required=True),
        _GRAPH,
        _MATRIX,
        _SPIN_BOUNDARY,
        _arg("--vertex", type=int, default=None),
        _arg("--color", type=int, default=None),
        _arg("--eta", type=float, default=0.5),
        _arg("--eps", type=float, default=0.1),
        _arg("--samples", type=int, default=16),
        _SEED,
    ),
)


# building the tree of every command's flags takes milliseconds, and parsing
# leaves it unchanged, so one tree serves every call
@functools.lru_cache(maxsize=1)
def build_parser():
    parser = _Parser(prog="zeromix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for (name, help_text, func), *specs in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in (*_COMMON, *specs):
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        payload, rows, fieldnames, *code = args.func(args, **_load(args))
        _emit(args, payload, rows, fieldnames)
        return code[0] if code else 0
    except (
        NearZeroDenominatorError,
        ZeroRegionViolationError,
        HypothesisViolationError,
        TruncationDepthError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ZeromixError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
