"""Command-line interface.

Outputs are CSV (default) or JSON; every randomized command takes --seed.
Exit codes: 0 on success, 1 on usage or input errors, 2 when a mathematical
hypothesis or certified bound fails (a zero in an assumed zero-free region,
a near-zero denominator, a violated box condition, a non-claw-free graph
passed to roots, or an unreachable truncation target).
"""

import argparse
import csv
import io
import json
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
from .exact import eval_Z, hom_ratio
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


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path):
    return parse_graph(_read_text(path))


def _parse_assignments(text):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"boundary line {lineno}: expected 'vertex value', got {raw!r}")
        out[int(parts[0])] = int(parts[1])
    return out


def _load_hardcore_boundary(path):
    return HardcoreBoundary(_parse_assignments(_read_text(path)))


def _load_spin_boundary(path, q):
    return SpinBoundary(_parse_assignments(_read_text(path)), q)


def _entry_to_complex(x):
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, list) and len(x) == 2:
        return complex(x[0], x[1])
    raise ValueError(f"matrix entries must be numbers or [re, im] pairs, got {x!r}")


def _load_matrix(path):
    data = json.loads(_read_text(path))
    return np.array([[_entry_to_complex(x) for x in row] for row in data])


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _emit(args, payload, rows, fieldnames):
    if args.output == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out_file:
        with open(args.out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _series_output(args, series, vertex, method):
    coeffs = [_pair(c) for c in series.coeffs]
    payload = {
        "vertex": vertex,
        "order": series.order,
        "method": method,
        "coefficients": coeffs,
    }
    rows = [
        {"k": k, "re": c[0], "im": c[1]} for k, c in enumerate(coeffs)
    ]
    _emit(args, payload, rows, ["k", "re", "im"])


def _cmd_exact_z(args):
    g = _load_graph(args.graph)
    lam = complex(args.activity)
    z = eval_Z(g, lam)
    payload = {"vertices": g.n, "activity": _pair(lam), "Z": _pair(z)}
    rows = [
        {
            "activity_re": lam.real,
            "activity_im": lam.imag,
            "Z_re": z.real,
            "Z_im": z.imag,
        }
    ]
    _emit(args, payload, rows, ["activity_re", "activity_im", "Z_re", "Z_im"])
    return 0


def _cmd_ratio_series(args):
    g = _load_graph(args.graph)
    if args.method == "cluster":
        s = ratio_series_cluster(g, args.vertex, args.order)
    else:
        s = ratio_series_division(g, args.vertex, args.order)
    _series_output(args, s, args.vertex, args.method)
    return 0


def _cmd_approx_prob(args):
    g = _load_graph(args.graph)
    sigma = _load_hardcore_boundary(args.boundary)
    spec = None
    if args.eps_region is not None:
        spec = interpolate.StripSpec(args.eps_region / (2.0 * args.activity))
    res = interpolate.approx_cond_prob(
        g,
        args.vertex,
        sigma,
        args.activity,
        args.eps_target,
        spec=spec,
        samples=args.samples,
        max_depth=args.max_depth,
    )
    payload = {
        "value": res.value,
        "errorBound": res.error_bound,
        "depthUsed": res.depth_used,
        "boundM": res.bound_M,
        "rateR": res.rate_r,
    }
    rows = [
        {
            "value": res.value,
            "error_bound": res.error_bound,
            "depth_used": res.depth_used,
            "bound_M": res.bound_M,
            "rate_r": res.rate_r,
        }
    ]
    _emit(args, payload, rows, ["value", "error_bound", "depth_used", "bound_M", "rate_r"])
    return 0


def _cmd_ssm_scan(args):
    params = json.loads(args.params)
    graphs = generate_family(args.family, params, seed=args.seed)
    ids = [f"{args.family}-{k}" for k in range(len(graphs))]
    records, fit = ssm_scan(
        graphs,
        args.activity,
        args.trials,
        args.max_distance,
        seed=args.seed,
        graph_ids=ids,
    )
    rows = [
        {
            "graph_id": rec.graph_id,
            "vertex": rec.vertex,
            "distance": rec.distance,
            "gap": rec.gap,
        }
        for rec in records
    ]
    payload = {"records": rows}
    if fit is not None:
        payload["fit"] = {
            "C": fit.C,
            "r": fit.r,
            "cover_C": fit.cover_C,
            "mean_gap_by_distance": {str(d): m for d, m in fit.mean_gap_by_distance.items()},
            "n_fit": fit.n_fit,
            "n_records": fit.n_records,
            "n_skipped_trials": fit.n_skipped_trials,
        }
    _emit(args, payload, rows, ["graph_id", "vertex", "distance", "gap"])
    return 0


def _cmd_zero_scan(args):
    g = _load_graph(args.graph)
    rect = tuple(float(x) for x in args.rect.split(","))
    if len(rect) != 4:
        raise ValueError("--rect needs re_min,re_max,im_min,im_max")
    parts = [int(x) for x in args.resolution.split(",")]
    if len(parts) > 2:
        raise ValueError("--resolution needs n or n_re,n_im")
    resolution = parts[0] if len(parts) == 1 else tuple(parts)
    rep = zero_scan(
        g,
        rect,
        resolution,
        pts_per_side=args.pts_per_side,
        max_doublings=args.max_doublings,
        tol=args.tol,
    )
    payload = {
        "rect": list(rep.rect),
        "resolution": list(rep.resolution),
        "counts": [list(row) for row in rep.counts],
        "total": rep.total,
        "inconclusive": [list(c) for c in rep.inconclusive],
        "min_abs_Z": rep.min_abs_Z,
    }
    rows = [
        {"i": i, "j": j, "count": rep.counts[i][j]}
        for i in range(rep.resolution[0])
        for j in range(rep.resolution[1])
    ]
    _emit(args, payload, rows, ["i", "j", "count"])
    return 0


def _cmd_roots(args):
    g = _load_graph(args.graph)
    rep = clawfree_root_check(g)
    payload = {
        "roots": [_pair(z) for z in rep.roots],
        "all_real_negative": rep.all_real_negative,
        "max_imag_residual": rep.max_imag_residual,
    }
    rows = [{"re": z.real, "im": z.imag} for z in rep.roots]
    _emit(args, payload, rows, ["re", "im"])
    return 0


def _cmd_ratio_scan(args):
    params = json.loads(args.params)
    graphs = generate_family(args.family, params, seed=args.seed)
    ids = [f"{args.family}-{k}" for k in range(len(graphs))]
    activities = [complex(s) for s in args.activities.split(",")]
    rep = ratio_bound_scan(graphs, activities, graph_ids=ids)
    payload = {
        "max_abs_ratio": rep.max_abs_ratio,
        "witness": None
        if rep.witness is None
        else {
            "graph_id": rep.witness[0],
            "vertex": rep.witness[1],
            "activity": _pair(rep.witness[2]),
        },
        "n_evaluations": rep.n_evaluations,
        "violations": [
            {"kind": k, "graph_id": gid, "vertex": v, "activity": _pair(lam)}
            for k, gid, v, lam in rep.violations
        ],
    }
    rows = [
        {
            "kind": k,
            "graph_id": gid,
            "vertex": v,
            "activity_re": complex(lam).real,
            "activity_im": complex(lam).imag,
        }
        for k, gid, v, lam in rep.violations
    ]
    _emit(args, payload, rows, ["kind", "graph_id", "vertex", "activity_re", "activity_im"])
    return 0 if not rep.violations else 2


def _cmd_hom_prob(args):
    g = _load_graph(args.graph)
    A = _load_matrix(args.matrix)
    q = A.shape[0]
    sigma = _load_spin_boundary(args.boundary, q) if args.boundary else SpinBoundary({}, q)
    z = complex(args.z)
    val = hom_ratio(g, args.vertex, args.color, sigma, A, z)
    payload = {"vertex": args.vertex, "color": args.color, "z": _pair(z), "ratio": _pair(val)}
    rows = [{"ratio_re": val.real, "ratio_im": val.imag}]
    _emit(args, payload, rows, ["ratio_re", "ratio_im"])
    return 0


def _cmd_hom_series(args):
    g = _load_graph(args.graph)
    A = _load_matrix(args.matrix)
    q = A.shape[0]
    sigma = _load_spin_boundary(args.boundary, q) if args.boundary else SpinBoundary({}, q)
    s = hom_ratio_series(g, args.vertex, args.color, sigma, A, order=args.order)
    _series_output(args, s, args.vertex, "polymer")
    return 0


def _cmd_hom_check(args):
    g = _load_graph(args.graph)
    A = _load_matrix(args.matrix)
    q = A.shape[0]
    sigma = _load_spin_boundary(args.boundary, q) if args.boundary else None
    if args.mode == "zero":
        rep = barvinok_zero_check(g, A, sigma=sigma, samples=args.samples, seed=args.seed)
        payload = {
            "mode": "zero",
            "delta": rep.delta,
            "max_deviation": rep.max_deviation,
            "hypothesis_ok": rep.hypothesis_ok,
            "abs_Z": rep.abs_Z,
            "zero_free": rep.zero_free,
            "edge_samples": rep.edge_samples,
            # NaN (no edge samples) is not valid JSON
            "min_edge_abs_Z": rep.min_edge_abs_Z if rep.edge_samples else None,
        }
        rows = [payload]
        _emit(args, payload, rows, list(payload))
        return 0 if rep.hypothesis_ok and rep.zero_free else 2
    # bounded
    if args.vertex is None or args.color is None:
        raise ValueError("--mode bounded needs --vertex and --color")
    sb = sigma if sigma is not None else SpinBoundary({}, q)
    rep = bounded_ratio_check(
        g,
        args.vertex,
        args.color,
        sb,
        A,
        args.eta,
        args.eps,
        samples=args.samples,
        seed=args.seed,
    )
    payload = {
        "mode": "bounded",
        "delta": rep.delta,
        "box_limit": rep.box_limit,
        "max_deviation": rep.max_deviation,
        "hypothesis_ok": rep.hypothesis_ok,
        "ratio_cap": rep.ratio_cap,
        "max_abs_ratio": rep.max_abs_ratio,
        "n_violations": len(rep.violations),
        "max_identity_residual": rep.max_identity_residual,
    }
    rows = [payload]
    _emit(args, payload, rows, list(payload))
    return 0 if rep.hypothesis_ok and not rep.violations else 2


def build_parser():
    parser = _Parser(prog="zeromix", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    common.add_argument("--output", choices=("csv", "json"), default="csv")
    common.add_argument("--out-file", default=None, help="write output here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact-z", parents=[common], help="evaluate Z at one activity")
    p.add_argument("--graph", required=True, help="edge-list file, or - for stdin")
    p.add_argument("--activity", required=True, help="complex literal, e.g. 0.5 or -0.1+0.2j")
    p.set_defaults(func=_cmd_exact_z)

    p = sub.add_parser("ratio-series", parents=[common], help="occupation-ratio Taylor series")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--method", choices=("cluster", "division"), default="cluster")
    p.set_defaults(func=_cmd_ratio_series)

    p = sub.add_parser(
        "approx-prob", parents=[common], help="conditional probability with certified error"
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--boundary", required=True, help="file of 'vertex value' lines")
    p.add_argument("--activity", type=float, required=True)
    p.add_argument("--eps-target", type=float, required=True)
    p.add_argument(
        "--eps-region",
        type=float,
        default=None,
        help="width of the zero-free neighborhood of [0, activity]; auto-tuned if omitted",
    )
    p.add_argument("--samples", type=int, default=interpolate.DEFAULT_SAMPLES)
    p.add_argument("--max-depth", type=int, default=interpolate.DEFAULT_MAX_DEPTH)
    p.set_defaults(func=_cmd_approx_prob)

    p = sub.add_parser("ssm-scan", parents=[common], help="boundary-pair gap scan over a family")
    p.add_argument("--family", choices=FAMILY_KINDS, required=True)
    p.add_argument("--params", required=True, help="family parameters as JSON")
    p.add_argument("--activity", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-distance", type=int, default=5)
    p.set_defaults(func=_cmd_ssm_scan)

    p = sub.add_parser("zero-scan", parents=[common], help="per-cell zero counts in a rectangle")
    p.add_argument("--graph", required=True)
    p.add_argument("--rect", required=True, help="re_min,re_max,im_min,im_max")
    p.add_argument("--resolution", default="4", help="cells per axis: n or n_re,n_im")
    p.add_argument("--pts-per-side", type=int, default=64)
    p.add_argument("--max-doublings", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_zero_scan)

    p = sub.add_parser("roots", parents=[common], help="independence-polynomial roots (claw-free)")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("ratio-scan", parents=[common], help="ratio magnitude sweep over a family")
    p.add_argument("--family", choices=FAMILY_KINDS, required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--activities", required=True, help="comma-separated complex literals")
    p.set_defaults(func=_cmd_ratio_scan)

    p = sub.add_parser("hom-prob", parents=[common], help="conditional color ratio at one z")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--color", type=int, required=True)
    p.add_argument("--matrix", required=True, help="JSON q x q matrix file")
    p.add_argument("--boundary", default=None, help="file of 'vertex color' lines")
    p.add_argument("--z", default="1")
    p.set_defaults(func=_cmd_hom_prob)

    p = sub.add_parser("hom-series", parents=[common], help="color-ratio series in z")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--color", type=int, required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--boundary", default=None)
    p.add_argument("--order", type=int, default=6)
    p.set_defaults(func=_cmd_hom_series)

    p = sub.add_parser("hom-check", parents=[common], help="zero-freeness / bounded-ratio checks")
    p.add_argument("--mode", choices=("zero", "bounded"), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--boundary", default=None)
    p.add_argument("--vertex", type=int, default=None)
    p.add_argument("--color", type=int, default=None)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=16)
    p.set_defaults(func=_cmd_hom_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except (
        NearZeroDenominatorError,
        ZeroRegionViolationError,
        HypothesisViolationError,
        TruncationDepthError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ZeromixError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
