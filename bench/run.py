"""Benchmark of zeromix's hard-core and homomorphism chains.

    python3 bench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Runs in one process and one thread against the package under ../src.  The
workload's fixed operation list is run in whole rounds until --seconds have
passed.  Before each round a fresh import of the package and a fresh build
of the inputs are timed (the set-up) and then set aside, and the package's
memo caches are emptied, so every round is the cold pass a fresh process
would make.  Outputs are checked after each round, outside the timed region,
against references the benchmark computes itself.

Between operations fixed calibration loops that do not touch the package
are timed (calibrate.py), and every time is scaled to the speed at which
the loops take calibrate.REF_S, so that the machine's drifts in speed
cancel.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the package's public functions are wrapped
on every other round and the metrics are the per-layer ones, and the spans
of the first traced round are written to bench/results/.
"""

import os

# numeric libraries read these when they load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from calibrate import Calibration, scale

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}

def _package_modules():
    return {k: m for k, m in sys.modules.items() if k == "zeromix" or k.startswith("zeromix.")}


def import_package():
    """Import zeromix from ../src afresh, dropping any earlier copy."""
    for name in _package_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    zm = importlib.import_module("zeromix")
    importlib.import_module("zeromix.cli")
    if SRC.resolve() not in Path(zm.__file__).resolve().parents:
        raise ImportError(f"zeromix was imported from {zm.__file__}, not from {SRC}")
    return zm


def clear_package_caches():
    for mod in _package_modules().values():
        for val in list(vars(mod).values()):
            clear = getattr(val, "cache_clear", None)
            if callable(clear):
                clear()


def set_up(build, seed, workdir):
    """Import the package afresh and build the inputs; returns the ops and
    the time taken."""
    t0 = time.perf_counter()
    zm = import_package()
    ops = build(zm, seed, workdir)
    return ops, time.perf_counter() - t0


def time_set_up(build, seed, workdir):
    """Time one more set-up, then put back the modules the ops use, so
    every round runs the same code objects."""
    kept = _package_modules()
    _, took = set_up(build, seed, workdir)
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    # the discarded modules sit in reference cycles; free them now, or the
    # peak memory would grow with the number of rounds that fit in the run
    gc.collect()
    return took


def run_round(ops, tracer):
    """Run the ops once; returns their outputs and times, the round's wall
    time and the median time of each calibration loop over the round."""
    outs, op_times = [], []
    t_round = time.perf_counter()
    calibration = Calibration()
    calibration.sample()
    for op in ops:
        calibration.maybe_sample()
        with tracer.span(f"op.{op.kind}") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            op_times.append(time.perf_counter() - t0)
        outs.append(out)
    calibration.sample()
    return outs, op_times, time.perf_counter() - t_round, calibration.medians()


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, build, workdir):
    # this first set-up also imports numpy and networkx; it is not counted
    ops, _ = set_up(build, args.seed, workdir)
    refs = [op.oracle() for op in ops]

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()

    attempted = failed = 0
    correct = True
    walls, traced_walls = [], []
    op_times, traced_op_times = [], []  # [round][op], scaled
    setup_times = []  # scaled
    raw = {"op_times": [], "setup_times": [], "calibrations": []}
    deadline = time.perf_counter() + args.seconds
    round_no = 0
    while True:
        # one set-up per round spreads the set-ups over the run like the
        # rounds, so their median sees the machine the rounds see
        setup_took = time_set_up(build, args.seed, workdir)
        traced = tracer is not None and round_no % 2 == 0
        clear_package_caches()
        if traced:
            tracer.install()
            tracer.begin_round(record_spans=round_no == 0)
        outs, times, wall, calibration = run_round(ops, tracer if traced else None)
        # the set-up ran just before the round, so the round's calibrations
        # scale it too
        factor = scale(calibration)
        raw["op_times"].append(times)
        raw["setup_times"].append(setup_took)
        raw["calibrations"].append(calibration)
        setup_times.append(setup_took * factor)
        times = [t * factor for t in times]
        wall *= factor
        if traced:
            tracer.end_round(factor)
            tracer.uninstall()
            traced_walls.append(wall)
            traced_op_times.append(times)
        else:
            walls.append(wall)
            op_times.append(times)
        for k, (op, out, ref) in enumerate(zip(ops, outs, refs)):
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                print(f"op {k} ({op.kind}) raised {type(out).__name__}: {out}", file=sys.stderr)
                continue
            msg = op.check(out, ref)
            if msg is not None:
                failed += 1
                correct = False
                print(f"op {k} ({op.kind}) wrong: {msg}", file=sys.stderr)
        round_no += 1
        if time.perf_counter() >= deadline and (walls and (tracer is None or traced_walls)):
            break

    if tracer is None:
        per_op = median_per_op(op_times)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(per_op),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        metrics = per_layer_metrics(tracer, traced_op_times, op_times)
        header = {"workload": args.workload, "seed": args.seed, "round_count": round_no}
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json", header)
        if tracer.missing:
            print(f"not traced (missing): {tracer.missing}", file=sys.stderr)

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=round_no,
                  walls=walls, traced_walls=traced_walls, raw=raw)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def median_per_op(op_times):
    """Each op's median over the rounds.  The machine is shared and changes
    speed in bursts; every op is short and timed in many rounds, so its
    median sees the machine the whole run saw, and one pass is the sum of
    those medians."""
    return [statistics.median(col) for col in zip(*op_times)]


def per_layer_metrics(tracer, traced_op_times, op_times):
    metrics = {}
    for name, value in tracer.metrics().items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": value, "unit": unit}
    traced = sum(median_per_op(traced_op_times))
    metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - sum(median_per_op(op_times)), "unit": "s"}
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        sys.exit(2)
