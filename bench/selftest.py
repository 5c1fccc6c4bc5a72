"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py [--seed N] [--workload NAME ...]

Runs every operation of each workload once, then shows that its check
accepts the real output and rejects the same output with one value spoiled
(a shifted probability, coefficient, gap, root, count or modulus).  Exits 1
if any check accepts a spoiled output or rejects a real one.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)

    bad = 0
    run.RESULTS.mkdir(exist_ok=True)
    for name in args.workload:
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            zm = run.import_package()
            ops = WORKLOADS[name](zm, args.seed, Path(tmp))
            refs = [op.oracle() for op in ops]
            outs, _, _, _ = run.run_round(ops, None)
            by_kind = {}
            for k, (op, out, ref) in enumerate(zip(ops, outs, refs)):
                if isinstance(out, Exception):
                    print(f"{name} op {k} ({op.kind}) raised {out!r}")
                    bad += 1
                    continue
                real = op.check(out, ref)
                spoiled = op.check(op.perturb(out), ref)
                ok = real is None and spoiled is not None
                bad += not ok
                tally = by_kind.setdefault(op.kind, [0, 0])
                tally[0] += ok
                tally[1] += 1
                if not ok:
                    print(f"{name} op {k} ({op.kind}): real -> {real!r}; spoiled -> {spoiled!r}")
            for kind, (ok, total) in by_kind.items():
                print(f"{name:9s} {kind:22s} {ok}/{total} ops: real output accepted, spoiled output rejected")
    print("self-test", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
