"""Compare benchmark records written by ``bench/run.py --out``.

Usage:

    python3 bench/compare.py BASE.json [BASE.json ...] -- CHANGE.json [CHANGE.json ...]

Each side is one or more records of the same workload, trace mode and seed
set.  Prints, per metric, each side's median and quartiles and the change of
the medians.  Refuses (exit 2) when the records' environments differ: seed,
nproc, CPU model, Python, numpy and scipy versions and ``MORERA_THREADS``
must all match pairwise, so that only the program differs.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(paths: list) -> list:
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def metric_values(records: list) -> dict:
    values: dict = {}
    for record in records:
        for section in ("end_to_end", "quality", "per_layer"):
            for name, value in (record.get(section) or {}).items():
                values.setdefault(name, []).append(value)
    return values


def summary(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, change = load(argv[:split]), load(argv[split + 1:])
    if not base or not change:
        print("error: each side needs at least one record", file=sys.stderr)
        return 2
    base_envs = sorted(json.dumps(r["environment"], sort_keys=True) for r in base)
    change_envs = sorted(json.dumps(r["environment"], sort_keys=True) for r in change)
    keys = {(r["workload"], r["trace"]) for r in base + change}
    if base_envs != change_envs or len(keys) != 1:
        print("error: refusing to compare records whose environments, seeds, workloads or trace "
              "modes differ", file=sys.stderr)
        for env in sorted(set(base_envs) ^ set(change_envs)):
            print(f"  only on one side: {env}", file=sys.stderr)
        return 2
    before, after = metric_values(base), metric_values(change)
    print(f"{'metric':34s} {'base q1/median/q3':>30s} {'change q1/median/q3':>30s} {'median change':>14s}")
    for name in sorted(set(before) & set(after)):
        b, a = summary(before[name]), summary(after[name])
        delta = f"{(a[1] - b[1]) / b[1]:+.2%}" if b[1] else "n/a"
        print(f"{name:34s} {b[0]:9.4g} {b[1]:9.4g} {b[2]:9.4g}  {a[0]:9.4g} {a[1]:9.4g} {a[2]:9.4g}  {delta:>14s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
