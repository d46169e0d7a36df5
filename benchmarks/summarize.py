"""Summarize result files of repeated runs as a markdown table.

    python3 benchmarks/summarize.py --seeds 1-10 [--compare 11-20] [--trace 0]

For every workload and metric: the median and quartiles
(``statistics.quantiles(values, n=4)``) over the seeds of set A (``--seeds``)
and the spread (q3 - q1) / median; with ``--compare``, the same for set B
and the change of B's median from A's, signed so that positive is worse.  Untraced runs
show the end-to-end metrics and the per-layer metrics computed like them
(``computed`` in the result files); traced runs show every per-layer metric.

With ``--compare``, a second table gives the bound each metric's runs can
hold: the smallest of ``BOUNDS`` such that, over sets of ten drawn from the
runs of both sets of each workload, fewer than ``RISK`` of the sets have a
spread above it and fewer than ``RISK`` of the pairs of sets have medians
further apart than it, on every workload.
"""

import argparse
import json
import random
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "out" / "results"
BOUNDS = (0.1, 0.15, 0.2, 0.25)  # 0.25 is the widest bound the benchmark format allows
RISK = 0.01
DRAWS = 4000


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(workload: str, seeds: list[int], trace: int) -> list[dict]:
    return [json.loads((RESULTS / f"{workload}-seed{s}-trace{trace}.json").read_text()) for s in seeds]


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def derived_bound(pools: list[list[float]]):
    """Smallest of BOUNDS that sets of ten drawn from every pool hold, and the
    share of draws that exceed each bound on the worst pool."""
    rng = random.Random(0)
    worst = {b: 0.0 for b in BOUNDS}
    for values in pools:
        over = {b: 0 for b in BOUNDS}
        for _ in range(DRAWS):
            a, c = rng.sample(values, 10), rng.sample(values, 10)
            q1, _, q3 = statistics.quantiles(a, n=4)
            spread = (q3 - q1) / statistics.median(a)
            change = abs(statistics.median(c) - statistics.median(a)) / statistics.median(a)
            for b in BOUNDS:
                over[b] += spread > b or change > b
        for b in BOUNDS:
            worst[b] = max(worst[b], over[b] / DRAWS)
    held = [b for b in BOUNDS if worst[b] < RISK]
    return (held[0] if held else None), worst


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="first set, e.g. 1-10")
    parser.add_argument("--compare", help="second set, e.g. 11-20")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    values = "computed" if args.trace == 0 else "metrics"
    section = spec["end_to_end"] + spec["per_layer"]
    pools = {}  # metric -> the values of both sets, one list per workload
    header = "| workload | metric | unit | bound | A median | A q1 | A q3 | A spread |"
    if args.compare:
        header += " B median | B q1 | B q3 | B spread | B worse than A |"
    print(header)
    print("|" + "---|" * (header.count("|") - 1))
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [load(workload, seed_range(args.seeds), args.trace)]
        if args.compare:
            sets.append(load(workload, seed_range(args.compare), args.trace))
        for m in section:
            name, bound = m["name"], m.get("bound")
            if name not in sets[0][0][values]:
                continue
            cols = []
            pool = pools.setdefault(name, [])
            pool.append([])
            for runs in sets:
                got = [r[values][name] if values == "computed" else r[values][name]["value"] for r in runs]
                pool[-1] += got
                cols.append(stats(got))
            med, q1, q3, spread = cols[0]
            row = f"| {workload} | {name} | {m['unit']} | {bound if bound is not None else '-'} | {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.3f} |"
            if args.compare:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (cols[1][0] - cols[0][0]) / cols[0][0]
                med, q1, q3, spread = cols[1]
                row += f" {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.3f} | {worse:+.3f} |"
            print(row)
        for label, runs in zip("AB", sets):
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            walls = [r["wall_s"] for r in runs]
            print(f"| {workload} | set {label}: failed/attempted {shares}, wall {min(walls):.1f}-{max(walls):.1f} s |")
    if args.compare:
        print()
        print("| metric | bound | derived bound | " + " | ".join(f"draws over {b}" for b in BOUNDS) + " |")
        print("|" + "---|" * (3 + len(BOUNDS)))
        for m in section:
            if m["name"] in pools:
                held, worst = derived_bound(pools[m["name"]])
                print(f"| {m['name']} | {m.get('bound', '-')} | {held or '-'} | " + " | ".join(f"{worst[b]:.3f}" for b in BOUNDS) + " |")


if __name__ == "__main__":
    main()
