"""Steadiness and parent-versus-change tooling for the benchmark.

Run from the root of a checkout; every mode launches ``run.py`` from this
directory as separate processes, one at a time.

    python3 perfbench/compare.py spread [--workload W ...] [--runs 10] [--save FILE]
        Run each workload with seeds first..first+runs-1 and print, per
        metric, median, quartiles and the quartile spread as a share of the
        median next to the metric's bound (``ok`` when under a third of it).

    python3 perfbench/compare.py agree FIRST.json SECOND.json
        Compare two saved spreads of the same code: every end-to-end median
        of the second within its bound of the first, every spread within its
        bound (``setup_s`` excepted), and identical output digests per seed.

    python3 perfbench/compare.py pairs --parent DIR --change DIR [--runs 10]
        Run parent and change checkouts in pairs with alternating order,
        using this directory's benchmark code for both, and print one row per
        workload and metric: medians, quartiles, wins and a verdict. A gain
        needs at least 9 wins in 10 and a median difference larger than the
        parent's quartile spread; a metric whose spread exceeds its bound is
        "unresolved" unless every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BENCHMARK

RUN = Path(__file__).resolve().parent / "run.py"
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in ``tree``; the result line, output digest and run time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {tree} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - start
    result["outputs_sha256"] = next(
        (line.split()[-1] for line in lines if line.startswith("outputs sha256 ")), None
    )
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _worse_share(metric: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (other - base) / abs(base)
    return change if METRICS[metric]["better"] == "lower" else -change


def cmd_spread(args: argparse.Namespace) -> int:
    saved = {}
    for workload in args.workload or WORKLOADS:
        runs = [
            run_once(Path.cwd(), workload, seed, args.seconds, args.trace)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        values = {
            name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]
        }
        saved[workload] = {
            "values": values,
            "digests": {str(args.first_seed + i): r["outputs_sha256"] for i, r in enumerate(runs)},
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "run_s": [r["run_s"] for r in runs],
        }
        print(f"{workload}: {len(runs)} runs, failed {sum(saved[workload]['failed'])}"
              f" of {sum(saved[workload]['attempted'])} jobs,"
              f" {statistics.fmean(saved[workload]['run_s']):.1f} s per run")
        for name, series in values.items():
            q1, median, q3 = quartiles(series)
            share = spread_share(series)
            bound = METRICS[name].get("bound")
            verdict = "" if bound is None else ("ok" if share < bound / 3 else "WIDE")
            print(f"  {name:40s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {share:.4f}  bound {bound}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return 0


def cmd_agree(args: argparse.Namespace) -> int:
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    problems = 0
    for workload, one in first.items():
        two = second[workload]
        for name, values in one["values"].items():
            bound = METRICS[name].get("bound")
            if bound is None:
                continue
            a, b = statistics.median(values), statistics.median(two["values"][name])
            worse = _worse_share(name, a, b)
            spreads = (spread_share(values), spread_share(two["values"][name]))
            bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
            problems += bad
            print(f"{workload:14s} {name:12s} {a:.6g} -> {b:.6g}  worse {worse:+.4f}"
                  f"  spreads {spreads[0]:.4f}/{spreads[1]:.4f}  bound {bound}"
                  f"  {'FAIL' if bad else 'ok'}")
        same = one["digests"] == two["digests"]
        problems += not same
        print(f"{workload:14s} output digests {'identical' if same else 'DIFFER'}")
    return 1 if problems else 0


def verdict(name: str, parent: list[float], change: list[float],
            more_failures: bool) -> tuple[int, str]:
    lower = METRICS[name]["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    bound = METRICS[name].get("bound")
    # ties count for neither side; a gain with more failed jobs does not count
    if (wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_q3 - p_q1
            and not more_failures):
        return wins, "gain"
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if bound is not None and spread_share(parent) > bound and not all_better:
        return wins, "unresolved"
    if bound is not None and _worse_share(name, p_med, c_med) > bound:
        return wins, "REGRESSION"
    return wins, "no regression"


def cmd_pairs(args: argparse.Namespace) -> int:
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    regressions = 0
    for workload in args.workload or WORKLOADS:
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.runs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(
                    run_once(trees[side], workload, args.first_seed + i, args.seconds, 0)
                )
        failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
        print(f"{workload}: {args.runs} pairs, failed jobs parent {failed['parent']}"
              f" change {failed['change']}")
        for name in results["parent"][0]["metrics"]:
            parent = [r["metrics"][name]["value"] for r in results["parent"]]
            change = [r["metrics"][name]["value"] for r in results["change"]]
            wins, word = verdict(name, parent, change, failed["change"] > failed["parent"])
            regressions += word == "REGRESSION"
            pq, cq = quartiles(parent), quartiles(change)
            print(f"  {name:12s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                  f"  wins {wins}/{args.runs}  {word}")
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", action="append", choices=WORKLOADS)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])

    p = sub.add_parser("spread", help="repeat each workload and print metric spreads")
    add_common(p)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", metavar="FILE", help="write values and digests as JSON")
    p.set_defaults(handler=cmd_spread)

    p = sub.add_parser("agree", help="compare two saved spreads of the same code")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=cmd_agree)

    p = sub.add_parser("pairs", help="parent against change, alternating order")
    add_common(p)
    p.add_argument("--parent", required=True, metavar="DIR")
    p.add_argument("--change", required=True, metavar="DIR")
    p.set_defaults(handler=cmd_pairs)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
