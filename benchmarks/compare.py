"""Print each row's ratio against an earlier BENCH run.

    python3 benchmarks/compare.py [NEW.json [OLD.json]]

NEW defaults to the highest-numbered ``BENCH_<n>.json`` at the root of the
checkout. NEW's last run is compared with OLD's last run. OLD defaults to
NEW itself when NEW holds two or more runs (a file measured on a parent and
a change holds both, so its first run is the baseline measured beside the
change); otherwise to the next lower-numbered file, or NEW itself when there
is none. Naming the same file twice compares its first run with its last.
A ratio is new median / old median, so below 1 is faster or smaller. Both
runs' quartiles follow it. Two runs of one file alternated over the same
rounds, so a host that drifted slowed round i of both alike: their rows
also print the median and quartiles of the per-round ratios new / old, and
"within spread" when that range holds 1. Rows of two files, measured in
other sessions, are marked "within spread" when the two quartile ranges
overlap. On a row so marked the host's noise can account for the ratio.
``benchmarks/bench.py`` spawns each command-line job for both checkouts
back to back, so host drift reaches both runs of a paired command-line row
alike.
Command-line rows also compare peak RSS and flag a changed output digest.
Nothing is gated, but two files measured with a different seed or number
of rounds are refused (exit 2): their command-line rows ran other inputs.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_number(path: Path) -> int | None:
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(match.group(1)) if match else None


def main(argv: list[str]) -> int:
    files = sorted(
        (path for path in ROOT.glob("BENCH_*.json") if bench_number(path) is not None),
        key=bench_number,
    )
    new_path = Path(argv[0]) if argv else files[-1]
    new_bench = json.loads(new_path.read_text())
    if len(argv) > 1:
        old_path = Path(argv[1])
    elif len(new_bench["runs"]) > 1:
        old_path = new_path
    else:
        number = bench_number(new_path)
        older = [path for path in files if number is None or bench_number(path) < number]
        old_path = older[-1] if older else new_path
    old_bench = json.loads(old_path.read_text())
    for key in ("seed", "rounds"):
        if new_bench[key] != old_bench[key]:
            print(f"{new_path.name} has {key} {new_bench[key]}, {old_path.name} has"
                  f" {old_bench[key]}: not comparable", file=sys.stderr)
            return 2
    new_runs, old_runs = new_bench["runs"], old_bench["runs"]
    new, old = new_runs[-1], old_runs[0] if old_path == new_path else old_runs[-1]
    print(f"{new_path.name} [{new['label']}] against {old_path.name} [{old['label']}]")
    before = {row["name"]: row for row in old["rows"]}
    for row in new["rows"]:
        base = before.get(row["name"])
        if base is None:
            print(f"{row['name']}: {row['median']:.4f} s (no earlier row)")
            continue
        line = (f"{row['name']}: {base['median']:.4f} -> {row['median']:.4f} s,"
                f" ratio {row['median'] / base['median']:.3f}, quartiles"
                f" {base['q1']:.4f}-{base['q3']:.4f} -> {row['q1']:.4f}-{row['q3']:.4f}")
        paired = old_path == new_path and len(row.get("samples", ())) == len(
            base.get("samples", ())) > 1
        if paired:
            ratios = [new / old for new, old in zip(row["samples"], base["samples"])]
            low, middle, high = statistics.quantiles(ratios, n=4, method="inclusive")
            line += f", paired ratio {middle:.3f} ({low:.3f}-{high:.3f})"
            within = low <= 1 <= high
        else:
            within = row["q1"] <= base["q3"] and base["q1"] <= row["q3"]
        if within:
            line += ", within spread"
        if row["kind"] == "cli":
            line += (f"; RSS {base['peak_rss_mb']:.1f} -> {row['peak_rss_mb']:.1f} MB,"
                     f" ratio {row['peak_rss_mb'] / base['peak_rss_mb']:.3f}")
            if row["stdout_sha256"] != base["stdout_sha256"]:
                line += "; OUTPUT CHANGED"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
