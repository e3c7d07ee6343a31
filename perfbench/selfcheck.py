"""Show that the output checker passes good output and fails corrupted output.

    python3 perfbench/selfcheck.py [--workload W ...] [--seed N]

Runs each workload's job list once in this process, checks the outputs, then
corrupts each job's output twice (the leading digit of the number nearest
the middle, then of the last number) and checks again. Exits 1 if a clean
output fails or a corrupted one passes.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

import run
import workloads

_NUMBER = re.compile(rb"\d+(\.\d+)?")


def corrupt(data: bytes, where: str) -> bytes:
    """Change the leading digit of one number in ``data``."""
    numbers = list(_NUMBER.finditer(data))
    if where == "last":
        match = numbers[-1]
    else:
        middle = len(data) // 2
        match = min(numbers, key=lambda m: abs(m.start() - middle))
    position = match.start()
    digit = data[position] - ord("0")
    return data[:position] + str((digit + 1) % 10).encode() + data[position + 1:]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    import checker
    from mdmtj import cli

    problems = 0
    for name in args.workload or workloads.WORKLOADS:
        inputs = workloads.build(name, args.seed)
        work = root / ".perfbench" / f"selfcheck-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        (work / workloads.CONFIG_NAME).write_text(inputs.config_text)
        os.chdir(work)
        try:
            outcome = run.Outcome(inputs.jobs)
            run._in_process_pass(cli, inputs.jobs, outcome)
        finally:
            os.chdir(root)
            for path in work.iterdir():
                path.unlink()
            work.rmdir()
        jobs, outputs = list(inputs.jobs), outcome.first_outputs
        check = checker.Checker(inputs.config_text)
        clean = check.check_pass(jobs, outputs)
        for index, job in enumerate(jobs):
            label = " ".join(job[:3])
            if clean[index] is not None:
                problems += 1
                print(f"{name} job {index} ({label}): clean output FAILED: {clean[index]}")
                continue
            for where in ("middle", "last"):
                bad = list(outputs)
                bad[index] = corrupt(outputs[index], where)
                reason = check.check_pass(jobs, bad)[index]
                problems += reason is None
                verdict = f"caught: {reason}" if reason else "MISSED"
                print(f"{name} job {index} ({label}) {where} digit: {verdict[:150]}")
    print("selfcheck", "FAILED" if problems else "passed", f"({problems} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
