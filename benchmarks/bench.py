"""Write a ``BENCH_<n>.json`` of in-process and command-line timings.

    python3 benchmarks/bench.py --out BENCH_22.json \
        --checkout parent=../parent --checkout change=.

Each ``--checkout LABEL=DIR`` names a checkout whose ``DIR/src`` is
measured; with none, the checkout holding this script is measured as
``change``. Rounds alternate the order of the checkouts, so a host that
drifts slows every checkout alike: each round runs the in-process rows in
one process per checkout, then spawns each command-line job for every
checkout in turn, so the two runs of a job are seconds apart, not minutes.
Per checkout the file holds one run:

- in-process rows: ``enumerate_levels``, ``cluster_extremes``,
  ``worst_case_levels``, ``sweep_domains`` (from 2),
  ``min_margins_for_offsets`` (a list of 3 offsets, and an array of 16,384)
  and ``pattern_resistance`` (1,000 seeded words, one call each) at D = 5,
  12 and 30, on the default table, the listing scan ``margins._list_banks``
  alone at D = 12 and 30, ``sample_offsets`` for 10,000 and 1,000,000
  samples at seed 1, and the emitter alone (``cli._text``, in CSV and in
  JSON) on a ``variation --domains 12 --monte-carlo N --seed 1`` result for
  the same two N and, in JSON, on a ``levels --domains 30`` result, each
  timed once per round in a fresh process after one warm-up call (which
  also builds the emitter's result, through the checkout's own parser and
  handler) and a full garbage collection, so a timed call pays only for
  the collections its own objects set off;
- command-line rows, each spawned once per round with wall time and peak
  RSS from ``os.wait4`` and a digest of its standard output: the six job
  kinds of the benchmark workload ``enumerate-d30``, the five of
  ``misalign-d12``, the two of ``montecarlo-d4`` and the 40 short queries
  of ``cli-short``
  (``perfbench/workloads.py``, each workload with its own seed-``SEED``
  table), ``variation --domains 12 --monte-carlo 1000000 --seed 1`` in CSV
  and JSON on the ``montecarlo-d4`` table, ``resistance --pattern 0101``
  (default table) through ``run()`` and, as a control, through
  ``sys.exit(main())``, whose gap is the interpreter teardown that
  ``run()``'s ``os._exit`` skips, and one process that only runs
  ``import mdmtj.cli`` (interpreter start plus the import every query pays;
  it never calls ``run()``);
- the machine: CPU model, core count, Python and numpy versions, git SHA.

Every row gives the median and quartiles over ``ROUNDS`` rounds; ``ROUNDS``
and ``SEED`` are written into the file. Timings are reported,
not gated; ``benchmarks/compare.py`` prints each row's ratio against an
earlier run. Children run with ``SOURCE_DATE_EPOCH=0`` (byte-identical
output) and ``PYTHONDONTWRITEBYTECODE=1`` (no bytecode cache written into a
checkout, so every process compiles from source). On Linux a child's
``ru_maxrss`` starts from the peak resident size of the process that
spawned it, and this script is not small (about 24 MB). So the command-line
jobs are spawned by a helper (``Helper``): a bare ``python -S`` of about
9 MB, started before the first sample, that reads job specs over a pipe,
runs ``os.posix_spawn`` and ``os.wait4`` and returns wall time, peak RSS
and exit code. Every job is larger than the helper, so each row reads its
own job's peak (a bare ``import mdmtj.cli`` peaks at about 16 MB). The
digests are read in blocks by this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import marshal
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

DOMAINS = (5, 12, 30)
ROUNDS = 7
SEED = 1  # the workload tables and jobs every BENCH file is measured on
WORKLOADS = ("enumerate-d30", "misalign-d12", "montecarlo-d4", "cli-short")
# large Monte Carlo runs, on the montecarlo-d4 table
LARGE_JOBS = tuple(
    ("variation", "--domains", "12", "--monte-carlo", "1000000", "--seed", "1",
     "--format", fmt, "--config", workloads.CONFIG_NAME)
    for fmt in ("csv", "json")
)
CALLS = (
    "enumerate_levels",
    "cluster_extremes",
    "worst_case_levels",
    "sweep_domains",
    "min_margins_for_offsets[3]",
    "min_margins_for_offsets[16384]",
    "pattern_resistance[1000]",
)
SAMPLES = (10_000, 1_000_000)  # sample_offsets and emission sizes
# (call, size label, size) of each in-process row, in the order they run
IN_PROCESS_ROWS = [
    *((name, "D", domains) for name in CALLS for domains in DOMAINS),
    *(("_list_banks", "D", domains) for domains in DOMAINS[1:]),
    *(("sample_offsets", "N", samples) for samples in SAMPLES),
    *((f"cli._text[{fmt}]", "N", samples) for fmt in ("csv", "json") for samples in SAMPLES),
    ("cli._text[json] levels", "D", DOMAINS[-1]),
]

# Runs in a fresh process on the checkout's src: times each call once,
# after one untimed call, and prints {"<call> <D or N>=<size>": seconds}.
_IN_PROCESS = """
import gc, json, random, sys, time
import numpy as np
from mdmtj import cli, margins, network, variation
from mdmtj.characterization import default_characterization
from mdmtj.network import BorderCondition

char = default_characterization()
same_same = BorderCondition.parse("same,same")
same_differ = BorderCondition.parse("same,differ")
worst = variation.NeighborAssumption.WORST
three = [0.0, 3e-9, -3e-9]
spread = np.linspace(-5.5e-9, 5.5e-9, 16384)
rows = json.loads(sys.argv[1])
rng = random.Random(1)
words = {size: [format(rng.getrandbits(size), f"0{size}b") for _ in range(1000)]
         for name, _, size in rows if name == "pattern_resistance[1000]"}
results = {}


def emit(fmt, *argv):
    # the warm-up call builds the result; the timed call only drains the emitter
    if argv not in results:
        args = cli.build_parser().parse_args(argv)
        results[argv] = args.handler(args, char)
    for _ in cli._text(results[argv], char, fmt):
        pass


def monte_carlo(samples):
    return "variation", "--domains", "12", "--monte-carlo", str(samples), "--seed", "1"


calls = {
    "enumerate_levels": lambda d: margins.enumerate_levels(d, same_same, char),
    "cluster_extremes": lambda d: margins.cluster_extremes(d, same_differ, char),
    "worst_case_levels": lambda d: margins.worst_case_levels(d, char),
    "sweep_domains": lambda d: margins.sweep_domains(2, d, 5e-3, same_differ, char),
    "min_margins_for_offsets[3]": lambda d: variation.min_margins_for_offsets(
        d, same_differ, three, worst, worst, char),
    "min_margins_for_offsets[16384]": lambda d: variation.min_margins_for_offsets(
        d, same_differ, spread, worst, worst, char),
    "pattern_resistance[1000]": lambda d: [
        network.pattern_resistance(word, same_differ, char) for word in words[d]],
    "_list_banks": lambda d: margins._list_banks(d, same_same),
    "sample_offsets": lambda n: variation.sample_offsets(
        variation.MonteCarloSpec(samples=n, seed=1)),
    "cli._text[csv]": lambda n: emit("csv", *monte_carlo(n)),
    "cli._text[json]": lambda n: emit("json", *monte_carlo(n)),
    "cli._text[json] levels": lambda d: emit("json", "levels", "--domains", str(d)),
}
times = {}
for name, label, size in rows:
    calls[name](size)
    # else a full collection lands in whichever row's call crosses the
    # threshold, wherever the garbage came from
    gc.collect()
    start = time.perf_counter()
    calls[name](size)
    times[f"{name} {label}={size}"] = time.perf_counter() - start
print(json.dumps(times))
"""

ENTRY = "from mdmtj.cli import run; run()"
# the same job with the interpreter's teardown: the control for run()'s os._exit
TEARDOWN = "import sys; from mdmtj.cli import main; sys.exit(main())"
TEARDOWN_JOB = ("resistance", "--pattern", "0101")
IMPORT = "import mdmtj.cli"


def child_env(checkout: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    env["SOURCE_DATE_EPOCH"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONOPTIMIZE", None)
    return env


# The helper: for each (argv, env, cwd, stdout path) read from stdin with
# marshal, spawns argv with stdin and stderr on devnull and prints
# "<wall seconds> <ru_maxrss KB> <exit code>". It imports nothing beyond what
# a bare interpreter has loaded, so its own peak stays below every job's.
_HELPER = """
import marshal, os, sys, time
while True:
    try:
        argv, env, cwd, out = marshal.load(sys.stdin.buffer)
    except EOFError:
        break
    os.chdir(cwd)
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_TRUNC, 0),
               (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    print(elapsed, usage.ru_maxrss, os.waitstatus_to_exitcode(status), flush=True)
"""


class Helper:
    """The small process that spawns every command-line job; a context
    manager that closes its pipe and waits for it on exit."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-S", "-c", _HELPER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def run(
        self, argv: list[str], env: dict[str, str], cwd: Path, out: str
    ) -> tuple[float, float, int]:
        """(wall seconds, peak RSS MB, exit code) of ``argv``, its stdout
        written to the existing file ``out``."""
        marshal.dump((argv, env, str(cwd), out), self.process.stdin)
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the spawning helper has exited")
        wall, rss, code = line.split()
        return float(wall), int(rss) / 1024, int(code)

    def __enter__(self) -> Helper:
        return self

    def __exit__(self, *exc: object) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=60)
        self.process.stdout.close()


def spawn(
    helper: Helper, program: str, argv: list[str], env: dict[str, str], cwd: Path
) -> tuple[float, float, str]:
    """Run ``python -c program argv`` through ``helper``: (wall seconds, peak
    RSS MB, stdout sha256)."""
    with tempfile.NamedTemporaryFile() as out:
        elapsed, rss, code = helper.run(
            [sys.executable, "-c", program, *argv], env, cwd, out.name
        )
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        digest = hashlib.sha256()
        for block in iter(lambda: out.read(1 << 20), b""):
            digest.update(block)
    return elapsed, rss, digest.hexdigest()


def in_process(env: dict[str, str]) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, "-c", _IN_PROCESS, json.dumps(IN_PROCESS_ROWS)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(done.stdout)


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def machine(checkout: Path) -> dict[str, object]:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_sha": sha,
    }


def measure(checkouts: dict[str, Path]) -> list[dict]:
    with Helper() as helper, tempfile.TemporaryDirectory() as root:
        jobs = []  # (row name, directory holding the job's table, program, argv)
        for name in WORKLOADS:
            inputs = workloads.build(name, SEED)
            jobs_dir = Path(root) / name
            jobs_dir.mkdir()
            (jobs_dir / workloads.CONFIG_NAME).write_text(inputs.config_text)
            extra = LARGE_JOBS if name == "montecarlo-d4" else ()
            for job in (*inputs.jobs, *extra):
                row = f"mdmtj {' '.join(job)}"
                if row in {taken for taken, *_ in jobs}:  # on an earlier workload's table
                    row += f" ({name} table)"
                jobs.append((row, jobs_dir, ENTRY, list(job)))
        row = f"mdmtj {' '.join(TEARDOWN_JOB)}"
        jobs.append((row, Path(root), ENTRY, list(TEARDOWN_JOB)))
        jobs.append((f"{row} [sys.exit(main())]", Path(root), TEARDOWN, list(TEARDOWN_JOB)))
        jobs.append((IMPORT, Path(root), IMPORT, []))
        samples: dict[str, dict[str, list]] = {label: {} for label in checkouts}
        labels = list(checkouts)
        for round_index in range(ROUNDS):
            order = labels if round_index % 2 == 0 else labels[::-1]
            envs = {label: child_env(checkouts[label]) for label in order}
            for label in order:
                for name, seconds in in_process(envs[label]).items():
                    samples[label].setdefault(name, []).append(seconds)
            for row, jobs_dir, program, job in jobs:
                for label in order:  # one job for every checkout, back to back
                    wall, rss, digest = spawn(helper, program, job, envs[label], jobs_dir)
                    samples[label].setdefault(row, []).append((wall, rss, digest))
    runs = []
    for label, checkout in checkouts.items():
        rows = []
        for name, values in samples[label].items():
            if isinstance(values[0], float):
                rows.append({"kind": "in_process", "name": name, "unit": "s",
                             **summary(values), "samples": values})
                continue
            digests = sorted({digest for _, _, digest in values})
            rows.append({
                "kind": "cli", "name": name, "unit": "s",
                **summary([wall for wall, _, _ in values]),
                "samples": [wall for wall, _, _ in values],
                "peak_rss_mb": max(rss for _, rss, _ in values),
                "stdout_sha256": digests[0] if len(digests) == 1 else digests,
            })
        runs.append({"label": label, "machine": machine(checkout), "rows": rows})
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR")
    args = parser.parse_args(argv)
    checkouts = {}
    for item in args.checkout or [f"change={ROOT}"]:
        label, _, directory = item.partition("=")
        checkouts[label] = Path(directory).resolve()
    bench = {
        "rounds": ROUNDS,
        "seed": SEED,
        "env": {"SOURCE_DATE_EPOCH": "0", "PYTHONDONTWRITEBYTECODE": "1"},
        "runs": measure(checkouts),
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
