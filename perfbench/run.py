"""Benchmark for the mdmtj command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the real entry point (``mdmtj.cli:run``) runs from
``./src`` as one child process per job, one job at a time (a closed loop
with one client). The workload's job list repeats until S seconds have
passed, always finishing the pass in progress. Reported end to end:

- ``setup_s``: median wall time of a process that imports ``mdmtj.cli``,
  loads the generated characterization and exits;
- ``wall_s``: median over passes of the time to run the whole job list back
  to back (sum of job latencies, spawn to exit);
- ``job_p50_s`` / ``job_tail_s``: median and tail of the per-job latencies
  (each job's median over passes); the tail is the highest percentile with
  at least ten jobs beyond it, or the slowest job when the list is shorter;
- ``peak_rss_mb``: largest ``ru_maxrss`` of any job process.

With ``--trace 1`` the same job list runs in this process through
``mdmtj.cli.main``, alternating untraced and traced passes, and the layer
metrics come from spans around each layer's public functions (see
``tracer.py``).

Outputs are checked after timing ends (``checker.py``): the first pass
against references, later passes by digest against the first. A job fails
when it exits non-zero, its output fails a check, or its output digest
changes between passes. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a record of the
run, with machine stamp and output digests, goes to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ENTRY = "from mdmtj.cli import run; run()"
SETUP = "import sys; import mdmtj.cli as cli; cli.load_config(sys.argv[1])"
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import mdmtj.cli;"
    " print(time.perf_counter() - start)"
)
# A fixed process (interpreter start, numpy import, numpy generator set-up
# and a pure-Python loop) that runs before and after every second of job
# time. Each job's time is scaled by REFERENCE_NOMINAL_S over the mean of the
# two reference runs around it, so a host that is slower for a while (shared
# cores) moves the reference and the job together and cancels out.
REFERENCE = """\
import numpy as np
for i in range(6000):
    np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, i)))).standard_normal()
s = 0
for i in range(500000):
    s += i * i % 7
"""
REFERENCE_NOMINAL_S = 0.25
REFERENCE_EVERY_S = 1.0
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
JOB_TIMEOUT_S = 120.0
TAIL_JOBS_BEYOND = 10

# metric names and units come from the benchmark definition
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class JobTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise JobTimeout


def _terminate(signum, _frame):
    # unwinds through spawn(), which kills and reaps the running job
    raise SystemExit(128 + signum)


def spawn(arguments: list[str], env: dict[str, str], stdout_path: str) -> tuple[float, int, float]:
    """Run ``python3 <arguments>`` to completion; (seconds, exit code, peak RSS MB).

    Standard output goes to ``stdout_path``, standard error next to it.
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *arguments],
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ],
        )
        reaped = False
        try:
            signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        elapsed = time.perf_counter() - start
    return elapsed, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["SOURCE_DATE_EPOCH"] = "0"
    env.pop("PYTHONOPTIMIZE", None)
    return env


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _first_line(path: str) -> str:
    try:
        return Path(path).read_text(errors="replace").strip().splitlines()[0][:200]
    except (OSError, IndexError):
        return ""


class Outcome:
    """Exit codes and output digests of every job run, and why runs failed."""

    def __init__(self, jobs: tuple[tuple[str, ...], ...]):
        self.jobs = jobs
        self.first_outputs: list[bytes] = []
        self.first_digests: list[str] = []
        self.runs: list[tuple[int, int | None, str, str]] = []
        self.reasons: dict[int, str] = {}

    def record(self, index: int, code: int | None, data: bytes, detail: str = "") -> None:
        digest = _digest(data)
        if len(self.first_digests) <= index:
            self.first_outputs.append(data)
            self.first_digests.append(digest)
        self.runs.append((index, code, digest, detail))

    def check(self, config_text: str) -> None:
        """Check the first output of every job; later runs compare by digest."""
        import checker

        reasons = checker.Checker(config_text).check_pass(list(self.jobs), self.first_outputs)
        self.reasons = {i: reason for i, reason in enumerate(reasons) if reason is not None}

    def _failure(self, index: int, code: int | None, digest: str, detail: str) -> str | None:
        if code != 0:
            return f"job {index} exited {code}: {detail}"
        if digest != self.first_digests[index]:
            return f"job {index} output differs from its first run"
        if index in self.reasons:
            return f"job {index} ({' '.join(self.jobs[index][:3])}): {self.reasons[index]}"
        return None

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failures(self) -> list[str]:
        found = (self._failure(*run) for run in self.runs)
        return [failure for failure in found if failure is not None]

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def outputs_digest(self) -> str:
        return _digest("".join(self.first_digests).encode())


def reference(env: dict[str, str]) -> float:
    """Seconds taken by the fixed reference process."""
    elapsed, code, _ = spawn(["-c", REFERENCE], env, "reference.out")
    if code != 0:
        raise RuntimeError(f"reference process exited {code}: {_first_line('reference.out.err')}")
    return elapsed


def _scale(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` in seconds at reference speed, from the references around it."""
    return elapsed * 2 * REFERENCE_NOMINAL_S / (before + after)


def timed_run(inputs: workloads.Inputs, seconds: float, env: dict[str, str]):
    setup_argv = ["-c", SETUP, workloads.CONFIG_NAME]
    spawn(setup_argv, env, "setup.out")  # fills the bytecode cache before timing
    setup, setup_refs = [], [reference(env)]
    for _ in range(SETUP_REPEATS):
        elapsed, code, _ = spawn(setup_argv, env, "setup.out")
        if code != 0:
            raise RuntimeError(f"set-up process exited {code}: {_first_line('setup.out.err')}")
        setup.append(elapsed)
        setup_refs.append(reference(env))

    outcome = Outcome(inputs.jobs)
    passes: list[list[float]] = []
    pass_refs: list[list[float]] = []
    scaled: list[list[float]] = []
    peak_rss = 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        latencies, refs, ref_before = [], [reference(env)], []
        since_ref = 0.0
        for index, job in enumerate(inputs.jobs):
            if since_ref >= REFERENCE_EVERY_S:
                refs.append(reference(env))
                since_ref = 0.0
            ref_before.append(len(refs) - 1)
            out = f"job{index}.out"
            try:
                elapsed, code, rss = spawn(["-c", ENTRY, *job], env, out)
            except JobTimeout:
                elapsed, code, rss = JOB_TIMEOUT_S, None, 0.0
            latencies.append(elapsed)
            since_ref += elapsed
            peak_rss = max(peak_rss, rss)
            outcome.record(index, code, Path(out).read_bytes(), _first_line(out + ".err"))
        refs.append(reference(env))
        passes.append(latencies)
        pass_refs.append(refs)
        scaled.append([_scale(t, refs[b], refs[b + 1]) for t, b in zip(latencies, ref_before)])
    outcome.check(inputs.config_text)

    setup_scaled = [_scale(t, setup_refs[i], setup_refs[i + 1]) for i, t in enumerate(setup)]
    per_job = sorted(statistics.median(run[i] for run in scaled) for i in range(len(inputs.jobs)))
    n = len(per_job)
    tail_rank = n - TAIL_JOBS_BEYOND if n > TAIL_JOBS_BEYOND else n
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(sum(run) for run in scaled),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": per_job[tail_rank - 1],
        "peak_rss_mb": peak_rss,
    }
    all_refs = setup_refs + [t for refs in pass_refs for t in refs]
    notes = {
        "reference": f"reference process median {statistics.median(all_refs):.4f} s over"
        f" {len(all_refs)} runs; times below are scaled to {REFERENCE_NOMINAL_S} s",
        "setup_s": f"median of {SETUP_REPEATS} processes; unscaled"
        f" {statistics.median(setup):.4f} s",
        "wall_s": f"median of {len(passes)} passes of {n} jobs; unscaled"
        f" {statistics.median(sum(run) for run in passes):.4f} s",
        "job_p50_s": f"median of {n} per-job medians over {len(passes)} passes",
        "job_tail_s": f"p{100 * tail_rank / n:.0f}, {n - tail_rank} jobs beyond, of {n} jobs",
        "peak_rss_mb": f"max over {outcome.attempted} job processes",
    }
    detail = {
        "setup_samples_s": setup,
        "setup_reference_s": setup_refs,
        "pass_latencies_s": passes,
        "pass_reference_s": pass_refs,
    }
    return metrics, notes, outcome, detail


def _in_process_pass(cli, jobs, outcome: Outcome, tracer=None) -> tuple[float, int]:
    """Run the job list through ``cli.main``; (seconds, output bytes)."""
    elapsed = 0.0
    output_bytes = 0
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(job))
        elapsed += time.perf_counter() - start
        data = buffer.getvalue().encode()
        output_bytes += len(data)
        outcome.record(index, code, data, "in-process run")
    return elapsed, output_bytes


def _layer_metrics(tracer, output_bytes: int) -> dict[str, float]:
    total, own = tracer.layer_times()
    counts = tracer.counters
    offsets_s = total.get("variation.min_margins_for_offsets", 0.0)
    samples_s = total.get("variation.sample_offsets", 0.0)
    offsets = counts.get("variation.offsets_evaluated", 0)
    samples = counts.get("variation.samples_drawn", 0)
    return {
        "characterization.load_config_s": total.get("characterization.load_config", 0.0),
        "cli.main_s": total.get("cli.main", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.output_bytes": output_bytes,
        "network.pattern_resistance_s": total.get("network.pattern_resistance", 0.0),
        "network.pattern_voltage_s": total.get("network.pattern_voltage", 0.0),
        "network.calls": counts.get("network.calls", 0),
        "margins.enumerate_levels_s": total.get("margins.enumerate_levels", 0.0),
        "margins.worst_case_levels_s": total.get("margins.worst_case_levels", 0.0),
        "margins.sweep_domains_self_s": own.get("margins.sweep_domains", 0.0),
        "margins.closed_form_s": total.get("margins.closed_form", 0.0),
        "margins.enumerate_levels_calls": counts.get("margins.enumerate_levels_calls", 0),
        "margins.classes_listed": counts.get("margins.classes_listed", 0),
        "margins.patterns_covered": counts.get("margins.patterns_covered", 0),
        "variation.min_margins_for_offsets_s": offsets_s,
        "variation.offset_margin_report_self_s": own.get("variation.offset_margin_report", 0.0),
        "variation.offsets_evaluated": offsets,
        "variation.offsets_per_s": offsets / offsets_s if offsets_s else 0.0,
        "variation.sample_offsets_s": samples_s,
        "variation.samples_drawn": samples,
        "variation.samples_per_s": samples / samples_s if samples_s else 0.0,
        "variation.monte_carlo_margins_self_s": own.get("variation.monte_carlo_margins", 0.0),
        "oracle.brute_force_report_s": total.get("oracle.brute_force_report", 0.0),
    }


def traced_run(inputs: workloads.Inputs, seconds: float, env: dict[str, str]):
    import tracer as tracing
    from mdmtj import cli

    spawn(["-c", IMPORT_PROBE], env, "import.out")  # fills the bytecode cache
    imports = []
    for _ in range(IMPORT_REPEATS):
        _, code, _ = spawn(["-c", IMPORT_PROBE], env, "import.out")
        if code != 0:
            raise RuntimeError(f"import probe exited {code}: {_first_line('import.out.err')}")
        imports.append(float(Path("import.out").read_text()))

    outcome = Outcome(inputs.jobs)
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    spans: list[list[dict]] = []
    _in_process_pass(cli, inputs.jobs, outcome)  # warm-up, not timed
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # alternate which side of the pair runs first
        for traced_side in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not traced_side:
                untraced.append(_in_process_pass(cli, inputs.jobs, outcome)[0])
                continue
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                elapsed, output_bytes = _in_process_pass(cli, inputs.jobs, outcome, tracer)
            traced.append(elapsed)
            layers.append(_layer_metrics(tracer, output_bytes))
            spans.append(tracer.records())
    outcome.check(inputs.config_text)

    metrics = {"cli.import_s": statistics.median(imports)}
    metrics.update({key: statistics.median(p[key] for p in layers) for key in layers[0]})
    # each pair ran back to back, so its difference cancels slow drift of the host
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    notes = {
        "cli.import_s": f"median of {IMPORT_REPEATS} fresh processes",
        "trace.overhead_s": f"median over {len(traced)} pairs of a traced minus an"
        f" untraced in-process pass; {len(spans[0])} spans per pass",
    }
    detail = {
        "import_samples_s": imports,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "spans": spans,
    }
    return metrics, notes, outcome, detail


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_stamp(root: Path) -> dict[str, object]:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "source_sha256": _source_digest(root / "src"),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: run the benchmark without -O; the program's asserts must stay",
              file=sys.stderr)
        return 2
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "mdmtj" / "cli.py").is_file():
        print("error: no mdmtj sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["SOURCE_DATE_EPOCH"] = "0"  # the in-process run reads it too
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)

    inputs = workloads.build(args.workload, args.seed)
    state = root / ".perfbench"
    work = state / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (work / workloads.CONFIG_NAME).write_text(inputs.config_text)
    run = traced_run if args.trace else timed_run
    os.chdir(work)
    try:
        metrics, notes, outcome, detail = run(inputs, args.seconds, child_env(src))
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
    expected = [m["name"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {expected}")

    stamp = machine_stamp(root)
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": inputs.digest,
        "outputs_sha256": outcome.outputs_digest,
        "job_outputs_sha256": outcome.first_digests,
        "jobs": [" ".join(job) for job in inputs.jobs],
        "machine": stamp,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "notes": notes,
        "detail": detail,
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print(f"inputs sha256 {inputs.digest}")
    print("machine " + ", ".join(f"{k} {v}" for k, v in stamp.items()))
    if "reference" in notes:
        print(notes["reference"])
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} = {value:.6g} {UNITS[key]}{note}")
    ratio = outcome.failed / outcome.attempted
    print(f"failed_ratio = {ratio:.6g}  ({outcome.failed} failed / {outcome.attempted} attempted)")
    for failure in sorted(set(outcome.failures))[:20]:
        print(f"FAILED {failure}")
    print(f"outputs sha256 {outcome.outputs_digest}")
    print(f"record {results / name}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
