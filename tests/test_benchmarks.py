"""``benchmarks/compare.py`` picks the baseline a BENCH file was measured with
and pairs the rounds of two runs of one file; ``benchmarks/bench.py`` runs
each command-line job for every checkout in turn, and one job through both
process exits, all spawned by a helper started before the first sample, so
each job's peak RSS is its own."""

import hashlib
import importlib.util
import json
import resource
import statistics
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(path, medians):
    """A BENCH file with one in-process row per run, ``medians`` by label:
    a median whose quartiles equal it, or a (q1, median, q3) triple."""
    runs = []
    for label, median in medians.items():
        q1, median, q3 = median if isinstance(median, tuple) else (median,) * 3
        row = {"kind": "in_process", "name": "call D=5", "median": median, "q1": q1, "q3": q3}
        runs.append({"label": label, "rows": [row]})
    path.write_text(json.dumps({"rounds": 7, "seed": 1, "runs": runs}))
    return path


def test_a_two_run_file_is_compared_with_its_own_first_run(tmp_path, capsys):
    # an older file's change run, measured in another session, is not the
    # baseline of a file that holds its own parent run
    older = _bench(tmp_path / "BENCH_1.json", {"parent": 9.0, "change": 4.0})
    newer = _bench(tmp_path / "BENCH_2.json", {"parent": 2.0, "change": 1.0})
    compare = _load("compare")
    compare.ROOT = tmp_path
    for argv in ([], [str(newer)]):
        assert compare.main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("BENCH_2.json [change] against BENCH_2.json [parent]\n")
        assert "call D=5: 2.0000 -> 1.0000 s, ratio 0.500" in out
    assert compare.main([str(newer), str(older)]) == 0
    assert "ratio 0.250" in capsys.readouterr().out


def test_a_one_run_file_is_compared_with_the_previous_file(tmp_path, capsys):
    _bench(tmp_path / "BENCH_1.json", {"parent": 9.0, "change": 4.0})
    _bench(tmp_path / "BENCH_2.json", {"change": 2.0})
    compare = _load("compare")
    compare.ROOT = tmp_path
    assert compare.main([]) == 0
    out = capsys.readouterr().out
    assert out.startswith("BENCH_2.json [change] against BENCH_1.json [change]\n")
    assert "ratio 0.500" in out


def test_a_ratio_within_the_host_spread_is_marked(tmp_path, capsys):
    # the quartile ranges of an unchanged row overlap, however far apart the
    # medians read; those of a real change do not
    compare = _load("compare")
    noisy = _bench(tmp_path / "BENCH_1.json",
                   {"parent": (0.078, 0.095, 0.118), "change": (0.087, 0.119, 0.128)})
    assert compare.main([str(noisy)]) == 0
    assert capsys.readouterr().out.endswith(
        "call D=5: 0.0950 -> 0.1190 s, ratio 1.253, quartiles 0.0780-0.1180 -> 0.0870-0.1280,"
        " within spread\n"
    )
    faster = _bench(tmp_path / "BENCH_2.json",
                    {"parent": (0.27, 0.29, 0.31), "change": (0.18, 0.19, 0.21)})
    assert compare.main([str(faster)]) == 0
    assert capsys.readouterr().out.endswith(
        "call D=5: 0.2900 -> 0.1900 s, ratio 0.655, quartiles 0.2700-0.3100 -> 0.1800-0.2100\n"
    )


def _paired_bench(path, parent, change):
    """A two-run BENCH file of one in-process row with per-round samples."""
    runs = []
    for label, samples in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        row = {"kind": "in_process", "name": "call D=5", "median": median, "q1": q1,
               "q3": q3, "samples": samples}
        runs.append({"label": label, "rows": [row]})
    path.write_text(json.dumps({"rounds": len(parent), "seed": 1, "runs": runs}))
    return path


def test_runs_of_one_file_are_compared_round_by_round(tmp_path, capsys):
    # the host drifts from round to round; both runs of a round see the same
    # host, so the per-round ratio shows a 5% loss the quartile overlap hides
    drift = [0.10, 0.12, 0.11, 0.13, 0.10, 0.14, 0.12]
    compare = _load("compare")
    slower = _paired_bench(tmp_path / "BENCH_1.json", drift, [t * 1.05 for t in drift])
    assert compare.main([str(slower)]) == 0
    assert capsys.readouterr().out.endswith(
        "call D=5: 0.1200 -> 0.1260 s, ratio 1.050, quartiles 0.1050-0.1250 -> 0.1103-0.1313,"
        " paired ratio 1.050 (1.050-1.050)\n"
    )
    noisy = [t * f for t, f in zip(drift, [1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0])]
    same = _paired_bench(tmp_path / "BENCH_2.json", drift, noisy)
    assert compare.main([str(same)]) == 0
    assert capsys.readouterr().out.endswith(", paired ratio 1.000 (0.975-1.025), within spread\n")
    # runs of two files were measured in other sessions: no pairing
    assert compare.main([str(same), str(slower)]) == 0
    out = capsys.readouterr().out
    assert "paired" not in out and out.endswith(", within spread\n")


def test_each_job_runs_for_every_checkout_in_turn(tmp_path, monkeypatch):
    # a few minutes of host load fall on both checkouts alike: each round
    # spawns one job for every checkout before the next job, in an order that
    # alternates by round; the in-process rows keep one process per checkout
    monkeypatch.setattr(sys, "path", list(sys.path))  # bench.py adds perfbench/
    bench = _load("bench")
    calls = []

    class Helper:
        def __enter__(self):
            calls.append("helper")
            return self

        def __exit__(self, *exc):
            calls.append("helper closed")

    def in_process(env):
        calls.append(("in_process", env["PYTHONPATH"]))
        return {"call D=5": 0.1}

    def spawn(helper, program, argv, env, cwd):
        assert isinstance(helper, Helper)
        calls.append((tuple(argv), env["PYTHONPATH"]))
        return 0.1, 20.0, "0"

    monkeypatch.setattr(bench, "ROUNDS", 2)
    monkeypatch.setattr(bench, "Helper", Helper)
    monkeypatch.setattr(bench, "in_process", in_process)
    monkeypatch.setattr(bench, "spawn", spawn)
    monkeypatch.setattr(bench, "machine", lambda checkout: {})
    runs = bench.measure({"parent": tmp_path / "a", "change": tmp_path / "b"})
    # one helper, started before the first sample and closed after the last
    assert (calls.pop(0), calls.pop()) == ("helper", "helper closed")
    a, b = (str(tmp_path / name / "src") for name in "ab")
    per_round = len(calls) // 2
    for index, order in enumerate(([a, b], [b, a])):
        done = calls[index * per_round : (index + 1) * per_round]
        assert done[:2] == [("in_process", path) for path in order]
        spawned = done[2:]
        assert len(spawned) > 2 * len(bench.WORKLOADS)
        assert [path for _, path in spawned] == order * (len(spawned) // 2)
        assert [argv for argv, _ in spawned[::2]] == [argv for argv, _ in spawned[1::2]]
    assert [row["name"] for row in runs[0]["rows"]] == [row["name"] for row in runs[1]["rows"]]


def test_one_job_runs_through_run_and_through_the_teardown_control(tmp_path, monkeypatch):
    # the gap between the two rows is the teardown run() skips; the import
    # row never calls run() and is the bypass
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = _load("bench")
    spawned = []

    def spawn(helper, program, argv, env, cwd):
        spawned.append((program, tuple(argv)))
        return 0.1, 20.0, "0"

    monkeypatch.setattr(bench, "ROUNDS", 2)
    monkeypatch.setattr(bench, "in_process", lambda env: {})
    monkeypatch.setattr(bench, "spawn", spawn)
    monkeypatch.setattr(bench, "machine", lambda checkout: {})
    runs = bench.measure({"change": tmp_path})
    spawned = spawned[: len(spawned) // 2]  # the first round
    job = ("resistance", "--pattern", "0101")
    assert spawned[-3:] == [(bench.ENTRY, job), (bench.TEARDOWN, job), (bench.IMPORT, ())]
    assert [row["name"] for row in runs[0]["rows"]][-3:] == [
        "mdmtj resistance --pattern 0101",
        "mdmtj resistance --pattern 0101 [sys.exit(main())]",
        "import mdmtj.cli",
    ]
    assert bench.ENTRY.endswith("run()") and "run" not in bench.TEARDOWN
    assert all(program == bench.ENTRY for program, _ in spawned[:-2])


def test_a_job_spawned_by_the_helper_reads_its_own_peak_rss(tmp_path, monkeypatch):
    # a child spawned by this test process would start from this process's
    # peak; one spawned by the helper starts from the helper's bare interpreter
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = _load("bench")
    env = bench.child_env(tmp_path)
    with bench.Helper() as helper:
        wall, rss, digest = bench.spawn(
            helper, "import sys; sys.stdout.write(sys.argv[1])", ["hello"], env, tmp_path
        )
        assert digest == hashlib.sha256(b"hello").hexdigest()
        assert 0.0 < wall < 60.0
        assert 0.0 < rss < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        with pytest.raises(RuntimeError, match="exited 3"):
            bench.spawn(helper, "raise SystemExit(3)", [], env, tmp_path)
        # the helper outlives a failed job
        assert bench.spawn(helper, "pass", [], env, tmp_path)[2] == hashlib.sha256().hexdigest()
    assert helper.process.returncode == 0
