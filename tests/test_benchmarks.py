"""``benchmarks/compare.py`` picks the baseline a BENCH file was measured with."""

import importlib.util
import json
from pathlib import Path

COMPARE = Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"


def _compare():
    spec = importlib.util.spec_from_file_location("benchmarks_compare", COMPARE)
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
    compare = _compare()
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
    compare = _compare()
    compare.ROOT = tmp_path
    assert compare.main([]) == 0
    out = capsys.readouterr().out
    assert out.startswith("BENCH_2.json [change] against BENCH_1.json [change]\n")
    assert "ratio 0.500" in out


def test_a_ratio_within_the_host_spread_is_marked(tmp_path, capsys):
    # the quartile ranges of an unchanged row overlap, however far apart the
    # medians read; those of a real change do not
    compare = _compare()
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
