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
    """A BENCH file with one in-process row per run, ``medians`` by label."""
    runs = [
        {"label": label, "rows": [{"kind": "in_process", "name": "call D=5", "median": median}]}
        for label, median in medians.items()
    ]
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
