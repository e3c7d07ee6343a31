"""Byte-for-byte output of every subcommand and format against golden files.

The golden files under ``tests/golden/`` were captured with
``SOURCE_DATE_EPOCH=0``. Regenerate them only on a deliberate change of the
output contract:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from mdmtj.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEVICE_CONFIG = GOLDEN / "device.cfg"

_FORMATS = ("table", "csv", "json")
_SUFFIX = {"table": "txt", "csv": "csv", "json": "json"}


def _all_formats(stem: str, *argv: str) -> list[tuple[str, tuple[str, ...]]]:
    return [
        (f"{stem}.{_SUFFIX[fmt]}", (*argv, "--format", fmt)) for fmt in _FORMATS
    ]


CASES: list[tuple[str, tuple[str, ...]]] = [
    ("resistance.txt", ("resistance", "--pattern", "00010")),
    ("resistance-differ.txt", ("resistance", "--pattern", "0110", "--borders", "differ,differ")),
    ("voltage.txt", ("voltage", "--pattern", "00010", "--borders", "same,differ")),
    *_all_formats("levels-same-same", "levels", "--domains", "5"),
    *_all_formats("levels-same-differ", "levels", "--domains", "5", "--borders", "same,differ"),
    *_all_formats("levels-differ-differ", "levels", "--domains", "4", "--borders", "differ,differ"),
    ("levels-config.csv", ("levels", "--domains", "4", "--config", str(DEVICE_CONFIG),
                           "--format", "csv")),
    *_all_formats("margin-enumerated", "margin", "--domains", "5"),
    *_all_formats("margin-worst", "margin", "--domains", "5", "--borders", "worst"),
    *_all_formats("margin-closed-form", "margin", "--domains", "4", "--closed-form"),
    *_all_formats("sweep-met", "sweep", "--from", "2", "--to", "6", "--threshold-mv", "20"),
    *_all_formats("sweep-blank", "sweep", "--from", "19", "--to", "21", "--threshold-mv", "5"),
    *_all_formats("sweep-unmet", "sweep", "--from", "2", "--to", "4", "--threshold-mv", "500"),
    ("variation-plus.txt", ("variation", "--domains", "4", "--offset-nm", "6")),
    ("variation-plus.json", ("variation", "--domains", "4", "--offset-nm", "6",
                             "--format", "json")),
    ("variation-minus.txt", ("variation", "--domains", "3", "--offset-nm", "-4.5",
                             "--neighbors", "1", "--borders", "same,differ")),
    ("variation-minus.json", ("variation", "--domains", "3", "--offset-nm", "-4.5",
                              "--neighbors", "1", "--borders", "same,differ",
                              "--format", "json")),
    ("variation-zero.txt", ("variation", "--domains", "4", "--offset-nm", "0")),
    ("variation-zero.json", ("variation", "--domains", "4", "--offset-nm", "0",
                             "--format", "json")),
    *_all_formats("variation-monte-carlo", "variation", "--domains", "3",
                  "--monte-carlo", "40", "--seed", "9", "--neighbors", "0"),
]

# Windows above D = 12, where no brute-force reference reaches: these pin the
# run-structure walk itself.
LARGE_CASES: list[tuple[str, tuple[str, ...]]] = [
    ("margin-worst-d30.json", ("margin", "--domains", "30", "--borders", "worst",
                               "--format", "json")),
    ("margin-differ-same-d24.json", ("margin", "--domains", "24", "--borders", "differ,same",
                                     "--format", "json")),
    ("sweep-same-differ-d30.json", ("sweep", "--from", "2", "--to", "30", "--threshold-mv", "20",
                                    "--borders", "same,differ", "--format", "json")),
    ("levels-differ-differ-d16.csv", ("levels", "--domains", "16", "--borders", "differ,differ",
                                      "--format", "csv")),
    ("variation-same-differ-d30.json", ("variation", "--domains", "30", "--offset-nm", "5.5",
                                        "--borders", "same,differ", "--format", "json")),
    ("variation-monte-carlo-differ-same-d20.json", ("variation", "--domains", "20",
                                                    "--monte-carlo", "50", "--seed", "3",
                                                    "--borders", "differ,same",
                                                    "--format", "json")),
]

# Writing to --out must produce exactly the bytes stdout would carry; the
# small cases cover that path.
OUT_CASES = [name for name, argv in CASES if argv[0] not in ("resistance", "voltage")]

CASES += LARGE_CASES

# Monte Carlo runs longer than one write (9198 CSV or 4064 JSON rows), pinned
# by the sha256 of their output instead of a megabyte golden file
MULTI_CHUNK_ARGV = ("variation", "--domains", "4", "--monte-carlo", "20000", "--seed", "5",
                    "--borders", "same,differ")
MULTI_CHUNK_DIGESTS = {
    "csv": "513327534a233693941892e0cc902ea885d66e1d22a756c09efbfb68ebbbfac6",
    "json": "574a4e10b865f6ea33087b77055518e488b4db8ce4b3a7baa2dcfaf16f97601d",
}


# Large class listings, pinned by the sha256 of their output: every class
# row of the D = 30 listing in JSON and of a D = 24 listing in CSV
LARGE_LISTING_DIGESTS = {
    ("levels", "--domains", "30", "--borders", "same,same", "--format", "json"):
        "2f9aeec7cc9d3243835dbcd7e03301511945c5f27524f48c21d4cf6ab22d523c",
    ("levels", "--domains", "24", "--borders", "differ,same", "--format", "csv"):
        "1570a982ec1f9f55fb351c451240d4a0bbab9f6ccfc34661e90e21275d79b706",
}


def _run(argv: tuple[str, ...]) -> tuple[int, str]:
    buffer = StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")


def test_cases_are_distinct():
    names = [name for name, _ in CASES]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(p.name for p in GOLDEN.iterdir() if p != DEVICE_CONFIG)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(name, argv):
    code, out = _run(argv)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", OUT_CASES)
def test_out_file_matches_golden(name, tmp_path):
    argv = dict(CASES)[name]
    target = tmp_path / name
    code, out = _run((*argv, "--out", str(target)))
    assert (code, out) == (0, "")
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("fmt", sorted(MULTI_CHUNK_DIGESTS))
def test_multi_chunk_monte_carlo_matches_digest(fmt):
    code, out = _run((*MULTI_CHUNK_ARGV, "--format", fmt))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MULTI_CHUNK_DIGESTS[fmt]


@pytest.mark.parametrize("argv", sorted(LARGE_LISTING_DIGESTS), ids=" ".join)
def test_large_class_listing_matches_digest(argv):
    code, out = _run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_LISTING_DIGESTS[argv]


def test_cases_but_monte_carlo_match_golden_without_numpy(fresh_cli):
    # only Monte Carlo builds arrays: an eager import of numpy on any other
    # path, fixed-offset variation included, fails here
    cases = [(name, argv) for name, argv in CASES if "--monte-carlo" not in argv]
    runs, _ = fresh_cli([argv for _, argv in cases], block_numpy=True)
    for (name, _), (code, out) in zip(cases, runs, strict=True):
        assert (code, out.encode()) == (0, (GOLDEN / name).read_bytes()), name


def _regenerate() -> None:
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    for name, argv in CASES:
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_bytes(out.encode())


if __name__ == "__main__":
    _regenerate()
