"""Start-up: only Monte Carlo and ``--oracle`` runs load numpy.

Every ``mdmtj`` query is a new process, and importing numpy costs more than
the rest of the package. ``resistance``, ``voltage``, ``levels``, ``margin``,
``sweep`` and fixed-offset ``variation`` build no array (the misalignment
engine runs on plain floats for a list of offsets), so they run, and print
the same bytes, in an interpreter where any import of numpy fails.
``variation --monte-carlo`` and ``--oracle`` runs do load it.
"""

from contextlib import redirect_stdout
from io import StringIO

import pytest

from mdmtj.cli import main

WITHOUT_NUMPY = [
    ("resistance", "--pattern", "0101"),
    ("voltage", "--pattern", "00010", "--borders", "same,differ"),
    ("levels", "--domains", "8", "--format", "csv"),
    ("margin", "--domains", "7"),
    ("margin", "--domains", "9", "--borders", "worst", "--format", "json"),
    ("margin", "--domains", "7", "--closed-form"),
    ("sweep", "--from", "2", "--to", "30", "--threshold-mv", "20"),
    ("variation", "--domains", "4", "--offset-nm", "3"),
]


def test_package_and_queries_run_without_numpy(fresh_cli, monkeypatch):
    runs, numpy_loaded = fresh_cli(WITHOUT_NUMPY, block_numpy=True)
    assert not numpy_loaded
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    for argv, (code, out) in zip(WITHOUT_NUMPY, runs, strict=True):
        buffer = StringIO()
        with redirect_stdout(buffer):
            assert main(list(argv)) == 0
        assert (code, out) == (0, buffer.getvalue()), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("levels", "--domains", "6", "--oracle"),
        ("variation", "--domains", "4", "--monte-carlo", "10", "--seed", "1"),
        ("variation", "--domains", "4", "--offset-nm", "3", "--oracle"),
    ],
)
def test_arrays_and_oracle_runs_load_numpy(fresh_cli, argv):
    runs, numpy_loaded = fresh_cli([argv], block_numpy=False)
    assert runs[0][0] == 0
    assert numpy_loaded
