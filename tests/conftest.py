import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from mdmtj import default_characterization
from mdmtj.characterization import DOMAIN, HALF_WALL, KINDS, WALL
from mdmtj.network import BorderCondition

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Runs the mdmtj commands given as a JSON list on stdin through cli.main in
# this one interpreter and prints, as JSON, each (exit code, stdout) and
# whether numpy is loaded at the end. With "block" as its argument, any
# import of numpy raises ImportError.
_FRESH_CLI = """
import json, sys
from contextlib import redirect_stdout
from io import StringIO

if sys.argv[1:] == ["block"]:
    sys.modules["numpy"] = None
import mdmtj
from mdmtj.cli import main

runs = []
for argv in json.load(sys.stdin):
    out = StringIO()
    with redirect_stdout(out):
        runs.append((main(argv), out.getvalue()))
json.dump({"runs": runs, "numpy": sys.modules.get("numpy") is not None}, sys.stdout)
"""


@pytest.fixture(scope="session")
def char():
    return default_characterization()


@st.composite
def _perturbed_tables(draw, char):
    factors = draw(st.lists(st.integers(900, 1100), min_size=len(KINDS), max_size=len(KINDS)))
    values = [
        char.table.exact(kind) * Fraction(factor, 1000) for kind, factor in zip(KINDS, factors)
    ]
    for row in DOMAIN:  # keep full < mid < short; plus stays above minus
        values[row[0] : row[-1] + 1] = sorted(values[row[0] : row[-1] + 1])
    assume(all(values[a] != values[b] for a, b in ((0, 1), (1, 2), (3, 4), (4, 5))))
    ties = draw(st.integers(0, 2))
    if ties:
        values[WALL[1]] = values[WALL[0]]
    if ties == 2:
        values[HALF_WALL[1]] = values[HALF_WALL[0]]
    return char.replace(table=char.table.replace(dict(zip(KINDS, values))))


@pytest.fixture(scope="session")
def perturbed_tables(char):
    """A strategy of characterizations: the default resistances moved by up
    to +-10 % in steps of 0.1 % within the table invariants; the walls, or
    the walls and the half-walls, tied in two draws of three."""
    return _perturbed_tables(char)


def _cached(reference):
    """``reference(domains, borders, char)``, computed once per session for
    each window, border condition and characterization. A table compares by
    its exact values but has no hash, so those values stand in for it; the
    read current also takes the geometry and the drive."""
    results = {}

    def get(domains, borders, char):
        table = tuple(char.table.exact(kind) for kind in KINDS)
        key = (domains, borders, table, char.geometry, char.drive)
        if key not in results:
            results[key] = reference(domains, borders, char)
        return results[key]

    return get


@pytest.fixture(scope="session")
def walked():
    """walked(domains, borders, char) -> the run-structure walk's report and
    left and right edge groups (``oracle.walk_reference``), shared by the
    session."""
    from mdmtj.oracle import walk_reference

    return _cached(walk_reference)


@pytest.fixture(scope="session")
def brute_forced():
    """brute_forced(domains, borders, char) -> ``oracle.brute_force_report``,
    shared by the session."""
    from mdmtj.oracle import brute_force_report

    return _cached(brute_force_report)


@pytest.fixture(scope="session")
def same_same():
    return BorderCondition.parse("same,same")


@pytest.fixture(scope="session")
def differ_differ():
    return BorderCondition.parse("differ,differ")


def _fresh_env():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "SOURCE_DATE_EPOCH": "0"}


@pytest.fixture(scope="session")
def fresh_python():
    """fresh_python(script, *args) -> (exit code, stdout, stderr)

    Runs ``python -c script *args`` in a new interpreter that imports this
    checkout's mdmtj, with SOURCE_DATE_EPOCH=0.
    """

    def run(script, *args):
        done = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=_fresh_env(), capture_output=True, text=True, timeout=300,
        )
        return done.returncode, done.stdout, done.stderr

    return run


@pytest.fixture(scope="session")
def fresh_cli():
    """fresh_cli(argvs, block_numpy) -> ([(exit code, stdout), ...], numpy loaded)

    Runs every command in one new interpreter, with SOURCE_DATE_EPOCH=0.
    """

    def run(argvs, block_numpy):
        done = subprocess.run(
            [sys.executable, "-c", _FRESH_CLI, *(["block"] if block_numpy else [])],
            input=json.dumps([list(argv) for argv in argvs]),
            env=_fresh_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        return [tuple(run) for run in result["runs"]], result["numpy"]

    return run
