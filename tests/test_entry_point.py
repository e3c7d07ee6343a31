"""``cli.run``, the ``mdmtj`` entry point, in a fresh interpreter.

After ``main`` returns, ``run`` flushes stdout and stderr and ends the
process with ``os._exit``, so no interpreter teardown flushes for it. On
every exit path the process must give the exit code, stdout bytes and
stderr that ``main`` gives in process. The children run without
``PYTHONUNBUFFERED``, so their stdout is buffered as a user's is: an
unbuffered stdout would hide a missing flush.
"""

import contextlib
import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdmtj import cli
from mdmtj.cli import main

SRC = Path(cli.__file__).resolve().parents[1]
HELP = Path(__file__).parent / "help"
ENTRY = "from mdmtj.cli import run; run()"
EPOCH = "1755734400"
FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL} here")

# a few MB of rows: many buffer flushes before the last one
MANY_ROWS = ["variation", "--domains", "4", "--monte-carlo", "20000", "--seed", "1"]


@pytest.fixture(autouse=True)
def pinned(monkeypatch, tmp_path):
    # the in-process runs see what the children see
    monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)


def spawn(argv, stdout=subprocess.PIPE, program=ENTRY, closed=False):
    """``argv`` through ``run`` in a new buffered interpreter, with stdout
    ``closed`` if asked: (exit code, stdout bytes or None, stderr text)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-c", program, *argv]
    if closed:
        command = ["/bin/sh", "-c", 'exec "$0" "$@" >&-', *command]
    done = subprocess.run(
        command, env=env, stdout=stdout, stderr=subprocess.PIPE, text=False, timeout=120
    )
    return done.returncode, done.stdout, done.stderr.decode()


def in_process(argv, stdout):
    """``main(argv)`` writing to ``stdout``: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@contextlib.contextmanager
def closed_pipe():
    """The write end of a pipe whose reader has gone before any write."""
    read, write = os.pipe()
    os.close(read)
    try:
        yield write
    finally:
        os.close(write)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["margin", "--domains", "5"], 0),
        (["levels", "--domains", "6", "--borders", "same,differ", "--format", "csv"], 0),
        ([*MANY_ROWS, "--format", "json"], 0),
        (["levels"], 2),  # argparse's usage error
        (["margin", "--domains", "31"], 2),
        (["levels", "--domains", "5", "--config", "missing.cfg"], 3),
    ],
    ids=["table", "csv", "json", "usage", "domain-usage", "config"],
)
def test_run_gives_what_main_gives(argv, code):
    out = io.StringIO()
    want_code, want_err = in_process(argv, out)
    assert want_code == code
    assert spawn(argv) == (code, out.getvalue().encode(), want_err)


@needs_dev_full
@pytest.mark.parametrize(
    "argv", [["resistance", "--pattern", "01"], [*MANY_ROWS, "--format", "csv"]],
    ids=["at-the-last-flush", "part-way"],
)
def test_a_full_disk_exits_1_as_main_does(argv):
    with open(FULL, "w") as full:
        want = in_process(argv, full)
    assert want == (1, f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n")
    with open(FULL, "w") as full:
        code, _, err = spawn(argv, stdout=full)
    assert (code, err) == want


@pytest.mark.parametrize(
    "argv", [["resistance", "--pattern", "01"], [*MANY_ROWS, "--format", "csv"]],
    ids=["one-line", "many-rows"],
)
def test_a_closed_pipe_exits_141_as_main_does(argv):
    with closed_pipe() as write, open(write, "w", closefd=False) as stdout:
        want = in_process(argv, stdout)
    assert want == (141, "")
    with closed_pipe() as write:
        code, _, err = spawn(argv, stdout=write)
    assert (code, err) == want


@pytest.mark.parametrize("command", sorted(p.stem for p in HELP.iterdir()))
def test_help_through_a_pipe_equals_its_pin(command):
    argv = [] if command == "mdmtj" else [command]
    assert spawn([*argv, "--help"]) == (0, (HELP / f"{command}.txt").read_bytes(), "")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["levels", "--help"]])
def test_help_and_version_into_a_closed_pipe_exit_141_quietly(argv):
    # argparse leaves the text buffered; the final flush is the first write
    with closed_pipe() as write:
        code, _, err = spawn(argv, stdout=write)
    assert (code, err) == (141, "")


@needs_dev_full
@pytest.mark.parametrize("argv", [["--help"], ["--version"]])
def test_help_and_version_onto_a_full_disk_exit_1(argv):
    with open(FULL, "w") as full:
        code, _, err = spawn(argv, stdout=full)
    assert (code, err) == (1, f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n")


def test_a_closed_stdout_is_left_as_main_leaves_it():
    # with no stdout at all, argparse writes the help to stderr
    want = in_process(["--help"], None)
    assert want == (0, (HELP / "mdmtj.txt").read_text())
    code, _, err = spawn(["--help"], stdout=subprocess.DEVNULL, closed=True)
    assert (code, err) == want


@pytest.mark.parametrize(
    "argv",
    [["resistance", "--pattern", "01"], ["levels", "--domains", "4", "--format", "json"]],
    ids=["table", "json"],
)
def test_no_stdout_exits_1_as_a_full_disk_does(argv):
    want = in_process(argv, None)
    assert want == (1, f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n")
    code, _, err = spawn(argv, stdout=subprocess.DEVNULL, closed=True)
    assert (code, err) == want


def test_an_out_file_is_written_with_stdout_closed(tmp_path):
    argv = ["levels", "--domains", "4", "--format", "csv"]
    out = io.StringIO()
    assert in_process(argv, out) == (0, "")
    target = tmp_path / "levels.csv"
    assert spawn([*argv, "--out", str(target)], stdout=subprocess.DEVNULL, closed=True) == (
        0, None, ""
    )
    assert target.read_bytes() == out.getvalue().encode()


def test_an_out_file_is_complete_once_the_process_has_exited(tmp_path):
    argv = [*MANY_ROWS, "--format", "json"]
    out = io.StringIO()
    assert in_process(argv, out) == (0, "")
    target = tmp_path / "samples.json"
    assert spawn([*argv, "--out", str(target)]) == (0, b"", "")
    assert target.read_bytes() == out.getvalue().encode()


def test_an_exception_escaping_main_keeps_its_traceback():
    program = (
        "from mdmtj import cli\n"
        "def broken(argv=None):\n"
        "    raise RuntimeError('not handled')\n"
        "cli.main = broken\n"
        "cli.run()\n"
    )
    code, out, err = spawn([], program=program)
    assert (code, out) == (1, b"")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: not handled\n")
