"""Start-up: each command loads only the modules it runs.

Every ``mdmtj`` query is a new process that compiles what it imports, and
importing numpy costs more than the rest of the package. ``resistance`` and
``voltage`` load neither ``margins`` nor ``variation``, only the
``variation`` subcommand loads ``variation``, no command without ``--oracle``
loads ``oracle``, and ``json`` and ``datetime`` load only for
machine-readable output.

``resistance``, ``voltage``, ``levels``, ``margin``, ``sweep`` and
fixed-offset ``variation`` build no array (the misalignment engine runs on
plain floats for a list of offsets), so they run, and print the same bytes,
in an interpreter where any import of numpy fails. So do the first five with
``--oracle``: their references (the rational path and the brute-force
reports) are plain Python, and ``import mdmtj.oracle`` loads no numpy.
``variation --monte-carlo`` and every ``variation --oracle`` run do load it,
and a Monte Carlo run without ``--oracle`` loads neither ``numpy.random``
nor ``numpy.ma``.

No command imports ``dataclasses``: every value class is a plain
``__slots__`` record. ``import mdmtj.cli``, loading a config and every
command that builds no array load none of the ``inspect``, ``ast``, ``dis``
and ``tokenize`` it would load; numpy itself brings those in.
"""

import importlib.util
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from mdmtj.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

WITHOUT_NUMPY = [
    ("resistance", "--pattern", "0101"),
    ("voltage", "--pattern", "00010", "--borders", "same,differ"),
    ("levels", "--domains", "8", "--format", "csv"),
    ("margin", "--domains", "7"),
    ("margin", "--domains", "9", "--borders", "worst", "--format", "json"),
    ("margin", "--domains", "7", "--closed-form"),
    ("sweep", "--from", "2", "--to", "30", "--threshold-mv", "20"),
    ("variation", "--domains", "4", "--offset-nm", "3"),
    ("resistance", "--pattern", "0101", "--oracle"),
    ("voltage", "--pattern", "00010", "--borders", "same,differ", "--oracle"),
    ("levels", "--domains", "6", "--oracle"),
    ("levels", "--domains", "8", "--borders", "same,differ", "--format", "json", "--oracle"),
    ("margin", "--domains", "7", "--oracle"),
    ("margin", "--domains", "9", "--borders", "worst", "--oracle"),
    ("margin", "--domains", "7", "--closed-form", "--oracle"),
    ("sweep", "--from", "2", "--to", "12", "--threshold-mv", "20", "--oracle"),
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
        ("variation", "--domains", "4", "--monte-carlo", "10", "--seed", "1", "--oracle"),
    ],
)
def test_arrays_and_oracle_runs_load_numpy(fresh_cli, argv):
    # only variation's references evaluate arrays; a report's is plain Python
    runs, numpy_loaded = fresh_cli([argv], block_numpy=False)
    assert runs[0][0] == 0
    assert numpy_loaded == (argv[0] == "variation")


def test_the_oracle_module_loads_no_numpy(fresh_python):
    # numpy is imported inside the offset and sample references only
    code, _, err = fresh_python("import sys, mdmtj.oracle; sys.stderr.write(' '.join(sys.modules))")
    assert code == 0, err
    assert "mdmtj.oracle" in err.split() and "numpy" not in err.split()


# Runs one command through cli.main in a fresh interpreter, then writes the
# names of every loaded module to stderr.
_MODULES_AFTER = """
import sys
from mdmtj.cli import main

code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(" ".join(sys.modules))
raise SystemExit(code)
"""

_NOT_ANALYSIS = {"mdmtj.margins", "mdmtj.variation", "json", "datetime"}


@pytest.fixture(scope="module")
def bare_modules(fresh_python):
    code, out, err = fresh_python("import sys; print(' '.join(sys.modules))")
    assert code == 0, err
    return set(out.split())


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("resistance", "--pattern", "0101"), _NOT_ANALYSIS),
        (("voltage", "--pattern", "00010", "--borders", "same,differ"), _NOT_ANALYSIS),
        (("levels", "--domains", "8", "--format", "json"), {"mdmtj.variation"}),
        (("margin", "--domains", "7", "--closed-form"), {"mdmtj.variation"}),
        (("margin", "--domains", "9", "--borders", "worst", "--format", "csv"),
         {"mdmtj.variation"}),
        (("sweep", "--from", "2", "--to", "30", "--threshold-mv", "20"), {"mdmtj.variation"}),
        (("levels", "--domains", "6", "--oracle"), {"mdmtj.variation", "numpy"}),
        (("variation", "--domains", "4", "--offset-nm", "3"), {"mdmtj.oracle", "numpy"}),
        (("variation", "--domains", "4", "--monte-carlo", "100", "--seed", "1"),
         {"mdmtj.oracle"}),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(fresh_python, bare_modules, argv, absent):
    code, _, err = fresh_python(_MODULES_AFTER, *argv)
    assert code == 0
    loaded = set(err.split()) - bare_modules
    assert "mdmtj.network" in loaded
    assert loaded & absent == set()


def test_variation_forwards_only_the_checkers_names_to_the_oracle():
    from mdmtj import oracle, variation
    from mdmtj.variation import apply_misalignment, perturbed_resistance

    assert apply_misalignment is oracle.apply_misalignment
    assert perturbed_resistance is oracle.perturbed_resistance
    with pytest.raises(AttributeError, match="has no attribute 'PerturbedDecomposition'"):
        variation.PerturbedDecomposition


@pytest.fixture(scope="module", params=["table", "csv", "json"])
def monte_carlo_loaded(request, fresh_python, bare_modules):
    code, _, err = fresh_python(_MODULES_AFTER, "variation", "--domains", "4",
                                "--monte-carlo", "2000", "--seed", "1",
                                "--format", request.param)
    assert code == 0
    return set(err.split()) - bare_modules


def test_monte_carlo_draws_without_numpy_random(monte_carlo_loaded):
    # _sampler draws every row itself; only the --oracle reference uses
    # numpy's Generator
    assert {"numpy", "mdmtj._sampler"} <= monte_carlo_loaded
    assert not any(name == "numpy.random" or name.startswith("numpy.random.")
                   for name in monte_carlo_loaded)


def test_monte_carlo_summary_loads_no_masked_arrays(monte_carlo_loaded):
    # np.percentile imports numpy.ma; the p01 margin is computed without it
    assert not any(name == "numpy.ma" or name.startswith("numpy.ma.")
                   for name in monte_carlo_loaded)


# What importing dataclasses loads; no command without numpy needs any of it.
_DATACLASSES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
_SETUP = """
import sys
import mdmtj.cli as cli

cli.load_config(sys.argv[1])
sys.stderr.write(" ".join(sys.modules))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("resistance", "--pattern", "0101"),
        ("voltage", "--pattern", "00010", "--borders", "same,differ"),
        ("levels", "--domains", "8", "--format", "json"),
        ("margin", "--domains", "7"),
        ("margin", "--domains", "9", "--borders", "worst", "--format", "csv"),
        ("margin", "--domains", "30", "--closed-form"),
        ("sweep", "--from", "2", "--to", "30", "--threshold-mv", "20"),
        ("variation", "--domains", "4", "--offset-nm", "3"),
    ],
)
def test_short_queries_build_no_dataclass(fresh_python, argv):
    code, _, err = fresh_python(_MODULES_AFTER, *argv)
    assert code == 0
    assert "mdmtj.network" in err.split()
    assert set(err.split()) & _DATACLASSES == set()


def test_monte_carlo_builds_no_dataclass(monte_carlo_loaded):
    assert "dataclasses" not in monte_carlo_loaded


def test_oracle_runs_build_no_dataclass(fresh_python):
    code, _, err = fresh_python(_MODULES_AFTER, "levels", "--domains", "6", "--oracle")
    assert code == 0
    assert "mdmtj.oracle" in err.split()
    assert set(err.split()) & ({"numpy"} | _DATACLASSES) == set()


def test_import_and_config_load_build_no_dataclass(fresh_python, tmp_path):
    config = tmp_path / "device.cfg"
    config.write_text("domain_length_nm = 60\nmaterial = NiFe\n")
    code, _, err = fresh_python(_SETUP, str(config))
    assert code == 0, err
    assert "mdmtj.characterization" in err.split()
    assert set(err.split()) & _DATACLASSES == set()


# Rebinds the given names of cli before any handler has run, as the perfbench
# tracer does, runs commands that together call every one of them and writes
# the names the spies saw called to stderr.
_REBIND_FIRST = """
import sys
from mdmtj import cli

calls = set()


def spy(name, real):
    def called(*args, **kwargs):
        calls.add(name)
        return real(*args, **kwargs)

    return called


config, *names = sys.argv[1:]
for name in names:
    setattr(cli, name, spy(name, getattr(cli, name)))
for argv in (["resistance", "--pattern", "0101", "--config", config],
             ["voltage", "--pattern", "0101"],
             ["levels", "--domains", "4"],
             ["margin", "--domains", "5", "--borders", "worst"],
             ["margin", "--domains", "5", "--closed-form"],
             ["sweep", "--from", "2", "--to", "4", "--threshold-mv", "20"],
             ["variation", "--domains", "4", "--offset-nm", "3"],
             ["variation", "--domains", "4", "--monte-carlo", "10", "--seed", "1"]):
    assert cli.main(argv) == 0
sys.stderr.write(" ".join(sorted(calls)))
"""


def test_a_name_rebound_before_first_use_is_called(fresh_python, tmp_path):
    # every name perfbench/tracer.py rebinds on cli, the lazily bound ones too
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up there
    spec.loader.exec_module(tracer)
    names = sorted({function for _, _, function, callers, _ in tracer.TARGETS
                    if "cli" in callers})
    assert {"enumerate_levels", "monte_carlo_margins", "offset_margin_report"} <= set(names)
    config = tmp_path / "device.cfg"
    config.write_text("domain_length_nm = 60\nmaterial = NiFe\n")
    code, _, err = fresh_python(_REBIND_FIRST, str(config), *names)
    assert code == 0, err
    assert err.split() == names
