"""End-to-end command behavior: exact text, schemas, exit codes."""

import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

from mdmtj import _sampler, cli, oracle, variation
from mdmtj.cli import main


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    # byte-identical manifests across a test run
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755734400")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = [line for line in text.splitlines() if line.startswith("#")]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return comments, list(csv.reader(io.StringIO("\n".join(body))))


def test_resistance_known_pattern(capsys):
    code, out, _ = run_cli(capsys, "resistance", "--pattern", "00010", "--borders", "same,same")
    assert code == 0
    assert out == "431.54 ohm\n"


def test_voltage_known_pattern(capsys):
    code, out, _ = run_cli(capsys, "voltage", "--pattern", "00010")
    assert code == 0
    assert out == "221.64 mV\n"


def test_margin_enumerated_table(capsys):
    code, out, _ = run_cli(capsys, "margin", "--domains", "5")
    assert (code, out) == (0, "25.14 mV\n")


def test_margin_closed_form_and_worst_agree(capsys):
    code, closed, _ = run_cli(capsys, "margin", "--domains", "5", "--closed-form")
    assert (code, closed) == (0, "23.71 mV\n")
    code, worst, _ = run_cli(capsys, "margin", "--domains", "5", "--borders", "worst")
    assert (code, worst) == (0, "23.71 mV\n")


def test_margin_csv_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "margin", "--domains", "4", "--closed-form", "--format", "csv"
    )
    assert code == 0
    comments, rows = parse_csv(out)
    assert any(line.startswith("# command: margin") for line in comments)
    assert any(line.startswith("# config: r_minus_80=1911 ") for line in comments)
    assert rows[0] == ["weight_low", "weight_high", "r_low_max_ohm", "r_high_min_ohm", "margin_mv"]
    assert rows[1:] == [["0", "1", "480.73", "555.31", "30.64"]]


def test_margin_csv_enumerated_rows(capsys):
    code, out, _ = run_cli(capsys, "margin", "--domains", "5", "--format", "csv")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[1] == ["0", "1", "382.20", "431.14", "25.14"]
    assert len(rows) == 1 + 5  # header plus one gap per adjacent weight pair


def test_levels_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "levels", "--domains", "5", "--format", "csv")
    assert code == 0
    comments, rows = parse_csv(out)
    assert comments[0] == "# command: levels"
    assert rows[0] == ["pattern_class", "weight", "multiplicity", "resistance_ohm", "voltage_mv"]
    assert rows[1] == ["00000", "0", "1", "382.20", "196.30"]
    assert len(rows) == 1 + 16  # sixteen classes under same/same
    assert sum(int(r[2]) for r in rows[1:]) == 32


def test_levels_table_text(capsys):
    code, out, _ = run_cli(capsys, "levels", "--domains", "5")
    assert code == 0
    assert out.startswith("5-domain levels, borders same/same, read current 513.60 uA")
    assert "minimum margin 25.14 mV between weights 0 and 1" in out


def test_levels_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "levels", "--domains", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["command"] == "levels"
    assert payload["manifest"]["version"] == "0.1.0"
    assert payload["manifest"]["configuration"]["r_plus_68"] == "5143"
    assert payload["min_margin_mv"] == 25.14
    assert len(payload["classes"]) == 16
    first = payload["classes"][0]
    assert first == {
        "pattern_class": "00000",
        "weight": 0,
        "multiplicity": 1,
        "resistance_ohm": 382.2,
        "voltage_mv": 196.3,
    }


def test_sweep_table_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--from", "2", "--to", "6", "--threshold-mv", "20"
    )
    assert code == 0
    assert out.rstrip().endswith("threshold 20.00 mV -> max scalable domains: 5")


def test_sweep_csv_blank_after_enumeration_limit(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--from", "19", "--to", "21", "--threshold-mv", "5", "--format", "csv"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0] == ["domains", "closed_form_margin_mv", "enumerated_margin_mv"]
    by_domains = {row[0]: row for row in rows[1:]}
    assert by_domains["20"][2] != ""
    assert by_domains["21"][2] == ""


def test_sweep_json_fields(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--from", "2", "--to", "4", "--threshold-mv", "31", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_scalable_domains"] == 3
    assert [row["domains"] for row in payload["rows"]] == [2, 3, 4]
    assert payload["rows"][0]["closed_form_margin_mv"] == 73.62


def test_variation_offset_table(capsys):
    code, out, _ = run_cli(capsys, "variation", "--domains", "4", "--offset-nm", "6")
    assert code == 0
    assert out == (
        "nominal min margin: 32.46 mV\n"
        "offset 6.000 nm (worst sign) min margin: 27.60 mV\n"
        "reduction: 4.86 mV (14.96%)\n"
    )


def test_variation_offset_json_neighbors(capsys):
    def perturbed(*extra):
        code, out, _ = run_cli(
            capsys, "variation", "--domains", "3", "--offset-nm", "4",
            "--format", "json", *extra,
        )
        assert code == 0
        return json.loads(out)["perturbed_min_margin_mv"]

    worst = perturbed()
    assert worst <= min(perturbed("--neighbors", "0"), perturbed("--neighbors", "1"))


def test_variation_monte_carlo_csv(capsys):
    args = (
        "variation", "--domains", "3", "--monte-carlo", "64", "--seed", "9",
        "--format", "csv",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    comments, rows = parse_csv(out)
    assert "# seed: 9" in comments
    assert rows[0] == ["sample", "delta_nm", "min_margin_mv"]
    assert len(rows) == 1 + 64
    assert [row[0] for row in rows[1:4]] == ["0", "1", "2"]


def test_variation_monte_carlo_json(capsys):
    code, out, _ = run_cli(
        capsys, "variation", "--domains", "3", "--monte-carlo", "32", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["seed"] == 5
    assert len(payload["samples"]) == 32
    margins = [s["min_margin_mv"] for s in payload["samples"]]
    assert payload["min_margin_mv"] == min(margins)
    assert all(m <= payload["nominal_min_margin_mv"] for m in margins)


def test_repeated_runs_are_byte_identical(capsys):
    first = run_cli(capsys, "levels", "--domains", "4", "--format", "json")
    second = run_cli(capsys, "levels", "--domains", "4", "--format", "json")
    assert first == second


def test_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "margin", "--domains", "4", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    code, direct, _ = run_cli(capsys, "margin", "--domains", "4", "--format", "csv")
    assert target.read_text() == direct


def _row_by_row(result, char, fmt):
    """``result`` as csv.writer and json.dumps(indent=2) print it row by row."""

    def cell(column, value, as_text):
        if isinstance(column, str) or value is None:
            return "" if as_text and value is None else value
        _, scale, decimals = column
        return f"%.{decimals}f" % (value * scale) if as_text else round(value * scale, decimals)

    names = [cli._column_name(column) for column in result.columns]
    rows = list(zip(*(v.tolist() if hasattr(v, "tolist") else v for v in result.values)))
    manifest = cli._manifest(result, char)
    if fmt == "csv":
        buffer = io.StringIO()
        buffer.writelines(line + "\n" for line in cli._manifest_comments(manifest))
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([cell(c, v, True) for c, v in zip(result.columns, row)] for row in rows)
        return buffer.getvalue()
    listed = [
        {name: cell(c, v, False) for name, c, v in zip(names, result.columns, row)}
        for row in rows
    ]
    payload = {"manifest": manifest, **result.head, result.rows_key: listed, **result.tail}
    return json.dumps(payload, indent=2) + "\n"


def _mixed_columns(rows):
    rng = np.random.default_rng(rows)
    spread = rng.standard_normal(rows) * 10.0 ** rng.integers(-16, 4, rows)
    spread[::5] = -0.0
    gaps = [None if i % 3 == 0 else float(v) for i, v in enumerate(spread)]
    columns = ("index", "bits", ("x_nm", 1e9, 6), ("y_mv", 1e3, 2))
    return columns, (range(rows), [format(i, "b") for i in range(rows)], spread, gaps)


def _array_columns(rows):
    # every column an array or a range, as in a Monte Carlo result
    rng = np.random.default_rng(rows)
    offsets = rng.standard_normal(rows) * 1e-9
    offsets[::4] = -offsets[::4] * 1e-6  # JSON prints these in exponent form
    offsets[1::6] = -0.0
    margins = 0.02 + rng.standard_normal(rows) * 1e-3
    margins[2::5] = (np.arange(len(margins[2::5])) + 0.5) / 1e5  # halves of the last digit
    return ("index", ("x_nm", 1e9, 6), ("y_mv", 1e3, 2)), (range(rows), offsets, margins)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "rows,columns",
    [pytest.param(rows, _mixed_columns, id=str(rows)) for rows in (0, 1, 7, 23)]
    + [pytest.param(rows, _array_columns, id=f"{rows}-arrays") for rows in (0, 1, 7, 8, 23)],
)
def test_emitter_matches_row_by_row_serialization(capsys, monkeypatch, char, fmt, rows, columns):
    monkeypatch.setattr(cli, "_WRITE_BYTES", 400)  # 2 to 7 rows a write: one of them short
    names, values = columns(rows)
    result = cli._Result(
        "test", {"rows": rows}, str,
        head={"first": 1.5}, rows_key="rows",
        columns=names, values=values,
        tail={"last": None},
    )
    cli._emit(result, char, fmt, None)
    assert capsys.readouterr().out == _row_by_row(result, char, fmt)
    if rows == 23:  # the head, at least four chunks of rows and (JSON) the tail
        assert len(list(cli._text(result, char, fmt))) >= 5 + (fmt == "json")


@pytest.mark.parametrize(
    "argv",
    [
        ("levels", "--domains", "30"),
        ("variation", "--domains", "4", "--monte-carlo", "50000", "--seed", "1"),
    ],
    ids=["levels-d30", "monte-carlo-50k"],
)
def test_each_write_of_rows_holds_the_text_budget_and_one_row(char, argv):
    args = cli.build_parser().parse_args([*argv, "--format", "json"])
    result = args.handler(args, char)
    head, *rows, tail = cli._text(result, char, "json")
    assert "".join(rows).startswith("    {") and len(rows) >= 3
    widest = max(map(len, "".join(rows).split(",\n    {"))) + len(",\n    {")
    assert max(map(len, rows)) <= cli._WRITE_BYTES + widest


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "report.csv"
    code, out, err = run_cli(
        capsys, "margin", "--domains", "4", "--format", "csv", "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write --out")
    assert str(target) in err
    assert len(err.splitlines()) == 1


def test_config_beyond_float_range_exits_3(capsys, tmp_path):
    config = tmp_path / "huge.cfg"
    config.write_text("domain_length_nm = 1e400\n")
    code, out, err = run_cli(capsys, "margin", "--domains", "4", "--config", str(config))
    assert (code, out) == (3, "")
    assert "domain_length_nm" in err


def test_config_with_overflowing_voltages_exits_3(capsys, tmp_path):
    # 1e310 nm is a finite float, but it makes every read voltage inf
    config = tmp_path / "long.cfg"
    config.write_text("domain_length_nm = 1e310\n")
    code, out, err = run_cli(capsys, "margin", "--domains", "4", "--config", str(config))
    assert (code, out) == (3, "")
    assert "overflow" in err


def test_config_with_overflowing_conductances_exits_3(capsys, tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text("r_minus_80 = 1e-307\n")
    code, out, err = run_cli(capsys, "margin", "--domains", "30", "--config", str(config))
    assert (code, out) == (3, "")
    assert "r_minus_80 is too small" in err


def test_config_with_smallest_finite_conductances_runs(capsys, tmp_path):
    # the largest bank still conducts a finite amount; a numpy overflow
    # warning would fail this test
    config = tmp_path / "small.cfg"
    config.write_text("r_minus_80 = 1e-306\n")
    code, _, err = run_cli(
        capsys, "variation", "--domains", "30", "--offset-nm", "5", "--config", str(config)
    )
    assert (code, err) == (0, "")


def test_offset_past_an_edge_domain_exits_2(capsys, tmp_path):
    # valid geometry (notch 12 nm < 20 nm), but 11 nm uncovers the 8 nm
    # two-wall edge domain of 0101 under differ/differ
    config = tmp_path / "short.cfg"
    config.write_text("domain_length_nm = 20\n")
    for extra in ((), ("--oracle",)):
        code, out, err = run_cli(
            capsys, "variation", "--domains", "4", "--offset-nm", "11",
            "--borders", "differ,differ", "--config", str(config), *extra,
        )
        assert (code, out) == (2, ""), extra
        assert "edge domain" in err


def test_offset_of_one_notch_length_is_accepted(capsys, tmp_path):
    # the model admits |offset| <= notch_length; the nm value must convert
    # to exactly the meters a config's notch_length_nm converts to
    for argv in (("--domains", "4"), ("--domains", "12", "--borders", "differ,differ")):
        code, out, err = run_cli(capsys, "variation", *argv, "--offset-nm", "12", "--oracle")
        assert (code, err) == (0, ""), argv
        assert "offset 12.000 nm" in out
    config = tmp_path / "thin.cfg"
    config.write_text("notch_length_nm = 0.1\n")
    code, out, err = run_cli(
        capsys, "variation", "--domains", "4", "--offset-nm", "0.1", "--config", str(config)
    )
    assert (code, err) == (0, "")
    assert "offset 0.100 nm" in out


def test_offset_just_past_the_notch_names_both_lengths_apart(capsys):
    code, out, err = run_cli(capsys, "variation", "--domains", "4", "--offset-nm", "12.0000000001")
    assert (code, out) == (2, "")
    assert "offset 12.0000000001 nm exceeds one notch length (12 nm)" in err


def test_offset_one_float_past_the_notch_prints_every_digit(capsys):
    # 12.000000000000002 nm is the float right after the 12 nm notch; only
    # its 17th significant digit tells the two lengths apart
    code, out, err = run_cli(
        capsys, "variation", "--domains", "4", "--offset-nm", "12.000000000000002"
    )
    assert (code, out) == (2, "")
    assert "offset 12.000000000000002 nm exceeds one notch length (12 nm)" in err


def test_model_usage_errors_exit_2(capsys):
    cases = [
        ("variation", "--domains", "4", "--monte-carlo", "0", "--seed", "1"),
        # at and far past the largest count whose float64 buffer numpy accepts
        ("variation", "--domains", "4", "--monte-carlo", str(sys.maxsize // 8), "--seed", "1"),
        ("variation", "--domains", "4", "--monte-carlo", "1" + "0" * 20, "--seed", "1"),
        ("sweep", "--from", "9", "--to", "3", "--threshold-mv", "20"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith("error:") and "internal" not in err


def test_internal_value_error_exits_1(capsys, monkeypatch):
    # a bare ValueError is a fault of the program, not of the input
    def broken(*_args):
        raise ValueError("math domain error")

    monkeypatch.setattr(cli, "enumerate_levels", broken)
    code, out, err = run_cli(capsys, "levels", "--domains", "3")
    assert (code, out) == (1, "")
    assert err == "error: internal: ValueError: math domain error\n"


@pytest.mark.parametrize("detail", ["Unable to allocate 7.11 PiB for an array", ""])
def test_out_of_memory_exits_1_without_a_traceback(capsys, monkeypatch, detail):
    def huge(*_args):
        raise MemoryError(detail)

    monkeypatch.setattr(variation, "sample_offsets", huge)
    code, out, err = run_cli(
        capsys, "variation", "--domains", "4", "--monte-carlo", "1000000000000000", "--seed", "1"
    )
    assert (code, out) == (1, "")
    assert err == f"error: out of memory: {detail or 'an allocation failed'}\n"


def test_module_entry_point_matches_console_script():
    # ``python -m mdmtj.cli`` runs the same code as the ``mdmtj`` script,
    # whose entry point is mdmtj.cli:run
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    module, script = (
        subprocess.run(
            [sys.executable, *entry, "margin", "--domains", "5"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        for entry in (["-m", "mdmtj.cli"], ["-c", "from mdmtj.cli import run; run()"])
    )
    assert (module.returncode, module.stdout, module.stderr) == (0, "25.14 mV\n", "")
    assert (module.returncode, module.stdout, module.stderr) == (
        script.returncode, script.stdout, script.stderr
    )


def test_a_reader_closing_early_ends_the_run_quietly():
    # several MB of rows: the pipe fills long before the run ends, so the
    # write after the reader has gone fails for certain
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["variation", "--domains", "4", "--monte-carlo", "100000", "--seed", "1",
            "--format", "csv"]
    with subprocess.Popen(
        [sys.executable, "-m", "mdmtj.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as process:
        assert process.stdout.readline() == b"# command: variation\n"
        process.stdout.close()
        stderr = process.stderr.read()
        code = process.wait(timeout=60)
    assert (code, stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv",
    [
        ["resistance", "--pattern", "01"],  # fails at the final flush
        ["variation", "--domains", "4", "--monte-carlo", "20000", "--seed", "1",
         "--format", "csv"],  # fails part way through the rows
    ],
)
def test_a_failed_write_to_stdout_exits_1_without_a_traceback(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "mdmtj.cli", *argv],
            env={**os.environ, "PYTHONPATH": path}, stdout=full, stderr=subprocess.PIPE,
            text=True, timeout=60,
        )
    assert (done.returncode, done.stderr) == (
        1, f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.parametrize(
    "mode", [("--offset-nm", "5.5"), ("--monte-carlo", "1000", "--seed", "8")]
)
def test_variation_at_thirty_domains(capsys, mode):
    code, out, err = run_cli(
        capsys, "variation", "--domains", "30", "--borders", "same,differ", *mode,
        "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(out)
    nominal = payload["nominal_min_margin_mv"]
    if "samples" in payload:
        assert len(payload["samples"]) == 1000
        assert payload["min_margin_mv"] <= nominal
        assert all(s["min_margin_mv"] <= nominal for s in payload["samples"])
    else:
        assert payload["perturbed_min_margin_mv"] <= nominal


def test_custom_config_changes_results(capsys, tmp_path):
    config = tmp_path / "device.cfg"
    config.write_text("r_minus_80 = 2000\n")
    code, out, _ = run_cli(
        capsys, "resistance", "--pattern", "00000", "--config", str(config)
    )
    assert (code, out) == (0, "400.00 ohm\n")


def test_oracle_cross_checks_pass(capsys):
    for argv in (
        ("resistance", "--pattern", "01101", "--oracle"),
        ("voltage", "--pattern", "10", "--borders", "differ,differ", "--oracle"),
        ("levels", "--domains", "8", "--oracle"),
        ("margin", "--domains", "5", "--borders", "worst", "--oracle"),
        ("margin", "--domains", "6", "--closed-form", "--oracle"),
        ("sweep", "--from", "2", "--to", "6", "--threshold-mv", "20", "--oracle"),
        ("variation", "--domains", "6", "--offset-nm", "6", "--borders", "differ,same",
         "--oracle"),
        ("variation", "--domains", "5", "--offset-nm", "0", "--oracle"),
        ("variation", "--domains", "7", "--monte-carlo", "50", "--seed", "3",
         "--neighbors", "1", "--oracle"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def test_oracle_above_brute_force_limit(capsys):
    for argv in (
        ("levels", "--domains", "13", "--oracle"),
        ("variation", "--domains", "13", "--offset-nm", "2", "--oracle"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "12 domains" in err


def test_variation_oracle_mismatch_exits_1(capsys, monkeypatch):
    real = oracle.brute_force_offset_margins

    def off_by_one_ulp(*args):
        return np.nextafter(real(*args), np.inf)

    monkeypatch.setattr(oracle, "brute_force_offset_margins", off_by_one_ulp)
    for argv in (
        ("variation", "--domains", "4", "--offset-nm", "3", "--oracle"),
        ("variation", "--domains", "4", "--monte-carlo", "5", "--seed", "1", "--oracle"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "brute-force reference" in err


def test_variation_oracle_catches_a_flipped_sample(capsys, monkeypatch):
    real = variation.sample_offsets

    def one_sample_off(spec, start=0, stop=None):
        offsets = real(spec, start, stop)
        offsets[3] = np.nextafter(offsets[3], np.inf)
        return offsets

    monkeypatch.setattr(variation, "sample_offsets", one_sample_off)
    argv = ("variation", "--domains", "4", "--monte-carlo", "6", "--seed", "1")
    assert run_cli(capsys, *argv)[0] == 0  # the margins follow the offsets they got
    code, out, err = run_cli(capsys, *argv, "--oracle")
    assert (code, out) == (1, "")
    assert "sample 3 offset" in err and "per-sample reference" in err


def test_variation_oracle_catches_a_fallback_row_one_ulp_off(capsys, monkeypatch):
    # the rows the ziggurat's fast path does not settle are drawn by
    # _sampler._settle, and the reference draws them with numpy's Generator:
    # of seed 1's first 200 samples, row 59 is the first such row (a wedge)
    real = _sampler._settle

    def one_ulp_up(*args):
        return math.nextafter(real(*args), math.inf)

    monkeypatch.setattr(_sampler, "_settle", one_ulp_up)
    argv = ("variation", "--domains", "4", "--monte-carlo", "200", "--seed", "1")
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--oracle")
    assert (code, out) == (1, "")
    assert "sample 59 offset" in err and "per-sample reference" in err


def test_sweep_oracle_refuses_a_range_past_the_brute_force_limit(capsys):
    # every row is checked or the run refuses, as every subcommand does
    argv = ("sweep", "--from", "10", "--to", "13", "--threshold-mv", "5", "--oracle")
    assert run_cli(capsys, *argv) == (2, "", "error: --oracle cross-checks stop at 12 domains\n")
    # the sweep's own argument checks come first
    code, out, err = run_cli(capsys, "sweep", "--from", "10", "--to", "31",
                             "--threshold-mv", "5", "--oracle")
    assert (code, out) == (2, "") and "exceeds limit 30" in err
    code, out, err = run_cli(capsys, "sweep", "--from", "9", "--to", "3",
                             "--threshold-mv", "5", "--oracle")
    assert (code, out) == (2, "") and "empty sweep range" in err


def test_sweep_oracle_checks_the_answer_it_prints(capsys, monkeypatch):
    real = cli.sweep_domains

    def one_too_many(*args):
        report = real(*args)
        return report.replace(max_scalable_domains=report.max_scalable_domains + 1)

    monkeypatch.setattr(cli, "sweep_domains", one_too_many)
    argv = ("sweep", "--from", "2", "--to", "6", "--threshold-mv", "20")
    assert run_cli(capsys, *argv)[0] == 0  # every row is still right
    code, out, err = run_cli(capsys, *argv, "--oracle")
    assert (code, out) == (1, "")
    assert "max scalable domains 6" in err and "brute-force worst case: 5" in err


def test_sweep_oracle_catches_an_enumerated_margin_one_ulp_off(capsys, monkeypatch):
    real = cli.sweep_domains

    def one_row_nudged(*args):
        report = real(*args)
        rows = list(report.rows)
        margin = rows[1].enumerated_margin
        rows[1] = rows[1].replace(enumerated_margin=math.nextafter(margin, math.inf))
        return report.replace(rows=tuple(rows))

    monkeypatch.setattr(cli, "sweep_domains", one_row_nudged)
    argv = ("sweep", "--from", "3", "--to", "5", "--threshold-mv", "20")
    assert run_cli(capsys, *argv)[0] == 0  # the table rounds the ulp away
    code, out, err = run_cli(capsys, *argv, "--oracle")
    assert (code, out) == (1, "")
    assert err == (
        "error: enumerated margin at 4 domains disagrees with the brute-force reference\n"
    )


def test_sweep_oracle_checks_a_range_up_to_the_limit(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--from", "10", "--to", "12", "--threshold-mv", "5", "--oracle"
    )
    assert (code, err) == (0, "")
    assert out.count("\n") == 5  # header, three rows, verdict


def _min_margin_one_ulp_up(real):
    def nudged(*args):
        ref = real(*args)
        return ref.replace(min_margin=math.nextafter(ref.min_margin, math.inf))

    return nudged


@pytest.mark.parametrize(
    "reference, argv, mismatch",
    [
        ("brute_force_report", ("levels", "--domains", "5"),
         "5-domain report (same/same) disagrees with the brute-force reference"),
        ("brute_force_report", ("margin", "--domains", "5", "--borders", "differ,same"),
         "5-domain report (differ/same) disagrees with the brute-force reference"),
        ("worst_case_brute_force", ("margin", "--domains", "5", "--borders", "worst"),
         "5-domain report (worst) disagrees with the brute-force reference"),
        ("worst_case_brute_force", ("margin", "--domains", "5", "--closed-form"),
         "differs from the brute-force worst-case margin"),
    ],
)
def test_oracle_catches_a_reference_one_ulp_off(capsys, monkeypatch, reference, argv, mismatch):
    monkeypatch.setattr(oracle, reference, _min_margin_one_ulp_up(getattr(oracle, reference)))
    code, out, err = run_cli(capsys, *argv, "--oracle")
    assert (code, out) == (1, ""), argv
    assert mismatch in err


@pytest.mark.parametrize("command", ["resistance", "voltage"])
def test_oracle_catches_a_pattern_reference_past_its_tolerance(capsys, monkeypatch, command):
    # float and exact resistances differ by rounding, so the check allows a
    # relative 1e-9 and a reference one ulp off passes it; 1e-8 off does not
    real = oracle.rational_pattern_resistance

    def nudged(*args):
        return real(*args) * (1 + Fraction(1, 10**8))

    monkeypatch.setattr(oracle, "rational_pattern_resistance", nudged)
    code, out, err = run_cli(capsys, command, "--pattern", "01101", "--oracle")
    assert (code, out) == (1, "")
    assert "pattern 01101: float path" in err and "vs rational" in err


def test_voltage_oracle_checks_the_voltage_it_prints(capsys, monkeypatch):
    # cli binds network.pattern_voltage when it is imported; the resistance
    # stays right, so only the check of the voltage can catch this nudge,
    # which is below the printed precision
    real = cli.pattern_voltage

    def nudged(*args):
        return real(*args) * (1 + 1e-8)

    argv = ("voltage", "--pattern", "01101", "--borders", "same,differ")
    code, expected, _ = run_cli(capsys, *argv, "--oracle")
    assert code == 0
    monkeypatch.setattr(cli, "pattern_voltage", nudged)
    assert run_cli(capsys, *argv)[:2] == (0, expected)
    code, out, err = run_cli(capsys, *argv, "--oracle")
    assert (code, out) == (1, "")
    assert "pattern 01101: sense voltage" in err and "vs rational" in err


def test_invalid_pattern_exits_2(capsys):
    code, _, err = run_cli(capsys, "resistance", "--pattern", "00x10")
    assert code == 2
    assert err.startswith("error:")
    assert "'x'" in err


def test_worst_borders_rejected_outside_margin(capsys):
    code, _, err = run_cli(capsys, "levels", "--domains", "4", "--borders", "worst")
    assert code == 2
    assert "margin reports only" in err


def test_domain_count_too_large_exits_2(capsys):
    # every subcommand refuses a window length in the words of one policy,
    # below its floor, just past the cap and far past it
    huge = "1" + "0" * 400
    commands = [
        (1, lambda d: ("levels", "--domains", d)),
        (1, lambda d: ("margin", "--domains", d)),
        (1, lambda d: ("margin", "--domains", d, "--borders", "worst")),
        (2, lambda d: ("margin", "--domains", d, "--closed-form")),
        (2, lambda d: ("sweep", "--from", d, "--to", "5", "--threshold-mv", "5")),
        (2, lambda d: ("sweep", "--from", "2", "--to", d, "--threshold-mv", "5")),
        (1, lambda d: ("variation", "--domains", d, "--offset-nm", "1")),
        (1, lambda d: ("variation", "--domains", d, "--monte-carlo", "10", "--seed", "1")),
        # the 30-domain cap comes before the oracle's own 12-domain limit
        (1, lambda d: ("variation", "--domains", d, "--offset-nm", "1", "--oracle")),
    ]
    for floor, argv in commands:
        plural = "s" if floor > 1 else ""
        cases = [
            (str(floor - 1), f"need at least {floor} domain{plural}, got {floor - 1}"),
            ("31", "domain count 31 exceeds limit 30"),
            (huge, f"domain count {huge} exceeds limit 30"),
        ]
        for domains, text in cases:
            result = run_cli(capsys, *argv(domains))
            assert result == (2, "", f"error: {text}\n"), argv(domains[:5])


def test_closed_form_domain_count_too_large_exits_2(capsys):
    # far past the limit the closed form's float arithmetic overflows
    for domains in ("31", "1" + "0" * 400):
        for fmt in ("table", "json"):
            code, out, err = run_cli(
                capsys, "margin", "--domains", domains, "--closed-form", "--format", fmt
            )
            assert (code, out) == (2, ""), (domains[:5], fmt)
            assert "exceeds limit 30" in err


def test_missing_config_exits_3(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "margin", "--domains", "4", "--config", str(tmp_path / "nope.cfg")
    )
    assert code == 3
    assert "cannot read config" in err


def test_non_utf8_config_exits_3(capsys, tmp_path):
    config = tmp_path / "binary.cfg"
    config.write_bytes(b"\xffr_minus_80 = 1911\n")
    code, out, err = run_cli(capsys, "margin", "--domains", "3", "--config", str(config))
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot read config")
    assert "decode" in err


def test_broken_config_exits_3(capsys, tmp_path):
    config = tmp_path / "dup.cfg"
    config.write_text("r_minus_80 = 1911\nr_minus_80 = 1900\n")
    code, _, err = run_cli(capsys, "margin", "--domains", "4", "--config", str(config))
    assert code == 3
    assert "r_minus_80" in err


def test_variation_usage_errors(capsys):
    cases = [
        ("variation", "--domains", "4", "--offset-nm", "13"),
        ("variation", "--domains", "31", "--offset-nm", "5"),
        ("variation", "--domains", "4", "--offset-nm", "5", "--format", "csv"),
        ("variation", "--domains", "4", "--offset-nm", "5", "--seed", "3"),
        ("variation", "--domains", "4", "--monte-carlo", "10"),
        ("variation", "--domains", "4", "--monte-carlo", "10", "--seed", "-1"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, (argv, err)
        assert err.startswith("error:")


def test_non_finite_floats_exit_2(capsys):
    cases = [
        ("variation", "--domains", "4", "--offset-nm", "nan"),
        ("variation", "--domains", "4", "--offset-nm=-inf", "--format", "json"),
        ("sweep", "--from", "2", "--to", "4", "--threshold-mv", "nan"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), (argv, err)
        assert "must be a finite number" in err


def test_bad_source_date_epoch_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    target = tmp_path / "levels.json"
    code, _, err = run_cli(
        capsys, "levels", "--domains", "4", "--format", "json", "--out", str(target)
    )
    assert code == 2
    assert err.startswith("error: SOURCE_DATE_EPOCH")
    assert not target.exists()


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out == "mdmtj 0.1.0\n"


def test_no_arguments_is_a_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_conflicting_margin_modes(capsys):
    code, _, _ = run_cli(
        capsys, "margin", "--domains", "5", "--closed-form", "--borders", "same,same"
    )
    assert code == 2


# Every --help text, captured at 80 columns (argparse wraps to the terminal
# width). Regenerate only on a deliberate change of an option or its help:
#     COLUMNS=80 mdmtj [COMMAND] --help > tests/help/{mdmtj,COMMAND}.txt
HELP = Path(__file__).parent / "help"


@pytest.mark.parametrize("command", sorted(p.stem for p in HELP.iterdir()))
def test_help_matches_its_pin(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = () if command == "mdmtj" else (command,)
    assert run_cli(capsys, *argv, "--help") == (0, (HELP / f"{command}.txt").read_text(), "")
