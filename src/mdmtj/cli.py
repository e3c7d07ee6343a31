"""Command-line front end.

Subcommands map one-to-one onto the analysis modules: ``resistance`` and
``voltage`` evaluate a single pattern, ``levels`` lists the weight clusters,
``margin`` reports the minimum sense margin (enumerated or closed form),
``sweep`` scans domain counts against a margin threshold, and ``variation``
runs the misalignment study (fixed offset or seeded Monte Carlo). Every
query is a new process, so each handler imports the analysis module it runs
on first use, binding the names the package's export map ``mdmtj._HOME``
places there, and ``json`` and ``datetime`` load only for CSV/JSON output.

With the hidden ``--oracle`` flag, a handler also passes its result to one
check of ``oracle``, imported on that path only (``_oracle``), which
recomputes the result by brute force and raises on any disagreement, or
refuses above 12 domains (``oracle.check_limit``, after the analyses' own
domain range).

Each subcommand handler returns one ``_Result``; a single emitter writes it
as a table, CSV or JSON. Machine-readable outputs (CSV/JSON) embed a run
manifest: command, tool version, arguments, the effective characterization,
and a timestamp. The timestamp honors SOURCE_DATE_EPOCH so pinned-environment
runs are byte-identical; everything else is deterministic by construction.

Exit codes: 0 success, 2 usage or invalid pattern, 3 configuration error,
1 internal error, 141 (128 + SIGPIPE) when the reader of stdout closes it
before the output ends, as ``| head`` does.

``run()``, the entry point of the ``mdmtj`` script and of ``python -m
mdmtj.cli``, flushes stdout and stderr after ``main()`` returns and then
ends the process with ``os._exit``. The interpreter's teardown (a last full
garbage collection, clearing every module, freeing every object) writes
nothing and costs a short query about a tenth of its time. A failed final
flush keeps the exit codes above. ``run()`` also sets
``OPENBLAS_NUM_THREADS`` to 1 unless the user set it (their value wins):
mdmtj makes no BLAS call, and the OpenBLAS worker that numpy starts for a
second core spins while numpy loads, which made a bare ``import numpy`` take
232 ms against 147 ms with one thread (medians of 20, 2-core host). Library
callers use ``main()``, which returns the exit code and leaves the
interpreter running and its environment as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import importlib
import itertools
import math
import os
import sys
import time
from decimal import Decimal
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence, Union

from . import _HOME, __version__
from .characterization import (
    Characterization,
    _Record,
    config_mapping,
    default_characterization,
    load_config,
)
from .errors import ConfigError, ModelError, UsageError
from .network import BorderCondition, pattern_resistance, pattern_voltage

if TYPE_CHECKING:
    from .margins import (
        MarginReport,
        SweepReport,
        closed_form_min_margin,
        closed_form_resistances,
        cluster_extremes,
        enumerate_levels,
        sweep_domains,
        worst_case_levels,
    )
    from .variation import (
        MisalignmentSpec,
        MonteCarloSpec,
        NeighborAssumption,
        monte_carlo_margins,
        offset_margin_report,
    )

# The handlers call the names ``mdmtj._HOME`` maps to ``margins`` and
# ``variation``, bound here by ``_need`` on first use: ``resistance`` and
# ``voltage`` compile neither module, ``levels``, ``margin`` and ``sweep`` no
# ``variation``. A name rebound before that (a tracer's wrapper, a test's
# stub) keeps its binding.
def _need(home: str) -> None:
    module = importlib.import_module(f".{home}", __package__)
    for name, where in _HOME.items():
        if where == home:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str) -> object:
    # ``cli.enumerate_levels`` resolves before any handler has run
    home = _HOME.get(name)
    if home in ("margins", "variation"):
        _need(home)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _oracle() -> Any:
    from . import oracle

    return oracle


_USAGE_ERROR = 2
_CONFIG_ERROR = 3
_INTERNAL_ERROR = 1
_BROKEN_PIPE = 141


def _is_worst(text: str) -> bool:
    return text.strip().lower() == "worst"


def _parse_borders(text: str) -> BorderCondition:
    if _is_worst(text):
        raise UsageError(
            "--borders worst applies to margin reports only;"
            " pick one of same,same / same,differ / differ,same / differ,differ"
        )
    return BorderCondition.parse(text)  # a PatternError is a UsageError


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


# --- results and emission ------------------------------------------------------

# A column is a bare name (value emitted as is) or (name, scale, decimals):
# CSV prints "%.{decimals}f" % (value * scale), JSON
# repr(round(value * scale, decimals)); None is "" / null.
_Column = Union[str, tuple[str, float, int]]

# text per write call, in bytes: a write takes as many rows as fit at the
# row's template and separator plus _CELL_BYTES a cell, 9198 CSV or 4064
# JSON Monte Carlo rows and 2416 JSON `levels` rows. Fewer rows a write cost
# more per row (CSV rows 12 % more at 4096 than at 8192); more hold more
# text and cells at once. An unbuffered stdout (python -u, PYTHONUNBUFFERED)
# costs a system call per write, not per row
_WRITE_BYTES = 512 * 1024
_CELL_BYTES = 16
# stands in for the rows in the JSON payload until they are spliced in
_ROWS_PLACEHOLDER = "\x00rows"


class _Result(_Record):
    """One subcommand's answer, stated once for every output format.

    ``table`` renders the human-readable text. JSON carries ``head``, then the
    rows under ``rows_key`` (when there is one), then ``tail``; CSV carries the
    rows alone. ``values`` holds one sequence per column, all of one length.
    When every column is an ndarray or a ``range`` (a Monte Carlo result),
    ``_rows`` formats the rows in numpy, to the bytes the cell-by-cell path
    prints. Frozen like every record; the default ``head`` and ``tail`` are
    one shared empty dict, which no caller changes.
    """

    __slots__ = _fields = (
        "command", "arguments", "table", "head", "rows_key", "columns", "values", "tail",
        "seed",
    )
    _defaults = {
        "head": {}, "rows_key": None, "columns": (), "values": (), "tail": {}, "seed": None
    }


def _timestamp() -> str:
    from datetime import datetime, timezone

    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        epoch = int(pinned) if pinned else int(time.time())
        return datetime.fromtimestamp(epoch, timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise UsageError(
            f"SOURCE_DATE_EPOCH must be a whole number of seconds, got {pinned!r}"
        ) from None


def _manifest(result: _Result, char: Characterization) -> dict[str, Any]:
    manifest: dict[str, Any] = {"command": result.command, "version": __version__}
    if result.seed is not None:
        manifest["seed"] = result.seed
    manifest["timestamp"] = _timestamp()
    manifest["arguments"] = dict(result.arguments)
    manifest["configuration"] = dict(config_mapping(char))
    return manifest


def _manifest_comments(manifest: dict[str, Any]) -> list[str]:
    keys = [key for key in ("command", "version", "seed", "timestamp") if key in manifest]
    lines = [f"# {key}: {manifest[key]}" for key in keys]
    lines += [f"# {name}: {value}" for name, value in manifest["arguments"].items()]
    pairs = " ".join(f"{k}={v}" for k, v in manifest["configuration"].items())
    return lines + [f"# config: {pairs}"]


def _column_name(column: _Column) -> str:
    return column if isinstance(column, str) else column[0]


def _csv_cells(column: _Column, values: Sequence[Any]) -> list[str]:
    # no cell needs quoting: integers, bit strings and fixed-point numbers
    if isinstance(column, str):
        return ["" if value is None else str(value) for value in values]
    _, scale, decimals = column
    spec = f"%.{decimals}f"
    return ["" if value is None else spec % (value * scale) for value in values]


def _json_cells(column: _Column, values: Sequence[Any]) -> list[str]:
    # what json.dumps prints: repr for an int or a finite float, and for a
    # str the escaper json.dumps calls with its default arguments
    import json

    if isinstance(column, str):
        if all(type(value) is str for value in values):
            return list(map(json.encoder.encode_basestring_ascii, values))
        return [repr(value) if type(value) is int else json.dumps(value) for value in values]
    _, scale, decimals = column
    return ["null" if value is None else repr(round(value * scale, decimals)) for value in values]


def _row_chunks(result: _Result, fmt: str, template: str, separator: str) -> Iterator[str]:
    """The rows as ``fmt`` text, about ``_WRITE_BYTES`` at a time: one
    ``template`` per row, the rows joined by ``separator``. Each column's
    slice is formatted in one pass, by ``_rows`` in numpy when every column
    is an array or a range (a Monte Carlo result), else cell by cell."""
    cells = _csv_cells if fmt == "csv" else _json_cells
    rows = len(result.values[0]) if result.values else 0
    arrays = all(
        isinstance(values, range) if isinstance(column, str) else hasattr(values, "dtype")
        for column, values in zip(result.columns, result.values)
    )
    if rows and arrays:
        from . import _rows
    row_bytes = len(template) + len(separator) + _CELL_BYTES * len(result.columns)
    step = _WRITE_BYTES // row_bytes
    for start in range(0, rows, step):
        parts = [values[start : start + step] for values in result.values]
        if arrays:
            yield _rows.rows_text(result.columns, parts, fmt, cells, template, separator)
            continue
        columns = [
            cells(column, part.tolist() if hasattr(part, "tolist") else part)
            for column, part in zip(result.columns, parts)
        ]
        text = separator.join(map(template.__mod__, zip(*columns)))
        del columns  # the cells go before the text is written
        yield text


def _text(result: _Result, char: Characterization, fmt: str) -> Iterator[str]:
    """``result`` as table, csv or json text, in pieces to write in turn."""
    if fmt == "table":
        yield result.table()
        return
    manifest = _manifest(result, char)
    names = [_column_name(column) for column in result.columns]
    if fmt == "csv":
        yield "".join(line + "\n" for line in _manifest_comments(manifest)) + ",".join(names) + "\n"
        yield from _row_chunks(result, "csv", ",".join(["%s"] * len(names)) + "\n", "")
        return
    import json

    payload: dict[str, object] = {"manifest": manifest, **result.head}
    if result.rows_key is not None:
        payload[result.rows_key] = _ROWS_PLACEHOLDER
    payload.update(result.tail)
    text = json.dumps(payload, indent=2) + "\n"
    if result.rows_key is None:
        yield text
        return
    # json.dumps(indent=2) would print each row object at depth 2 after "[\n",
    # separated by ",\n", with "\n  ]" after the last; "[]" when there is none
    before, _, after = text.partition(json.dumps(_ROWS_PLACEHOLDER))
    fields = ",\n".join(f"      {json.dumps(name)}: %s" for name in names)
    chunks = _row_chunks(result, "json", "    {\n" + fields + "\n    }", ",\n")
    first = next(chunks, None)
    if first is None:
        yield before + "[]" + after
        return
    yield before + "[\n"  # not joined to the rows: no second copy of them
    yield first
    for chunk in chunks:
        yield ",\n" + chunk
    yield "\n  ]" + after


def _write_stdout(pieces: Iterable[str] = ()) -> None:
    """Write ``pieces`` to stdout and flush it, so that a failed write raises
    here: BrokenPipeError when the reader has gone, ModelError on any other
    failure (a full disk, or no stdout at all: ``sys.stdout`` is None when
    the process began with it closed). After a failed write what is still
    buffered goes to devnull, so no later flush fails again."""
    if sys.stdout is None:
        raise ModelError(f"cannot write standard output: {os.strerror(errno.EBADF)}")
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise
        raise ModelError(f"cannot write standard output: {exc.strerror or exc}") from None


def _emit(result: _Result, char: Characterization, fmt: str, out: str | None) -> None:
    """Write ``result`` to ``out`` (stdout when None) as table, csv or json,
    one write call per piece of ``_text``."""
    pieces = _text(result, char, fmt)
    first = next(pieces)  # the manifest: a bad SOURCE_DATE_EPOCH refuses before any output
    if out is None:
        _write_stdout(itertools.chain((first,), pieces))
        return
    try:
        with open(out, "w") as stream:
            stream.write(first)
            stream.writelines(pieces)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _mv(volts: float) -> float:
    return round(volts * 1e3, 2)


# --- subcommand handlers --------------------------------------------------------


def _cmd_resistance(args: argparse.Namespace, char: Characterization) -> _Result:
    borders = _parse_borders(args.borders)
    ohms = pattern_resistance(args.pattern, borders, char)
    if args.oracle:
        _oracle().check_pattern(args.pattern, borders, ohms, char)
    return _Result("resistance", {}, lambda: f"{ohms:.2f} ohm\n")


def _cmd_voltage(args: argparse.Namespace, char: Characterization) -> _Result:
    borders = _parse_borders(args.borders)
    volts = pattern_voltage(args.pattern, borders, char)
    if args.oracle:
        ohms = pattern_resistance(args.pattern, borders, char)
        _oracle().check_pattern(args.pattern, borders, ohms, char, volts)
    return _Result("voltage", {}, lambda: f"{volts * 1e3:.2f} mV\n")


def _levels_table(report: MarginReport) -> str:
    lines = [
        f"{report.domains}-domain levels, borders {report.convention_label},"
        f" read current {report.read_current * 1e6:.2f} uA"
    ]
    for cluster in report.clusters:
        lines.append(
            f"weight {cluster.weight}: {cluster.pattern_count} pattern(s),"
            f" R [{cluster.min_resistance:.2f}, {cluster.max_resistance:.2f}] ohm,"
            f" V [{cluster.min_voltage * 1e3:.2f}, {cluster.max_voltage * 1e3:.2f}] mV"
        )
        for entry in cluster.classes:
            lines.append(
                f"  {entry.representative}  x{entry.multiplicity}"
                f"  {entry.resistance:.2f} ohm  {entry.voltage * 1e3:.2f} mV"
            )
    lines.append(
        f"minimum margin {report.min_margin * 1e3:.2f} mV between weights"
        f" {report.min_margin_pair[0]} and {report.min_margin_pair[1]}"
    )
    return "\n".join(lines) + "\n"


def _cmd_levels(args: argparse.Namespace, char: Characterization) -> _Result:
    _need("margins")
    borders = _parse_borders(args.borders)
    report = enumerate_levels(args.domains, borders, char)
    if args.oracle:
        _oracle().check_report(report, char)
    arguments = {"domains": args.domains, "borders": str(borders)}
    return _Result(
        "levels",
        arguments,
        lambda: _levels_table(report),
        head={**arguments, "read_current_ua": round(report.read_current * 1e6, 2)},
        rows_key="classes",
        columns=("pattern_class", "weight", "multiplicity",
                 ("resistance_ohm", 1.0, 2), ("voltage_mv", 1e3, 2)),
        values=tuple(zip(*(
            (entry.representative, cluster.weight, entry.multiplicity,
             entry.resistance, entry.voltage)
            for cluster in report.clusters
            for entry in cluster.classes
        ))),
        tail={"min_margin_mv": _mv(report.min_margin)},
    )


def _cmd_margin(args: argparse.Namespace, char: Characterization) -> _Result:
    _need("margins")
    if args.closed_form:
        r_one, r_zero = closed_form_resistances(args.domains, char.table)
        volts = closed_form_min_margin(args.domains, char)
        if args.oracle:
            _oracle().check_closed_form(args.domains, volts, char)
        convention = "closed-form"
        rows = [(0, 1, r_zero, r_one, volts)]
    else:
        if _is_worst(args.borders):
            report = worst_case_levels(args.domains, char)
        else:
            report = cluster_extremes(args.domains, _parse_borders(args.borders), char)
        if args.oracle:
            _oracle().check_report(report, char)
        convention = report.convention_label
        volts = report.min_margin
        rows = [
            (m.weight_low, m.weight_high, m.r_low_max, m.r_high_min, m.margin)
            for m in report.adjacent_margins
        ]
    arguments = {"domains": args.domains, "convention": convention}
    return _Result(
        "margin",
        arguments,
        lambda: f"{volts * 1e3:.2f} mV\n",
        head=arguments,
        rows_key="rows",
        columns=("weight_low", "weight_high", ("r_low_max_ohm", 1.0, 2),
                 ("r_high_min_ohm", 1.0, 2), ("margin_mv", 1e3, 2)),
        values=tuple(zip(*rows)),
        tail={"min_margin_mv": _mv(volts)},
    )


def _sweep_table(report: SweepReport, threshold_mv: float) -> str:
    lines = [f"{'domains':>7}  {'closed_form_mv':>14}  {'enumerated_mv':>13}"]
    for row in report.rows:
        enum_text = (
            f"{row.enumerated_margin * 1e3:.2f}" if row.enumerated_margin is not None else "-"
        )
        lines.append(
            f"{row.domains:>7}  {row.closed_form_margin * 1e3:>14.2f}  {enum_text:>13}"
        )
    if report.max_scalable_domains is None:
        lines.append(f"no domain count meets {threshold_mv:.2f} mV")
    else:
        lines.append(
            f"threshold {threshold_mv:.2f} mV -> max scalable domains:"
            f" {report.max_scalable_domains}"
        )
    return "\n".join(lines) + "\n"


def _cmd_sweep(args: argparse.Namespace, char: Characterization) -> _Result:
    _need("margins")
    borders = _parse_borders(args.borders)
    report = sweep_domains(args.d_min, args.d_max, args.threshold_mv / 1e3, borders, char)
    if args.oracle:
        _oracle().check_sweep(report, char)
    return _Result(
        "sweep",
        {"from": args.d_min, "to": args.d_max, "threshold_mv": args.threshold_mv,
         "borders": str(borders)},
        lambda: _sweep_table(report, args.threshold_mv),
        head={"threshold_mv": args.threshold_mv, "borders": str(borders)},
        rows_key="rows",
        columns=("domains", ("closed_form_margin_mv", 1e3, 2), ("enumerated_margin_mv", 1e3, 2)),
        values=tuple(zip(*(
            (row.domains, row.closed_form_margin, row.enumerated_margin) for row in report.rows
        ))),
        tail={"max_scalable_domains": report.max_scalable_domains},
    )


def _cmd_variation(args: argparse.Namespace, char: Characterization) -> _Result:
    _need("variation")
    borders = _parse_borders(args.borders)
    neighbors = NeighborAssumption(args.neighbors)  # argparse checked the choice
    if args.oracle:
        # refuse before the study's own checks, and before any sample is drawn
        _oracle().check_limit(args.domains)
    if args.offset_nm is not None:
        return _fixed_offset(args, borders, neighbors, char)

    if args.seed is None:
        raise UsageError("--monte-carlo requires --seed for a reproducible run")
    spec = MonteCarloSpec(samples=args.monte_carlo, seed=args.seed)
    report = monte_carlo_margins(
        args.domains, borders, spec, char, left_neighbor=neighbors, right_neighbor=neighbors
    )
    if args.oracle:
        _oracle().check_offset_margins(report, char)
    table = (
        f"nominal min margin: {report.nominal_min_margin * 1e3:.2f} mV\n"
        f"samples: {spec.samples}  seed: {spec.seed}"
        f"  sigma: {spec.sigma * 1e9:.3f} nm"
        f" ({spec.truncation:.0f} sigma = {spec.sigma * spec.truncation * 1e9:.3f} nm)\n"
        f"mean: {report.mean_margin * 1e3:.2f} mV"
        f"  stddev: {report.stddev_margin * 1e3:.2f} mV"
        f"  min: {report.min_margin * 1e3:.2f} mV"
        f"  p01: {report.p01_margin * 1e3:.2f} mV\n"
    )
    return _Result(
        "variation",
        {
            "domains": args.domains,
            "borders": str(borders),
            "samples": spec.samples,
            "sigma_nm": f"{spec.sigma * 1e9:.6f}",
            "truncation_sigmas": spec.truncation,
            "neighbors": neighbors.value,
        },
        lambda: table,
        head={
            "domains": args.domains,
            "borders": str(borders),
            "neighbors": neighbors.value,
            "nominal_min_margin_mv": _mv(report.nominal_min_margin),
            "mean_margin_mv": _mv(report.mean_margin),
            "stddev_margin_mv": _mv(report.stddev_margin),
            "min_margin_mv": _mv(report.min_margin),
            "p01_margin_mv": _mv(report.p01_margin),
        },
        rows_key="samples",
        columns=("sample", ("delta_nm", 1e9, 6), ("min_margin_mv", 1e3, 2)),
        values=(range(spec.samples), report.offsets, report.margins),
        seed=spec.seed,
    )


def _fixed_offset(
    args: argparse.Namespace,
    borders: BorderCondition,
    neighbors: NeighborAssumption,
    char: Characterization,
) -> _Result:
    if args.format == "csv":
        raise UsageError(
            "csv output is defined for monte carlo runs only;"
            " fixed-offset reports are table or json"
        )
    if args.seed is not None:
        raise UsageError("--seed applies to --monte-carlo runs only")
    # nm to meters in one rounding, as the config converts its *_nm keys, so
    # an offset equal to notch_length_nm passes the notch bound
    offset = float(Decimal(repr(args.offset_nm)).scaleb(-9))
    spec = MisalignmentSpec(offset, neighbors, neighbors)
    report = offset_margin_report(args.domains, borders, spec, char)
    if args.oracle:
        _oracle().check_offset_margins(report, char)
    nominal_mv = report.nominal_min_margin * 1e3
    reduction_mv = report.margin_deviation * 1e3
    percent = 100.0 * reduction_mv / nominal_mv if nominal_mv else 0.0
    table = (
        f"nominal min margin: {nominal_mv:.2f} mV\n"
        f"offset {abs(args.offset_nm):.3f} nm (worst sign) min margin:"
        f" {report.perturbed_min_margin * 1e3:.2f} mV\n"
        f"reduction: {reduction_mv:.2f} mV ({percent:.2f}%)\n"
    )
    arguments = {
        "domains": args.domains,
        "borders": str(borders),
        "offset_nm": args.offset_nm,
        "neighbors": neighbors.value,
    }
    return _Result(
        "variation",
        arguments,
        lambda: table,
        head={
            **arguments,
            "nominal_min_margin_mv": _mv(report.nominal_min_margin),
            "perturbed_min_margin_mv": _mv(report.perturbed_min_margin),
            "reduction_mv": _mv(report.margin_deviation),
        },
    )


# --- parser and entry points ----------------------------------------------------


def _add_borders(
    parser: Any,
    text: str = "border convention: same,same / same,differ / differ,same / differ,differ",
) -> None:
    parser.add_argument("--borders", default="same,same", metavar="CONV", help=text)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdmtj",
        description="Multi-domain MTJ resistance, sense margin, and variation analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, what, handler in (
        ("resistance", "equivalent resistance", _cmd_resistance),
        ("voltage", "sense voltage", _cmd_voltage),
    ):
        p = sub.add_parser(name, help=f"{what} of one pattern")
        p.add_argument("--pattern", required=True, help="bit string, e.g. 00010")
        _add_borders(p)
        # one table line; no --format or --out
        p.set_defaults(handler=handler, format="table", out=None)

    p = sub.add_parser("levels", help="weight clusters and resistance classes")
    p.add_argument("--domains", type=int, required=True, metavar="D")
    _add_borders(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_levels)

    p = sub.add_parser("margin", help="minimum sense margin")
    p.add_argument("--domains", type=int, required=True, metavar="D")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--closed-form",
        action="store_true",
        help="worst-case closed form instead of enumeration",
    )
    _add_borders(group, "border convention, or worst for the extreme over all four")
    _add_format(p)
    p.set_defaults(handler=_cmd_margin)

    p = sub.add_parser("sweep", help="margins across a domain-count range")
    p.add_argument("--from", dest="d_min", type=int, required=True, metavar="D")
    p.add_argument("--to", dest="d_max", type=int, required=True, metavar="D")
    p.add_argument("--threshold-mv", type=_finite_float, required=True, metavar="MV")
    _add_borders(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("variation", help="misalignment study: fixed offset or Monte Carlo")
    p.add_argument("--domains", type=int, required=True, metavar="D")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--offset-nm", type=_finite_float, metavar="NM", help="fixed offset magnitude"
    )
    mode.add_argument("--monte-carlo", type=int, metavar="N", help="number of random samples")
    p.add_argument("--seed", type=int, metavar="S", help="RNG seed (required with --monte-carlo)")
    p.add_argument(
        "--neighbors",
        default="worst",
        choices=("0", "1", "worst"),
        help="assumed out-of-window neighbor bits",
    )
    _add_borders(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_variation)

    for p in sub.choices.values():  # the last options of every subcommand
        p.add_argument("--config", metavar="FILE", help="characterization file (key = value)")
        # hidden: recompute through the independent reference path and exit 1
        # on any disagreement
        p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        char = default_characterization() if args.config is None else load_config(args.config)
        _emit(args.handler(args, char), char, args.format, args.out)
        return 0
    except BrokenPipeError:  # the reader of stdout has gone
        return _BROKEN_PIPE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INTERNAL_ERROR
    except ValueError as exc:
        # no input error arrives untyped, so this is a fault of the program
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _INTERNAL_ERROR
    except MemoryError as exc:
        # a request larger than this host holds, such as a huge --monte-carlo
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return _INTERNAL_ERROR


def run() -> None:
    """The ``mdmtj`` entry point: ``main``, then a flush of stdout and stderr
    and ``os._exit``, which skips the interpreter's teardown."""
    # mdmtj makes no BLAS call; OpenBLAS reads this once, when numpy loads it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    try:
        if sys.stdout is not None:  # None when the process began with it closed
            _write_stdout()  # what argparse left buffered: --help, --version
    except BrokenPipeError:
        code = _BROKEN_PIPE
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = _INTERNAL_ERROR
    with contextlib.suppress(OSError):  # a failed flush of stderr has nowhere to go
        if sys.stderr is not None:
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
