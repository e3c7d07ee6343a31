"""Untimed output checker for benchmark jobs.

Each job's output is parsed and checked against references that do not go
through the production code path under test:

- D <= 12: every emitted field must equal the brute-force oracle
  (``oracle.brute_force_report`` / ``oracle.worst_case_brute_force``) on the
  generated characterization, after the same rounding the CLI applies.
- D > 12: invariants. Multiplicities at each weight sum to C(D, w); every
  listed class resistance is recomputed from its representative pattern by
  the oracle's independent segment counter; ``levels`` and ``margin`` agree
  at the same D and borders; the worst-case margin is at most every
  per-convention margin and at most the closed form, which is recomputed in
  exact rational arithmetic.
- Single patterns: the oracle's float path, and exact rationals within 1e-9.
- Misalignment: fixed offsets are re-derived pattern by pattern through the
  scalar ``apply_misalignment`` + ``perturbed_resistance`` path. Monte Carlo
  output is checked for row count, sample indices, |delta| <= 6 sigma,
  summary statistics recomputed from the emitted rows, every row's margin
  against the margin engine at the emitted offset, and a few rows against
  the scalar path. The sample stream itself is not pinned.

Every manifest must carry the pinned timestamp, the job's arguments and the
generated configuration.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from mdmtj import oracle
from mdmtj.characterization import SegmentKind, config_mapping, parse_config
from mdmtj.network import BorderCondition
from mdmtj.variation import (
    MisalignmentSpec,
    NeighborAssumption,
    apply_misalignment,
    min_margins_for_offsets,
    perturbed_resistance,
)

PINNED_TIMESTAMP = "1970-01-01T00:00:00+00:00"  # SOURCE_DATE_EPOCH=0

# A Monte Carlo row's margin is rounded to 0.01 mV from an offset that is
# itself emitted rounded, so a recomputed margin may land one step away.
_ROW_TOLERANCE_MV = 0.0105
# Summary statistics recomputed from rows rounded to 0.01 mV.
_SUMMARY_TOLERANCE_MV = 0.011
_SCALAR_SAMPLES = {4: 20, 12: 1}

_TABLE_VALUE = re.compile(r"^(-?\d+\.\d{2}) (ohm|mV)\n$")


class CheckFailure(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def parse_options(argv: tuple[str, ...]) -> tuple[str, dict[str, object]]:
    """Split a job command line into subcommand and option values."""
    command, options = argv[0], {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            options[key] = argv[i + 1]
            i += 2
        else:
            options[key] = True
            i += 1
    return command, options


def _mv(volts: float) -> float:
    return round(volts * 1e3, 2)


def _table_value(text: str, unit: str) -> float:
    match = _TABLE_VALUE.match(text)
    _require(match is not None and match.group(2) == unit, f"unexpected output {text[:80]!r}")
    return float(match.group(1))


def _csv_parts(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    lines = text.splitlines()
    comments = {}
    body_start = 0
    for body_start, line in enumerate(lines):
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(": ")
        comments[key] = value
    rows = list(csv.reader(io.StringIO("\n".join(lines[body_start:]))))
    _require(bool(rows), "csv output has no header")
    return comments, rows[0], rows[1:]


@dataclass
class _Records:
    """Values kept for checks that span two jobs, keyed to job indices."""

    levels: list[tuple[int, int, str, dict[int, list[float]], float | None]] = field(
        default_factory=list
    )
    margins: list[tuple[int, int, str, list[tuple[float, float]], float]] = field(
        default_factory=list
    )
    closed_form: list[tuple[int, int, float]] = field(default_factory=list)


class Checker:
    """Checks the outputs of one job list against one generated config."""

    def __init__(self, config_text: str):
        self.char = parse_config(config_text)
        self.config = config_mapping(self.char)
        self._brute: dict[tuple[int, str | None], object] = {}

    # --- references -----------------------------------------------------------

    def _reference(self, domains: int, borders: BorderCondition | None):
        key = (domains, None if borders is None else str(borders))
        if key not in self._brute:
            if borders is None:
                self._brute[key] = oracle.worst_case_brute_force(domains, self.char)
            else:
                self._brute[key] = oracle.brute_force_report(domains, borders, self.char)
        return self._brute[key]

    def _current(self, domains: int) -> float:
        geometry = self.char.geometry
        return (
            self.char.drive.current_density
            * domains
            * (geometry.domain_length * geometry.track_width)
        )

    def _closed_form_mv(self, domains: int) -> float:
        """Closed-form first-gap margin in exact rationals: a lone 1 at the
        edge next to a differing neighbor against the all-0 word with both
        neighbors differing."""
        e = self.char.table.exact
        k = SegmentKind
        g_one = (
            Fraction(domains - 2) / e(k.DOMAIN_MINUS_FULL)
            + 1 / e(k.DOMAIN_MINUS_MID)
            + 1 / e(k.DOMAIN_PLUS_SHORT)
            + 1 / e(k.WALL_01)
            + 1 / e(k.HALF_WALL_PLUS)
        )
        g_zero = (
            Fraction(domains - 2) / e(k.DOMAIN_MINUS_FULL)
            + 2 / e(k.DOMAIN_MINUS_MID)
            + 2 / e(k.HALF_WALL_MINUS)
        )
        return float(Fraction(self._current(domains)) * (1 / g_one - 1 / g_zero) * 1000)

    def _scalar_margin(
        self,
        domains: int,
        borders: BorderCondition,
        offset: float,
        neighbors: NeighborAssumption,
    ) -> float:
        """Minimum margin under one signed offset, one pattern at a time."""
        geometry, table = self.char.geometry, self.char.table
        low = [math.inf] * (domains + 1)
        high = [-math.inf] * (domains + 1)
        assumptions = [NeighborAssumption.ONE if b else NeighborAssumption.ZERO
                       for b in neighbors.bits]
        for value in range(2**domains):
            bits = format(value, f"0{domains}b")
            weight = bits.count("1")
            for assumption in assumptions:
                spec = MisalignmentSpec(offset, assumption, assumption)
                r = perturbed_resistance(
                    apply_misalignment(bits, borders, spec, geometry), table, geometry
                )
                low[weight] = min(low[weight], r)
                high[weight] = max(high[weight], r)
        current = self._current(domains)
        return min(current * low[w + 1] - current * high[w] for w in range(domains))

    # --- manifests --------------------------------------------------------------

    def _json_manifest(self, manifest: dict, command: str, arguments: dict,
                       seed: int | None = None) -> None:
        _require(manifest.get("command") == command, "manifest names the wrong command")
        _require(manifest.get("timestamp") == PINNED_TIMESTAMP, "manifest timestamp not pinned")
        _require(manifest.get("seed") == seed, "manifest seed differs from the job's")
        got = dict(manifest.get("arguments", {}))
        got.pop("sigma_nm", None)
        got.pop("truncation_sigmas", None)
        _require(got == arguments, f"manifest arguments {got} differ from {arguments}")
        _require(manifest.get("configuration") == self.config,
                 "manifest configuration differs from the generated config")

    def _csv_manifest(self, comments: dict[str, str], command: str, arguments: dict,
                      seed: int | None = None) -> None:
        manifest = {
            "command": comments.get("command"),
            "timestamp": comments.get("timestamp"),
            "seed": int(comments["seed"]) if "seed" in comments else None,
            "arguments": {
                key: value for key, value in comments.items()
                if key not in ("command", "version", "timestamp", "seed", "config")
            },
            "configuration": dict(
                pair.split("=", 1) for pair in comments.get("config", "").split()
            ),
        }
        self._json_manifest(manifest, command, {k: str(v) for k, v in arguments.items()}, seed)

    # --- per-job checks -----------------------------------------------------------

    def check_pass(self, jobs: list[tuple[str, ...]], outputs: list[bytes]) -> list[str | None]:
        """One failure reason (or None) per job; cross-job checks included."""
        reasons: list[str | None] = [None] * len(jobs)
        records = _Records()
        for index, (job, output) in enumerate(zip(jobs, outputs)):
            try:
                self._check_job(index, job, output.decode("utf-8"), records)
            except CheckFailure as exc:
                reasons[index] = str(exc)
            except (ValueError, KeyError, TypeError, IndexError, UnicodeDecodeError) as exc:
                reasons[index] = f"unparseable output: {type(exc).__name__}: {exc}"
        for indices, message in self._cross_checks(records):
            for index in indices:
                reasons[index] = reasons[index] or message
        return reasons

    def _check_job(self, index: int, job: tuple[str, ...], text: str, records: _Records) -> None:
        command, opts = parse_options(job)
        if command in ("resistance", "voltage"):
            self._check_pattern(command, opts, text)
        elif command == "levels":
            self._check_levels(index, opts, text, records)
        elif command == "margin":
            self._check_margin(index, opts, text, records)
        elif command == "sweep":
            self._check_sweep(index, opts, text, records)
        elif command == "variation" and "offset-nm" in opts:
            self._check_offset(opts, text)
        elif command == "variation":
            self._check_monte_carlo(opts, text)
        else:
            raise CheckFailure(f"no check defined for {command}")

    def _check_pattern(self, command: str, opts: dict, text: str) -> None:
        pattern = opts["pattern"]
        borders = BorderCondition.parse(opts["borders"])
        table = self.char.table
        ohms = oracle.reference_resistance(pattern, borders, table)
        exact = oracle.rational_pattern_resistance(pattern, borders, table)
        _require(abs(ohms - float(exact)) <= 1e-9 * float(exact),
                 "oracle float path disagrees with exact rationals")
        if command == "resistance":
            _require(_table_value(text, "ohm") == round(ohms, 2),
                     f"resistance of {pattern} differs from the oracle")
        else:
            volts = self._current(len(pattern)) * ohms
            _require(_table_value(text, "mV") == _mv(volts),
                     f"voltage of {pattern} differs from the oracle")

    def _check_levels(self, index: int, opts: dict, text: str, records: _Records) -> None:
        domains = int(opts["domains"])
        borders = BorderCondition.parse(opts["borders"])
        arguments = {"domains": domains, "borders": str(borders)}
        min_margin = None
        if opts["format"] == "json":
            data = json.loads(text)
            self._json_manifest(data["manifest"], "levels", arguments)
            _require(data["domains"] == domains and data["borders"] == str(borders),
                     "report header differs from the job")
            _require(data["read_current_ua"] == round(self._current(domains) * 1e6, 2),
                     "read current differs")
            classes = [
                (c["pattern_class"], c["weight"], c["multiplicity"],
                 c["resistance_ohm"], c["voltage_mv"])
                for c in data["classes"]
            ]
            min_margin = data["min_margin_mv"]
        else:
            comments, header, rows = _csv_parts(text)
            self._csv_manifest(comments, "levels", arguments)
            _require(header == ["pattern_class", "weight", "multiplicity",
                                "resistance_ohm", "voltage_mv"], "unexpected csv header")
            classes = [(r[0], int(r[1]), int(r[2]), float(r[3]), float(r[4])) for r in rows]

        if domains <= oracle.BRUTE_FORCE_LIMIT:
            ref = self._reference(domains, borders)
            expected = [
                (e.representative, cluster.weight, e.multiplicity,
                 round(e.resistance, 2), _mv(e.voltage))
                for cluster in ref.clusters
                for e in cluster.classes
            ]
            _require(classes == expected, "class listing differs from the brute-force oracle")
            _require(min_margin is None or min_margin == _mv(ref.min_margin),
                     "minimum margin differs from the brute-force oracle")
        else:
            self._levels_invariants(domains, borders, classes)

        by_weight: dict[int, list[float]] = {}
        for _, weight, _, ohms, _ in classes:
            by_weight.setdefault(weight, []).append(ohms)
        records.levels.append((index, domains, str(borders), by_weight, min_margin))

    def _levels_invariants(self, domains: int, borders: BorderCondition,
                           classes: list[tuple]) -> None:
        current = self._current(domains)
        counts = [0] * (domains + 1)
        seen = set()
        previous: dict[int, float] = {}
        for rep, weight, mult, ohms, mv in classes:
            _require(len(rep) == domains and set(rep) <= {"0", "1"}, f"bad class {rep!r}")
            _require(rep.count("1") == weight and rep not in seen, f"bad class {rep!r}")
            seen.add(rep)
            _require(mult >= 1, f"class {rep} has multiplicity {mult}")
            counts[weight] += mult
            resistance = oracle.reference_resistance(rep, borders, self.char.table)
            _require(ohms == round(resistance, 2) and mv == _mv(current * resistance),
                     f"class {rep} resistance differs from its recomputed bank")
            _require(ohms >= previous.get(weight, -math.inf), "classes not sorted by resistance")
            previous[weight] = ohms
        for weight, count in enumerate(counts):
            _require(count == math.comb(domains, weight),
                     f"weight {weight} multiplicities sum to {count},"
                     f" not C({domains}, {weight})")

    def _check_margin(self, index: int, opts: dict, text: str, records: _Records) -> None:
        domains = int(opts["domains"])
        if opts.get("closed-form"):
            volts_mv = _table_value(text, "mV")
            _require(abs(volts_mv - self._closed_form_mv(domains)) <= 0.005 + 1e-9,
                     "closed-form margin differs from the exact rational value")
            if domains <= oracle.BRUTE_FORCE_LIMIT:
                _require(_mv(self._reference(domains, None).min_margin) <= volts_mv,
                         "closed form is below the brute-force worst-case margin")
            records.closed_form.append((index, domains, volts_mv))
            return
        _require(opts["format"] == "json", "no check for this margin output form")
        worst = opts["borders"] == "worst"
        borders = None if worst else BorderCondition.parse(opts["borders"])
        convention = "worst" if worst else str(borders)
        data = json.loads(text)
        self._json_manifest(data["manifest"], "margin",
                            {"domains": domains, "convention": convention})
        _require(data["domains"] == domains and data["convention"] == convention,
                 "report header differs from the job")
        rows = [
            (r["weight_low"], r["weight_high"], r["r_low_max_ohm"], r["r_high_min_ohm"],
             r["margin_mv"])
            for r in data["rows"]
        ]
        if domains <= oracle.BRUTE_FORCE_LIMIT:
            ref = self._reference(domains, borders)
            expected = [
                (m.weight_low, m.weight_high, round(m.r_low_max, 2), round(m.r_high_min, 2),
                 _mv(m.margin))
                for m in ref.adjacent_margins
            ]
            _require(rows == expected, "margin rows differ from the brute-force oracle")
        else:
            scale = self._current(domains) * 1e3
            for position, (low, high, r_low, r_high, margin) in enumerate(rows):
                _require((low, high) == (position, position + 1), "margin rows out of order")
                _require(abs(margin - scale * (r_high - r_low)) <= scale * 0.01 + 0.011,
                         f"gap {low}/{high} margin does not follow from its resistances")
            _require(len(rows) == domains, "wrong number of margin rows")
        _require(data["min_margin_mv"] == min(r[4] for r in rows),
                 "minimum margin is not the smallest row")
        records.margins.append(
            (index, domains, convention, [(r[2], r[3]) for r in rows], data["min_margin_mv"])
        )

    def _check_sweep(self, index: int, opts: dict, text: str, records: _Records) -> None:
        d_min, d_max = int(opts["from"]), int(opts["to"])
        threshold = float(opts["threshold-mv"])
        borders = BorderCondition.parse(opts["borders"])
        data = json.loads(text)
        self._json_manifest(data["manifest"], "sweep", {
            "from": d_min, "to": d_max, "threshold_mv": threshold, "borders": str(borders),
        })
        rows = data["rows"]
        _require([r["domains"] for r in rows] == list(range(d_min, d_max + 1)),
                 "sweep rows do not cover the range")
        scalable = None
        for row in rows:
            domains, closed = row["domains"], row["closed_form_margin_mv"]
            exact = self._closed_form_mv(domains)
            _require(abs(closed - exact) <= 0.005 + 1e-9,
                     f"closed form at {domains} domains differs from the exact value")
            if exact >= threshold:
                scalable = domains
            enumerated = row["enumerated_margin_mv"]
            _require((enumerated is None) == (domains > 20),
                     f"enumerated column wrongly filled at {domains} domains")
            if domains <= oracle.BRUTE_FORCE_LIMIT:
                _require(enumerated == _mv(self._reference(domains, borders).min_margin),
                         f"enumerated margin at {domains} domains differs from the oracle")
                _require(_mv(self._reference(domains, None).min_margin) <= closed,
                         f"closed form at {domains} domains is below the worst case")
            records.closed_form.append((index, domains, closed))
        _require(data["max_scalable_domains"] == scalable, "max scalable domains is wrong")

    def _check_offset(self, opts: dict, text: str) -> None:
        domains = int(opts["domains"])
        borders = BorderCondition.parse(opts["borders"])
        offset_nm = float(opts["offset-nm"])
        neighbors = NeighborAssumption.parse(opts["neighbors"])
        data = json.loads(text)
        self._json_manifest(data["manifest"], "variation", {
            "domains": domains, "borders": str(borders), "offset_nm": offset_nm,
            "neighbors": neighbors.value,
        })
        nominal = self._reference(domains, borders).min_margin
        magnitude = abs(offset_nm) * 1e-9
        perturbed = min(
            self._scalar_margin(domains, borders, signed, neighbors)
            for signed in (magnitude, -magnitude)
        )
        got = (data["nominal_min_margin_mv"], data["perturbed_min_margin_mv"],
               data["reduction_mv"])
        want = (_mv(nominal), _mv(perturbed), _mv(nominal - perturbed))
        _require(got == want, f"offset report {got} differs from the scalar path {want}")

    def _check_monte_carlo(self, opts: dict, text: str) -> None:
        domains = int(opts["domains"])
        borders = BorderCondition.parse(opts["borders"])
        samples = int(opts["monte-carlo"])
        seed = int(opts["seed"])
        neighbors = NeighborAssumption.parse(opts.get("neighbors", "worst"))
        arguments = {"domains": domains, "borders": str(borders), "samples": samples,
                     "neighbors": neighbors.value}
        summary = None
        if opts["format"] == "json":
            data = json.loads(text)
            self._json_manifest(data["manifest"], "variation", arguments, seed)
            arguments_out = data["manifest"]["arguments"]
            rows = [(r["sample"], r["delta_nm"], r["min_margin_mv"]) for r in data["samples"]]
            summary = data
        else:
            comments, header, body = _csv_parts(text)
            self._csv_manifest(comments, "variation", arguments, seed)
            arguments_out = comments
            _require(header == ["sample", "delta_nm", "min_margin_mv"], "unexpected csv header")
            rows = [(int(r[0]), float(r[1]), float(r[2])) for r in body]
        _require(len(rows) == samples, f"{len(rows)} rows for {samples} samples")
        _require([r[0] for r in rows] == list(range(samples)), "sample indices out of order")
        bound = float(arguments_out["sigma_nm"]) * float(arguments_out["truncation_sigmas"])
        deltas = np.array([r[1] for r in rows])
        margins = np.array([r[2] for r in rows])
        _require(float(np.max(np.abs(deltas))) <= bound + 1e-6, "an offset exceeds 6 sigma")

        engine = min_margins_for_offsets(
            domains, borders, deltas * 1e-9, neighbors, neighbors, self.char
        ) * 1e3
        worst_row = int(np.argmax(np.abs(engine - margins)))
        _require(abs(engine[worst_row] - margins[worst_row]) <= _ROW_TOLERANCE_MV,
                 f"sample {worst_row} margin differs from its offset's margin")
        picker = random.Random(seed)
        for row in picker.sample(range(samples), _SCALAR_SAMPLES.get(domains, 2)):
            scalar = self._scalar_margin(domains, borders, deltas[row] * 1e-9, neighbors)
            _require(abs(scalar * 1e3 - margins[row]) <= _ROW_TOLERANCE_MV,
                     f"sample {row} margin differs from the scalar path")

        if summary is not None:
            nominal = self._reference(domains, borders).min_margin
            _require(summary["nominal_min_margin_mv"] == _mv(nominal),
                     "nominal margin differs from the brute-force oracle")
            _require(summary["min_margin_mv"] == float(np.min(margins)),
                     "minimum is not the smallest row")
            recomputed = {
                "mean_margin_mv": float(np.mean(margins)),
                "stddev_margin_mv": float(np.std(margins, ddof=1)) if samples > 1 else 0.0,
                "p01_margin_mv": float(np.percentile(margins, 1.0)),
            }
            for key, value in recomputed.items():
                _require(abs(summary[key] - value) <= _SUMMARY_TOLERANCE_MV,
                         f"{key} does not recompute from the rows")

    # --- checks across jobs ------------------------------------------------------

    def _cross_checks(self, records: _Records):
        for l_index, domains, borders, by_weight, l_min in records.levels:
            for m_index, m_domains, convention, rows, m_min in records.margins:
                if m_domains != domains or convention not in (borders, "worst"):
                    continue
                pair = (l_index, m_index)
                for weight, (r_low_max, r_high_min) in enumerate(rows):
                    if max(by_weight.get(weight, [-math.inf])) > r_low_max or min(
                        by_weight.get(weight + 1, [math.inf])
                    ) < r_high_min:
                        yield pair, f"levels and margin ({convention}) disagree at weight {weight}"
                        break
                if l_min is not None and convention == borders and l_min != m_min:
                    yield pair, "levels and margin report different minimum margins"
                if l_min is not None and convention == "worst" and m_min > l_min:
                    yield pair, "worst-case margin exceeds a per-convention margin"
        for c_index, domains, closed in records.closed_form:
            for other_index, other_domains, other in records.closed_form:
                if other_domains == domains and other != closed:
                    yield (c_index, other_index), f"closed forms at {domains} domains differ"
            for m_index, m_domains, convention, _, m_min in records.margins:
                if m_domains == domains and convention == "worst" and m_min > closed:
                    yield (c_index, m_index), "margin exceeds the closed-form worst case"
