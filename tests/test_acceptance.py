"""Acceptance gate.

One test per shipped claim, runnable as ``pytest -v tests/test_acceptance.py``
for a pass/fail line per criterion. Values are frozen characterized numbers or
cross-checked against the independent rational reference path; tolerances are
pinned in each test.
"""

import numpy as np
import pytest

from mdmtj.characterization import default_characterization
from mdmtj.cli import main
from mdmtj.margins import (
    closed_form_min_margin,
    closed_form_resistances,
    enumerate_levels,
    worst_case_levels,
)
from mdmtj.network import ALL_CONDITIONS, pattern_resistance
from mdmtj.oracle import (
    distinct_resistance_classes,
    rational_pattern_resistance,
    symmetry_sweep,
)
from mdmtj.variation import (
    SIGMA_DEFAULT,
    MisalignmentSpec,
    MonteCarloSpec,
    NeighborAssumption,
    min_margins_for_offsets,
    monte_carlo_margins,
    offset_margin_report,
    sample_offsets,
)

# characterized five-domain projections under same/same borders:
# class representative -> (ohms, class multiplicity)
FIVE_DOMAIN_PROJECTIONS = {
    "00000": (382.10, 1),
    "00001": (431.07, 2),
    "00010": (431.50, 3),
    "00011": (493.19, 2),
    "00110": (494.45, 3),
    "01001": (495.01, 2),
    "00101": (496.03, 2),
    "01010": (496.60, 1),
    "00111": (576.22, 2),
    "01011": (580.11, 2),
    "01101": (581.07, 2),
    "01110": (577.94, 3),
    "10101": (583.27, 1),
    "01111": (692.87, 2),
    "10111": (697.39, 3),
    "11111": (864.88, 1),
}


def test_criterion_01_five_domain_resistance_table(char, same_same):
    report = enumerate_levels(5, same_same, char)
    computed = {
        entry.representative: (entry.resistance, entry.multiplicity)
        for cluster in report.clusters
        for entry in cluster.classes
    }
    assert set(computed) == set(FIVE_DOMAIN_PROJECTIONS)
    for representative, (ohms, multiplicity) in FIVE_DOMAIN_PROJECTIONS.items():
        got_ohms, got_multiplicity = computed[representative]
        assert got_ohms == pytest.approx(ohms, rel=2e-3), representative
        assert got_multiplicity == multiplicity, representative


def test_criterion_02_worked_single_pattern(capsys):
    assert main(["resistance", "--pattern", "00010"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(" ohm\n")
    assert float(out.split()[0]) == pytest.approx(431.5, rel=2e-3)


def test_criterion_03_closed_form_margin_values(char):
    assert char.drive.current_density == 3.21e10
    assert char.geometry.junction_area_per_domain() == pytest.approx(3.2e-15)
    for domains, expected_mv in ((5, 23.7), (6, 19.3), (7, 16.3)):
        got_mv = closed_form_min_margin(domains, char) * 1e3
        assert got_mv == pytest.approx(expected_mv, abs=0.05), domains


def test_criterion_04_closed_form_brackets_are_enumerated_extremes(char):
    for domains in range(2, 11):
        r_one, r_zero = closed_form_resistances(domains, char.table)
        worst = worst_case_levels(domains, char)
        assert r_one == worst.clusters[1].min_resistance, domains
        assert r_zero == worst.clusters[0].max_resistance, domains
        assert closed_form_min_margin(domains, char) == worst.min_margin, domains


def test_criterion_05_four_domain_margin(char, same_same):
    margin_mv = enumerate_levels(4, same_same, char).min_margin * 1e3
    assert round(margin_mv, 1) == 32.5
    # proximity to the independently measured 33.5 mV reference point
    assert abs(margin_mv - 33.5) / 33.5 <= 0.10


def test_criterion_06_clusters_separate_and_margins_grow(char):
    for domains in range(4, 8):
        for borders in ALL_CONDITIONS:
            report = enumerate_levels(domains, borders, char)
            margins = [gap.margin for gap in report.adjacent_margins]
            assert all(m > 0 for m in margins), (domains, borders)
            assert all(b > a for a, b in zip(margins, margins[1:])), (domains, borders)
            assert report.distinguishable_levels == domains + 1


def test_criterion_07_oracle_equivalence(char, differ_differ, same_same, brute_forced):
    for domains in range(1, 13):
        for borders in ALL_CONDITIONS:
            assert brute_forced(domains, borders, char) == enumerate_levels(
                domains, borders, char
            ), (domains, borders)
            for value in range(2**domains):
                text = format(value, f"0{domains}b")
                production = pattern_resistance(text, borders, char)
                exact = float(rational_pattern_resistance(text, borders, char.table))
                assert abs(production - exact) <= 1e-9 * exact, (text, borders)
    assert distinct_resistance_classes(5, differ_differ, char) == 18
    assert distinct_resistance_classes(5, same_same, char) == 16


def test_criterion_08_mirror_and_complement_symmetries(char):
    result = symmetry_sweep(10, char.table)
    assert result.passed, result.counterexample
    assert result.checks_run == 16368
    # the sweep must be able to fail: removing the wall-direction swap breaks it
    assert not symmetry_sweep(4, char.table, skip_wall_reversal=True).passed


def test_criterion_09_misalignment_study(char, same_same):
    worst = NeighborAssumption.WORST
    nominal = enumerate_levels(4, same_same, char).min_margin
    at_zero = min_margins_for_offsets(4, same_same, np.array([0.0]), worst, worst, char)
    assert at_zero[0] == nominal

    grid = np.linspace(0.0, 6e-9, 13)
    margins = min_margins_for_offsets(4, same_same, grid, worst, worst, char)
    assert margins[0] == nominal
    assert all(b <= a for a, b in zip(margins, margins[1:]))

    for offset in (6e-9, -6e-9):
        report = offset_margin_report(4, same_same, MisalignmentSpec(offset), char)
        reduction = report.margin_deviation / report.nominal_min_margin
        assert 0.05 <= reduction <= 0.25, offset


def test_criterion_10_monte_carlo_determinism(char, same_same):
    spec = MonteCarloSpec(samples=1000, seed=20260821)
    first = monte_carlo_margins(4, same_same, spec, char)
    second = monte_carlo_margins(4, same_same, spec, char)
    assert first == second

    big = sample_offsets(MonteCarloSpec(samples=10_000, seed=7))
    assert abs(float(np.mean(big))) <= 3.0 * SIGMA_DEFAULT / np.sqrt(10_000)
