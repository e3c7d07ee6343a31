"""Seeded inputs and job lists for the benchmark workloads.

Every workload is a fixed list of ``mdmtj`` command lines. The seed draws the
values the program sees (a perturbed characterization file, bit patterns,
border orientation, offsets, neighbor assumptions, sweep threshold and Monte
Carlo seeds) but never the size of a job, so the cost of a workload does not
depend on the seed and its work counters repeat exactly.

Borders follow one rule for every job that enumerates patterns: the job list
fixes the border class, and the seed picks the orientation of the asymmetric
class (``same,differ`` or its mirror ``differ,same``). Mirrored conventions
have the same number of sub-classes, banks and listed classes, whereas
``same,same`` and ``differ,differ`` list different numbers of classes.
Single-pattern jobs draw any of the four conventions, since their cost does
not depend on it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

CONFIG_NAME = "characterization.cfg"

# One line each; BENCHMARK.json carries the same reasons.
WHY = {
    "enumerate-d30": "large-window cluster reports: the run-structure enumerator and report"
    " assembly (margins) do nearly all the work; the offset sampler does none",
    "misalign-d12": "pattern-heavy misalignment: the raw 2^D loop of min_margins_for_offsets"
    " dominates; the enumerator and the sampler are small",
    "montecarlo-d4": "sample-heavy Monte Carlo: the per-sample offset sampler and CSV/JSON"
    " emission dominate wall time and peak memory",
    "cli-short": "short interactive queries: interpreter start, import and config load are"
    " most of every job, so start-up cost shows here and nowhere else",
}

WORKLOADS = tuple(WHY)

# Default segment table in ohms, in config-key order. The generated file
# perturbs every entry by a few percent; the gaps between length classes
# (at least 7%) keep the ordering invariants intact.
_DEFAULT_OHMS = {
    "r_minus_80": 1911,
    "r_minus_74": 2048,
    "r_minus_68": 2228,
    "r_plus_80": 4324,
    "r_plus_74": 4730,
    "r_plus_68": 5143,
    "r_dw_01": 20053,
    "r_dw_10": 20063,
    "r_hdw_minus": 35061,
    "r_hdw_plus": 46196,
}
_DEFAULT_CURRENT_DENSITY = 3.21e10
_PERTURBATION = 0.03

_ALL_BORDERS = ("same,same", "same,differ", "differ,same", "differ,differ")


@dataclass(frozen=True)
class Inputs:
    """Everything the program receives for one workload and seed."""

    workload: str
    seed: int
    config_text: str
    jobs: tuple[tuple[str, ...], ...]

    @property
    def digest(self) -> str:
        text = self.config_text + "".join(" ".join(job) + "\n" for job in self.jobs)
        return hashlib.sha256(text.encode()).hexdigest()


def characterization_text(rng: random.Random) -> str:
    """A valid config file: the default table perturbed within its invariants."""
    ohms = {
        key: round(value * rng.uniform(1 - _PERTURBATION, 1 + _PERTURBATION))
        for key, value in _DEFAULT_OHMS.items()
    }
    for pol in ("minus", "plus"):
        if not ohms[f"r_{pol}_80"] < ohms[f"r_{pol}_74"] < ohms[f"r_{pol}_68"]:
            raise RuntimeError(f"generated {pol} length classes out of order: {ohms}")
    for length in ("80", "74", "68"):
        if not ohms[f"r_plus_{length}"] > ohms[f"r_minus_{length}"]:
            raise RuntimeError(f"generated r_plus_{length} <= r_minus_{length}: {ohms}")
    density = _DEFAULT_CURRENT_DENSITY * rng.uniform(1 - _PERTURBATION, 1 + _PERTURBATION)
    lines = ["# generated characterization (perturbed defaults)"]
    lines += [f"{key} = {value}" for key, value in ohms.items()]
    lines.append(f"j_c_a_per_m2 = {density:.6e}")
    return "\n".join(lines) + "\n"


def _orient(rng: random.Random, border_class: str) -> str:
    if border_class == "same,differ":
        return rng.choice(("same,differ", "differ,same"))
    return border_class


def _pattern(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _offset_nm(rng: random.Random) -> str:
    # (0, 5.5] nm, within the six-sigma misalignment budget
    return f"{rng.uniform(0.001, 5.5):.3f}"


def _mc_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _enumerate_d30(rng: random.Random) -> list[list[str]]:
    threshold = f"{rng.uniform(10.0, 40.0):.2f}"
    d24 = _orient(rng, "same,differ")
    return [
        ["levels", "--domains", "30", "--borders", "same,same", "--format", "json"],
        ["margin", "--domains", "30", "--borders", "worst", "--format", "json"],
        ["margin", "--domains", "30", "--closed-form"],
        ["sweep", "--from", "2", "--to", "30", "--threshold-mv", threshold,
         "--borders", _orient(rng, "same,differ"), "--format", "json"],
        ["levels", "--domains", "24", "--borders", d24, "--format", "csv"],
        ["margin", "--domains", "24", "--borders", d24, "--format", "json"],
    ]


def _misalign_d12(rng: random.Random) -> list[list[str]]:
    jobs = []
    for border_class, neighbors in (
        ("same,same", "worst"),
        ("same,differ", "worst"),
        ("differ,differ", "0"),
        ("same,differ", "1"),
    ):
        jobs.append(
            ["variation", "--domains", "12", "--offset-nm", _offset_nm(rng),
             "--neighbors", neighbors, "--borders", _orient(rng, border_class),
             "--format", "json"]
        )
    jobs.append(
        ["variation", "--domains", "12", "--monte-carlo", "2000", "--seed", _mc_seed(rng),
         "--borders", _orient(rng, "same,differ"), "--format", "json"]
    )
    return jobs


def _montecarlo_d4(rng: random.Random) -> list[list[str]]:
    return [
        ["variation", "--domains", "4", "--monte-carlo", "200000", "--seed", _mc_seed(rng),
         "--borders", _orient(rng, "same,differ"), "--format", "csv"],
        ["variation", "--domains", "4", "--monte-carlo", "50000", "--seed", _mc_seed(rng),
         "--borders", _orient(rng, "same,differ"), "--format", "json"],
    ]


def _cli_short(rng: random.Random) -> list[list[str]]:
    jobs = []
    for length in (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 24, 27, 30):
        jobs.append(["resistance", "--pattern", _pattern(rng, length),
                     "--borders", rng.choice(_ALL_BORDERS)])
    for length in (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 25, 28, 30):
        jobs.append(["voltage", "--pattern", _pattern(rng, length),
                     "--borders", rng.choice(_ALL_BORDERS)])
    for domains in (2, 5, 9, 14, 21, 30):
        jobs.append(["margin", "--domains", str(domains), "--closed-form"])
    for domains, border_class, fmt in (
        (3, "same,same", "json"),
        (5, "same,differ", "csv"),
        (6, "differ,differ", "json"),
        (8, "same,differ", "csv"),
        (8, "same,same", "json"),
    ):
        jobs.append(["levels", "--domains", str(domains),
                     "--borders", _orient(rng, border_class), "--format", fmt])
    jobs.append(["levels", "--domains", "12", "--borders", _orient(rng, "same,differ"),
                 "--format", "json", "--oracle"])
    # interleave kinds the way an interactive user would, reproducibly
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {
    "enumerate-d30": _enumerate_d30,
    "misalign-d12": _misalign_d12,
    "montecarlo-d4": _montecarlo_d4,
    "cli-short": _cli_short,
}


def build(workload: str, seed: int) -> Inputs:
    """Generate the config text and job command lines for ``workload``.

    Every job reads the generated characterization from CONFIG_NAME, relative
    to the directory the jobs run in.
    """
    rng = random.Random(f"{workload}:{seed}")
    config_text = characterization_text(rng)
    jobs = tuple(
        tuple(job + ["--config", CONFIG_NAME]) for job in _BUILDERS[workload](rng)
    )
    return Inputs(workload, seed, config_text, jobs)
