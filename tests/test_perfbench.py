"""The benchmark harness still fits the program it measures.

``perfbench/tracer.py`` rebinds functions by name on the ``mdmtj`` modules
and ``perfbench/checker.py`` imports names from them, so a renamed or
removed function breaks the benchmark without breaking any other test. Both
files are loaded from their paths and left as they are.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from mdmtj import cli

HARNESS = Path(__file__).resolve().parent.parent / "perfbench"
DEVICE = Path(__file__).resolve().parent / "golden" / "device.cfg"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HARNESS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_job_checks_out_and_restores_every_target(capsys, monkeypatch):
    tracer = _load("tracer")
    checker = _load("checker")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")  # the checker's pinned timestamp
    bound = {}
    for _, _, function, callers, _ in tracer.TARGETS:
        for caller in callers:
            module = importlib.import_module(f"mdmtj.{caller}")
            bound[caller, function] = getattr(module, function)

    job = ("variation", "--domains", "4", "--borders", "same,differ", "--offset-nm", "-3",
           "--neighbors", "worst", "--format", "json", "--config", str(DEVICE), "--oracle")
    spans = tracer.Tracer()
    with tracer.instrument(spans):
        for (caller, function), original in bound.items():
            traced = getattr(importlib.import_module(f"mdmtj.{caller}"), function)
            assert traced is not original, (caller, function)
        assert cli.main(list(job)) == 0
    output = capsys.readouterr().out

    for (caller, function), original in bound.items():
        assert getattr(importlib.import_module(f"mdmtj.{caller}"), function) is original
    names = {span.name for span in spans.spans}
    assert {"cli.main", "variation.offset_margin_report",
            "variation.min_margins_for_offsets"} <= names
    # one engine call covers the nominal margin and both signs
    assert spans.counters == {"variation.offsets_evaluated": 3}
    assert checker.Checker(DEVICE.read_text()).check_pass([job], [output.encode()]) == [None]

