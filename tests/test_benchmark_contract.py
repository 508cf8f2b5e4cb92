"""The names the benchmark's tracer (perfbench/tracer.py) reaches into inarq by.

The traced benchmark run wraps module attributes of inarq by name and reads
attributes of what the simulators return. A cleanup that deletes or renames
one of them, even a function the program no longer calls, would break that
run without any other test noticing. The tracer is loaded read-only.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from inarq import (
    CountSeries,
    Inar1Spec,
    PopulationTrace,
    ReportingSpec,
    RngStream,
    simulate_inar1,
    simulate_individual_level,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ next to the tracer
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_wrapped_name_resolves(tracer):
    wrapped = [(module, attr) for module, attr, _ in tracer.TIMED + tracer.COUNTED]
    assert ("inarq.processes", "poisson_draw") in wrapped
    missing = [(m, a) for m, a in wrapped if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_result_attributes_the_tracer_reads(tracer):
    assert "burn_in" in {f.name for f in dataclasses.fields(CountSeries)}
    assert hasattr(PopulationTrace, "individuals")
    spec = Inar1Spec(1.62, 0.52)
    series = simulate_inar1(spec, 50, RngStream(1))
    trace = simulate_individual_level(spec, ReportingSpec(q=0.33), 50, RngStream(1))
    recorder = tracer.Tracer()
    tracer.AFTER["processes.simulate_inar1"](recorder, (), {}, series)
    tracer.AFTER["processes.simulate_individual_level"](recorder, (), {}, trace)
    counts = recorder.counts()
    assert counts["processes.retained_steps"] == 100
    assert counts["processes.simulated_steps"] == 100
    assert counts["processes.individuals"] == trace.births.size
