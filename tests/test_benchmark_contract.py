"""The names the benchmark's tracer (perfbench/tracer.py) reaches into inarq by.

The traced benchmark run wraps module attributes of inarq by name and reads
attributes of what the simulators return. A cleanup that deletes or renames
one of them, even a function the program no longer calls, would break that
run without any other test noticing. The tracer is loaded read-only.
"""

import dataclasses
import importlib
import importlib.util
import json
import subprocess
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


# In a fresh interpreter: install the tracer, run the three drawing commands
# through inarq.cli.main, and print the names of the spans recorded.
_TRACED_COMMANDS = """
import contextlib, importlib.util, io, json, sys
tracer_path, spec, image, out = sys.argv[1:]
sys.dont_write_bytecode = True
loader = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
tracer = importlib.util.module_from_spec(loader)
loader.loader.exec_module(tracer)
import inarq.cli
recorder = tracer.Tracer()
recorder.install()
for argv in (["simulate", spec, "--t", "2000", "--out", f"{out}/s.csv"],
             ["check", spec, image, "--t", "10000", "--reps", "1"],
             ["appendix", spec, "--t", "2000", "--out", f"{out}/a.csv"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert inarq.cli.main(argv) in (0, 1), argv
print(json.dumps(sorted({s["name"] for s in recorder.spans})))
"""


def test_tracer_intercepts_the_drawing_commands(tmp_path):
    # The drawing layers are imported when a drawing command first runs; the
    # commands must still call them through the names the tracer replaced.
    spec, image = tmp_path / "spec.json", tmp_path / "image.json"
    spec.write_text(json.dumps({"latent": {"kind": "inar1", "lambda": 1.62, "alpha": 0.52},
                                "reporting": {"q": 0.33}}), encoding="utf-8")
    image.write_text(json.dumps({"lambda": 0.82044198895, "beta": 0.1716, "gamma": 0.3484}),
                     encoding="utf-8")
    res = subprocess.run([sys.executable, "-c", _TRACED_COMMANDS, str(TRACER), str(spec),
                          str(image), str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    spans = set(json.loads(res.stdout.splitlines()[-1]))
    assert spans & {"processes.simulate_inar_inf", "processes.simulate_inar1"}
    expected = {"processes.apply_reporting", "processes.write_csv",
                "diagnostics.equivalence_mc_test", "diagnostics.mc_sim",
                "processes.simulate_individual_level", "diagnostics.individual_level_checks"}
    assert expected - spans == set()
    # perfbench/worker.py's library op reads these from the processes module.
    processes = importlib.import_module("inarq.processes")
    assert all(hasattr(processes, name)
               for name in ("InarPSpec", "ReportingSpec", "simulate_inar_p"))


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
