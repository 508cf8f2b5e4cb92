"""The import graph: each command loads only the layers it runs.

``import inarq``, ``import inarq.cli`` and the commands that only move inside
an equivalence class in closed form (transform, expand, curve) load neither
numpy nor the layers built on it, and ``simulate`` loads no statistics layer;
the package's public names resolve on first access to their defining modules'
objects. Each check runs in a fresh interpreter, so no earlier import in the
test process hides a load.
"""

import json
import subprocess
import sys

import pytest

NUMPY_LAYERS = ("numpy", "inarq.processes", "inarq.diagnostics", "inarq.sampling")

MODEL = {"latent": {"kind": "inar1", "lambda": 1.62, "alpha": 0.52},
         "reporting": {"q": 0.33, "omega": 1.0}}


def run_child(code: str, *args: str) -> list:
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    return json.loads(res.stdout.splitlines()[-1])


# After each step, the numpy-backed modules loaded so far.
_CLOSED_FORM = """
import contextlib, io, json, sys
layers = json.loads(sys.argv[1])
spec, curve = sys.argv[2:]

def loaded():
    return sorted(m for m in layers if m in sys.modules)

steps = []
import inarq
steps.append(["import inarq", loaded()])
import inarq.cli
steps.append(["import inarq.cli", loaded()])
for argv in (["transform", spec, "--to", "inf"], ["transform", spec, "--to", "canonical"],
             ["transform", spec, "--to", "q=0.5"], ["expand", spec],
             ["curve", spec, "--out", curve]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert inarq.cli.main(argv) == 0, argv
    steps.append([" ".join([argv[0], *argv[2:]]), loaded()])
print(json.dumps(steps))
"""


def test_closed_form_commands_load_no_numpy(tmp_path):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(MODEL), encoding="utf-8")
    steps = run_child(_CLOSED_FORM, json.dumps(NUMPY_LAYERS), str(spec),
                      str(tmp_path / "curve.csv"))
    assert len(steps) == 7
    assert [step for step in steps if step[1]] == []
    assert (tmp_path / "curve.csv").read_text(encoding="utf-8").count("\n") == 69


_STAR = """
import json, sys
from inarq import *
import inarq
wrong = [name for name in inarq.__all__
         if globals().get(name) is not getattr(sys.modules[globals()[name].__module__], name)]
print(json.dumps([len(inarq.__all__), wrong]))
"""


def test_star_import_binds_each_name_to_its_definition():
    count, wrong = run_child(_STAR)
    assert count > 0
    assert wrong == []


_UNKNOWN = """
import json
import inarq, inarq.cli
raised = []
for module in (inarq, inarq.cli):
    try:
        module.nonexistent
    except AttributeError:
        raised.append(module.__name__)
print(json.dumps(raised))
"""


def test_unknown_names_raise_attribute_error():
    assert run_child(_UNKNOWN) == ["inarq", "inarq.cli"]


# One drawing command run, or one drawing name read, in inarq.cli; then the
# numpy-backed modules loaded.
_DRAWING = """
import contextlib, io, json, sys
import inarq.cli
layers, step = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if len(step) == 1:
    getattr(inarq.cli, step[0])
else:
    with contextlib.redirect_stdout(io.StringIO()):
        assert inarq.cli.main(step) in (0, 1), step
print(json.dumps(sorted(m for m in layers if m in sys.modules)))
"""


@pytest.mark.parametrize("step, statistics", [
    (["simulate", "SPEC", "--t", "200", "--out", "OUT"], False),
    (["check", "SPEC", "SPEC", "--t", "10000", "--reps", "1"], True),
    (["appendix", "SPEC", "--t", "200", "--out", "OUT"], True),
    (["simulate_inar1"], False),
    (["equivalence_mc_test"], True),
], ids=["simulate", "check", "appendix", "getattr_simulate_inar1", "getattr_equivalence_mc_test"])
def test_drawing_commands_load_only_their_layers(tmp_path, step, statistics):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(MODEL), encoding="utf-8")
    paths = {"SPEC": str(spec), "OUT": str(tmp_path / "out.csv")}
    loaded = run_child(_DRAWING, json.dumps(NUMPY_LAYERS),
                       json.dumps([paths.get(arg, arg) for arg in step]))
    assert "numpy" in loaded
    assert ("inarq.diagnostics" in loaded) == statistics
