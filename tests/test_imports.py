"""The import graph: the closed-form layer stands without numpy.

``import inarq``, ``import inarq.cli`` and the commands that only move inside
an equivalence class in closed form (transform, expand, curve) load neither
numpy nor the layers built on it; the package's public names resolve on
first access to their defining modules' objects. Each check runs in a fresh
interpreter, so no earlier import in the test process hides a load.
"""

import json
import subprocess
import sys

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
