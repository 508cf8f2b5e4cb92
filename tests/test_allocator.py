"""The drawing commands pin glibc's allocator thresholds; nothing else does."""

import ctypes
import json
import subprocess
import sys

import pytest

from inarq import cli

IMAGE = {"lambda": 0.82044198895, "beta": 0.1716, "gamma": 0.3484}

# Three T = 5e4 draws of the fully observed image, through the CLI (which pins
# the allocator) or through the library (which leaves it alone); prints the
# minor faults of draws 2 and 3. The CLI routes this spec to the same
# simulate_inar_inf call on the same substream, so both write the same bytes.
_THREE_DRAWS = """
import resource, sys
from inarq import cli
from inarq.processes import GeomInarSpec, simulate_inar_inf, write_series_csv
from inarq.sampling import RngStream

route, spec_path, out = sys.argv[1:]
faults = []
for seed in (1, 2, 3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    path = f"{out}/{route}-{seed}.csv"
    if route == "cli":
        argv = ["simulate", spec_path, "--t", "50000", "--seed", str(seed), "--out", path]
        assert cli.main(argv) == 0
    else:
        spec = GeomInarSpec(0.82044198895, 0.1716, 0.3484)
        write_series_csv(simulate_inar_inf(spec, 50_000, RngStream(seed).substream(0)), path)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1] + faults[2])
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.fixture
def unpinned():
    """Forget the process's pin around a test, so the helper runs again."""
    cli._pin_allocator.cache_clear()
    yield
    cli._pin_allocator.cache_clear()


def _write_image(tmp_path):
    path = tmp_path / "image.json"
    path.write_text(json.dumps(IMAGE), encoding="utf-8")
    return str(path)


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_pinned_draws_reuse_the_heap(tmp_path):
    spec = _write_image(tmp_path)
    faults = {}
    for route in ("cli", "library"):
        res = subprocess.run([sys.executable, "-c", _THREE_DRAWS, route, spec, str(tmp_path)],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        faults[route] = int(res.stdout.split()[-1])
    for seed in (1, 2, 3):
        assert (tmp_path / f"cli-{seed}.csv").read_bytes() == \
            (tmp_path / f"library-{seed}.csv").read_bytes()
    if faults["library"] < 200:
        pytest.skip(f"unpinned draws fault only {faults['library']} times on this host")
    assert faults["cli"] * 10 < faults["library"], faults


class _NoMallopt:
    """A loaded C library without the symbol, as on macOS."""


def _no_libc(name):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: _NoMallopt()],
                         ids=["load-fails", "no-mallopt"])
def test_simulate_without_mallopt(tmp_path, monkeypatch, unpinned, cdll):
    spec = _write_image(tmp_path)
    argv = ["simulate", spec, "--t", "2000", "--seed", "5", "--out"]
    assert cli.main([*argv, str(tmp_path / "pinned.csv")]) == 0

    cli._pin_allocator.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli.main([*argv, str(tmp_path / "plain.csv")]) == 0
    assert cli._pin_allocator() is False
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "pinned.csv").read_bytes()


# The helper's cache counts its calls: none on import or from the closed-form
# commands, one from the first drawing command, none after it.
_SPY = """
import sys
import inarq
from inarq import cli

spec, out = sys.argv[1:]
calls = cli._pin_allocator.cache_info
assert calls().misses == 0, "import"
for argv in (["transform", spec, "--to", "canonical"], ["expand", spec],
             ["curve", spec, "--out", f"{out}/curve.csv"]):
    assert cli.main(argv) == 0
    assert calls().misses == 0, argv[0]
for seed in ("1", "2"):
    assert cli.main(["simulate", spec, "--t", "100", "--seed", seed,
                     "--out", f"{out}/s.csv"]) == 0
assert calls().misses == 1 and calls().hits == 1, calls()
"""


def test_only_drawing_commands_pin(tmp_path):
    spec = _write_image(tmp_path)
    res = subprocess.run([sys.executable, "-c", _SPY, spec, str(tmp_path)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
