"""Fuzz the command line in-process: any spec document, any flags.

Every run must end in a documented exit code (0 success, 1 check failed, 2
input error, 3 reporting probability out of range) with no traceback on
stderr, and whatever it prints on stdout must be strict JSON or one of the
CSV tables the commands print.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from inarq.cli import main

# Values a damaged spec field may hold: boundaries, extremes and wrong types.
BAD_VALUES = [0, -0.0, 1, -1, 1.0, 5e-324, 1e-300, 1e17, 9e18, 1e300, 1.7976931348623157e308,
              10**400, math.inf, -math.inf, math.nan, None, True, "1.5", [], {}]


@st.composite
def specs(draw):
    """A spec document: mostly a valid one of either latent kind, in any of the
    accepted shapes, with up to two fields changed to a bad value or dropped,
    or an extra one added."""
    lam = draw(st.one_of(st.floats(1e-3, 50.0), st.sampled_from([1e-9, 1e4, 1e7])))
    if draw(st.booleans()):
        latent = {"kind": "inar1", "lambda": lam, "alpha": draw(st.floats(0.0, 0.99))}
    else:
        beta = draw(st.floats(0.0, 0.99))
        gamma = draw(st.sampled_from([0.0, 0.5, 1.0])) * draw(st.floats(0.0, 0.995 - beta))
        latent = {"kind": "geom_inf", "lambda": lam, "beta": beta, "gamma": gamma}
    reporting = {"q": draw(st.floats(0.01, 1.0)),
                 "omega": draw(st.one_of(st.just(1.0), st.just(1.0), st.just(0.0),
                                         st.floats(0.0, 1.0)))}
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from([latent, reporting]))
        key = draw(st.sampled_from(["kind", "lambda", "alpha", "beta", "gamma", "q", "omega"]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(st.sampled_from(BAD_VALUES + ["inar2"]))
    shape = draw(st.sampled_from(["full", "full", "full", "latent only", "flat", "not an object"]))
    if shape == "full":
        return {"latent": latent, "reporting": reporting}
    if shape == "latent only":
        return {"latent": latent}
    if shape == "flat":  # the parameter objects transform prints
        latent.pop("kind", None)
        return {**latent, "q": reporting.get("q")} if "alpha" in latent else latent
    return draw(st.sampled_from([[], "model", 3, None, [latent]]))


HUGE = str(10**11)
# Series lengths: mostly valid and short, else invalid or huge.
steps = st.one_of(st.integers(1, 300), st.integers(1, 300),
                  st.sampled_from([0, -2, HUGE, "1e3", "x"])).map(str)
# Optional flags, with mostly valid values.
counts = st.one_of(st.integers(0, 10**6), st.sampled_from([-1, HUGE, 2**64])).map(str)
commands = st.one_of(
    st.tuples(st.just("simulate"), st.just("--t"), steps,
              st.sampled_from(["--burn-in", "--seed"]), counts),
    st.tuples(st.just("transform"), st.just("--to"),
              st.sampled_from(["inf", "canonical", "q=0.5", "q=0.1", "q=1", "q=nan", "q=",
                               "other"])),
    st.tuples(st.just("expand"), st.just("--cutoff"),
              st.sampled_from(["0.005", "0", "0.5", "-1", "nan", "inf", "1e-3"])),
    st.tuples(st.just("curve"), st.just("--grid"), st.sampled_from(["2", "68", "1", "-3", HUGE])),
    st.tuples(st.just("check"), st.just("--t"), st.sampled_from(["100", HUGE, "10000"]),
              st.just("--reps"), st.sampled_from(["0", "1", str(10**8)])),
    st.tuples(st.just("appendix"), st.just("--t"), steps, st.just("--seed"), counts),
)


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def is_csv(text: str) -> bool:
    """``t,count`` (simulate writes it to a file) or ``i,alpha_i`` (expand prints it)
    rows of numbers under their header."""
    lines = text.splitlines()
    if not lines or lines[0] not in ("t,count", "i,alpha_i"):
        return False
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 2 or not all(math.isfinite(float(f)) for f in fields):
            return False
    return True


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        yield Path(path)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(), command=commands, check_pair=st.booleans())
def test_every_run_ends_in_a_documented_way(workdir, spec, command, check_pair):
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")  # NaN and Infinity as JSON allows
    name, *flags = command
    operands = [str(path)]
    if name == "check":
        # Against itself, or against the worked example.
        other = workdir / "worked.json"
        other.write_text('{"latent": {"kind": "inar1", "lambda": 1.62, "alpha": 0.52}, '
                         '"reporting": {"q": 0.33}}', encoding="utf-8")
        operands.append(str(other if check_pair else path))
    if name in ("simulate", "curve", "appendix"):
        flags += ["--out", str(workdir / "out.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([name, *operands, *flags])
        except SystemExit as stop:  # argparse rejects the flags
            code = stop.code
    stdout, stderr = out.getvalue(), err.getvalue()
    event(f"{name} exit {code}")
    assert code in (0, 1, 2, 3), (code, stderr)
    assert "Traceback" not in stderr
    if code == 2:
        assert stderr, "an input error must say what is wrong"
    if stdout:
        try:
            json.loads(stdout, parse_constant=reject_constant)
        except ValueError:
            assert is_csv(stdout), stdout[:300]
