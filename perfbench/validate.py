"""Output validators, one per call kind in workloads.py.

``validate(call, result, workdir)`` returns ``(problem, rejected)``.
``problem`` is None for a correct output, else the first thing found wrong;
any problem makes the op count as failed. ``rejected`` is None unless the
call reports a verdict on inputs that are equivalent in law (the image pair
of ``check``, every ``appendix`` run); there it is True when the verdict
failed. Such a rejection is a chance outcome of the fixed 3-sigma gates, so
it is counted as ``diagnostics.false_rejects``, not as a failed op.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import Call

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text("utf-8"))
MEAN_SE_LIMIT = 6.0
BATCHES = 50


class Invalid(Exception):
    """An output that breaks its contract."""


def _reject_constant(name: str):
    raise Invalid(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity, which strict JSON does not have."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Invalid(f"malformed JSON: {exc}") from exc


def _same(actual, expected, digits: int, where: str) -> None:
    """Compare nested JSON values; numbers must agree at ``digits`` significant digits."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            raise Invalid(f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual}"
                          f" != {sorted(expected)}")
        for key in expected:
            _same(actual[key], expected[key], digits, f"{where}.{key}")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            raise Invalid(f"{where}: {actual!r} != {expected!r}")
        for i, (a, e) in enumerate(zip(actual, expected)):
            _same(a, e, digits, f"{where}[{i}]")
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if (isinstance(actual, bool) or not isinstance(actual, (int, float))
                or f"{actual:.{digits}g}" != f"{expected:.{digits}g}"):
            raise Invalid(f"{where}: {actual!r} != {expected!r} at {digits} significant digits")
    elif actual != expected:
        raise Invalid(f"{where}: {actual!r} != {expected!r}")


def read_csv(path: Path, header: str, rows: int, dtype=np.int64) -> np.ndarray:
    """Read a CSV with a known header and row count into a (rows, columns) array."""
    first, _, body = path.read_text("utf-8").partition("\n")
    if first != header:
        raise Invalid(f"{path.name}: header {first!r} != {header!r}")
    got = body.count("\n")
    if got != rows or (body and not body.endswith("\n")):
        raise Invalid(f"{path.name}: {got} rows, expected {rows}")
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", dtype=dtype, ndmin=2)
    except ValueError as exc:
        raise Invalid(f"{path.name}: {exc}") from exc
    if data.shape != (rows, header.count(",") + 1):
        raise Invalid(f"{path.name}: shape {data.shape}")
    return data


def _series(path: Path, header: str, rows: int) -> np.ndarray:
    data = read_csv(path, header, rows)
    if not np.array_equal(data[:, 0], np.arange(rows)):
        raise Invalid(f"{path.name}: time column is not 0..{rows - 1}")
    if (data < 0).any():
        raise Invalid(f"{path.name}: negative count")
    return data


def _mean_near(name: str, values: np.ndarray, mean: float, target: float) -> None:
    """``mean`` must lie within 6 batch-means standard errors of ``target``."""
    usable = values.size - values.size % BATCHES
    batch = values[:usable].astype(np.float64).reshape(BATCHES, -1).mean(axis=1)
    se = float(batch.std(ddof=1)) / math.sqrt(BATCHES)
    if not abs(mean - target) <= MEAN_SE_LIMIT * se:
        raise Invalid(f"{name}: mean {mean} is {abs(mean - target) / se:.1f} SE from {target}")


def _exit_code(result: dict, expected: int) -> None:
    if result["rc"] != expected:
        raise Invalid(f"exit code {result['rc']}, expected {expected}")


def _check_simulate(call: Call, result: dict, workdir: Path):
    summary = strict_json(result["stdout"])
    rows = call.params["rows"]
    counts = _series(workdir / call.params["csv"], "t,count", rows)[:, 1]
    if summary.get("n") != rows:
        raise Invalid(f"summary n {summary.get('n')} != {rows}")
    _same(summary["mean"], float(counts.mean()), 12, "summary mean vs CSV")
    _mean_near("simulate", counts, summary["mean"], call.params["mean"])


def _check_library(call: Call, result: dict, workdir: Path):
    counts = _series(workdir / call.params["csv"], "t,count", call.params["rows"])[:, 1]
    _mean_near("order 3", counts, float(counts.mean()), call.params["mean"])


def _check_check(call: Call, result: dict, workdir: Path):
    report = strict_json(result["stdout"])
    verdict = report.get("verdict")
    if verdict not in ("pass", "fail"):
        raise Invalid(f"verdict {verdict!r}")
    _exit_code(result, 0 if verdict == "pass" else 1)
    p = call.params
    _same(report.get("n"), {"t_len": p["t_len"], "reps": p["reps"],
                            "total": p["t_len"] * p["reps"]}, 12, "n")
    if not p["equivalent"]:
        if verdict == "pass":
            raise Invalid("the perturbed pair passed")
        return None
    return verdict == "fail"


def _check_appendix(call: Call, result: dict, workdir: Path):
    report = strict_json(result["stdout"])
    passed = report.get("all_passed")
    if not isinstance(passed, bool):
        raise Invalid(f"all_passed {passed!r}")
    _exit_code(result, 0 if passed else 1)
    p = call.params
    if report.get("n") != p["rows"]:
        raise Invalid(f"report n {report.get('n')} != {p['rows']}")
    trace = _series(workdir / p["csv"], "t,x,x_tilde,u_total,v_total", p["rows"])
    _, x, x_tilde, u_total, v_total = trace.T
    if not np.array_equal(x_tilde, u_total + v_total):
        raise Invalid("x_tilde != u_total + v_total")
    _mean_near("x", x, float(x.mean()), p["x_mean"])
    _mean_near("x_tilde", x_tilde, float(x_tilde.mean()), p["x_tilde_mean"])
    long_path = workdir / p["long_csv"]
    lines = long_path.read_text("utf-8").split("\n")
    if lines[0] != "t,i,kind,count" or lines[-1] != "":
        raise Invalid(f"{long_path.name}: bad header or missing final newline")
    sums = {"u": np.zeros(p["rows"], np.int64), "v": np.zeros(p["rows"], np.int64)}
    for line in lines[1:-1]:
        t, _, kind, count = line.split(",")
        sums[kind][int(t)] += int(count)
    if not (np.array_equal(sums["u"], u_total) and np.array_equal(sums["v"], v_total)):
        raise Invalid(f"{long_path.name}: per-step sums disagree with the trace totals")
    return not passed


def _check_transform(call: Call, result: dict, workdir: Path):
    _same(strict_json(result["stdout"]), EXPECTED[call.params["expected"]], 12, "transform")


def _check_range_error(call: Call, result: dict, workdir: Path):
    if result["stdout"]:
        raise Invalid("output on stdout for an out-of-range target")
    error = strict_json(result["stderr"])
    _same(error.get("admissible_interval"), EXPECTED["admissible_interval"], 12, "interval")


def _check_expand(call: Call, result: dict, workdir: Path):
    lines = result["stdout"].split("\n")
    if lines[0] != "i,alpha_i" or lines[-1] != "":
        raise Invalid("expand: bad header or missing final newline")
    rows = [[int(i), float(w)] for i, w in (line.split(",") for line in lines[1:-1])]
    _same(rows, EXPECTED["expand"], 12, "expand")


def _check_curve(call: Call, result: dict, workdir: Path):
    summary = strict_json(result["stdout"])
    lower, upper = EXPECTED["admissible_interval"]
    _same(summary, {"rows": call.params["rows"], "q_lower": lower, "q_upper": upper}, 12, "curve")
    table = read_csv(workdir / call.params["csv"], "q_Y,lambda_Y,beta_Y,gamma_Y",
                     call.params["rows"], dtype=np.float64)
    # The curve CSV is written at 6 significant digits.
    _same(table[0].tolist(), EXPECTED["curve_first_row"], 6, "curve first row")
    _same(table[-1].tolist(), EXPECTED["curve_last_row"], 6, "curve last row")


CHECKS = {
    "simulate": _check_simulate,
    "library": _check_library,
    "check": _check_check,
    "appendix": _check_appendix,
    "transform": _check_transform,
    "range_error": _check_range_error,
    "expand": _check_expand,
    "curve": _check_curve,
}


def validate(call: Call, result: dict, workdir: Path) -> tuple[str | None, bool | None]:
    """Check one call's result and output files; see the module docstring."""
    if result["exc"]:
        return f"{' '.join(call.argv)}: exception\n{result['exc']}", None
    if "Traceback" in result["stderr"]:
        return f"{' '.join(call.argv)}: traceback on stderr\n{result['stderr']}", None
    try:
        if call.rc is not None:
            _exit_code(result, call.rc)
        return None, CHECKS[call.kind](call, result, workdir)
    except (Invalid, KeyError, TypeError, ValueError, OSError) as exc:
        return f"{' '.join(call.argv)}: {type(exc).__name__}: {exc}", None
