"""Workload definitions: generated spec files, the calls that make up one op, and sizes.

Every workload's inputs are fixed model specs plus seeds drawn from the
workload seed, so the same seed gives the same calls. The runner and the
worker both build an op's calls from this module, the worker to run them
and the runner to validate what they produced.

The sizes are far below the README-scale runs (T = 2e6 and 2e5 become
5e4 and 5e3; check and appendix run at T = 1e4, the smallest length the
equivalence test admits), so that an op takes about a second or less and
one run holds a dozen ops or more. The ratios between the simulate specs
are kept.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("simulate", "check", "appendix", "cli")

# README worked example and the specs derived from it.
WORKED = {"latent": {"kind": "inar1", "lambda": 1.62, "alpha": 0.52},
          "reporting": {"q": 0.33, "omega": 1.0}}
# Its fully observed image, exactly as `inarq transform --to inf` prints it.
IMAGE = {"lambda": 0.82044198895, "beta": 0.1716, "gamma": 0.3484}
# Dense geometric-lag spec: latent mean 40, omega < 1 mixing of thinned and complete counts.
DENSE = {"latent": {"kind": "geom_inf", "lambda": 20.0, "beta": 0.3, "gamma": 0.4},
         "reporting": {"q": 0.5, "omega": 0.8}}
# Same latent family as WORKED with alpha moved from 0.52 to 0.56: not equivalent.
PERTURBED = {"latent": {"kind": "inar1", "lambda": 1.62, "alpha": 0.56},
             "reporting": {"q": 0.33, "omega": 1.0}}
SPECS = {"worked": WORKED, "image": IMAGE, "dense": DENSE, "perturbed": PERTURBED}
SPECS_USED = {
    "simulate": ("worked", "image", "dense"),
    "check": ("worked", "image", "perturbed"),
    "appendix": ("worked",),
    "cli": ("worked", "image"),
}

# Order-3 latent process run through the library (the CLI has no order-p spec).
ORDER3 = {"lambda": 1.62, "alphas": (0.3, 0.15, 0.07), "q": 0.33}

T_LONG = 50_000  # worked example and its image
T_SHORT = 5_000  # dense spec (as many appearances as T_LONG, a tenth of the steps) and order 3
CHECK_T = 10_000
CHECK_REPS = 3
APPENDIX_T = 10_000
CLI_SIM_T = 10_000
CURVE_GRID = 68


@dataclass(frozen=True)
class Call:
    """One program call inside an op and what its output must satisfy.

    ``argv`` is the `inarq` command line, or ``("library", "order3")`` for
    the library pipeline. ``kind`` names the validator, ``rc`` the expected
    exit code (None where it must agree with the reported verdict) and
    ``steps`` the retained simulated steps the call produces.
    """

    argv: tuple[str, ...]
    kind: str
    rc: int | None
    steps: int = 0
    params: dict = field(default_factory=dict)


def latent_mean(doc: dict) -> float:
    """Stationary latent mean of a spec document, from its closed form."""
    lat = doc.get("latent", {"kind": "geom_inf", **doc})
    if lat["kind"] == "inar1":
        return lat["lambda"] / (1.0 - lat["alpha"])
    return lat["lambda"] * (1.0 - lat["gamma"]) / (1.0 - lat["beta"] - lat["gamma"])


def observed_mean(doc: dict) -> float:
    """Observed mean: with probability omega the count is thinned by q."""
    rep = doc.get("reporting", {})
    q, omega = rep.get("q", 1.0), rep.get("omega", 1.0)
    return latent_mean(doc) * (omega * q + 1.0 - omega)


def order3_observed_mean() -> float:
    return ORDER3["q"] * ORDER3["lambda"] / (1.0 - sum(ORDER3["alphas"]))


def write_specs(workload: str, workdir: Path) -> None:
    """Write the workload's spec files into ``workdir``."""
    for name in SPECS_USED[workload]:
        (workdir / f"{name}.json").write_text(json.dumps(SPECS[name]) + "\n", encoding="utf-8")


def op_seeds(seed: int):
    """Endless deterministic stream of per-op program seeds for a workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def _simulate_call(spec: str, t: int, seed: int, out: str) -> Call:
    return Call(("simulate", f"{spec}.json", "--t", str(t), "--seed", str(seed), "--out", out),
                "simulate", 0, t, {"csv": out, "rows": t, "mean": observed_mean(SPECS[spec])})


def op_calls(workload: str, seed: int) -> list[Call]:
    """The calls of one op of ``workload`` with program seed ``seed``."""
    if workload == "simulate":
        return [
            _simulate_call("worked", T_LONG, seed, "worked.csv"),
            _simulate_call("image", T_LONG, seed, "image.csv"),
            _simulate_call("dense", T_SHORT, seed, "dense.csv"),
            Call(("library", "order3", str(T_SHORT), str(seed), "order3.csv"), "library", 0,
                 T_SHORT, {"csv": "order3.csv", "rows": T_SHORT, "mean": order3_observed_mean()}),
        ]
    if workload == "check":
        common = ("--t", str(CHECK_T), "--reps", str(CHECK_REPS), "--seed", str(seed))
        steps = 2 * CHECK_REPS * CHECK_T
        params = {"t_len": CHECK_T, "reps": CHECK_REPS}
        return [
            Call(("check", "worked.json", "image.json") + common, "check", None, steps,
                 {**params, "equivalent": True}),
            Call(("check", "worked.json", "perturbed.json") + common, "check", None, steps,
                 {**params, "equivalent": False}),
        ]
    if workload == "appendix":
        return [Call(("appendix", "worked.json", "--t", str(APPENDIX_T), "--seed", str(seed),
                      "--out", "trace.csv"), "appendix", None, APPENDIX_T,
                     {"csv": "trace.csv", "long_csv": "trace_long.csv", "rows": APPENDIX_T,
                      "x_mean": latent_mean(WORKED),
                      "x_tilde_mean": WORKED["reporting"]["q"] * latent_mean(WORKED)})]
    if workload == "cli":
        return [
            Call(("transform", "worked.json", "--to", "inf"), "transform", 0,
                 params={"expected": "transform_inf"}),
            Call(("transform", "worked.json", "--to", "canonical"), "transform", 0,
                 params={"expected": "transform_canonical"}),
            Call(("transform", "worked.json", "--to", "q=0.5"), "transform", 0,
                 params={"expected": "transform_q0.5"}),
            Call(("transform", "worked.json", "--to", "q=0.1"), "range_error", 3),
            Call(("expand", "image.json", "--cutoff", "0.005"), "expand", 0),
            Call(("curve", "worked.json", "--grid", str(CURVE_GRID), "--out", "curve.csv"),
                 "curve", 0, params={"csv": "curve.csv", "rows": CURVE_GRID}),
            _simulate_call("worked", CLI_SIM_T, seed, "cli_series.csv"),
        ]
    raise ValueError(f"unknown workload {workload!r}")
