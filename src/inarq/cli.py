"""Command-line interface: simulate, transform, expand, curve, check, appendix.

Model parameters come in as JSON spec files, bulk data goes out as CSV files,
and summaries are printed to stdout as JSON. Exit codes: 0 success or pass,
1 equivalence/check failure, 2 input error, 3 reporting-probability out of
its admissible range.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import TYPE_CHECKING

from .equivalence import (
    UnderreportedModel,
    canonicalize,
    equivalence_curve,
    expand_lags,
    shift_reporting,
    write_curve_csv,
)
from .errors import AdmissibleRangeError, InarError, ParameterError, UnsupportedMechanismError
from .specs import GeomInarSpec, Inar1Spec, ReportingSpec

if TYPE_CHECKING:
    from .processes import CountSeries
    from .sampling import RngStream

# The names the drawing commands call from the numpy-backed layers, by the
# module that holds them. A command imports only the layers it runs, when it
# first runs, so the closed-form commands load no numpy and `simulate` loads
# no statistics layer. They are bound as attributes of this module and looked
# up at call time, so whoever replaces one here (a tracer, a test) replaces
# what the commands call.
_DRAWING = {
    "diagnostics": ("equivalence_mc_test", "individual_level_checks"),
    "processes": ("_acf", "apply_reporting", "simulate_inar1", "simulate_inar_inf",
                  "simulate_individual_level", "simulation_route", "write_series_csv",
                  "write_trace_csv"),
    "sampling": ("RngStream",),
}


def _bind_drawing(*modules: str) -> None:
    """Bind the names of the drawing layers ``modules`` here, keeping any already bound."""
    for module in modules:
        # __import__, not importlib.import_module: -X importtime logs only its loads.
        mod = __import__(f"{__package__}.{module}", fromlist=_DRAWING[module])
        for name in _DRAWING[module]:
            globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    for module, names in _DRAWING.items():
        if name in names:
            _bind_drawing(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _f(x: float) -> float:
    """Round to 12 significant digits for JSON output."""
    return float(f"{x:.12g}")


def _require_number(doc: dict, key: str, where: str) -> float:
    if key not in doc:
        raise ParameterError(f"{where} is missing required field '{key}'")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{where} field '{key}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ParameterError(f"{where} field '{key}' is too large for a float") from exc


# The keys each object of a spec document may hold, the latent object's by kind.
_KEYS = {"spec": ("latent", "reporting"), "reporting": ("q", "omega"),
         "inar1": ("kind", "lambda", "alpha"), "geom_inf": ("kind", "lambda", "beta", "gamma")}


def _require_known_keys(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ParameterError(
                f"{where} has unknown key {key!r}; its keys are {', '.join(allowed)}"
            )


def load_model_file(path: str) -> tuple[UnderreportedModel, ReportingSpec, str]:
    """Parse a model spec file into (model, reporting spec, latent kind).

    The canonical document shape is
    ``{"latent": {"kind": "inar1"|"geom_inf", ...}, "reporting": {"q": ..., "omega": ...}}``
    with reporting optional (defaults q=1, omega=1). The flat parameter
    objects printed by ``transform`` ({lambda, beta, gamma} or
    {lambda, alpha, q}) are accepted as well, so its output pipes back in.
    A key that no object of the shape takes is rejected.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, or nested too deep
        raise ParameterError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"model spec {path} must be a JSON object")

    if "latent" not in doc:
        keys = set(doc)
        if keys == {"lambda", "beta", "gamma"}:
            doc = {"latent": {"kind": "geom_inf", **doc}}
        elif keys == {"lambda", "alpha", "q"}:
            doc = {
                "latent": {"kind": "inar1", "lambda": doc["lambda"], "alpha": doc["alpha"]},
                "reporting": {"q": doc["q"]},
            }
        else:
            raise ParameterError(f"model spec {path} must contain a 'latent' object")
    _require_known_keys(doc, _KEYS["spec"], "the model spec")

    latent_doc = doc["latent"]
    if not isinstance(latent_doc, dict):
        raise ParameterError("'latent' must be a JSON object")
    kind = latent_doc.get("kind")
    if kind not in ("inar1", "geom_inf"):  # a tuple: kind may be unhashable
        raise ParameterError(f"latent kind must be 'inar1' or 'geom_inf', got {kind!r}")
    _require_known_keys(latent_doc, _KEYS[kind], f"'latent' of kind {kind!r}")
    if kind == "inar1":
        spec = Inar1Spec(
            lambda_=_require_number(latent_doc, "lambda", "latent"),
            alpha=_require_number(latent_doc, "alpha", "latent"),
        )
        latent = GeomInarSpec(spec.lambda_, spec.alpha, 0.0)
    else:
        latent = GeomInarSpec(
            lambda_=_require_number(latent_doc, "lambda", "latent"),
            beta=_require_number(latent_doc, "beta", "latent"),
            gamma=_require_number(latent_doc, "gamma", "latent"),
        )

    rep_doc = doc.get("reporting", {})
    if not isinstance(rep_doc, dict):
        raise ParameterError("'reporting' must be a JSON object")
    _require_known_keys(rep_doc, _KEYS["reporting"], "'reporting'")
    q = _require_number(rep_doc, "q", "reporting") if "q" in rep_doc else 1.0
    omega = _require_number(rep_doc, "omega", "reporting") if "omega" in rep_doc else 1.0
    reporting = ReportingSpec(q=q, omega=omega)
    return UnderreportedModel(latent=latent, q=q), reporting, kind


def _require_homogeneous(reporting: ReportingSpec, what: str) -> None:
    if reporting.omega != 1.0:
        raise UnsupportedMechanismError(
            f"{what} requires time-homogeneous reporting (omega = 1), "
            f"got omega = {reporting.omega}"
        )


# glibc's mallopt parameter numbers (malloc.h) and the values the drawing
# commands set: the mmap threshold at glibc's own dynamic cap on 64-bit, the
# trim threshold at twice it, glibc's own rule for the pair.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@functools.cache
def _pin_allocator() -> bool:
    """Pin glibc's mmap and trim thresholds, once per process.

    glibc maps a block above its mmap threshold (128 kB at start, then raised
    by earlier frees) from fresh pages and returns freed heap above its trim
    threshold, so otherwise every op of a drawing command faults its working
    arrays (80-600 kB) in again. With both set, blocks up to 32 MiB are reused
    from the heap and larger ones are still mapped and returned. Only the
    drawing commands call this; the library leaves its host's allocator
    alone. Returns whether glibc took both values; without ``mallopt``
    (another C library) or a loadable C library it changes nothing.
    """
    import ctypes  # here, not at the top: the closed-form commands never need it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


def _draw_class(model: UnderreportedModel, args, draw: RngStream, thin: RngStream) -> CountSeries:
    """A series with the observed law of ``model``: the class member that
    :func:`simulation_route` picks, drawn on ``draw`` and thinned on ``thin``."""
    spec, q = simulation_route(model)
    simulate = simulate_inar1 if isinstance(spec, Inar1Spec) else simulate_inar_inf
    series = simulate(spec, args.t, draw, burn_in=args.burn_in)
    return series if q == 1.0 else apply_reporting(series, ReportingSpec(q=q), thin)


def cmd_simulate(args) -> int:
    _bind_drawing("processes", "sampling")
    _pin_allocator()
    model, reporting, _ = load_model_file(args.spec)
    stream = RngStream(args.seed)
    draw, report = stream.substream(0), stream.substream(1)
    if reporting.omega == 1.0:
        observed = _draw_class(model, args, draw, report)
    else:
        # Only some steps are thinned, so the latent series itself is drawn,
        # from its own class, and then reported.
        latent = _draw_class(UnderreportedModel(model.latent, 1.0), args, draw, draw)
        observed = apply_reporting(latent, reporting, report)
    write_series_csv(observed, args.out)

    vals = observed.values.astype(float)
    mean = float(vals.mean())
    variance = float(vals.var(ddof=1)) if vals.size > 1 else 0.0
    print(json.dumps({
        "mean": _f(mean),
        "variance": _f(variance),
        "acf_1": _f(_acf(vals, 1)[0]) if variance > 0.0 else None,
        "n": len(observed),
    }, allow_nan=False))
    return 0


def cmd_transform(args) -> int:
    model, reporting, _ = load_model_file(args.spec)
    _require_homogeneous(reporting, "transform")
    target = args.to
    if target == "inf":
        shifted = shift_reporting(model, 1.0)
        out = {
            "lambda": _f(shifted.latent.lambda_),
            "beta": _f(shifted.latent.beta),
            "gamma": _f(shifted.latent.gamma),
        }
    elif target == "canonical":
        canon = canonicalize(model)
        out = {
            "lambda": _f(canon.lambda_star),
            "alpha": _f(canon.alpha_star),
            "q": _f(canon.q_star),
        }
    elif target.startswith("q="):
        try:
            q_target = float(target[2:])
        except ValueError as exc:
            raise ParameterError(f"cannot parse target probability from {target!r}") from exc
        shifted = shift_reporting(model, q_target)
        out = {
            "latent": {
                "kind": "geom_inf",
                "lambda": _f(shifted.latent.lambda_),
                "beta": _f(shifted.latent.beta),
                "gamma": _f(shifted.latent.gamma),
            },
            "reporting": {"q": _f(shifted.q), "omega": 1.0},
        }
    else:
        raise ParameterError(f"--to must be 'inf', 'canonical' or 'q=VALUE', got {target!r}")
    print(json.dumps(out, indent=2, allow_nan=False))
    return 0


def cmd_expand(args) -> int:
    model, _, _ = load_model_file(args.spec)
    terms = expand_lags(model.latent, args.cutoff)
    lines = ["i,alpha_i"]
    lines.extend(f"{i},{w:.12g}" for i, w in terms)
    print("\n".join(lines))
    return 0


def cmd_curve(args) -> int:
    model, reporting, _ = load_model_file(args.spec)
    _require_homogeneous(reporting, "curve")
    points = equivalence_curve(model, args.grid)
    write_curve_csv(points, args.out)
    print(json.dumps({
        "rows": len(points),
        "q_lower": _f(points[0].q_y),
        "q_upper": _f(points[-1].q_y),
    }, allow_nan=False))
    return 0


def cmd_check(args) -> int:
    _bind_drawing("diagnostics", "sampling")
    _pin_allocator()
    m1, rep1, _ = load_model_file(args.spec_1)
    m2, rep2, _ = load_model_file(args.spec_2)
    _require_homogeneous(rep1, "check")
    _require_homogeneous(rep2, "check")
    report = equivalence_mc_test(m1, m2, args.t, args.reps, RngStream(args.seed))
    print(report.to_json())
    return 0 if report.passed else 1


def cmd_appendix(args) -> int:
    _bind_drawing("diagnostics", "processes", "sampling")
    _pin_allocator()
    model, reporting, kind = load_model_file(args.spec)
    if kind != "inar1":
        raise ParameterError(
            "the individual-level reconstruction requires a latent kind 'inar1' spec"
        )
    _require_homogeneous(reporting, "appendix")
    spec = Inar1Spec(model.latent.lambda_, model.latent.beta)
    trace = simulate_individual_level(spec, reporting, args.t, RngStream(args.seed))
    base, ext = os.path.splitext(args.out)
    long_path = f"{base}_long{ext or '.csv'}"
    # Check first, so an input error from the checks leaves no files behind.
    report = individual_level_checks(trace)
    write_trace_csv(trace, args.out, long_path)
    print(report.to_json())
    return 0 if report.all_passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``inarq`` argument parser, built once per process: parsing leaves
    it unchanged, and building it costs more than a parse."""
    parser = argparse.ArgumentParser(
        prog="inarq",
        description=(
            "Simulate integer-valued autoregressive count processes under "
            "underreporting and verify exact equivalences between their "
            "parameterizations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a model spec and write the series as CSV")
    p.add_argument("spec", help="model spec JSON file")
    p.add_argument("--t", type=int, required=True, help="number of retained steps")
    p.add_argument("--burn-in", type=int, default=0,
                   help="extra steps to simulate and discard (default 0); the simulation "
                        "already starts exactly stationary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transform", help="print an equivalent parameterization as JSON")
    p.add_argument("spec")
    p.add_argument("--to", required=True, metavar="{inf|canonical|q=VALUE}",
                   help="fully observed form, canonical form, or a target reporting probability")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("expand", help="print lag weights above a cutoff as CSV")
    p.add_argument("spec")
    p.add_argument("--cutoff", type=float, default=0.005)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("curve", help="tabulate the equivalence class over reporting probabilities")
    p.add_argument("spec")
    p.add_argument("--grid", type=int, default=68, help="number of grid points (2 to 10**6)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("check", help="Monte-Carlo equivalence test between two model specs")
    p.add_argument("spec_1")
    p.add_argument("spec_2")
    p.add_argument("--t", type=int, default=200_000)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("appendix", help="individual-level trace CSVs plus decomposition checks")
    p.add_argument("spec")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="trace CSV path; a *_long companion file is written too")
    p.set_defaults(func=cmd_appendix)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AdmissibleRangeError as exc:
        print(json.dumps({
            "error": str(exc),
            "admissible_interval": [_f(exc.lower), _f(exc.upper)],
        }), file=sys.stderr)
        return 3
    except InarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
