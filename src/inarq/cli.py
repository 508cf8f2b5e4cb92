"""Command-line interface: simulate, transform, expand, curve, check, appendix.

Model parameters come in as JSON spec files, bulk data goes out as CSV files,
and summaries are printed to stdout as JSON. Exit codes: 0 success or pass,
1 equivalence/check failure, 2 input error, 3 reporting-probability out of
its admissible range.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diagnostics import _acf, equivalence_mc_test, individual_level_checks
from .equivalence import (
    UnderreportedModel,
    canonicalize,
    equivalence_curve,
    expand_lags,
    shift_reporting,
    write_curve_csv,
)
from .errors import AdmissibleRangeError, InarError, ParameterError, UnsupportedMechanismError
from .processes import (
    GeomInarSpec,
    Inar1Spec,
    ReportingSpec,
    apply_reporting,
    simulate_inar1,
    simulate_inar_inf,
    simulate_individual_level,
    write_series_csv,
    write_trace_csv,
)
from .sampling import RngStream


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


def load_model_file(path: str) -> tuple[UnderreportedModel, ReportingSpec, str]:
    """Parse a model spec file into (model, reporting spec, latent kind).

    The canonical document shape is
    ``{"latent": {"kind": "inar1"|"geom_inf", ...}, "reporting": {"q": ..., "omega": ...}}``
    with reporting optional (defaults q=1, omega=1). The flat parameter
    objects printed by ``transform`` ({lambda, beta, gamma} or
    {lambda, alpha, q}) are accepted as well, so its output pipes back in.
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

    latent_doc = doc["latent"]
    if not isinstance(latent_doc, dict):
        raise ParameterError("'latent' must be a JSON object")
    kind = latent_doc.get("kind")
    if kind == "inar1":
        if "beta" in latent_doc or "gamma" in latent_doc:
            raise ParameterError("latent kind 'inar1' forbids 'beta' and 'gamma'")
        spec = Inar1Spec(
            lambda_=_require_number(latent_doc, "lambda", "latent"),
            alpha=_require_number(latent_doc, "alpha", "latent"),
        )
        latent = GeomInarSpec(spec.lambda_, spec.alpha, 0.0)
    elif kind == "geom_inf":
        if "alpha" in latent_doc:
            raise ParameterError("latent kind 'geom_inf' forbids 'alpha'")
        latent = GeomInarSpec(
            lambda_=_require_number(latent_doc, "lambda", "latent"),
            beta=_require_number(latent_doc, "beta", "latent"),
            gamma=_require_number(latent_doc, "gamma", "latent"),
        )
    else:
        raise ParameterError(f"latent kind must be 'inar1' or 'geom_inf', got {kind!r}")

    rep_doc = doc.get("reporting", {})
    if not isinstance(rep_doc, dict):
        raise ParameterError("'reporting' must be a JSON object")
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


def cmd_simulate(args) -> int:
    model, reporting, kind = load_model_file(args.spec)
    stream = RngStream(args.seed)
    if kind == "inar1":
        spec = Inar1Spec(model.latent.lambda_, model.latent.beta)
        latent = simulate_inar1(spec, args.t, stream.substream(0), burn_in=args.burn_in)
    else:
        latent = simulate_inar_inf(model.latent, args.t, stream.substream(0), burn_in=args.burn_in)
    observed = apply_reporting(latent, reporting, stream.substream(1))
    write_series_csv(observed, args.out)

    vals = observed.values.astype(float)
    mean = float(vals.mean())
    variance = float(vals.var(ddof=1)) if vals.size > 1 else 0.0
    print(json.dumps({
        "mean": _f(mean),
        "variance": _f(variance),
        "acf_1": _f(_acf(vals, 1)[0]) if variance > 0.0 else None,
        "n": len(observed),
    }))
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
    print(json.dumps(out, indent=2))
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
    }))
    return 0


def cmd_check(args) -> int:
    m1, rep1, _ = load_model_file(args.spec_1)
    m2, rep2, _ = load_model_file(args.spec_2)
    _require_homogeneous(rep1, "check")
    _require_homogeneous(rep2, "check")
    report = equivalence_mc_test(m1, m2, args.t, args.reps, RngStream(args.seed))
    print(report.to_json())
    return 0 if report.passed else 1


def cmd_appendix(args) -> int:
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
    write_trace_csv(trace, args.out, long_path)
    report = individual_level_checks(trace, spec, reporting.q)
    print(report.to_json())
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
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
