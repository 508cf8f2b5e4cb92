"""End-to-end acceptance suite.

One test per release criterion; each prints a PASS/FAIL line (visible under
``pytest -s``) and enforces its stated tolerance and runtime budget.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy import stats as sps

from inarq import (
    GeomInarSpec,
    Inar1Spec,
    InarPSpec,
    ReportingSpec,
    RngStream,
    UnderreportedModel,
    absorb_reporting,
    canonicalize,
    equivalence_curve,
    equivalence_mc_test,
    expand_lags,
    individual_level_checks,
    joint_pmf_oracle,
    shift_reporting,
    simulate_inar1,
    simulate_inar_inf,
    simulate_inar_p,
    simulate_individual_level,
)
from inarq.diagnostics import total_variation
from inarq.equivalence import admissible_reporting_interval, split_reporting

LAM, ALPHA, Q = 1.62, 0.52, 0.33
EXAMPLE = UnderreportedModel.from_inar1(Inar1Spec(LAM, ALPHA), Q)
OBSERVED_MEAN = Q * LAM / (1 - ALPHA)  # 1.11375
TOL = 1e-12


def report(number, description, passed):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}",
          flush=True)
    assert passed, f"criterion {number}: {description}"


def close(a, b, scale=1.0):
    return abs(a - b) <= TOL * max(1.0, abs(scale))


def batch_se(values, n_batches=50):
    usable = len(values) - len(values) % n_batches
    means = np.asarray(values[:usable], dtype=float).reshape(n_batches, -1).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(n_batches)


def acf1(values):
    centered = np.asarray(values, dtype=float) - np.mean(values)
    return float(centered[:-1] @ centered[1:] / (centered @ centered))


def batch_acf1_se(values, n_batches=50):
    usable = len(values) - len(values) % n_batches
    batches = np.asarray(values[:usable], dtype=float).reshape(n_batches, -1)
    per_batch = [acf1(b) for b in batches]
    return np.std(per_batch, ddof=1) / math.sqrt(n_batches)


def empirical_pmf(values):
    return np.bincount(values) / len(values)


def empirical_joint_pmf(values):
    width = int(values.max()) + 1
    codes = np.bincount(values[:-1] * width + values[1:], minlength=width * width)
    return codes.reshape(width, width) / (values.size - 1)


def test_criterion_1_transform_reproduction():
    absorb_reporting(Inar1Spec(LAM, ALPHA), Q)  # warm up
    start = time.perf_counter()
    image = absorb_reporting(Inar1Spec(LAM, ALPHA), Q)
    terms = expand_lags(image, 0.005)
    elapsed = time.perf_counter() - start

    # independent hand re-derivation, arithmetic arranged differently
    lam_target = (LAM * Q) / (1 - ALPHA + ALPHA * Q)
    beta_target = ALPHA * Q
    gamma_target = ALPHA - ALPHA * Q
    ok = (
        round(image.lambda_, 2) == 0.82
        and close(image.lambda_, lam_target)
        and close(image.beta, beta_target)
        and close(image.gamma, gamma_target)
        and close(image.beta, 0.1716)
        and close(image.gamma, 0.3484)
        and [round(w, 2) for _, w in terms] == [0.17, 0.06, 0.02, 0.01]
        and elapsed < 1e-3
    )
    report(1, f"transform + lag expansion reproduce published values ({elapsed*1e6:.0f} us)", ok)


def test_criterion_2_equivalence_curve():
    equivalence_curve(EXAMPLE, 8)  # warm up
    start = time.perf_counter()
    points = equivalence_curve(EXAMPLE, 68)
    elapsed = time.perf_counter() - start

    first, last = points[0], points[-1]
    endpoints_ok = (
        close(first.q_y, Q)
        and close(first.lambda_y, LAM, scale=LAM)
        and close(first.beta_y, ALPHA)
        and close(first.gamma_y, 0.0)
        and last.q_y == 1.0
        and round(last.lambda_y, 4) == 0.8204
        and close(last.beta_y, 0.1716)
        and close(last.gamma_y, 0.3484)
    )
    monotone_ok = all(
        b.lambda_y < a.lambda_y and b.gamma_y > a.gamma_y
        for a, b in zip(points, points[1:])
    )
    canonical_ok = True
    for p in points:
        c = canonicalize(
            UnderreportedModel(GeomInarSpec(p.lambda_y, p.beta_y, p.gamma_y), p.q_y)
        )
        canonical_ok &= (
            close(c.lambda_star, LAM, scale=LAM)
            and close(c.alpha_star, ALPHA)
            and close(c.q_star, Q)
        )
    ok = endpoints_ok and monotone_ok and canonical_ok and elapsed < 1e-2
    report(2, f"equivalence curve endpoints, monotonicity, class invariance ({elapsed*1e3:.1f} ms)", ok)


def test_criterion_3_algebraic_property_suite():
    draws = 10_000
    g = np.random.default_rng(3_2026)
    start = time.perf_counter()
    ok = True
    for _ in range(draws):
        lam = g.uniform(0.1, 10.0)
        alpha = g.uniform(0.0, 0.95)
        q = g.uniform(0.05, 1.0)

        # round trip: fold reporting into the lags, then split it back out
        image = absorb_reporting(Inar1Spec(lam, alpha), q)
        c = split_reporting(image)
        ok &= close(c.lambda_star, lam, scale=lam)
        ok &= close(c.alpha_star, alpha) and close(c.q_star, q)

        # opposite direction on a lag-structure draw
        beta = g.uniform(0.01, 0.9)
        gamma = g.uniform(0.0, 0.97 - beta)
        spec = GeomInarSpec(lam, beta, gamma)
        cc = split_reporting(spec)
        back = absorb_reporting(Inar1Spec(cc.lambda_star, cc.alpha_star), cc.q_star)
        ok &= close(back.lambda_, lam, scale=lam)
        ok &= close(back.beta, beta) and close(back.gamma, gamma)

        # reporting-probability shifts: semigroup law and conserved quantities
        model = UnderreportedModel(spec, q)
        lower, upper = admissible_reporting_interval(model)
        q1 = g.uniform(lower, upper)
        q2 = g.uniform(lower, upper)
        two_step = shift_reporting(shift_reporting(model, q1), q2)
        one_step = shift_reporting(model, q2)
        ok &= close(two_step.latent.lambda_, one_step.latent.lambda_,
                    scale=one_step.latent.lambda_)
        ok &= close(two_step.latent.beta, one_step.latent.beta)
        ok &= close(two_step.latent.gamma, one_step.latent.gamma)

        shifted = shift_reporting(model, q1)
        ok &= close(shifted.latent.beta + shifted.latent.gamma, beta + gamma)
        c_model, c_shifted = canonicalize(model), canonicalize(shifted)
        ok &= close(c_shifted.lambda_star, c_model.lambda_star, scale=c_model.lambda_star)
        ok &= close(c_shifted.alpha_star, c_model.alpha_star)
        ok &= close(c_shifted.q_star, c_model.q_star)
        ok &= close(
            shifted.q * shifted.latent.stationary_mean,
            q * spec.stationary_mean,
            scale=q * spec.stationary_mean,
        )
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(3, f"round trips, semigroup law, conserved quantities over {draws} draws ({elapsed:.2f} s)", ok)


def test_criterion_4_monte_carlo_equivalence(reseed_once):
    image_model = UnderreportedModel(absorb_reporting(Inar1Spec(LAM, ALPHA), Q), 1.0)
    start = time.perf_counter()

    def check(seed):
        rep = equivalence_mc_test(EXAMPLE, image_model, 200_000, 3, RngStream(seed))
        assert all(abs(s.z) <= 3 for s in rep.stats), rep.to_json()
        assert rep.tv_marginal <= 0.01, rep.to_json()
        assert rep.passed, rep.to_json()

    reseed_once(check, 20_260_810, 20_260_811)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(4, f"underreported first-order vs fully observed geometric-lag process, t=2e5 x3 ({elapsed:.1f} s)", ok)


def test_criterion_5_joint_law_oracle(reseed_once):
    start = time.perf_counter()
    oracle = joint_pmf_oracle(EXAMPLE)

    marginal = oracle.sum(axis=1)
    marginal_ok = bool(
        (np.abs(marginal - sps.poisson.pmf(np.arange(marginal.size), OBSERVED_MEAN)) <= 1e-8).all()
    )

    image = absorb_reporting(Inar1Spec(LAM, ALPHA), Q)

    def check(seed):
        series = simulate_inar_inf(image, 1_000_000, RngStream(seed))
        tv = total_variation(empirical_joint_pmf(series.values), oracle)
        assert tv <= 0.02, f"joint TV {tv}"

    reseed_once(check, 501, 502)
    elapsed = time.perf_counter() - start
    ok = marginal_ok and elapsed < 300.0
    report(5, f"bivariate law of 1e6-step simulation matches the pair-law oracle ({elapsed:.1f} s)", ok)


def test_criterion_6_individual_level_reconstruction(reseed_once):
    start = time.perf_counter()

    def check(seed):
        trace = simulate_individual_level(
            Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 100_000, RngStream(seed)
        )
        assert (trace.x_tilde == trace.u_total + trace.v_total).all()
        rep = individual_level_checks(trace)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["first_obs_mean"].passed, rep.to_json()
        assert by_name["first_obs_rates"].passed, rep.to_json()
        assert by_name["gap_distribution"].passed, rep.to_json()
        assert rep.all_passed, rep.to_json()
        # the first-observation mean target is the published 0.82 rate
        assert round(by_name["first_obs_mean"].values["target"], 4) == 0.8204

    reseed_once(check, 601, 602)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(6, f"individual-level trace reproduces the observation decomposition ({elapsed:.1f} s)", ok)


def test_criterion_7_degenerations(reseed_once):
    def check_order_one(seed):
        p1 = simulate_inar_p(InarPSpec(LAM, (ALPHA,)), 100_000, RngStream(seed))
        i1 = simulate_inar1(Inar1Spec(LAM, ALPHA), 100_000, RngStream(seed + 1))
        se_mean = math.hypot(batch_se(p1.values), batch_se(i1.values))
        assert abs(p1.values.mean() - i1.values.mean()) <= 3 * se_mean
        se_acf = math.hypot(batch_acf1_se(p1.values), batch_acf1_se(i1.values))
        assert abs(acf1(p1.values) - acf1(i1.values)) <= 3 * se_acf

    def check_truncation(seed):
        image = absorb_reporting(Inar1Spec(LAM, ALPHA), Q)
        weights = tuple(image.beta * image.gamma ** i for i in range(30))
        truncated = simulate_inar_p(InarPSpec(image.lambda_, weights), 100_000, RngStream(seed))
        full = simulate_inar_inf(image, 100_000, RngStream(seed + 1))
        tv = total_variation(empirical_pmf(truncated.values), empirical_pmf(full.values))
        assert tv <= 0.01, f"marginal TV {tv}"

    reseed_once(check_order_one, 701, 702)
    reseed_once(check_truncation, 711, 712)
    report(7, "order-1 and truncated-lag simulators match their limits", True)


def test_criterion_8_cli_determinism(tmp_path):
    spec_path = tmp_path / "model.json"
    spec_path.write_text(json.dumps({
        "latent": {"kind": "inar1", "lambda": LAM, "alpha": ALPHA},
        "reporting": {"q": Q, "omega": 1.0},
    }), encoding="utf-8")
    image_path = tmp_path / "image.json"
    image_path.write_text(json.dumps({
        "latent": {"kind": "geom_inf", "lambda": 0.820441988950,
                   "beta": 0.1716, "gamma": 0.3484},
        "reporting": {"q": 1.0, "omega": 1.0},
    }), encoding="utf-8")

    series_out = tmp_path / "series.csv"
    curve_out = tmp_path / "curve.csv"
    trace_out = tmp_path / "trace.csv"
    commands = [
        ("simulate", [str(spec_path), "--t", "5000", "--seed", "8", "--out", str(series_out)],
         [series_out]),
        ("transform", [str(spec_path), "--to", "q=0.5"], []),
        ("expand", [str(image_path), "--cutoff", "0.005"], []),
        ("curve", [str(spec_path), "--grid", "68", "--out", str(curve_out)], [curve_out]),
        ("check", [str(spec_path), str(image_path), "--t", "10000", "--reps", "1",
                   "--seed", "8"], []),
        ("appendix", [str(spec_path), "--t", "5000", "--seed", "8", "--out", str(trace_out)],
         [trace_out, tmp_path / "trace_long.csv"]),
    ]
    ok = True
    for name, args, files in commands:
        runs = []
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-m", "inarq", name, *args],
                capture_output=True,
            )
            runs.append((res.returncode, res.stdout, res.stderr,
                         tuple(f.read_bytes() for f in files)))
        if runs[0] != runs[1]:
            ok = False
            break
    report(8, "every CLI command byte-reproduces its outputs under a fixed seed", ok)
