"""Moment machinery and statistical verification of model equivalence.

Closed-form observable signatures, empirical summaries with batch-means
standard errors, a brute-force enumeration oracle for the stationary
bivariate law, a two-sample Monte-Carlo equivalence test, and distributional
checks for the individual-level trace. Stochastic checks use a uniform
3-standard-error tolerance policy.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .equivalence import UnderreportedModel, canonicalize
from .errors import (
    InsufficientDataError,
    ParameterError,
    ProvenanceError,
    TruncationError,
)
from .processes import (
    CountSeries,
    Inar1Spec,
    PopulationTrace,
    ReportingSpec,
    apply_reporting,
    simulate_inar_inf,
)
from .sampling import RngStream

BATCH_COUNT = 50
Z_LIMIT = 3.0
TV_MARGINAL_THRESHOLD = 0.01  # calibrated for pooled samples of 2e5 and up
TV_JOINT_THRESHOLD = 0.02  # calibrated for pooled samples of 1e6 and up
CHI2_P_FLOOR = math.erfc(3.0 / math.sqrt(2.0))  # two-sided 3-sigma equivalent, ~0.0027
CANONICAL_TOL = 1e-12


@dataclass(frozen=True)
class MomentSummary:
    """Empirical first/second-order summary of a count series."""

    mean: float
    variance: float
    acf: tuple[float, ...]
    marginal_pmf: dict[int, float]
    n: int
    se_mean: float
    degenerate: bool = False


def _batches(values: np.ndarray, n_batches: int = BATCH_COUNT) -> np.ndarray:
    """``values`` cut into ``n_batches`` equal consecutive rows; the remainder is dropped."""
    usable = values.size - values.size % n_batches
    if usable < n_batches:
        raise InsufficientDataError(
            f"need at least {n_batches} points for batch means, got {values.size}"
        )
    return values[:usable].reshape(n_batches, -1)


def batch_means_se(values: np.ndarray, n_batches: int = BATCH_COUNT) -> float:
    """Standard error of the sample mean from non-overlapping batch means."""
    batch = _batches(values, n_batches).mean(axis=1)
    return float(batch.std(ddof=1) / math.sqrt(n_batches))


def _acf(values: np.ndarray, max_lag: int) -> tuple[float, ...]:
    centered = values - values.mean()
    denom = float(centered @ centered)
    return tuple(
        float(centered[:-k] @ centered[k:]) / denom for k in range(1, max_lag + 1)
    )


def empirical_moments(series: CountSeries, max_lag: int) -> MomentSummary:
    """Sample mean, variance, autocorrelations, marginal pmf and mean SE.

    Requires more than 10 * max_lag observations. A constant series is
    flagged degenerate: its autocorrelations are undefined and left empty.
    """
    if max_lag < 1:
        raise ParameterError(f"max_lag must be at least 1, got {max_lag}")
    values = series.values.astype(np.float64)
    n = values.size
    if n <= 10 * max_lag:
        raise InsufficientDataError(
            f"series of length {n} is too short for lags up to {max_lag}"
        )
    counts = np.bincount(series.values)
    pmf = {k: float(c) / n for k, c in enumerate(counts) if c > 0}
    mean = float(values.mean())
    variance = float(values.var(ddof=1))
    se_mean = batch_means_se(values)
    if variance == 0.0:
        return MomentSummary(mean, 0.0, (), pmf, n, se_mean, degenerate=True)
    return MomentSummary(mean, variance, _acf(values, max_lag), pmf, n, se_mean)


def theoretical_observed_moments(
    model: UnderreportedModel, max_lag: int = 5
) -> tuple[float, float, tuple[float, ...]]:
    """Closed-form mean, variance and autocorrelations of the observed process.

    Computed through the canonical form, so every member of an equivalence
    class maps to the same signature: the observed marginal is Poisson with
    mean q* lambda* / (1 - alpha*) (hence variance equals the mean) and the
    lag-k autocorrelation is q* alpha*^k.
    """
    c = canonicalize(model)
    mean = c.q_star * c.lambda_star / (1.0 - c.alpha_star)
    acf = tuple(c.q_star * c.alpha_star**k for k in range(1, max_lag + 1))
    return mean, mean, acf


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _poisson_pmf(mu: float, n: int) -> np.ndarray:
    """Pois(k; mu) for k = 0..n, from cumulative log-factorials."""
    k = np.arange(n + 1)
    if mu == 0.0:
        return (k == 0).astype(np.float64)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    return np.exp(k * math.log(mu) - mu - log_factorial)


def _poisson_quantile(mu: float, tail: float) -> int:
    """Smallest k with P(X > k) <= tail for X ~ Poisson(mu).

    The tail is summed from the top of a support that reaches far past it.
    A lower-tail cumulative sum would stall just below 1 from rounding and
    overshoot the quantile.
    """
    pmf = _poisson_pmf(mu, int(mu + 12.0 * math.sqrt(mu)) + 40)
    at_least = np.cumsum(pmf[::-1])[::-1]  # P(X >= k)
    beyond = np.append(at_least[1:], 0.0)  # P(X > k)
    return int(np.argmax(beyond <= tail))


def _binomial_table(p: float, n: int) -> np.ndarray:
    """table[x, k] = Bin(k; x, p) for x, k = 0..n, by Pascal's recurrence."""
    table = np.zeros((n + 1, n + 1))
    table[0, 0] = 1.0
    for x in range(1, n + 1):
        table[x] = table[x - 1] * (1.0 - p)
        table[x, 1:] += table[x - 1, :-1] * p
    return table


def joint_pmf_oracle(
    model: UnderreportedModel,
    support_cap: int | None = None,
    truncation: int | None = None,
) -> dict[tuple[int, int], float]:
    """Stationary joint pmf of two consecutive observed counts, by enumeration.

    Only defined for a first-order latent process (gamma = 0). Sums the
    stationary latent marginal against the one-step transition (thinning
    convolved with immigration) and the two observation thinnings:

        P(a, b) = sum_{x1, x2} Pois(x1; mu) P(x2 | x1) Bin(a; x1, q) Bin(b; x2, q)

    with mu = lambda / (1 - alpha). Latent states are enumerated up to
    ``truncation`` and observed values up to ``support_cap``. By default
    these are Poisson quantiles computed in this module: 15 above the point
    leaving 1e-13 of the latent marginal, and 10 above the point leaving
    1e-12 of the observed one. Raises TruncationError if the retained joint
    mass is not above 1 - 1e-8.
    """
    latent = model.latent
    if latent.gamma != 0.0:
        raise ParameterError(
            "the enumeration oracle requires a first-order latent process (gamma = 0)"
        )
    lam, alpha, q = latent.lambda_, latent.beta, model.q
    mu = lam / (1.0 - alpha)
    if truncation is None:
        truncation = _poisson_quantile(mu, 1e-13) + 15
    if support_cap is None:
        support_cap = min(truncation, _poisson_quantile(q * mu, 1e-12) + 10)
    if support_cap < 0 or truncation < 0:
        raise ParameterError("support_cap and truncation must be nonnegative")
    if support_cap > truncation:
        support_cap = truncation

    pi = _poisson_pmf(mu, truncation)
    immigration = _poisson_pmf(lam, truncation)

    # transition[x1, x2] = sum_k Bin(k; x1, alpha) Pois(x2 - k; lambda):
    # survivors of the thinning plus immigrants. arrivals[k, x2] holds
    # Pois(x2 - k; lambda), zero below the diagonal.
    xs = np.arange(truncation + 1)
    arrivals = np.triu(immigration[np.abs(xs[None, :] - xs[:, None])])
    transition = _binomial_table(alpha, truncation) @ arrivals

    observe = _binomial_table(q, truncation)[:, : support_cap + 1]

    joint = observe.T @ (pi[:, None] * (transition @ observe))
    mass = float(joint.sum())
    if mass <= 1.0 - 1e-8:
        raise TruncationError(
            f"retained joint mass {mass} is below 1 - 1e-8; "
            "increase support_cap/truncation"
        )
    return {
        (int(a), int(b)): float(joint[a, b])
        for a in range(support_cap + 1)
        for b in range(support_cap + 1)
    }


class StatComparison(NamedTuple):
    name: str
    value_1: float
    value_2: float
    z: float | None


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the algebraic-plus-statistical equivalence test."""

    canonical_delta: dict[str, float]
    stats: tuple[StatComparison, ...]
    tv_marginal: float
    tv_joint: float
    verdict: str
    seeds: dict[str, int]
    n: dict[str, int]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "canonical_delta": self.canonical_delta,
            "stats": [
                {"name": s.name, "value_1": s.value_1, "value_2": s.value_2, "z": s.z}
                for s in self.stats
            ],
            "tv_marginal": self.tv_marginal,
            "tv_joint": self.tv_joint,
            "verdict": self.verdict,
            "seeds": self.seeds,
            "n": self.n,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False)


def _observed_series(model: UnderreportedModel, t_len: int, stream: RngStream) -> CountSeries:
    latent = simulate_inar_inf(model.latent, t_len, stream.substream(0))
    if model.q == 1.0:
        return latent
    return apply_reporting(latent, ReportingSpec(q=model.q), stream.substream(1))


def _batch_stats(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Per-batch mean, variance and acf_1..max_lag; shape (BATCH_COUNT, 2+max_lag).

    A batch with zero variance has its autocorrelations set to 0.
    """
    batches = _batches(values.astype(np.float64))
    m = batches.shape[1]
    means = batches.mean(axis=1, keepdims=True)
    centred = batches - means
    # lagged[:, k] = sum_j c_j c_{j+k} within each batch; column 0 is the sum of squares.
    lagged = np.column_stack(
        [(centred[:, : m - k] * centred[:, k:]).sum(axis=1) for k in range(max_lag + 1)]
    )
    rows = np.zeros((BATCH_COUNT, 2 + max_lag))
    rows[:, 0] = means[:, 0]
    rows[:, 1] = lagged[:, 0] / (m - 1)
    np.divide(lagged[:, 1:], lagged[:, :1], out=rows[:, 2:], where=lagged[:, :1] > 0)
    return rows


def _pooled_estimates(samples: list[np.ndarray], max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.vstack([_batch_stats(v, max_lag) for v in samples])
    est = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
    return est, se


def _pooled_pmf(samples: list[np.ndarray]) -> dict[int, float]:
    total = sum(v.size for v in samples)
    counts: Counter = Counter()
    for v in samples:
        binned = np.bincount(v)
        counts.update({k: int(c) for k, c in enumerate(binned) if c > 0})
    return {k: c / total for k, c in counts.items()}


def _pooled_joint_pmf(samples: list[np.ndarray]) -> dict[tuple[int, int], float]:
    total = sum(v.size - 1 for v in samples)
    counts: Counter = Counter()
    for v in samples:
        width = int(v.max()) + 1
        codes = v[:-1] * width + v[1:]
        binned = np.bincount(codes)
        counts.update(
            {(int(c // width), int(c % width)): int(m) for c, m in enumerate(binned) if m > 0}
        )
    return {k: c / total for k, c in counts.items()}


def _z_score(estimate: float, target: float, se: float) -> float | None:
    """(estimate - target) / se; 0 for a zero SE on target, None if undefined."""
    if se > 0.0:
        return (estimate - target) / se
    if se == 0.0 and estimate == target:
        return 0.0
    return None


def _within_z_limit(z: float | None) -> bool:
    return z is not None and abs(z) <= Z_LIMIT


def _canonical_within_tolerance(delta: dict[str, float], lambda_scale: float) -> bool:
    return (
        abs(delta["lambda"]) <= CANONICAL_TOL * max(1.0, abs(lambda_scale))
        and abs(delta["alpha"]) <= CANONICAL_TOL
        and abs(delta["q"]) <= CANONICAL_TOL
    )


def equivalence_mc_test(
    m1: UnderreportedModel,
    m2: UnderreportedModel,
    t_len: int,
    reps: int,
    master_seed: RngStream,
    max_lag: int = 5,
) -> EquivalenceReport:
    """Test whether two models generate the same observed process.

    Canonical forms are compared exactly; the observed processes are then
    simulated (``reps`` replicates each, one after another on disjoint
    substreams of ``master_seed``) and compared on mean, variance and
    autocorrelations via batch-means z-scores, on the marginal pmf via total
    variation, and on the empirical bivariate law of consecutive counts
    against the enumeration oracle of the shared equivalence class. The
    verdict passes only if every z-score is defined and within 3 and the
    distances stay under the calibrated thresholds.

    The report is a pure function of the inputs and the master seed.
    """
    if t_len < 10_000:
        raise ParameterError(f"t_len must be at least 10000, got {t_len}")
    if reps < 1:
        raise ParameterError(f"reps must be at least 1, got {reps}")

    sample1, sample2 = [
        [
            _observed_series(model, t_len, master_seed.substream((idx << 32) + r)).values
            for r in range(reps)
        ]
        for idx, model in enumerate((m1, m2))
    ]

    est1, se1 = _pooled_estimates(sample1, max_lag)
    est2, se2 = _pooled_estimates(sample2, max_lag)
    names = ["mean", "variance"] + [f"acf_{k}" for k in range(1, max_lag + 1)]
    comparisons = []
    for i, name in enumerate(names):
        z = _z_score(float(est1[i]), float(est2[i]), math.hypot(se1[i], se2[i]))
        comparisons.append(StatComparison(name, float(est1[i]), float(est2[i]), z))

    tv_marginal = total_variation(_pooled_pmf(sample1), _pooled_pmf(sample2))

    c1, c2 = canonicalize(m1), canonicalize(m2)
    delta = {
        "lambda": c1.lambda_star - c2.lambda_star,
        "alpha": c1.alpha_star - c2.alpha_star,
        "q": c1.q_star - c2.q_star,
    }

    oracle = joint_pmf_oracle(c1.as_model())
    tv_joint = max(
        total_variation(_pooled_joint_pmf(sample1), oracle),
        total_variation(_pooled_joint_pmf(sample2), oracle),
    )

    ok = (
        all(_within_z_limit(c.z) for c in comparisons)
        and tv_marginal <= TV_MARGINAL_THRESHOLD
        and tv_joint <= TV_JOINT_THRESHOLD
        and _canonical_within_tolerance(delta, c1.lambda_star)
    )
    return EquivalenceReport(
        canonical_delta=delta,
        stats=tuple(comparisons),
        tv_marginal=float(tv_marginal),
        tv_joint=float(tv_joint),
        verdict="pass" if ok else "fail",
        seeds={"seed": master_seed.seed, "stream_id": master_seed.stream_id},
        n={"t_len": t_len, "reps": reps, "total": t_len * reps},
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    target: float | None
    estimate: float | None
    z: float | None
    p_value: float | None
    passed: bool
    detail: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "target": self.target,
            "estimate": self.estimate,
            "z": self.z,
            "p_value": self.p_value,
            "passed": self.passed,
        }
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class TraceCheckReport:
    checks: tuple[CheckResult, ...]
    n: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "checks": [c.to_json_dict() for c in self.checks],
            "all_passed": self.all_passed,
            "n": self.n,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False)


def _settle_window(decay: float, horizon: int) -> int:
    # Steps until decay**w < 1e-12, capped at a quarter of the horizon.
    if decay <= 0.0:
        return 1
    return min(math.ceil(math.log(1e-12) / math.log(decay)), max(1, horizon // 4))


def _mean_check(name: str, values: np.ndarray, target: float) -> CheckResult:
    est = float(values.mean())
    z = _z_score(est, target, batch_means_se(values))
    return CheckResult(name, target, est, z, None, _within_z_limit(z))


def _chi2_sf(stat: float, df: int) -> float:
    """P(chi-square with ``df`` degrees of freedom > stat), for integer df >= 1.

    With h = stat / 2 this is the regularized upper incomplete gamma
    Q(df / 2, h): exp(-h) sum_{j < df/2} h^j / j! for even df, and
    erfc(sqrt(h)) plus exp(-h) sum_{j < (df-1)/2} h^(j+1/2) / Gamma(j + 3/2)
    for odd df. Each term is formed in log space, so it does not underflow
    while the sum is still above the smallest double.
    """
    h = stat / 2.0
    if h == 0.0:
        return 1.0
    if df % 2 == 0:
        return sum(
            math.exp(j * math.log(h) - h - math.lgamma(j + 1)) for j in range(df // 2)
        )
    return math.erfc(math.sqrt(h)) + sum(
        math.exp((j + 0.5) * math.log(h) - h - math.lgamma(j + 1.5))
        for j in range(df // 2)
    )


def _geometric_chi_square(gaps: np.ndarray, success_prob: float) -> CheckResult:
    """Chi-square test of re-observation gap counts (``gaps[i]`` for gap i) against
    Geom(success_prob) on {1, 2, ...}."""
    n = int(gaps.sum())
    if n == 0:
        return CheckResult("gap_distribution", None, None, None, None, True,
                           detail={"note": "no re-observations occurred"})
    if success_prob == 1.0:
        ones = int(gaps[1])
        return CheckResult(
            "gap_distribution", 1.0, ones / n, None, None, ones == n,
            detail={"note": "degenerate: every re-observation gap must be 1"},
        )
    # Collapse the tail so every expected bin count is at least 5.
    bins: list[int] = []
    i = 1
    while n * success_prob * (1 - success_prob) ** (i - 1) >= 5.0:
        bins.append(i)
        i += 1
    if len(bins) < 2:
        return CheckResult("gap_distribution", None, None, None, None, True,
                           detail={"note": "too few re-observations for a binned test"})
    expected = [n * success_prob * (1 - success_prob) ** (i - 1) for i in bins]
    tail = n - sum(expected)
    observed = gaps[1 : len(bins) + 1].tolist()
    observed += [0] * (len(bins) - len(observed))
    observed.append(n - sum(observed))
    expected.append(tail)
    if expected[-1] < 5.0:  # fold the tail into the last regular bin
        tail_exp = expected.pop()
        tail_obs = observed.pop()
        expected[-1] += tail_exp
        observed[-1] += tail_obs
    f_obs, f_exp = np.array(observed, dtype=np.float64), np.array(expected)
    stat = float(((f_obs - f_exp) ** 2 / f_exp).sum())
    p = _chi2_sf(stat, len(observed) - 1)
    return CheckResult(
        "gap_distribution", None, None, None, float(p), bool(p >= CHI2_P_FLOOR),
        detail={"chi2": float(stat), "bins": len(observed), "n_gaps": n},
    )


def individual_level_checks(
    trace: PopulationTrace, spec: Inar1Spec, q: float
) -> TraceCheckReport:
    """Verify the distributional decomposition of an individual-level trace.

    Five checks, each at the 3-standard-error level where stochastic:
    the mean of first-time observations, their per-age rates, the geometric
    law of re-observation gaps (chi-square), the fraction of observed
    individuals seen again, and the exact pathwise split of observed counts
    into first and repeat observations.
    """
    if trace.params != (spec.lambda_, spec.alpha, q):
        raise ProvenanceError(
            f"trace was generated under {trace.params}, not "
            f"({spec.lambda_}, {spec.alpha}, {q})"
        )
    t_len = len(trace)
    lam, alpha = spec.lambda_, spec.alpha
    decay = alpha * (1.0 - q)  # survival while staying unobserved
    lam_first = q * lam / (1.0 - decay)
    beta_obs = alpha * q
    # Steps for the empty start to settle, and for later observations past the
    # horizon to stop censoring the re-observation fraction at the end.
    settle = _settle_window(decay, t_len)

    checks = [_mean_check("first_obs_mean", trace.u_total[settle:].astype(float), lam_first)]

    rate_detail = {}
    rate_results = []
    first_t, age, count = trace.u_counts.T
    for i in range(6):
        at_age = age == i
        per_t = np.bincount(first_t[at_age], weights=count[at_age], minlength=t_len)
        start = max(settle, i)
        result = _mean_check(f"age_{i}", per_t[start:], q * lam * decay**i)
        rate_results.append(result)
        rate_detail[str(i)] = {
            "target": result.target, "estimate": result.estimate, "z": result.z,
        }
    worst = max(rate_results, key=lambda r: math.inf if r.z is None else abs(r.z))
    checks.append(CheckResult(
        "first_obs_rates", None, None, worst.z, None,
        all(r.passed for r in rate_results), detail=rate_detail,
    ))

    checks.append(_geometric_chi_square(trace.gaps, 1.0 - decay))

    # Re-observation fraction, without the censored tail.
    x_obs = trace.x_tilde[: t_len - settle].astype(np.float64)
    seen_again = trace.b_tilde[: t_len - settle].astype(np.float64)
    target_frac = beta_obs / (1.0 - decay)
    if x_obs.sum() == 0:
        checks.append(CheckResult("reobservation_fraction", target_frac, None, None, None, True,
                                  detail={"note": "no observations occurred"}))
    else:
        bx = _batches(x_obs).sum(axis=1)
        bb = _batches(seen_again).sum(axis=1)
        ratios = bb[bx > 0] / bx[bx > 0]
        est = float(seen_again.sum() / x_obs.sum())
        se = float(ratios.std(ddof=1) / math.sqrt(ratios.size))
        z = _z_score(est, target_frac, se)
        checks.append(CheckResult(
            "reobservation_fraction", target_frac, est, z, None, _within_z_limit(z),
        ))

    split_ok = bool((trace.x_tilde == trace.u_total + trace.v_total).all())
    checks.append(CheckResult(
        "observation_split_identity", 1.0, 1.0 if split_ok else 0.0, None, None, split_ok,
    ))

    return TraceCheckReport(checks=tuple(checks), n=t_len)
