"""Moment machinery and statistical verification of model equivalence.

Closed-form observable signatures, a closed-form oracle for the stationary
law of two consecutive observed counts, a two-sample Monte-Carlo
equivalence test on batch-means statistics, and distributional checks for
the individual-level trace. Every stochastic gate gives a p-value, and a
verdict of k gates passes only when each has p >= LEVEL / k (Bonferroni),
so a verdict on equivalent inputs fails with probability at most LEVEL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .equivalence import UnderreportedModel, absorb_reporting, canonicalize
from .errors import ParameterError, TruncationError
from .processes import (
    CountSeries,
    Inar1Spec,
    PopulationTrace,
    ReportingSpec,
    _require_geom_block_size,
    _require_steps,
    apply_reporting,
    simulate_inar_inf,
)
from .sampling import RngStream

BATCH_COUNT = 50
MAX_LAG = 5  # autocorrelation lags equivalence_mc_test compares
LEVEL = 0.01  # family-wise false-rejection level of each verdict
CANONICAL_TOL = 1e-12


def _batches(values: np.ndarray) -> np.ndarray:
    """``values`` cut into BATCH_COUNT equal consecutive rows; the remainder is
    dropped. :func:`equivalence_mc_test` admits at least 10000 values, so each
    row holds at least 200."""
    return values[: values.size - values.size % BATCH_COUNT].reshape(BATCH_COUNT, -1)


def theoretical_observed_moments(
    model: UnderreportedModel,
) -> tuple[float, float, tuple[float, ...]]:
    """Closed-form mean, variance and autocorrelations at lags 1..MAX_LAG of
    the observed process.

    Computed through the canonical form, so every member of an equivalence
    class maps to the same signature: the observed marginal is Poisson with
    mean q* lambda* / (1 - alpha*) (hence variance equals the mean) and the
    lag-k autocorrelation is q* alpha*^k.
    """
    c = canonicalize(model)
    mean = c.q_star * c.lambda_star / (1.0 - c.alpha_star)
    acf = tuple(c.q_star * c.alpha_star**k for k in range(1, MAX_LAG + 1))
    return mean, mean, acf


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two pmfs given as arrays of equal rank.

    ``p[k]`` (or ``p[a, b]``) is the probability of the value k (or of the
    pair (a, b)). The arrays may differ in shape: each is zero-padded to
    their common shape.
    """
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    diff = np.zeros(np.maximum(p.shape, q.shape))
    diff[tuple(map(slice, p.shape))] = p
    diff[tuple(map(slice, q.shape))] -= q
    return 0.5 * float(np.abs(diff).sum())


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


# The pair-law oracle's table holds (cap + 1)**2 float64s, cap 10 above the
# point leaving 1e-12 of Poisson(observed mean). A side of at most this many
# states (a table of at most 32 MiB) admits observed means up to about 1736.
MAX_ORACLE_STATES = 2048


def _oracle_support_cap(mean: float, whose: str = "the model's") -> int:
    """The oracle's largest tabulated value for the observed mean ``mean``, or a
    ParameterError naming ``whose`` mean when the table side would pass
    ``MAX_ORACLE_STATES``. The cap lies above the mean, so a mean at or past
    the bound is rejected before the O(mean) quantile search."""
    cap = _poisson_quantile(mean, 1e-12) + 10 if mean < MAX_ORACLE_STATES else math.inf
    if cap + 1 > MAX_ORACLE_STATES:
        raise ParameterError(
            f"{whose} observed mean {mean:.6g} puts the pair-law oracle's table past "
            f"{MAX_ORACLE_STATES} states a side; lower the observed mean"
        )
    return cap


def joint_pmf_oracle(model: UnderreportedModel) -> np.ndarray:
    """Stationary joint pmf of two consecutive observed counts, in closed form.

    Returns a ``(support_cap + 1, support_cap + 1)`` float64 array ``joint``
    whose entry ``joint[a, b]`` is the probability of observing a and then b.

    Thinning colours a Poisson population into independent Poisson classes,
    so with m the observed mean and r the lag-1 autocorrelation
    (:func:`theoretical_observed_moments`) the pair is bivariate Poisson: the
    individuals seen at both steps, Poisson(m r), plus independent
    Poisson(m (1 - r)) parts seen at only one of them,

        P(a, b) = sum_k Pois(a - k; m (1 - r)) Pois(k; m r) Pois(b - k; m (1 - r)).

    The law depends on (m, r) alone, so every member of a class gives the
    same table. Observed values are kept up to ``support_cap``, 10 above the
    point leaving 1e-12 of Poisson(m). Raises ParameterError if that table
    would be more than ``MAX_ORACLE_STATES`` a side
    (:func:`_oracle_support_cap`), and TruncationError if the retained joint
    mass (the table's sum) is not above 1 - 1e-8, which this cut never leaves.
    """
    m, _, acf = theoretical_observed_moments(model)
    r = acf[0]
    support_cap = _oracle_support_cap(m)
    # single[a, k] = Pois(a - k; m (1 - r)), zero above the diagonal.
    xs = np.arange(support_cap + 1)
    single = np.tril(_poisson_pmf(m * (1.0 - r), support_cap)[np.abs(xs[:, None] - xs)])
    joint = (single * _poisson_pmf(m * r, support_cap)) @ single.T
    mass = float(joint.sum())
    if mass <= 1.0 - 1e-8:
        raise TruncationError(
            f"the pair-law oracle retained joint mass {mass}, below 1 - 1e-8"
        )
    return joint


def _z_score(estimate: float, target: float, se: float) -> float | None:
    """(estimate - target) / se; 0 for a zero SE on target, None if undefined."""
    if se > 0.0:
        return (estimate - target) / se
    if se == 0.0 and estimate == target:
        return 0.0
    return None


def _p_value(z: float | None, df: float = math.inf) -> float | None:
    """Two-sided p-value of a normal score, or with finite ``df`` of a Student t
    (a batch-means score over df + 1 rows, mapped to the normal scale by
    z (1 - 1/(4 df)) / sqrt(1 + z^2 / (2 df)): within 20% of the exact tail
    for p >= 1e-5 at df >= 49); None where the score is undefined."""
    if z is None:
        return None
    if df != math.inf:
        z = z * (1.0 - 1.0 / (4.0 * df)) / math.sqrt(1.0 + z * z / (2.0 * df))
    return math.erfc(abs(z) / math.sqrt(2.0))


@dataclass(frozen=True)
class Gate:
    """One gate of a verdict. A scored gate (:func:`_scored`) has a p-value; an
    exact gate has ``p_value`` None and sets ``passed`` itself. ``values``
    holds what its JSON entry prints besides the fields."""

    name: str
    z: float | None
    p_value: float | None
    passed: bool
    values: dict

    def to_json_dict(self) -> dict:
        return {"name": self.name, **self.values, "z": self.z, "p_value": self.p_value,
                "passed": self.passed}


def _scored(name: str, z: float | None, p_value: float | None, p_floor: float, **values) -> Gate:
    """The gate of a p-value: it passes at p >= ``p_floor`` and fails where the
    p-value is undefined (None)."""
    return Gate(name, z, p_value, p_value is not None and p_value >= p_floor, values)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the algebraic-plus-statistical equivalence test. Its gates, in
    order: ``canonical_form`` (exact), the seven statistics, then each pair cell's
    gate per spec, ``pair_{a}_{b}_spec_{i}``. It passes when none fails; no
    gate reads ``tv_marginal``, a descriptive distance."""

    canonical: Gate  # canonical_form; its values are the canonical deltas
    stats: tuple[Gate, ...]
    cells: tuple[Gate, ...]  # per pair cell, the first spec's gate and then the second's
    bin_starts: list[int]
    tv_marginal: float
    p_floor: float
    seeds: dict[str, int]
    n: dict[str, int]

    @property
    def canonical_delta(self) -> dict[str, float]:
        return self.canonical.values

    @property
    def failed_gates(self) -> list[str]:
        return [g.name for g in (self.canonical, *self.stats, *self.cells) if not g.passed]

    @property
    def passed(self) -> bool:
        return not self.failed_gates

    def to_json_dict(self) -> dict:
        cells = [{**g1.values, "z_1": g1.z, "p_1": g1.p_value,
                  **g2.values, "z_2": g2.z, "p_2": g2.p_value}
                 for g1, g2 in zip(self.cells[::2], self.cells[1::2])]
        return {
            "canonical_delta": self.canonical_delta,
            "stats": [s.to_json_dict() for s in self.stats],
            "pair_cells": {"bin_starts": self.bin_starts, "cells": cells},
            "tv_marginal": self.tv_marginal,
            "level": LEVEL,
            "p_floor": self.p_floor,
            "verdict": "pass" if self.passed else "fail",
            "failed_gates": self.failed_gates,
            "seeds": self.seeds,
            "n": self.n,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False)


def _observed_series(model: UnderreportedModel, t_len: int, stream: RngStream) -> CountSeries:
    """The latent series and then its thinning, both drawn from ``stream``."""
    latent = simulate_inar_inf(model.latent, t_len, stream)
    if model.q == 1.0:
        return latent
    return apply_reporting(latent, ReportingSpec(q=model.q), stream)


def _batch_rows(values: np.ndarray, labels: np.ndarray, width: int) -> np.ndarray:
    """Per-batch mean, variance, acf_1..MAX_LAG (0 for a batch with zero variance)
    and frequencies of binned consecutive pairs, column 2 + MAX_LAG + a * width + b
    for cell (a, b); a value past the oracle's support takes the last value's bin."""
    ints = _batches(values)
    batches = ints.astype(np.float64)
    m = batches.shape[1]
    means = batches.mean(axis=1, keepdims=True)
    centred = batches - means
    # lagged[:, k] = sum_j c_j c_{j+k} within each batch; column 0 is the sum of squares.
    lagged = np.column_stack(
        [(centred[:, : m - k] * centred[:, k:]).sum(axis=1) for k in range(MAX_LAG + 1)]
    )
    cells = width * width
    rows = np.zeros((BATCH_COUNT, 2 + MAX_LAG + cells))
    rows[:, 0] = means[:, 0]
    rows[:, 1] = lagged[:, 0] / (m - 1)
    np.divide(lagged[:, 1:], lagged[:, :1], out=rows[:, 2 : 2 + MAX_LAG],
              where=lagged[:, :1] > 0)
    if width:
        bins = np.take(labels, ints, mode="clip")
        codes = bins[:, :-1] * width + bins[:, 1:] + (np.arange(BATCH_COUNT) * cells)[:, None]
        counts = np.bincount(codes.ravel(), minlength=BATCH_COUNT * cells)
        rows[:, 2 + MAX_LAG :] = counts.reshape(BATCH_COUNT, cells) / (m - 1)
    return rows


def _pair_bins(oracle: np.ndarray, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """The bin of each value the oracle covers and the oracle's mass in each
    cell of two consecutive bins, for the pair-cell gates.

    Tries 4, 3, then 2 bins of about equal mass, cut where the marginal cdf
    first reaches j / bins, and keeps the first whose rarest cell expects at
    least 5 of the ``pairs`` in a batch. Both are empty when even 2 bins fail.
    """
    cdf = np.cumsum(oracle.sum(axis=1))
    values = np.arange(cdf.size)
    for bins in (4, 3, 2):
        # sorted(set()), not np.unique, which imports numpy.ma (about 1 MB).
        edges = sorted(set(np.searchsorted(cdf, np.arange(1, bins) / bins).tolist()))
        labels = np.searchsorted(edges, values)
        width = len(edges) + 1
        codes = labels[:, None] * width + labels[None, :]
        cells = np.bincount(codes.ravel(), weights=oracle.ravel(), minlength=width * width)
        if cells.min() * pairs >= 5.0:
            return labels, cells.reshape(width, width)
    return values[:0], np.zeros((0, 0))


def _pooled_pmf(samples: list[np.ndarray]) -> np.ndarray:
    """Pooled pmf of the values, indexed by value."""
    pooled = np.concatenate(samples)
    return np.bincount(pooled) / pooled.size


def equivalence_mc_test(
    m1: UnderreportedModel,
    m2: UnderreportedModel,
    t_len: int,
    reps: int,
    master_seed: RngStream,
) -> EquivalenceReport:
    """Test whether two models generate the same observed process.

    Canonical forms are compared exactly; the observed processes are then
    simulated, ``reps`` replicates each, on one substream of ``master_seed``
    per replicate that draws the latent series and then its thinning. The
    gates are batch-means scores over each model's reps * 50 batches:
    two-sample scores of the mean, variance and autocorrelations, and per
    model one-sample scores of its binned consecutive-pair frequencies
    against the pair-law oracle of the first model's class
    (:func:`_pair_bins`). The verdict passes only if the canonical forms
    agree and each of the k scores has p >= LEVEL / k.

    The report is a pure function of the inputs and the master seed.
    """
    if t_len < 10_000:
        raise ParameterError(f"t_len must be at least 10000, got {t_len}")
    if reps < 1:
        raise ParameterError(f"reps must be at least 1, got {reps}")
    # Before any draw, bound the simulations' steps and working arrays, and
    # both specs' observed means by the oracle's table: the second spec's
    # values are binned and counted too. Then build the first spec's oracle.
    _require_steps(reps * t_len, "reps times series length")
    for whose, model in (("the first spec's", m1), ("the second spec's", m2)):
        _require_geom_block_size(model.latent)
        _oracle_support_cap(theoretical_observed_moments(model)[0], whose)
    c1, c2 = canonicalize(m1), canonicalize(m2)
    oracle = joint_pmf_oracle(m1)
    labels, target = _pair_bins(oracle, t_len // BATCH_COUNT - 1)
    width = target.shape[0]

    samples = [
        [
            _observed_series(model, t_len, master_seed.substream((idx << 32) + r)).values
            for r in range(reps)
        ]
        for idx, model in enumerate((m1, m2))
    ]
    df = reps * BATCH_COUNT - 1
    summaries = []  # per model: column means of its batch rows and their standard errors
    for sample in samples:
        rows = np.vstack([_batch_rows(v, labels, width) for v in sample])
        summaries.append((rows.mean(axis=0), rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])))
    (est1, se1), (est2, se2) = summaries
    names = ["mean", "variance"] + [f"acf_{k}" for k in range(1, MAX_LAG + 1)]
    p_floor = LEVEL / (len(names) + 2 * width * width)

    def gate(name: str, estimate: float, expected: float, se: float, **values) -> Gate:
        z = _z_score(estimate, expected, se)
        return _scored(name, z, _p_value(z, df), p_floor, **values)

    delta = {"lambda": c1.lambda_star - c2.lambda_star, "alpha": c1.alpha_star - c2.alpha_star,
             "q": c1.q_star - c2.q_star}
    canonical = Gate("canonical_form", None, None, (
        abs(delta["lambda"]) <= CANONICAL_TOL * max(1.0, abs(c1.lambda_star))
        and abs(delta["alpha"]) <= CANONICAL_TOL and abs(delta["q"]) <= CANONICAL_TOL), delta)
    stats = tuple(gate(name, e1, e2, math.hypot(s1, s2), value_1=e1, value_2=e2)
                  for name, e1, e2, s1, s2 in zip(names, est1.tolist(), est2.tolist(),
                                                  se1.tolist(), se2.tolist()))
    cells = []  # one gate per cell and spec, the cells in row-major order
    for a, b in np.ndindex(width, width):
        col, t = 2 + MAX_LAG + a * width + b, float(target[a, b])
        for idx, (est, se) in enumerate(summaries, start=1):
            e = float(est[col])
            cells.append(gate(f"pair_{a}_{b}_spec_{idx}", e, t, float(se[col]),
                              cell=[a, b], target=t, **{f"estimate_{idx}": e}))
    return EquivalenceReport(
        canonical=canonical,
        stats=stats,
        cells=tuple(cells),
        bin_starts=np.flatnonzero(np.diff(labels, prepend=-1)).tolist(),
        tv_marginal=total_variation(*map(_pooled_pmf, samples)),
        p_floor=p_floor,
        seeds={"seed": master_seed.seed, "stream_id": master_seed.stream_id},
        n={"t_len": t_len, "reps": reps, "total": t_len * reps},
    )


@dataclass(frozen=True)
class TraceCheckReport:
    checks: tuple[Gate, ...]
    n: int
    p_floor: float

    @property
    def failed_gates(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    @property
    def all_passed(self) -> bool:
        return not self.failed_gates

    def to_json_dict(self) -> dict:
        return {
            "checks": [c.to_json_dict() for c in self.checks],
            "all_passed": self.all_passed,
            "failed_gates": self.failed_gates,
            "level": LEVEL,
            "p_floor": self.p_floor,
            "n": self.n,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False)


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


def _pearson(name: str, counts: np.ndarray, probs: np.ndarray, p_floor: float) -> Gate:
    """Pearson chi-square of ``counts[k]``, the count of value k, against the
    non-increasing probabilities ``probs[k]``, given for k <= n // 5 at least.

    Each value has its own bin while it expects 5 of the n counts (none past
    n // 5 can); the rest pool into a tail bin, which joins the last bin when
    it expects fewer than 5. With fewer than two bins the check passes.
    """
    n = float(counts.sum())
    expected = n * probs
    bins = int(np.count_nonzero(expected >= 5.0))
    if bins and n - expected[:bins].sum() < 5.0:
        bins -= 1  # the tail joins the last bin
    if bins == 0:
        return Gate(name, None, None, True, {"target": None, "estimate": None, "detail": {
            "note": "too few counts for a binned test", "n": int(n)}})
    observed = np.zeros(bins + 1)
    observed[: min(bins, counts.size)] = counts[:bins]
    observed[bins] = n - observed.sum()
    expected = np.append(expected[:bins], n - expected[:bins].sum())
    stat = float(((observed - expected) ** 2 / expected).sum())
    return _scored(name, None, _chi2_sf(stat, expected.size - 1), p_floor,
                   target=None, estimate=None,
                   detail={"chi2": stat, "bins": int(expected.size), "n": int(n)})


def individual_level_checks(trace: PopulationTrace) -> TraceCheckReport:
    """Verify the distributional decomposition of an individual-level trace
    against the fully observed image, :func:`absorb_reporting`, of the
    parameters (lambda, alpha, q) that generated it, ``trace.params``.

    Four stochastic checks, each passing at p >= LEVEL / 4, and one exact.
    From the empty start, first observations at step t of individuals born
    at t - i are independent Poisson(q lambda decay^i) over (t, i), with
    decay = alpha (1 - q), the image's gamma: a colouring of the Poisson
    births, the image's immigrants. So ``first_obs_mean`` scores their total
    O against its expectation E as (O - E) / sqrt(E) (its ``target`` is the
    image's rate), and ``first_obs_rates`` is a Pearson chi-square of their
    ages given O. ``gap_distribution`` is a Pearson chi-square of the
    re-observation gaps against the image's gaps, Geom(1 - decay) on
    {1, 2, ...}; ``reobservation_fraction`` scores the count S of the O
    observations seen again, without the censored end, as (S - pO) /
    sqrt(p (1 - p) O): given the past, an observation is seen again with
    the image's persistence p = alpha q / (1 - decay).
    ``observation_split_identity``, the split of observed counts into first
    and repeat observations, is an identity that holds by construction (the
    trace derives all three series from one partition of its individuals'
    observations), so it is an exact gate and not one of the four scored.
    """
    lam, alpha, q = trace.params
    t_len = len(trace)
    image = absorb_reporting(Inar1Spec(lam, alpha), q)
    decay = image.gamma  # survival while staying unobserved
    p_floor = LEVEL / 4

    # The image's rate times sum_{i < T} (1 - decay^(i + 1)), the first-observation
    # rate at step i of the empty start.
    expected = image.lambda_ * (t_len - decay * (1.0 - decay**t_len) / (1.0 - decay))
    first = int(trace.u_total.sum())
    z = _z_score(first, expected, math.sqrt(expected))
    checks = [_scored("first_obs_mean", z, _p_value(z), p_floor, target=image.lambda_,
                      estimate=first / t_len, detail={"count": first, "expected": expected})]
    _, age, count = trace.u_counts.T
    ages = np.arange(min(t_len, first // 5 + 1))
    checks.append(_pearson("first_obs_rates", np.bincount(age, weights=count),
                           q * lam * decay**ages * (t_len - ages) / expected, p_floor))

    n_gaps = int(trace.gaps.sum())
    if decay == 0.0 and n_gaps:
        ones = int(trace.gaps[1])
        checks.append(Gate("gap_distribution", None, None, ones == n_gaps, {
            "target": 1.0, "estimate": ones / n_gaps,
            "detail": {"note": "degenerate: every re-observation gap must be 1"}}))
    else:
        gaps = np.arange(n_gaps // 5 + 1)
        checks.append(_pearson("gap_distribution", trace.gaps[1:],
                               (1.0 - decay) * decay**gaps, p_floor))

    # Leave out the steps whose later observations the horizon may censor:
    # until decay**w < 1e-12, at most a quarter of the trace.
    settle = min(math.ceil(math.log(1e-12) / math.log(decay)) if decay else 1, max(1, t_len // 4))
    observed = int(trace.x_tilde[: t_len - settle].sum())
    seen_again = int(trace.b_tilde[: t_len - settle].sum())
    target_frac = image.total_weight
    if observed == 0:
        checks.append(Gate("reobservation_fraction", None, None, True, {"target": target_frac,
                           "estimate": None, "detail": {"note": "no observations occurred"}}))
    else:
        z = _z_score(seen_again, target_frac * observed,
                     math.sqrt(target_frac * (1.0 - target_frac) * observed))
        checks.append(_scored("reobservation_fraction", z, _p_value(z), p_floor,
                              target=target_frac, estimate=seen_again / observed,
                              detail={"count": seen_again, "observations": observed}))

    split_ok = bool((trace.x_tilde == trace.u_total + trace.v_total).all())
    checks.append(Gate("observation_split_identity", None, None, split_ok,
                       {"target": 1.0, "estimate": 1.0 if split_ok else 0.0}))
    return TraceCheckReport(checks=tuple(checks), n=t_len, p_floor=p_floor)
