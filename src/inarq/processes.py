"""Count-process simulators.

Covers the latent integer-valued autoregressions (first order, finite order
p, and the geometric-lag infinite-order process), the thinning-based
reporting mechanisms that turn a latent series into an observed one, and an
individual-level birth/survival/observation simulator whose aggregates
reproduce the same laws.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, UnsupportedMechanismError
from .sampling import (  # noqa: F401  (perfbench/tracer.py wraps the scalar draws here)
    RngStream,
    binomial_thin,
    geometric_draws,
    multinomial_allocate,
    poisson_draw,
)


# Largest rate numpy's Poisson sampler accepts (its POISSON_LAM_MAX).
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max))


def _require_rate(lam: float) -> None:
    if not (math.isfinite(lam) and 0 < lam <= _POISSON_LAM_MAX):
        raise ParameterError(
            f"immigration rate must be positive, finite and at most {_POISSON_LAM_MAX:.6g} "
            f"(the largest Poisson rate that can be sampled), got {lam}"
        )


@dataclass(frozen=True)
class Inar1Spec:
    """First-order process: X_t = alpha ∘ X_{t-1} + Poisson(lambda) immigration."""

    lambda_: float
    alpha: float

    def __post_init__(self):
        _require_rate(self.lambda_)
        if not 0.0 <= self.alpha < 1.0:
            raise ParameterError(f"survival probability must lie in [0, 1), got {self.alpha}")

    @property
    def stationary_mean(self) -> float:
        return self.lambda_ / (1.0 - self.alpha)


@dataclass(frozen=True)
class InarPSpec:
    """Order-p process with one thinning weight per lag; weights must sum below 1."""

    lambda_: float
    alphas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        _require_rate(self.lambda_)
        if not all(a >= 0 and math.isfinite(a) for a in self.alphas):
            raise ParameterError("lag weights must be finite and nonnegative")
        if math.fsum(self.alphas) >= 1.0:
            raise ParameterError(
                f"lag weights must sum below 1, got {math.fsum(self.alphas)}"
            )

    @property
    def total_weight(self) -> float:
        return math.fsum(self.alphas)

    @property
    def stationary_mean(self) -> float:
        return self.lambda_ / (1.0 - self.total_weight)


@dataclass(frozen=True)
class GeomInarSpec:
    """Infinite-order process with geometrically decaying lag weights.

    Lag i carries weight beta * gamma**(i-1). Requires 0 <= beta < 1 - gamma
    and gamma >= 0; beta = 0 or gamma = 0 are admitted boundary cases (i.i.d.
    Poisson and first-order degenerations).
    """

    lambda_: float
    beta: float
    gamma: float

    def __post_init__(self):
        _require_rate(self.lambda_)
        if self.gamma < 0:
            raise ParameterError(f"decay factor must be nonnegative, got {self.gamma}")
        if not 0.0 <= self.beta < 1.0 - self.gamma:
            raise ParameterError(
                f"lag-1 weight must satisfy 0 <= beta < 1 - gamma, got "
                f"beta={self.beta}, gamma={self.gamma}"
            )

    @property
    def total_weight(self) -> float:
        """Sum of all lag weights, beta / (1 - gamma) in closed form."""
        return self.beta / (1.0 - self.gamma)

    @property
    def stationary_mean(self) -> float:
        return self.lambda_ * (1.0 - self.gamma) / (1.0 - self.beta - self.gamma)


@dataclass(frozen=True)
class ReportingSpec:
    """Observation mechanism: with probability omega the count is thinned by q,
    otherwise it is reported completely."""

    q: float
    omega: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ParameterError(f"reporting probability must lie in (0, 1], got {self.q}")
        if not 0.0 <= self.omega <= 1.0:
            raise ParameterError(
                f"underreported-state probability must lie in [0, 1], got {self.omega}"
            )


@dataclass(frozen=True)
class CountSeries:
    """Immutable simulated (or observed) count series with its provenance."""

    values: np.ndarray
    seed: tuple[int, int]
    burn_in: int
    model_tag: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.ndim != 1 or v.size == 0:
            raise ParameterError("a count series must be a nonempty 1-d array")
        if (v < 0).any():
            raise ParameterError("counts must be nonnegative")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def to_csv(self) -> str:
        lines = ["t,count"]
        lines.extend(f"{t},{c}" for t, c in enumerate(self.values.tolist()))
        return "\n".join(lines) + "\n"


# Rows formatted per write in write_series_csv; bounds the string built at once.
_CSV_CHUNK_ROWS = 1 << 16


def write_series_csv(series: CountSeries, path) -> None:
    """Write ``series.to_csv()`` to ``path``, formatting a chunk of rows at a time."""
    values = series.values.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,count\n")
        for start in range(0, len(values), _CSV_CHUNK_ROWS):
            chunk = values[start : start + _CSV_CHUNK_ROWS]
            fh.write("".join(f"{t},{c}\n" for t, c in enumerate(chunk, start)))


def _default_burn_in(total_weight: float) -> int:
    # Scales with the mean-recursion mixing time; floor of 500 steps.
    return max(500, math.ceil(50.0 / (1.0 - total_weight)))


# Expected appearances per block of steps: bounds the kernel's working arrays.
_BLOCK_APPEARANCES = 1 << 15


def _run_chains(
    lam: float, rho: float, gap_draw, steps: int, rng: RngStream, initial: int = 0
) -> tuple[np.ndarray, dict[str, int]]:
    """Counts of an immigrant-chain process over ``steps`` steps.

    Each step Poisson(lam) immigrants arrive (plus ``initial`` at step 0).
    Each makes a chain of Geom(1 - rho) appearances: the first at its arrival
    step, the next ones after gaps drawn by ``gap_draw(k)`` (k gaps, each
    >= 1). The count at a step is the number of appearances there. Immigrants
    are drawn in blocks of about ``_BLOCK_APPEARANCES`` expected appearances,
    each block's chains laid out whole; appearances past the horizon are
    dropped. Returns the counts and the numbers of chains, appearances drawn
    and appearances dropped.
    """
    out = np.zeros(steps, dtype=np.int64)
    block = int(min(steps, max(1.0, _BLOCK_APPEARANCES * (1.0 - rho) / lam)))
    chains = appearances = 0
    for t0 in range(0, steps, block):
        width = min(block, steps - t0)
        starts = rng.generator.poisson(lam, width)
        starts[0] += initial if t0 == 0 else 0
        n = int(starts.sum())
        lengths = geometric_draws(1.0 - rho, n, rng)
        total = int(lengths.sum())
        chains += n
        appearances += total
        times = np.repeat(np.arange(t0, t0 + width), starts)
        if total > n:
            # Segmented cumsum: each chain's first slot holds a zero gap, so
            # the running sum less its value there is the chain's elapsed time.
            firsts = np.cumsum(lengths) - lengths
            later = np.ones(total, dtype=bool)
            later[firsts] = False
            elapsed = np.zeros(total, dtype=np.int64)
            elapsed[later] = gap_draw(total - n)
            np.cumsum(elapsed, out=elapsed)
            times = np.repeat(times - elapsed[firsts], lengths) + elapsed
        counts = np.bincount(times[times < steps] - t0)
        out[t0 : t0 + counts.size] += counts
    beyond = appearances - int(out.sum())
    return out, {"chains": chains, "appearances": appearances, "beyond": beyond}


def _chain_series(lam, rho, gap_draw, t_len, burn_in, rng, model_tag, initial_mean=0.0):
    """Run the chain kernel for ``burn_in + t_len`` steps; keep the last ``t_len``."""
    if t_len < 1:
        raise ParameterError(f"series length must be at least 1, got {t_len}")
    if burn_in < 0:
        raise ParameterError(f"burn-in must be nonnegative, got {burn_in}")
    initial = poisson_draw(initial_mean, rng)
    out, _ = _run_chains(lam, rho, gap_draw, burn_in + t_len, rng, initial)
    return CountSeries(out[burn_in:], rng.identity, burn_in, model_tag)


def simulate_inar1(
    spec: Inar1Spec, t_len: int, rng: RngStream, burn_in: int = 0
) -> CountSeries:
    """Simulate the first-order process as immigrant chains.

    Poisson(lambda) immigrants per step, each present for Geom(1 - alpha)
    consecutive steps (every gap is 1). The start is exactly stationary:
    Poisson(lambda * alpha / (1 - alpha)) chains are already under way at
    step 0, with Geom(1 - alpha) remaining lengths by memorylessness, so the
    step-0 count is Poisson(lambda / (1 - alpha)). No burn-in is needed;
    ``burn_in`` extra steps are still simulated and discarded if requested.
    Returns the last ``t_len`` (at least 1) steps.
    """
    return _chain_series(
        spec.lambda_, spec.alpha, lambda k: np.ones(k, dtype=np.int64), t_len, burn_in,
        rng, f"inar1(lambda={spec.lambda_},alpha={spec.alpha})",
        initial_mean=spec.stationary_mean * spec.alpha,
    )


def simulate_inar_p(
    spec: InarPSpec, t_len: int, rng: RngStream, burn_in: int | None = None
) -> CountSeries:
    """Simulate the order-p process as immigrant chains.

    Poisson(lambda) immigrants per step, each appearing Geom(1 - sum of
    weights) times, with gaps drawn from lags 1..p in proportion to the
    weights. An appearance at t thus has a successor at t + i with
    probability alpha_i, so the lag-i contribution is marginally
    Binomial(X_t, alpha_i) and the contributions never exceed X_t in total.
    History before the start is empty; ``burn_in`` steps (default scales
    with mixing time) are discarded.
    """
    total = spec.total_weight
    lag_probs = np.array(spec.alphas) / total if total > 0 else None
    return _chain_series(
        spec.lambda_, total, lambda k: rng.generator.choice(len(spec.alphas), k, p=lag_probs) + 1,
        t_len, _default_burn_in(total) if burn_in is None else burn_in, rng,
        f"inar_p(lambda={spec.lambda_},alphas={list(spec.alphas)})",
    )


def simulate_inar_inf(
    spec: GeomInarSpec, t_len: int, rng: RngStream, burn_in: int | None = None
) -> CountSeries:
    """Simulate the geometric-lag infinite-order process as immigrant chains.

    Poisson(lambda) immigrants per step, each appearing
    Geom(1 - beta/(1-gamma)) times, with Geom(1 - gamma) gaps on {1, 2, ...}.
    An appearance at t thus has a successor at t + i with probability
    beta * gamma**(i-1), the lag-i weight. Gaps are never truncated. History
    before the start is empty; ``burn_in`` steps (default
    max(500, ceil(50/(1-beta-gamma)))) are discarded.
    """
    return _chain_series(
        spec.lambda_, spec.total_weight,
        lambda k: geometric_draws(1.0 - spec.gamma, k, rng), t_len,
        _default_burn_in(spec.beta + spec.gamma) if burn_in is None else burn_in, rng,
        f"geom_inf(lambda={spec.lambda_},beta={spec.beta},gamma={spec.gamma})",
    )


def apply_reporting(
    series: CountSeries, rep: ReportingSpec, rng: RngStream
) -> CountSeries:
    """Thin a series through the reporting mechanism.

    Independently at each step, with probability ``omega`` the reported count
    is a Binomial(X_t, q) thinning of the true one, otherwise the true count
    is reported. ``omega = 1`` is always-thinned reporting; ``omega = 0`` or
    ``q = 1`` reproduce the input values.
    """
    values = series.values
    g = rng.generator
    if rep.omega == 0.0:
        reported = values.copy()
    elif rep.omega == 1.0:
        reported = g.binomial(values, rep.q)
    else:
        underreported = g.random(values.size) < rep.omega
        thinned = g.binomial(values, rep.q)
        reported = np.where(underreported, thinned, values)
    return CountSeries(
        values=reported.astype(np.int64),
        seed=rng.identity,
        burn_in=series.burn_in,
        model_tag=f"{series.model_tag}|reported(q={rep.q},omega={rep.omega})",
    )


@dataclass(frozen=True)
class PopulationTrace:
    """Aggregated individual-level history of births, survival and observation.

    Per-step arrays (all of equal length):
      x        alive individuals,
      x_tilde  observed individuals,
      u_total  observed for the first time,
      v_total  observed before and observed again now,
      b_tilde  observed now and observed again at some later step.

    Sparse decompositions:
      u_counts maps (t, i) to the number first observed at t and born at t-i;
      v_counts maps (t, i) to the number observed at t whose previous
      observation was at t-i; gaps aggregates those re-observation gaps i.

    ``individuals`` holds one (birth, death, observation times) record per
    individual, with death None for those still alive at the end; every
    observation time lies in [birth, death).
    """

    x: np.ndarray
    x_tilde: np.ndarray
    u_total: np.ndarray
    v_total: np.ndarray
    b_tilde: np.ndarray
    u_counts: dict[tuple[int, int], int] = field(repr=False)
    v_counts: dict[tuple[int, int], int] = field(repr=False)
    gaps: dict[int, int] = field(repr=False)
    individuals: tuple = field(repr=False)
    params: tuple[float, float, float]  # (lambda, alpha, q) that generated it
    seed: tuple[int, int]

    def __post_init__(self):
        for name in ("x", "x_tilde", "u_total", "v_total", "b_tilde"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.x_tilde == self.u_total + self.v_total).all():
            raise ParameterError(
                "observed counts must split exactly into first and repeat observations"
            )
        for birth, death, obs in self.individuals:
            end = death if death is not None else math.inf
            if any(not birth <= o < end for o in obs):
                raise ParameterError(
                    "observation times must lie within the individual's lifetime"
                )

    def __len__(self) -> int:
        return int(self.x.size)

    def to_csv(self) -> str:
        rows = zip(*(c.tolist() for c in (self.x, self.x_tilde, self.u_total, self.v_total)))
        lines = ["t,x,x_tilde,u_total,v_total"]
        lines.extend(f"{t},{x},{xt},{u},{v}" for t, (x, xt, u, v) in enumerate(rows))
        return "\n".join(lines) + "\n"

    def to_long_csv(self) -> str:
        rows = [(t, i, "u", c) for (t, i), c in self.u_counts.items()]
        rows.extend((t, i, "v", c) for (t, i), c in self.v_counts.items())
        rows.sort()
        lines = ["t,i,kind,count"]
        lines.extend(f"{t},{i},{kind},{c}" for t, i, kind, c in rows)
        return "\n".join(lines) + "\n"


def write_trace_csv(trace: PopulationTrace, path, long_path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace.to_csv())
    with open(long_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace.to_long_csv())


def simulate_individual_level(
    spec: Inar1Spec, rep: ReportingSpec, t_len: int, rng: RngStream
) -> PopulationTrace:
    """Simulate the population individual by individual and aggregate it.

    Each step, Poisson(lambda) individuals are born; every individual present
    survives to the next step with probability alpha and, while alive, is
    observed with probability q at each step, all independently. The alive
    count then follows the first-order autoregression and the observed count
    its thinned version, which is what makes the aggregated trace a useful
    cross-check for the process-level simulators.

    Only time-homogeneous reporting is supported (``omega`` must be 1).
    Dead individuals are retired from the working set immediately, so memory
    tracks the alive population, not the elapsed time.
    """
    if rep.omega != 1.0:
        raise UnsupportedMechanismError(
            "individual-level simulation requires always-thinned reporting (omega = 1)"
        )
    if t_len < 1:
        raise ParameterError(f"series length must be at least 1, got {t_len}")
    g = rng.generator
    q = rep.q
    alpha = spec.alpha

    births: list[int] = []
    last_obs: list[int] = []  # -1 while never observed
    obs_times: list[list[int]] = []

    x = np.zeros(t_len, dtype=np.int64)
    x_tilde = np.zeros(t_len, dtype=np.int64)
    u_total = np.zeros(t_len, dtype=np.int64)
    v_total = np.zeros(t_len, dtype=np.int64)
    b_tilde = np.zeros(t_len, dtype=np.int64)
    u_counts: dict[tuple[int, int], int] = defaultdict(int)
    v_counts: dict[tuple[int, int], int] = defaultdict(int)
    gaps: dict[int, int] = defaultdict(int)
    records: list[tuple[int, int | None, tuple[int, ...]]] = []

    for t in range(t_len):
        for _ in range(poisson_draw(spec.lambda_, rng)):
            births.append(t)
            last_obs.append(-1)
            obs_times.append([])
        n = len(births)
        x[t] = n
        if n == 0:
            continue

        observed = g.random(n) < q
        x_tilde[t] = int(observed.sum())
        for j in np.nonzero(observed)[0]:
            prev = last_obs[j]
            if prev < 0:
                age = t - births[j]
                u_counts[(t, age)] += 1
                u_total[t] += 1
            else:
                gap = t - prev
                v_counts[(t, gap)] += 1
                v_total[t] += 1
                gaps[gap] += 1
                b_tilde[prev] += 1  # the previous observation now has a successor
            last_obs[j] = t
            obs_times[j].append(t)

        survives = g.random(n) < alpha
        keep = np.nonzero(survives)[0]
        for j in np.nonzero(~survives)[0]:
            records.append((births[j], t + 1, tuple(obs_times[j])))
        births = [births[j] for j in keep]
        last_obs = [last_obs[j] for j in keep]
        obs_times = [obs_times[j] for j in keep]

    records.extend(
        (births[j], None, tuple(obs_times[j])) for j in range(len(births))
    )

    return PopulationTrace(
        x=x,
        x_tilde=x_tilde,
        u_total=u_total,
        v_total=v_total,
        b_tilde=b_tilde,
        u_counts=dict(u_counts),
        v_counts=dict(v_counts),
        gaps=dict(gaps),
        individuals=tuple(records),
        params=(spec.lambda_, spec.alpha, q),
        seed=rng.identity,
    )
